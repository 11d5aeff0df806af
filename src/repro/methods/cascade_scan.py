"""Cascade-Scan — sequential scan through the full vectorized cascade.

The logical extension of LB-Scan along the lower-bound axis: instead of
one per-sequence ``D_lb`` evaluation, the whole database flows through
the tiered cascade (``lb_yi -> lb_kim [-> lb_keogh] -> dtw``) whose
cheap tiers run as matrix operations over the precomputed feature
store.  Same I/O as every scan (the heap file is read in full), same
guarantee as every tier (no false dismissal), but the filter's CPU cost
is a handful of NumPy kernels rather than ``O(n)`` Python-level bound
evaluations — and its candidate set is at least as tight as
TW-Sim-Search's, since the ``lb_kim`` tier applies the same bound the
R-tree range query does.

The Keogh tier participates only in band-constrained searches
(``band_radius``), where its envelope bound is sound; unconstrained
searches run the two feature tiers.  :meth:`CascadeScan.search_many`
batches queries through :meth:`~repro.core.cascade.FilterCascade.
run_many`, amortizing feature extraction and the scan I/O across the
whole batch.
"""

from __future__ import annotations

import time
from typing import Iterable

from ..core.cascade import DEFAULT_TIERS, FeatureStore, FilterCascade, scan_cascade
from ..exceptions import ValidationError
from ..types import Sequence, SequenceLike, as_sequence
from .base import MethodStats, SearchMethod, SearchReport

__all__ = ["CascadeScan"]


class CascadeScan(SearchMethod):
    """Sequential scan filtered by the tiered vectorized cascade.

    Parameters
    ----------
    database:
        The sequence database to search.
    band_radius:
        When given, verification uses Sakoe–Chiba-constrained DTW and
        the ``lb_keogh`` envelope tier activates (it bounds only the
        band-constrained distance).
    compute_distances:
        As in :class:`~repro.methods.base.SearchMethod`.
    """

    name = "Cascade-Scan"

    def __init__(
        self,
        database,
        *,
        band_radius: int | None = None,
        compute_distances: bool = False,
    ) -> None:
        super().__init__(database, compute_distances=compute_distances)
        if band_radius is not None and band_radius < 0:
            raise ValidationError(
                f"band_radius must be non-negative, got {band_radius}"
            )
        self._band_radius = band_radius
        self._cascade: FilterCascade | None = None

    @property
    def band_radius(self) -> int | None:
        """The Sakoe–Chiba radius verification is constrained to, if any."""
        return self._band_radius

    def _build_impl(self) -> None:
        """Precompute the feature store with one sequential scan."""
        self._cascade = FilterCascade(
            FeatureStore.from_database(self._db), tiers=DEFAULT_TIERS
        )

    def _scan_cascade(self) -> FilterCascade:
        """Charge one full sequential scan; return the current cascade."""
        self._cascade = scan_cascade(
            self._db, self._cascade, tiers=DEFAULT_TIERS
        )
        return self._cascade

    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        cascade = self._scan_cascade()
        store = cascade.store
        stats.sequences_read += len(store)
        stats.lower_bound_computations += len(store)

        def verifier(row: int) -> float:
            return self._verify(store.sequence(row), query, epsilon, stats)

        outcome = cascade.run(
            query.values,
            epsilon,
            band_radius=self._band_radius,
            verifier=None if self._band_radius is not None else verifier,
        )
        if self._band_radius is not None:
            # Banded verification runs inside the cascade (the method's
            # decision-only shortcut does not apply to banded DTW);
            # account for it here.
            stats.dtw_computations += outcome.stats.stage("dtw").n_in
        self._last_cascade = outcome.stats
        return outcome.answer_ids, outcome.distances, outcome.candidate_ids

    def search_many(
        self, queries: Iterable[SequenceLike], epsilon: float
    ) -> list[SearchReport]:
        """Batch form: one scan charge and one filter pass for all queries.

        Answers and candidates are identical to per-query
        :meth:`~repro.methods.base.SearchMethod.search` calls; the
        sequential-scan I/O is charged once for the batch and split
        evenly across the per-query reports.
        """
        if not self._built:
            raise ValidationError(f"{self.name} must be built before searching")
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        query_seqs = [as_sequence(query) for query in queries]
        for q in query_seqs:
            if len(q) == 0:
                raise ValidationError("query sequence must be non-empty")
        if not query_seqs:
            return []
        mark = f"{self.name}:search_many"
        self._db.io.mark(mark)
        start_cpu = time.process_time()
        cascade = self._scan_cascade()
        outcomes = cascade.run_many(
            [q.values for q in query_seqs],
            epsilon,
            band_radius=self._band_radius,
            compute_distances=self._compute_distances,
        )
        cpu = time.process_time() - start_cpu
        io = self._db.io.delta_seconds(mark)
        n = len(cascade.store)
        m = len(query_seqs)
        reports: list[SearchReport] = []
        for outcome in outcomes:
            verified = outcome.stats.stage("dtw").n_in
            stats = MethodStats(
                cpu_seconds=cpu / m,
                simulated_io_seconds=io / m,
                sequences_read=n,
                dtw_computations=verified,
                lower_bound_computations=n,
            )
            reports.append(
                SearchReport(
                    method=self.name,
                    epsilon=epsilon,
                    answers=sorted(outcome.answer_ids),
                    distances=dict(outcome.distances)
                    if self._compute_distances
                    else {},
                    candidates=sorted(outcome.candidate_ids),
                    stats=stats,
                    cascade=outcome.stats,
                )
            )
        return reports
