"""Vectorized lower-bound filter cascade over a precomputed store.

The paper's pipeline is "cheap lower bound -> candidate set -> exact DTW
verify".  This module packages that pipeline as a *staged cascade* whose
cheap tiers run as whole-database NumPy matrix operations instead of
per-sequence Python loops:

1. ``lb_yi``  — Yi et al.'s bound, which under the Definition-2
   (``L_inf``) distance depends only on the Greatest/Smallest features:
   a 2-column comparison against the ``(n, 4)`` feature matrix.
2. ``lb_kim`` — the paper's ``D_tw-lb`` (LB_Kim): all four feature
   columns.  ``LB_Yi <= LB_Kim <= D_tw`` holds pointwise, which is why
   the looser, cheaper tier runs first — in the reverse order the Yi
   tier could never prune anything.
3. ``lb_keogh`` — the envelope bound, evaluated as one matrix operation
   per equal-length group of the store.  LB_Keogh bounds the
   *band-constrained* DTW, which only exceeds the unconstrained one, so
   this tier is sound (and therefore active) only for band-constrained
   searches; sequences whose length differs from the query's pass
   through unfiltered (the classical bound requires equal lengths).
4. ``dtw`` — early-abandoning exact verification of the survivors.

Every tier admits a superset of the exact answer set (no false
dismissal); tier comparisons are made inclusive by the same float-safety
margin the R-tree query rectangle uses (:func:`~repro.core.lower_bound.
filter_margin`), so the guarantee survives floating point at the
knife edge ``lb == eps``.

:class:`FeatureStore` holds the precomputed per-sequence state (feature
matrix, raw values, equal-length value matrices); :class:`FilterCascade`
runs queries through the tiers and reports per-stage pruning counters as
a :class:`CascadeStats`.  :meth:`FilterCascade.run_many` answers a batch
of queries at once, amortizing feature extraction and evaluating the
feature tiers as a single ``(queries x sequences)`` matrix comparison
per block.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence as TypingSequence

import numpy as np

from ..distance.bands import sakoe_chiba_window
from ..distance.dtw import (
    dtw_max_early_abandon,
    dtw_max_matrix,
    dtw_max_within,
)
from ..distance.lb_keogh import lb_keogh_batch, warping_envelope
from ..exceptions import ValidationError
from ..obs.metrics import active_registry, timed
from ..storage.database import SequenceDatabase
from ..types import Sequence, SequenceLike, as_array, as_sequence
from .features import extract_feature
from .lower_bound import filter_margin

__all__ = [
    "TIER_YI",
    "TIER_KIM",
    "TIER_KEOGH",
    "STAGE_DTW",
    "DEFAULT_TIERS",
    "StageStats",
    "charged_stage",
    "CascadeStats",
    "FeatureStore",
    "CascadeOutcome",
    "FilterCascade",
    "verify_stage",
    "scan_cascade",
]

#: Stage names, in cascade order (loosest/cheapest bound first).
TIER_YI = "lb_yi"
TIER_KIM = "lb_kim"
TIER_KEOGH = "lb_keogh"
STAGE_DTW = "dtw"

DEFAULT_TIERS: tuple[str, ...] = (TIER_YI, TIER_KIM, TIER_KEOGH)

#: Feature-matrix columns each feature tier compares (paper column
#: order: first, last, greatest, smallest).  Stored as index arrays so
#: the batched kernel can fancy-index without per-query conversion.
_TIER_COLUMNS: dict[str, np.ndarray] = {
    TIER_YI: np.array((2, 3), dtype=np.intp),
    TIER_KIM: np.array((0, 1, 2, 3), dtype=np.intp),
}

#: Cap on ``queries x sequences x 4`` float64 cells materialized per
#: block of the batched feature-tier kernel (~256 MB).
_BATCH_CELL_LIMIT = 8_000_000


@dataclass(frozen=True)
class StageStats:
    """Pruning record of one cascade stage.

    Attributes
    ----------
    name:
        Stage identifier (``lb_yi``, ``lb_kim``, ``lb_keogh``, ``dtw``,
        or a method-specific stage such as the R-tree range query).
    n_in:
        Sequences entering the stage.
    n_out:
        Sequences surviving it.
    """

    name: str
    n_in: int
    n_out: int

    @property
    def pruned(self) -> int:
        """Sequences the stage eliminated."""
        return self.n_in - self.n_out

    @property
    def survival_ratio(self) -> float:
        """``n_out / n_in`` (1.0 for an empty input)."""
        return self.n_out / self.n_in if self.n_in else 1.0


def charged_stage(name: str, n_in: int, n_out: int) -> StageStats:
    """Build a :class:`StageStats`, charging it to the ambient registry.

    Every pruning stage in the codebase — cascade tiers, backend range
    queries, method-specific filters, the DTW verify stage — constructs
    its record through this helper, so the registry counters
    ``cascade.<stage>.in`` / ``.out`` / ``.pruned`` and the legacy
    :class:`CascadeStats` view are two readings of the same charge.
    """
    registry = active_registry()
    if registry is not None:
        registry.count(f"cascade.{name}.in", n_in)
        registry.count(f"cascade.{name}.out", n_out)
        registry.count(f"cascade.{name}.pruned", n_in - n_out)
    return StageStats(name, n_in, n_out)


@dataclass
class CascadeStats:
    """Per-stage pruning counters of one (or many merged) searches."""

    stages: list[StageStats]

    @property
    def total_in(self) -> int:
        """Sequences entering the first stage."""
        return self.stages[0].n_in if self.stages else 0

    @property
    def final_out(self) -> int:
        """Sequences surviving the last stage."""
        return self.stages[-1].n_out if self.stages else 0

    def stage(self, name: str) -> StageStats:
        """The stage called *name*; raises ``KeyError`` when absent."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)  # repro-lint: disable=RL004 -- mapping protocol

    def survival_by_stage(self) -> dict[str, float]:
        """``{stage name: survival ratio}`` in cascade order."""
        return {s.name: s.survival_ratio for s in self.stages}

    def candidate_ratios(self, database_size: int) -> dict[str, float]:
        """Figure-2-style ratios: each stage's survivors over *database_size*."""
        if database_size <= 0:
            raise ValidationError(
                f"database_size must be positive, got {database_size}"
            )
        return {s.name: s.n_out / database_size for s in self.stages}

    @staticmethod
    def merge(many: Iterable["CascadeStats"]) -> "CascadeStats":
        """Sum several runs' counters stage-by-stage (aligned by name)."""
        order: list[str] = []
        totals: dict[str, list[int]] = {}
        for stats in many:
            for stage in stats.stages:
                if stage.name not in totals:
                    order.append(stage.name)
                    totals[stage.name] = [0, 0]
                totals[stage.name][0] += stage.n_in
                totals[stage.name][1] += stage.n_out
        return CascadeStats(
            [StageStats(name, *totals[name]) for name in order]
        )


class FeatureStore:
    """Precomputed per-sequence state the cascade's cheap tiers read.

    The store is *buffer-backed*: every per-sequence value lives in one
    of five packed arrays — ``ids``/``lengths`` (``(n,)`` int64), the
    ``(n, 4)`` float64 ``features`` matrix, the ``(n + 1,)`` int64
    ``offsets`` prefix-sum, and the concatenated float64 ``values_flat``
    element buffer.  :meth:`sequence` builds the row's
    :class:`~repro.types.Sequence` on demand, a zero-copy view into
    ``values_flat[offsets[row]:offsets[row + 1]]``; only a store built
    from loose sequences keeps their ``labels``.  Built from a
    database whose store serves its elements dense,
    :meth:`from_database` adopts that buffer as ``values_flat`` without
    copying it; this is how a process worker's store shares the memory
    of the shard replica it holds (the ``heap`` column it unpickled, or
    the data file a clean ``mmap`` replica maps).  Per-length ``(k, L)``
    value matrices for the envelope tier are still materialized lazily.

    A store built from a database records the database's
    :attr:`~repro.storage.database.SequenceDatabase.mutation_count` in
    :attr:`mutation_count`, which makes :meth:`matches` an O(1)
    freshness check; a store built from loose sequences records
    ``None`` and never matches a database.
    """

    __slots__ = (
        "labels",
        "ids",
        "features",
        "lengths",
        "offsets",
        "values_flat",
        "mutation_count",
        "_row_of",
        "_groups",
        "_cache_lock",
    )

    def __init__(
        self,
        sequences: Iterable[SequenceLike],
        *,
        mutation_count: int | None = None,
    ) -> None:
        seqs: list[Sequence] = []
        for position, item in enumerate(sequences):
            seq = as_sequence(item)
            if len(seq) == 0:
                raise ValidationError("cannot index an empty sequence")
            if seq.seq_id is None:
                seq = as_sequence(seq.values, seq_id=position)
            seqs.append(seq)
        n = len(seqs)
        ids = np.fromiter(
            (seq.seq_id for seq in seqs), dtype=np.int64, count=n
        )
        features = np.empty((n, 4), dtype=np.float64)
        lengths = np.fromiter(
            (len(seq) for seq in seqs), dtype=np.int64, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values_flat = np.empty(int(offsets[-1]), dtype=np.float64)
        for row, seq in enumerate(seqs):
            features[row] = extract_feature(seq.values).as_tuple()
            values_flat[offsets[row] : offsets[row + 1]] = seq.values
        labels = [seq.label for seq in seqs]
        self._adopt(
            ids, features, lengths, offsets, values_flat, labels, mutation_count
        )

    def _adopt(
        self,
        ids: np.ndarray,
        features: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        values_flat: np.ndarray,
        labels: list[str | None] | None = None,
        mutation_count: int | None = None,
    ) -> None:
        """Bind the packed arrays (and the labels, per row, if any)."""
        values_flat.flags.writeable = False
        self.mutation_count = mutation_count
        self.labels = labels
        self.ids = ids
        self.features = features
        self.lengths = lengths
        self.offsets = offsets
        self.values_flat = values_flat
        self._row_of: dict[int, int] | None = None
        self._groups: dict[int, np.ndarray] | None = None
        # Shard thread pools share one store; the lazy row/group caches
        # build under this lock so concurrent queries never double-build.
        self._cache_lock = threading.Lock()

    def __getstate__(self) -> dict[str, object]:
        # Slots class: pickle everything except the lock, which is
        # per-process state and recreated on load.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_cache_lock"
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._cache_lock = threading.Lock()

    @classmethod
    def from_arrays(
        cls,
        ids: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        values_flat: np.ndarray,
        *,
        mutation_count: int | None = None,
    ) -> "FeatureStore":
        """Build a store over an existing dense element buffer, zero-copy.

        The ``(n, 4)`` feature matrix is computed with vectorized
        reductions over *values_flat* (first/last by fancy-indexing the
        record boundaries, greatest/smallest with ``reduceat``) — bit
        identical to the per-sequence
        :func:`~repro.core.features.extract_feature` path because
        max/min are exact regardless of association order and stored
        values are validated finite on insert.  *values_flat* is adopted
        as-is; it may be a read-only ``numpy.memmap`` over a store's
        data file, or a view of the heap store's column.
        *mutation_count* is the database mutation count the arrays
        mirror, if known.
        """
        ids = np.asarray(ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        values_flat = np.asarray(values_flat, dtype=np.float64)
        n = len(ids)
        features = np.empty((n, 4), dtype=np.float64)
        if n:
            starts = offsets[:-1]
            features[:, 0] = values_flat[starts]
            features[:, 1] = values_flat[offsets[1:] - 1]
            features[:, 2] = np.maximum.reduceat(values_flat, starts)
            features[:, 3] = np.minimum.reduceat(values_flat, starts)
        self = cls.__new__(cls)
        self._adopt(
            ids,
            features,
            lengths,
            offsets,
            values_flat,
            mutation_count=mutation_count,
        )
        return self

    @classmethod
    def from_database(cls, db: SequenceDatabase) -> "FeatureStore":
        """Build the store with one sequential scan of *db*.

        The scan charges the database's simulated I/O accounting once,
        like any other index build pass.  When the database's store can
        serve its element buffer dense (see
        :meth:`~repro.storage.database.SequenceDatabase.dense_arrays`),
        the store is built zero-copy over it instead of re-concatenating
        per-sequence copies — same charge, same arrays, no copies.
        """
        mutation_count = db.mutation_count
        scan = db.scan()  # charges the sequential read up front
        dense = db.dense_arrays()
        if dense is not None:
            return cls.from_arrays(*dense, mutation_count=mutation_count)
        return cls(scan, mutation_count=mutation_count)

    def __len__(self) -> int:
        return len(self.ids)

    def matches(self, db: SequenceDatabase) -> bool:
        """True when the store still mirrors *db*'s contents.

        O(1): the store mirrors *db* exactly while *db* has applied no
        insert or delete since the build, i.e. while its
        :attr:`~repro.storage.database.SequenceDatabase.mutation_count`
        equals the one recorded here.  *db* must be the database the
        store was built from, or a replica kept in lockstep with it.
        """
        return (
            self.mutation_count is not None
            and self.mutation_count == db.mutation_count
        )

    def rows_for(self, seq_ids: Iterable[int]) -> np.ndarray:
        """Store rows of the given sequence ids (unknown ids are skipped)."""
        row_of = self._row_of
        if row_of is None:
            with self._cache_lock:
                row_of = self._row_of
                if row_of is None:
                    row_of = {
                        int(sid): row for row, sid in enumerate(self.ids)
                    }
                    self._row_of = row_of
        rows = [row_of[sid] for sid in seq_ids if sid in row_of]
        return np.asarray(rows, dtype=np.int64)

    def groups_by_length(self) -> dict[int, np.ndarray]:
        """``{length: row indices}`` for every distinct sequence length."""
        result = self._groups
        if result is None:
            with self._cache_lock:
                result = self._groups
                if result is None:
                    groups: dict[int, list[int]] = {}
                    for row, length in enumerate(self.lengths):
                        groups.setdefault(int(length), []).append(row)
                    result = {
                        length: np.asarray(rows, dtype=np.int64)
                        for length, rows in groups.items()
                    }
                    self._groups = result
        return result

    def value_matrix(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, matrix)`` of all sequences with exactly *length* elements."""
        rows = self.groups_by_length().get(length)
        if rows is None or rows.size == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, length))
        matrix = self.values_flat[self.offsets[rows][:, None] + np.arange(length)]
        return rows, matrix

    def values(self, row: int) -> np.ndarray:
        """Raw element array of the sequence at *row* (a read-only view)."""
        return self.values_flat[self.offsets[row] : self.offsets[row + 1]]

    def sequence(self, row: int) -> Sequence:
        """The sequence at *row*, as a zero-copy view into ``values_flat``."""
        return Sequence(
            self.values(row),
            seq_id=int(self.ids[row]),
            label=self.labels[row] if self.labels is not None else None,
        )


@dataclass
class CascadeOutcome:
    """Everything one cascade search produced.

    ``candidate_ids`` are the survivors of the last lower-bound tier
    (the Figure-2 candidate set); ``answer_ids`` the sequences whose
    exact distance verified within tolerance.  ``distances`` maps answer
    id to its distance — exact when the cascade ran with
    ``compute_distances=True``, else a decision-only placeholder.
    """

    answer_ids: list[int]
    distances: dict[int, float]
    candidate_ids: list[int]
    stats: CascadeStats


def verify_stage(
    candidates: TypingSequence[int],
    verifier: Callable[[int], float],
    epsilon: float,
) -> tuple[list[int], dict[int, float], StageStats]:
    """The cascade's final tier: exact verification of *candidates*.

    *verifier* maps a candidate (a store row or a sequence id, the
    caller's choice) to its verified distance — ``inf`` when it exceeds
    tolerance.  Shared by the scan methods, the index methods'
    post-processing, and the public facade so every path reports the
    same :class:`StageStats` shape.
    """
    answers: list[int] = []
    distances: dict[int, float] = {}
    with timed("dtw.verify.seconds"):
        for candidate in candidates:
            distance = verifier(candidate)
            if distance <= epsilon:
                answers.append(candidate)
                distances[candidate] = distance
    registry = active_registry()
    if registry is not None:
        registry.count("dtw.verifications", len(candidates))
    return answers, distances, charged_stage(
        STAGE_DTW, len(candidates), len(answers)
    )


class FilterCascade:
    """Staged lower-bound filtering + exact verification over a store.

    Parameters
    ----------
    store:
        The precomputed :class:`FeatureStore`.
    tiers:
        Which lower-bound tiers to run, in order.  Defaults to the full
        ``(lb_yi, lb_kim, lb_keogh)`` cascade; the envelope tier only
        activates when a search passes a band radius.
    """

    def __init__(
        self,
        store: FeatureStore,
        *,
        tiers: TypingSequence[str] = DEFAULT_TIERS,
    ) -> None:
        for tier in tiers:
            if tier not in (TIER_YI, TIER_KIM, TIER_KEOGH):
                raise ValidationError(f"unknown cascade tier {tier!r}")
        self._store = store
        self._tiers = tuple(tiers)

    @classmethod
    def from_database(
        cls, db: SequenceDatabase, **kwargs
    ) -> "FilterCascade":
        """Build store and cascade from *db* in one sequential scan."""
        return cls(FeatureStore.from_database(db), **kwargs)

    @property
    def store(self) -> FeatureStore:
        """The precomputed feature/value store."""
        return self._store

    @property
    def tiers(self) -> tuple[str, ...]:
        """The configured lower-bound tiers, in cascade order."""
        return self._tiers

    # -- feature tiers (vectorized) ------------------------------------------

    def filter(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        rows: np.ndarray | None = None,
        band_radius: int | None = None,
    ) -> tuple[np.ndarray, list[StageStats]]:
        """Run the lower-bound tiers; return surviving rows and stage stats.

        *rows* restricts filtering to a subset of store rows (e.g. the
        R-tree candidates); by default the whole store enters the first
        tier.  Survivors are a superset of every sequence within
        tolerance — the no-false-dismissal guarantee, tier by tier.
        """
        query_arr = as_array(query, allow_empty=False)
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        if rows is None:
            rows = np.arange(len(self._store), dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        query_feature = np.asarray(
            extract_feature(query_arr).as_tuple(), dtype=np.float64
        )
        cutoffs = epsilon + filter_margin(query_feature, epsilon)
        stages: list[StageStats] = []
        for tier in self._tiers:
            n_in = int(rows.size)
            with timed(f"cascade.{tier}.seconds"):
                if tier in _TIER_COLUMNS:
                    cols = list(_TIER_COLUMNS[tier])
                    diffs = np.abs(
                        self._store.features[np.ix_(rows, cols)]
                        - query_feature[cols]
                    )
                    keep = (diffs <= cutoffs[cols]).all(axis=1)
                    rows = rows[keep]
                elif band_radius is not None:
                    rows = self._keogh_tier(
                        rows, query_arr, epsilon, band_radius
                    )
            stages.append(charged_stage(tier, n_in, int(rows.size)))
        return rows, stages

    def _keogh_tier(
        self,
        rows: np.ndarray,
        query_arr: np.ndarray,
        epsilon: float,
        band_radius: int,
    ) -> np.ndarray:
        """Envelope tier: prune equal-length rows whose LB_Keogh exceeds eps.

        Rows of any other length pass through — the classical bound is
        only defined for equal lengths, and an unfiltered pass-through
        can never cause a false dismissal.
        """
        if rows.size == 0:
            return rows
        length = int(query_arr.size)
        same_length = self._store.lengths[rows] == length
        group = rows[same_length]
        if group.size == 0:
            return rows
        upper, lower = warping_envelope(query_arr, band_radius)
        matrix = np.stack([self._store.values(int(r)) for r in group])
        bounds = lb_keogh_batch(matrix, upper, lower)
        scale = float(np.abs(query_arr).max())
        keep_group = group[bounds <= epsilon + filter_margin(scale, epsilon)]
        keep = np.concatenate([rows[~same_length], keep_group])
        keep.sort()
        return keep

    # -- verification --------------------------------------------------------

    def _row_verifier(
        self,
        query_arr: np.ndarray,
        epsilon: float,
        band_radius: int | None,
        compute_distances: bool,
    ) -> Callable[[int], float]:
        """Default verifier: exact DTW on store values, early-abandoning."""

        def verify(row: int) -> float:
            values = self._store.values(int(row))
            if band_radius is not None:
                window = sakoe_chiba_window(
                    values.size, query_arr.size, band_radius
                )
                distance = dtw_max_matrix(
                    values, query_arr, window=window
                ).distance
                return distance if distance <= epsilon else float("inf")
            if compute_distances:
                return dtw_max_early_abandon(values, query_arr, epsilon)
            if dtw_max_within(values, query_arr, epsilon):
                return epsilon
            return float("inf")

        return verify

    # -- single query --------------------------------------------------------

    def run(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        rows: np.ndarray | None = None,
        band_radius: int | None = None,
        compute_distances: bool = True,
        verifier: Callable[[int], float] | None = None,
    ) -> CascadeOutcome:
        """Filter then verify one query; returns ids, distances and stats.

        A custom *verifier* (store row -> distance or ``inf``) lets a
        caller charge its own I/O and cost accounting per verification;
        the default verifies against the in-store values.
        """
        query_arr = as_array(query, allow_empty=False)
        surviving, stages = self.filter(
            query_arr, epsilon, rows=rows, band_radius=band_radius
        )
        return self._verified_outcome(
            surviving,
            stages,
            query_arr,
            epsilon,
            band_radius,
            compute_distances,
            verifier,
        )

    def _verified_outcome(
        self,
        surviving: np.ndarray,
        stages: list[StageStats],
        query_arr: np.ndarray,
        epsilon: float,
        band_radius: int | None,
        compute_distances: bool,
        verifier: Callable[[int], float] | None = None,
    ) -> CascadeOutcome:
        """Verify the filtered *surviving* rows and assemble the outcome."""
        if verifier is None:
            verifier = self._row_verifier(
                query_arr, epsilon, band_radius, compute_distances
            )
        answer_rows, row_distances, dtw_stage = verify_stage(
            [int(r) for r in surviving], verifier, epsilon
        )
        stages.append(dtw_stage)
        ids = self._store.ids
        return CascadeOutcome(
            answer_ids=sorted(int(ids[r]) for r in answer_rows),
            distances={int(ids[r]): d for r, d in row_distances.items()},
            candidate_ids=sorted(int(ids[r]) for r in surviving),
            stats=CascadeStats(stages),
        )

    # -- batched queries ------------------------------------------------------

    def run_many(
        self,
        queries: TypingSequence[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
        compute_distances: bool = True,
    ) -> list[CascadeOutcome]:
        """Answer a batch of queries, amortizing the cheap tiers.

        Query features are extracted once into an ``(m, 4)`` matrix and
        the feature tiers evaluate as a single broadcast comparison per
        query block — one ``(block x n x 4)`` kernel instead of ``m``
        per-query passes.  Results are identical to calling :meth:`run`
        per query (the exact verification stage is shared).
        """
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        query_arrs = [as_array(q, allow_empty=False) for q in queries]
        if not query_arrs:
            return []
        n = len(self._store)
        if n == 0:
            return [
                CascadeOutcome(
                    [],
                    {},
                    [],
                    CascadeStats(
                        [charged_stage(t, 0, 0) for t in self._tiers]
                        + [charged_stage(STAGE_DTW, 0, 0)]
                    ),
                )
                for _ in query_arrs
            ]
        m = len(query_arrs)
        query_features = np.empty((m, 4), dtype=np.float64)
        for i, arr in enumerate(query_arrs):
            query_features[i] = extract_feature(arr).as_tuple()
        cutoffs = epsilon + filter_margin(query_features, epsilon)

        outcomes: list[CascadeOutcome] = []
        block = max(1, _BATCH_CELL_LIMIT // (4 * n))
        # One survivor mask reused (reset in place) across the batch so
        # the per-query loop never touches the allocator.
        mask = np.empty(n, dtype=bool)
        for start in range(0, m, block):
            stop = min(start + block, m)
            # One broadcast kernel for the whole block: (b, n, 4) diffs.
            diffs = np.abs(
                query_features[start:stop, None, :] - self._store.features[None, :, :]
            )
            admitted = diffs <= cutoffs[start:stop, None, :]
            for i in range(start, stop):
                stages: list[StageStats] = []
                mask[:] = True
                for tier in self._tiers:
                    n_in = int(mask.sum())
                    with timed(f"cascade.{tier}.seconds"):
                        if tier in _TIER_COLUMNS:
                            cols = _TIER_COLUMNS[tier]
                            mask &= admitted[i - start][:, cols].all(axis=1)
                            n_out = int(mask.sum())
                        elif band_radius is not None:
                            rows = self._keogh_tier(
                                np.flatnonzero(mask),
                                query_arrs[i],
                                epsilon,
                                band_radius,
                            )
                            mask[:] = False
                            mask[rows] = True
                            n_out = int(rows.size)
                        else:
                            n_out = n_in
                    stages.append(charged_stage(tier, n_in, n_out))
                outcomes.append(
                    self._verified_outcome(
                        np.flatnonzero(mask),
                        stages,
                        query_arrs[i],
                        epsilon,
                        band_radius,
                        compute_distances,
                    )
                )
        return outcomes


def scan_cascade(
    db,
    cached: "FilterCascade | None",
    *,
    tiers: TypingSequence[str] = DEFAULT_TIERS,
) -> "FilterCascade":
    """Charge one sequential scan of *db*; return a cascade mirroring it.

    The scan's I/O is charged whether or not its pages feed the store:
    ids are never reused and stored sequences are immutable, so a
    *cached* cascade whose store still matches the database is reused
    and a fresh store is only materialized when the id set changed.
    Shared by every scan-based search method.
    """
    if cached is not None and cached.store.matches(db):
        db.scan()  # charges the sequential read all the same
        return cached
    return FilterCascade(FeatureStore.from_database(db), tiers=tuple(tiers))
