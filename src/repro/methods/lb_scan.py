"""LB-Scan (paper section 3.2): sequential scan + Yi et al.'s lower bound.

Still reads the entire database (same I/O as Naive-Scan), but first
evaluates the ``O(|S| + |Q|)`` lower bound ``D_lb``; only sequences with
``D_lb <= eps`` pay for the quadratic DTW verification.  Because
``D_lb`` underestimates ``D_tw``, no qualifying sequence is ever
skipped.  The sequences passing the filter are LB-Scan's candidate set
in Figure 2.

The filter itself runs through the shared vectorized cascade restricted
to its single ``lb_yi`` tier: one matrix comparison over the feature
store instead of a per-sequence Python loop.  The cost model is
unchanged — every search still pays the full sequential scan and one
lower-bound evaluation per stored sequence; only the wall-clock cost of
the filter drops.
"""

from __future__ import annotations

from ..core.cascade import TIER_YI, FilterCascade, scan_cascade
from ..types import Sequence
from .base import MethodStats, SearchMethod

__all__ = ["LBScan"]


class LBScan(SearchMethod):
    """Sequential scan with a cheap lower-bound pre-filter."""

    name = "LB-Scan"

    def _build_impl(self) -> None:
        """Nothing to build — the scan works directly on the heap file."""
        self._cascade: FilterCascade | None = None

    def _scan_cascade(self) -> FilterCascade:
        """Charge one full sequential scan; return the Yi-tier cascade."""
        self._cascade = scan_cascade(
            self._db, getattr(self, "_cascade", None), tiers=(TIER_YI,)
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

        outcome = cascade.run(query.values, epsilon, verifier=verifier)
        self._last_cascade = outcome.stats
        return outcome.answer_ids, outcome.distances, outcome.candidate_ids
