"""Tests for the time-warping distance (Definitions 1 and 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance.base import L1, L2, LINF
from repro.distance.bands import full_window, sakoe_chiba_window
from repro.distance.dtw import (
    dtw_additive,
    dtw_additive_matrix,
    dtw_distance,
    dtw_max,
    dtw_max_early_abandon,
    dtw_max_matrix,
    dtw_max_within,
    warping_path,
)
from repro.exceptions import ValidationError

PAPER_S = [20, 21, 21, 20, 20, 23, 23, 23]
PAPER_Q = [20, 20, 21, 20, 23]


class TestBoundaryConditions:
    def test_both_empty_zero(self):
        assert dtw_max([], []) == 0.0
        assert dtw_additive([], []) == 0.0

    def test_one_empty_infinite(self):
        assert dtw_max([1.0], []) == math.inf
        assert dtw_max([], [1.0]) == math.inf
        assert dtw_additive([1.0], []) == math.inf

    def test_single_elements(self):
        assert dtw_max([3.0], [5.0]) == 2.0
        assert dtw_additive([3.0], [5.0], base=L1) == 2.0


class TestPaperExample:
    """The introduction's example: S and Q warp to the same sequence."""

    def test_distance_zero(self):
        assert dtw_max(PAPER_S, PAPER_Q) == 0.0

    def test_additive_distance_zero(self):
        assert dtw_additive(PAPER_S, PAPER_Q, base=L1) == 0.0


class TestDefinition2MaxRecurrence:
    def test_element_replication_is_free(self):
        assert dtw_max([1, 2, 3], [1, 1, 1, 2, 3, 3]) == 0.0

    def test_known_value(self):
        # Best mapping pairs 1-1, 2-2, 4-3: bottleneck |4-3| = 1.
        assert dtw_max([1, 2, 4], [1, 2, 3]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.uniform(0, 10, rng.integers(1, 10))
            q = rng.uniform(0, 10, rng.integers(1, 10))
            assert dtw_max(s, q) == pytest.approx(dtw_max(q, s))

    def test_fast_equals_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.uniform(0, 5, rng.integers(1, 15))
            q = rng.uniform(0, 5, rng.integers(1, 15))
            assert dtw_max(s, q) == pytest.approx(
                dtw_max_matrix(s, q).distance, abs=1e-12
            )

    def test_result_is_a_pairwise_difference(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 5, 12)
        q = rng.uniform(0, 5, 9)
        d = dtw_max(s, q)
        diffs = np.abs(s[:, None] - q[None, :])
        assert np.min(np.abs(diffs - d)) < 1e-12

    def test_constant_sequences(self):
        assert dtw_max([2, 2, 2], [5, 5]) == 3.0


class TestEarlyAbandon:
    def test_within_returns_exact_value(self):
        d = dtw_max(PAPER_S, [19, 20, 22])
        assert dtw_max_early_abandon(PAPER_S, [19, 20, 22], d + 0.1) == pytest.approx(d)

    def test_exceeding_returns_inf(self):
        d = dtw_max(PAPER_S, [19, 20, 22])
        assert dtw_max_early_abandon(PAPER_S, [19, 20, 22], d - 0.01) == math.inf

    def test_zero_epsilon_identical(self):
        assert dtw_max_early_abandon([1, 2], [1, 1, 2], 0.0) == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            dtw_max_early_abandon([1], [1], -0.5)

    def test_empty_cases(self):
        assert dtw_max_early_abandon([], [], 0.0) == 0.0
        assert dtw_max_early_abandon([1.0], [], 5.0) == math.inf

    def test_within_decision_matches_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            s = rng.uniform(0, 3, rng.integers(1, 10))
            q = rng.uniform(0, 3, rng.integers(1, 10))
            d = dtw_max(s, q)
            eps = float(rng.uniform(0, 3))
            assert dtw_max_within(s, q, eps) == (d <= eps + 1e-15)


class TestDefinition1Additive:
    def test_l1_known_value(self):
        # 1->1, 2->2, 4->3 costs 0+0+1 = 1 under L1.
        assert dtw_additive([1, 2, 4], [1, 2, 3], base=L1) == 1.0

    def test_l2_accumulates_squares(self):
        # Path costs: sqrt(0^2 + 0^2 + 1^2) = 1.
        assert dtw_additive([1, 2, 4], [1, 2, 3], base=L2) == 1.0

    def test_matrix_matches_two_row(self):
        rng = np.random.default_rng(5)
        for base in (L1, L2):
            for _ in range(20):
                s = rng.uniform(0, 5, rng.integers(1, 10))
                q = rng.uniform(0, 5, rng.integers(1, 10))
                assert dtw_additive(s, q, base=base) == pytest.approx(
                    dtw_additive_matrix(s, q, base=base).distance
                )

    def test_linf_base_rejected(self):
        with pytest.raises(ValidationError):
            dtw_additive([1], [1], base=LINF)
        with pytest.raises(ValidationError):
            dtw_additive_matrix([1], [1], base=LINF)

    def test_threshold_abandons(self):
        d = dtw_additive([1, 5, 9], [2, 2, 2], base=L1)
        assert d > 1.0
        assert dtw_additive([1, 5, 9], [2, 2, 2], base=L1, threshold=1.0) == math.inf

    def test_threshold_keeps_qualifying(self):
        d = dtw_additive([1, 2, 3], [1, 2, 3, 3], base=L1)
        assert dtw_additive([1, 2, 3], [1, 2, 3, 3], base=L1, threshold=d + 1) == d

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            dtw_additive([1], [1], threshold=-1.0)

    def test_l1_upper_bounds_linf(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            s = rng.uniform(0, 5, rng.integers(1, 8))
            q = rng.uniform(0, 5, rng.integers(1, 8))
            assert dtw_additive(s, q, base=L1) >= dtw_max(s, q) - 1e-9


class TestWindows:
    def test_full_window_equals_unconstrained(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 5, 8)
        q = rng.uniform(0, 5, 6)
        win = full_window(8, 6)
        assert dtw_max_matrix(s, q, window=win).distance == pytest.approx(
            dtw_max(s, q)
        )
        assert dtw_additive(s, q, window=win) == pytest.approx(dtw_additive(s, q))

    def test_band_never_below_unconstrained(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, m = rng.integers(2, 12, size=2)
            s = rng.uniform(0, 5, n)
            q = rng.uniform(0, 5, m)
            win = sakoe_chiba_window(n, m, 1)
            banded = dtw_max_matrix(s, q, window=win).distance
            assert banded >= dtw_max(s, q) - 1e-12

    def test_wide_band_matches_unconstrained(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(0, 5, 7)
        q = rng.uniform(0, 5, 7)
        win = sakoe_chiba_window(7, 7, 10)
        assert dtw_max_matrix(s, q, window=win).distance == pytest.approx(
            dtw_max(s, q)
        )

    def test_window_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dtw_max_matrix([1, 2], [1, 2], window=[(0, 2)])


class TestWarpingPath:
    def test_path_endpoints(self):
        res = dtw_max_matrix(PAPER_S, PAPER_Q)
        path = res.path()
        assert path[0] == (0, 0)
        assert path[-1] == (len(PAPER_S) - 1, len(PAPER_Q) - 1)

    def test_path_steps_are_monotone(self):
        res = dtw_max_matrix([1, 3, 2, 5], [1, 2, 5])
        path = res.path()
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}

    def test_path_bottleneck_equals_distance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = rng.uniform(0, 5, rng.integers(2, 10))
            q = rng.uniform(0, 5, rng.integers(2, 10))
            res = dtw_max_matrix(s, q)
            bottleneck = max(abs(s[i] - q[j]) for i, j in res.path())
            assert bottleneck == pytest.approx(res.distance)

    def test_additive_path_cost_equals_distance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(0, 5, rng.integers(2, 10))
            q = rng.uniform(0, 5, rng.integers(2, 10))
            res = dtw_additive_matrix(s, q, base=L1)
            cost = sum(abs(s[i] - q[j]) for i, j in res.path())
            assert cost == pytest.approx(res.distance)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValidationError):
            warping_path(np.empty((0, 0)))
        with pytest.raises(ValidationError):
            warping_path(np.full((2, 2), math.inf))


class TestDispatch:
    def test_linf_default(self):
        assert dtw_distance(PAPER_S, PAPER_Q) == 0.0

    def test_threshold_dispatch(self):
        assert dtw_distance([1, 9], [1, 1], threshold=1.0) == math.inf

    def test_l1_dispatch(self):
        assert dtw_distance([1, 2, 4], [1, 2, 3], base=L1) == 1.0

    def test_windowed_linf_with_threshold(self):
        win = full_window(2, 2)
        assert dtw_distance([1, 9], [1, 1], window=win, threshold=1.0) == math.inf
        assert dtw_distance([1, 2], [1, 2], window=win, threshold=1.0) == 0.0


class TestRefinementPaths:
    """Direct coverage of the exact-value paths the cascade only hits
    indirectly: abandoning across a diagonal step, the no-false-dismissal
    property of the bounded fill, exactness on large grids, and the
    decision procedure at exactly-threshold tolerance."""

    def test_diagonal_step_jumps_one_dead_antidiagonal(self) -> None:
        """Anti-diagonal 1 has no cell within 0, yet the diagonal step
        (0, 0) -> (1, 1) skips it: abandoning after one dead
        anti-diagonal would be a false dismissal."""
        assert dtw_max_early_abandon([0, 5, 0], [0, 5, 0], 0.0) == 0.0
        assert dtw_max_within([0, 5, 0], [0, 5, 0], 0.0) is True

    @given(
        s=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        q=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        epsilon=st.integers(0, 6),
    )
    def test_early_abandon_never_rejects_a_qualifying_pair(
        self, s: list, q: list, epsilon: int
    ) -> None:
        """Small integer values force ties and dead anti-diagonals."""
        exact = dtw_max_matrix(s, q).distance
        bounded = dtw_max_early_abandon(s, q, float(epsilon))
        if exact <= epsilon:
            assert bounded == exact
        else:
            assert bounded == math.inf

    def test_exact_above_four_million_cells(self) -> None:
        """A 2100 x 2100 grid: the distance is one of the pairwise
        differences, and the decision flips exactly at it."""
        rng = np.random.default_rng(2100)
        s = rng.normal(size=2100).cumsum()
        q = rng.normal(size=2100).cumsum()
        d = dtw_max(s, q)
        assert bool(np.any(np.abs(s[:, None] - q[None, :]) == d))
        assert dtw_max_within(s, q, d) is True
        assert dtw_max_within(s, q, math.nextafter(d, 0.0)) is False

    def test_within_at_exactly_threshold_is_true(self) -> None:
        """Admissibility is ``<= t``, so t == D_tw must answer True —
        the boundary the cascade's verification step relies on."""
        assert dtw_max_within([0.0, 2.0], [0.0, 1.0], 1.0) is True
        assert dtw_max_within([0.0, 2.0], [0.0, 1.0], math.nextafter(1.0, 0.0)) is False
        rng = np.random.default_rng(23)
        for _ in range(30):
            s = rng.uniform(0, 3, rng.integers(1, 10))
            q = rng.uniform(0, 3, rng.integers(1, 10))
            d = dtw_max(s, q)
            # The distance is one of the pairwise differences, so the
            # grid at tolerance exactly d admits the optimal path.
            assert dtw_max_within(s, q, d) is True

    def test_within_exact_threshold_respects_early_abandon_charges(self) -> None:
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            assert dtw_max_within([0.0, 9.0], [0.0, 0.0], 1.0) is False
        snapshot = registry.snapshot()
        # The far corner fails the O(1) corner test: 2 cells, depth 0.
        assert snapshot.counters["dtw.cells"] == 2
        assert snapshot.counters["dtw.early_abandons"] == 1

    def test_abandon_charges_the_antidiagonals_swept(self) -> None:
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            # Row 0 stays admissible through anti-diagonal 3; rows 1-2
            # cost 9 and row 3 is reached only through them, so
            # anti-diagonals 4 and 5 are the first dead pair.
            assert dtw_max_early_abandon([0, 9, 9, 0], [0, 0, 0, 0], 1.0) == math.inf
        snapshot = registry.snapshot()
        # Anti-diagonals 0-5 hold all 16 cells but the far corner.
        assert snapshot.counters["dtw.cells"] == 15
        assert snapshot.counters["dtw.early_abandons"] == 1
        depth = snapshot.histograms["dtw.abandon_depth"]
        assert depth.count == 1 and depth.total == 6 / 7
