"""Differential kernel-parity suite — every kernel vs ``reference``.

This is the suite the ``tests/distance/kernel_manifest.py`` registry
points at (and ``repro lint`` rule RL009 enforces the pointing).  Every
kernel registered in ``KERNELS`` is run side by side with the
``reference`` kernel on hypothesis-generated inputs — including empty,
length-1, constant, extreme-magnitude, banded-window, and
early-abandon-threshold cases — and must agree **bit-exactly**: same
distances, byte-identical accumulated matrices (hence identical warping
paths), and identical metric charges (``dtw.cells``,
``dtw.early_abandons``, the ``dtw.abandon_depth`` histogram), captured
through a fresh registry per run.

The suite also closes the loop the static rule cannot: stale manifest
entries (keys naming no registered kernel) fail here at run time, with
``OPTIONAL_KERNELS`` exempt because their registration is conditional
on an optional dependency being importable.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distance import (
    dtw_additive,
    dtw_additive_matrix,
    dtw_distance,
    dtw_max,
    dtw_max_early_abandon,
    dtw_max_matrix,
    warping_path,
)
from repro.distance.dtw import dtw_max_within
from repro.distance.bands import itakura_window, sakoe_chiba_window
from repro.distance.base import L1, L2, LINF, BaseDistance
from repro.distance.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    KERNELS,
    NUMBA_AVAILABLE,
    OPTIONAL_KERNELS,
    DtwKernel,
    NumbaKernel,
    ReferenceKernel,
    available_kernels,
    get_kernel,
    register_kernel,
    set_kernel,
    use_kernel,
)
import repro.distance.kernels.vectorized as vectorized_module
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def exercise_wavefront(monkeypatch: pytest.MonkeyPatch) -> None:
    """Force the wavefront on hypothesis-sized grids.

    Below ``_WAVEFRONT_MIN_CELLS`` the vectorized kernel delegates to
    the reference DP (trivially bit-exact), so without this the small
    sequences hypothesis generates would never differentially test the
    diagonal fill itself.  Tests covering the delegation threshold
    restore the real constant locally.
    """
    monkeypatch.setattr(vectorized_module, "_WAVEFRONT_MIN_CELLS", 0)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The shipped delegation threshold, captured before the autouse patch.
_REAL_MIN_CELLS = vectorized_module._WAVEFRONT_MIN_CELLS

#: Every kernel that must be pinned to the oracle.
CHALLENGERS = tuple(n for n in available_kernels() if n != "reference")

elements = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
#: Magnitudes near the float64 edge; squaring must stay finite for the
#: L2 cutoff comparison, hence the 1e150 cap.
extreme_elements = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)
sequences = st.lists(elements, min_size=1, max_size=14)
short_sequences = st.lists(elements, min_size=0, max_size=6)
#: Few distinct values: ties and anti-diagonals with no admissible cell.
small_int_sequences = st.lists(
    st.integers(0, 5).map(float), min_size=1, max_size=14
)
extreme_sequences = st.lists(extreme_elements, min_size=1, max_size=8)
thresholds = st.one_of(st.none(), st.floats(min_value=0, max_value=80))
radii = st.integers(min_value=0, max_value=4)
bases = st.sampled_from([L1, L2])


def _load_manifest() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "kernel_manifest", REPO_ROOT / "tests" / "distance" / "kernel_manifest.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.KERNEL_PARITY_REGISTRY)


def _canonical(value: Any) -> Any:
    """A comparable, bit-faithful form of an op's return value."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if hasattr(value, "matrix") and hasattr(value, "distance"):
        return (
            value.distance,
            value.matrix.shape,
            value.matrix.tobytes(),
            value.base,
        )
    return value


def _observed(kernel: str, op: Callable[[], Any]) -> tuple[Any, Any, Any]:
    """Run *op* under *kernel* with a fresh registry; capture everything."""
    registry = MetricsRegistry()
    with use_kernel(kernel), use_registry(registry):
        value = op()
    snapshot = registry.snapshot()
    histograms = {
        name: dataclasses.astuple(summary)
        for name, summary in snapshot.histograms.items()
    }
    return _canonical(value), dict(snapshot.counters), histograms


def assert_kernel_parity(kernel: str, op: Callable[[], Any]) -> None:
    """The differential assertion: *op* under *kernel* == under reference."""
    expected = _observed("reference", op)
    actual = _observed(kernel, op)
    assert actual[0] == expected[0], f"{kernel}: value diverged"
    assert actual[1] == expected[1], f"{kernel}: metric counters diverged"
    assert actual[2] == expected[2], f"{kernel}: abandon-depth charges diverged"


class TestManifestIntegrity:
    def test_every_registered_kernel_has_a_manifest_entry(self) -> None:
        manifest = _load_manifest()
        missing = set(KERNELS) - set(manifest)
        assert not missing, f"kernels without parity manifest entry: {missing}"

    def test_no_stale_manifest_entries(self) -> None:
        """Keys naming no kernel fail, modulo the optional registrations."""
        manifest = _load_manifest()
        stale = set(manifest) - set(KERNELS) - set(OPTIONAL_KERNELS)
        assert not stale, f"manifest entries naming no kernel: {stale}"

    def test_manifest_files_exist(self) -> None:
        for name, rel in _load_manifest().items():
            assert (REPO_ROOT / rel).is_file(), f"{name}: missing {rel}"

    def test_reference_is_registered_and_is_the_oracle(self) -> None:
        assert isinstance(get_kernel("reference"), ReferenceKernel)
        assert DEFAULT_KERNEL in KERNELS

    def test_at_least_one_challenger_is_registered(self) -> None:
        assert "vectorized" in CHALLENGERS

    def test_numba_registration_is_gated_on_importability(self) -> None:
        """The ``numba`` kernel exists exactly when its dependency does."""
        if NUMBA_AVAILABLE:
            assert isinstance(get_kernel("numba"), NumbaKernel)
            assert "numba" in CHALLENGERS
        else:
            assert "numba" not in KERNELS
        assert "numba" in OPTIONAL_KERNELS


@pytest.mark.parametrize("kernel", CHALLENGERS)
class TestAdditiveParity:
    @given(s=sequences, q=sequences, base=bases, threshold=thresholds)
    def test_additive_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance, threshold
    ) -> None:
        assert_kernel_parity(
            kernel, lambda: dtw_additive(s, q, base=base, threshold=threshold)
        )

    @given(s=sequences, q=sequences, base=bases, radius=radii, threshold=thresholds)
    def test_additive_banded_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance, radius, threshold
    ) -> None:
        window = sakoe_chiba_window(len(s), len(q), radius)
        assert_kernel_parity(
            kernel,
            lambda: dtw_additive(
                s, q, base=base, window=window, threshold=threshold
            ),
        )

    @given(s=sequences, q=sequences, base=bases)
    def test_additive_matrix_and_path_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance
    ) -> None:
        assert_kernel_parity(
            kernel, lambda: dtw_additive_matrix(s, q, base=base)
        )
        with use_kernel("reference"):
            expected = dtw_additive_matrix(s, q, base=base).path()
        with use_kernel(kernel):
            actual = dtw_additive_matrix(s, q, base=base).path()
        assert actual == expected

    @given(s=sequences, q=sequences, base=bases, radius=radii)
    def test_additive_matrix_banded_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance, radius
    ) -> None:
        window = sakoe_chiba_window(len(s), len(q), radius)
        assert_kernel_parity(
            kernel, lambda: dtw_additive_matrix(s, q, base=base, window=window)
        )

    @given(s=sequences, q=sequences, base=bases)
    def test_additive_itakura_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance
    ) -> None:
        window = itakura_window(len(s), len(q))
        assert_kernel_parity(
            kernel, lambda: dtw_additive(s, q, base=base, window=window)
        )

    @given(s=sequences, q=sequences, base=bases)
    def test_exactly_threshold_is_the_abandon_boundary(
        self, kernel: str, s: list, q: list, base: BaseDistance
    ) -> None:
        """threshold == the true distance is the abandon boundary case."""
        with use_kernel("reference"):
            exact = dtw_additive(s, q, base=base)
        assert_kernel_parity(
            kernel, lambda: dtw_additive(s, q, base=base, threshold=exact)
        )
        if base is L1:
            # The L1 cutoff is the threshold itself, so a threshold at
            # exactly the true distance must keep the answer.  (For L2
            # the root/square round trip can legitimately abandon.)
            with use_kernel(kernel):
                assert dtw_additive(s, q, base=base, threshold=exact) == exact


@pytest.mark.parametrize("kernel", CHALLENGERS)
class TestMaxParity:
    @given(s=sequences, q=sequences)
    def test_dtw_max_bit_exact(self, kernel: str, s: list, q: list) -> None:
        assert_kernel_parity(kernel, lambda: dtw_max(s, q))

    @given(s=sequences, q=sequences, epsilon=st.floats(min_value=0, max_value=60))
    def test_early_abandon_bit_exact(
        self, kernel: str, s: list, q: list, epsilon: float
    ) -> None:
        assert_kernel_parity(
            kernel, lambda: dtw_max_early_abandon(s, q, epsilon)
        )

    @given(s=sequences, q=sequences, epsilon=st.floats(min_value=0, max_value=60))
    def test_within_bit_exact(
        self, kernel: str, s: list, q: list, epsilon: float
    ) -> None:
        assert_kernel_parity(kernel, lambda: dtw_max_within(s, q, epsilon))

    @given(s=sequences, q=sequences)
    def test_max_matrix_and_path_bit_exact(
        self, kernel: str, s: list, q: list
    ) -> None:
        assert_kernel_parity(kernel, lambda: dtw_max_matrix(s, q))
        with use_kernel("reference"):
            expected = dtw_max_matrix(s, q).path()
        with use_kernel(kernel):
            result = dtw_max_matrix(s, q)
        assert result.path() == expected
        assert warping_path(result.matrix, base=LINF) == expected

    @given(
        s=st.one_of(sequences, small_int_sequences),
        q=st.one_of(sequences, small_int_sequences),
        fraction=st.floats(min_value=0, max_value=1, exclude_max=True),
        slack=st.floats(min_value=0, max_value=20),
    )
    def test_max_bounded_bit_exact(
        self, kernel: str, s: list, q: list, fraction: float, slack: float
    ) -> None:
        """Distance, cells and abandon depth, with epsilon below, at and
        above the true distance, and unbounded."""
        s_arr = np.asarray(s, dtype=np.float64)
        q_arr = np.asarray(q, dtype=np.float64)
        oracle = get_kernel("reference")
        exact = oracle.max_bounded(s_arr, q_arr, math.inf)[0]
        for epsilon in (
            exact * fraction,
            math.nextafter(exact, 0.0),
            exact,
            exact + slack,
            math.inf,
        ):
            expected = oracle.max_bounded(s_arr, q_arr, epsilon)
            actual = get_kernel(kernel).max_bounded(s_arr, q_arr, epsilon)
            assert actual == expected, f"{kernel}: epsilon={epsilon!r}"

    @given(s=sequences, q=sequences, radius=radii)
    def test_max_matrix_banded_bit_exact(
        self, kernel: str, s: list, q: list, radius: int
    ) -> None:
        window = sakoe_chiba_window(len(s), len(q), radius)
        assert_kernel_parity(
            kernel, lambda: dtw_max_matrix(s, q, window=window)
        )

    @given(s=sequences, q=sequences, base=st.sampled_from([L1, L2, LINF]))
    def test_dtw_distance_dispatch_bit_exact(
        self, kernel: str, s: list, q: list, base: BaseDistance
    ) -> None:
        assert_kernel_parity(
            kernel, lambda: dtw_distance(s, q, base=base, threshold=10.0)
        )


@pytest.mark.parametrize("kernel", CHALLENGERS)
class TestEdgeCaseParity:
    @given(s=short_sequences, q=short_sequences)
    def test_empty_and_short_operands(self, kernel: str, s: list, q: list) -> None:
        """Covers both-empty, one-empty, and length-1 operands."""
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q))
        if s and q:
            assert_kernel_parity(kernel, lambda: dtw_max(s, q))

    @pytest.mark.parametrize("pair", [([], []), ([], [1.0]), ([2.0], [])])
    def test_empty_boundaries(self, kernel: str, pair) -> None:
        s, q = pair
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q))
        assert_kernel_parity(kernel, lambda: dtw_max_within(s, q, 1.0))

    @given(value=elements, n=st.integers(1, 10), m=st.integers(1, 10))
    def test_constant_sequences(
        self, kernel: str, value: float, n: int, m: int
    ) -> None:
        s, q = [value] * n, [value + 1.5] * m
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q, base=L2))
        assert_kernel_parity(kernel, lambda: dtw_max_early_abandon(s, q, 1.0))

    @given(s=extreme_sequences, q=extreme_sequences)
    def test_extreme_magnitudes(self, kernel: str, s: list, q: list) -> None:
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q, base=L1))
        assert_kernel_parity(kernel, lambda: dtw_max(s, q))

    def test_extreme_magnitude_squares_overflow_identically(
        self, kernel: str
    ) -> None:
        """L2 squaring overflows to inf the same way in every kernel."""
        s, q = [1e200, -1e200], [-1e200, 1e200]
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q, base=L2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs_rejected_under_every_kernel(
        self, kernel: str, bad: float
    ) -> None:
        with use_kernel(kernel):
            with pytest.raises(ValidationError):
                dtw_additive([1.0, bad], [1.0, 2.0])
            with pytest.raises(ValidationError):
                dtw_max([1.0, 2.0], [bad])

    @given(s=sequences, q=sequences)
    def test_zero_threshold(self, kernel: str, s: list, q: list) -> None:
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q, threshold=0.0))

    def test_disjoint_band_abandons_identically(self, kernel: str) -> None:
        """A window excluding (0, 0) starves every row — the abandon
        guard's ``i == 0`` special case, then the row-1 abandon."""
        s, q = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]
        window = [(1, 3), (1, 3), (1, 3)]
        assert_kernel_parity(
            kernel, lambda: dtw_additive(s, q, window=window)
        )
        with use_kernel(kernel):
            assert dtw_additive(s, q, window=window) == float("inf")

    def test_non_monotone_window_falls_back_to_masking(
        self, kernel: str
    ) -> None:
        """Hand-built non-monotone (yet valid) window: every windowed
        fill must match the reference per-cell loop."""
        s, q = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]
        window = [(0, 4), (2, 4), (1, 3), (3, 4)]
        assert_kernel_parity(kernel, lambda: dtw_additive(s, q, window=window))
        assert_kernel_parity(
            kernel, lambda: dtw_additive_matrix(s, q, window=window)
        )
        assert_kernel_parity(
            kernel, lambda: dtw_max_matrix(s, q, window=window)
        )


class TestWavefrontCutover:
    """The shipped small-grid delegation threshold is seamless."""

    def test_delegation_threshold_is_seamless(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        monkeypatch.setattr(
            vectorized_module, "_WAVEFRONT_MIN_CELLS", _REAL_MIN_CELLS
        )
        rng = np.random.default_rng(77)
        side = int(math.isqrt(_REAL_MIN_CELLS))
        # Grids straddling the cutover: delegated, boundary, wavefront.
        for n, m in ((10, 12), (side, side), (side + 1, side), (64, 80)):
            s = rng.normal(size=n).cumsum()
            q = rng.normal(size=m).cumsum()
            for op in (
                lambda: dtw_additive(s, q, base=L2),
                lambda: dtw_additive(s, q, base=L1, threshold=5.0),
                lambda: dtw_max(s, q),
                lambda: dtw_additive_matrix(s, q, base=L2).distance,
            ):
                assert_kernel_parity("vectorized", op)


class TestKernelSelectionApi:
    def test_default_kernel_is_active(self) -> None:
        from repro.distance.kernels import active_kernel

        assert active_kernel().name == DEFAULT_KERNEL

    def test_set_kernel_returns_previous_and_restores(self) -> None:
        previous = set_kernel("reference")
        try:
            assert previous == DEFAULT_KERNEL
            from repro.distance.kernels import active_kernel

            assert active_kernel().name == "reference"
        finally:
            assert set_kernel(previous) == "reference"

    def test_use_kernel_scopes_and_restores(self) -> None:
        from repro.distance.kernels import active_kernel

        before = active_kernel().name
        with use_kernel("reference") as kernel:
            assert kernel.name == "reference"
            assert active_kernel().name == "reference"
        assert active_kernel().name == before

    def test_unknown_kernel_is_rejected(self) -> None:
        with pytest.raises(ValidationError, match="unknown DTW kernel"):
            get_kernel("no-such-kernel")
        with pytest.raises(ValidationError):
            set_kernel("no-such-kernel")

    def test_env_override_selects_the_kernel(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        import repro.distance.kernels.registry as registry_module
        from repro.distance.kernels import active_kernel

        monkeypatch.setattr(registry_module, "_active_name", None)
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert active_kernel().name == "reference"
        monkeypatch.setenv(KERNEL_ENV_VAR, "bogus")
        with pytest.raises(ValidationError):
            active_kernel()

    def test_register_kernel_rejects_name_mismatch(self) -> None:
        class Misnamed(ReferenceKernel):
            name = "not-the-registration-name"

        with pytest.raises(ValidationError, match="name mismatch"):
            register_kernel("mismatched", Misnamed())

    def test_registry_protocol_runtime_shape(self) -> None:
        kernel: DtwKernel = get_kernel("vectorized")
        s = np.array([1.0, 2.0, 3.0])
        q = np.array([1.0, 2.5])
        total, abandoned = kernel.additive_total(
            s, q, power=1.0, window=None, cutoff=None
        )
        assert abandoned is None and total >= 0.0
        distance, cells, depth = kernel.max_bounded(s, q, 10.0)
        assert distance == 0.5 and cells == 6 and depth is None
