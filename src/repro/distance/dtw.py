"""The time-warping distance ``D_tw`` (paper Definitions 1 and 2).

Two formulations are implemented:

* :func:`dtw_additive` — Definition 1: per-element costs are accumulated
  *additively* along the warping path (``L_1`` base sums absolute
  differences, ``L_2`` base sums squares and takes a final root).  This
  is the classical DTW of Berndt & Clifford and of Yi et al.
* :func:`dtw_max` — Definition 2: the paper's similarity model, where
  the path cost is the *maximum* element difference along the path
  (``L_inf`` accumulation).  ``D_tw(S, Q) = max_h |m_h|`` over the best
  element mapping ``M``.

Both obey the boundary conditions ``D_tw(<>, <>) = 0`` and
``D_tw(S, <>) = D_tw(<>, Q) = inf``.

Performance notes
-----------------
The DP fills are delegated to an interchangeable *kernel* selected from
:mod:`repro.distance.kernels` (``set_kernel`` / ``use_kernel`` /
``REPRO_DTW_KERNEL``); every registered kernel is held bit-identical to
the ``reference`` kernel, so the choice affects wall time only — never
distances, paths, or the charged ``dtw.*`` metrics.  The full-matrix
entry points (:func:`dtw_additive_matrix`, :func:`dtw_max_matrix`) cost
``O(|S| x |Q|)`` time and memory and support warping-path recovery and
global constraint windows.  The max recurrence (:func:`dtw_max`,
:func:`dtw_max_early_abandon`, :func:`dtw_max_within`) runs as one
bounded fill (the kernel's ``max_bounded``) that carries the recurrence
on its last two anti-diagonals.  With a tolerance it abandons the moment no admissible
path remains — the early-exit behaviour the paper relies on in its
post-processing step (section 4.1: with ``L_inf``, a sequence can be
discarded as soon as its warping paths all exceed the tolerance).  A
warping step advances ``i + j`` by one or two, so that moment is the
second of two consecutive anti-diagonals with no cell within the
tolerance.  The fill takes only ``min`` and ``max`` of the exact element
differences, so the distance it returns is exact at every input size.

Metric charging happens here, in the wrappers, from the structured
outcome a kernel returns — never inside a kernel.  That makes the
``dtw.cells`` / ``dtw.early_abandons`` / ``dtw.abandon_depth`` charges
identical across kernels by construction, which is what lets the
bit-exact BENCH counter gate keep working no matter which kernel ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import active_registry
from ..types import SequenceLike, as_array
from .bands import Window
from .base import BaseDistance, LINF
from .kernels import active_kernel

__all__ = [
    "DtwResult",
    "dtw_distance",
    "dtw_additive",
    "dtw_additive_matrix",
    "dtw_max",
    "dtw_max_matrix",
    "dtw_max_early_abandon",
    "dtw_max_within",
    "warping_path",
]

_INF = math.inf


@dataclass(frozen=True)
class DtwResult:
    """Outcome of a DTW computation with the full matrix retained.

    Attributes
    ----------
    distance:
        The time-warping distance.
    matrix:
        The ``|S| x |Q|`` accumulated-cost matrix.  Inadmissible cells
        (outside the constraint window) hold ``inf``.
    base:
        The accumulation rule used (:class:`BaseDistance`).
    """

    distance: float
    matrix: np.ndarray
    base: BaseDistance

    def path(self) -> list[tuple[int, int]]:
        """Recover one optimal warping path (see :func:`warping_path`)."""
        return warping_path(self.matrix, base=self.base)


def _check_operands(
    s: SequenceLike, q: SequenceLike
) -> tuple[np.ndarray, np.ndarray]:
    return as_array(s), as_array(q)


def _empty_case(n: int, m: int) -> Optional[float]:
    """Boundary conditions of Definitions 1 and 2, or None if both non-empty."""
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return _INF
    return None


# ----------------------------------------------------------------------
# Definition 1: additive accumulation (L1 / L2 base)
# ----------------------------------------------------------------------


def dtw_additive_matrix(
    s: SequenceLike,
    q: SequenceLike,
    *,
    base: BaseDistance = BaseDistance.L1,
    window: Window | None = None,
) -> DtwResult:
    """Full-matrix additive DTW (Definition 1) with optional window.

    Returns a :class:`DtwResult` whose matrix supports path recovery.
    For the ``L_2`` base, the matrix stores accumulated *squared* costs;
    the returned distance is the square root of the bottom-right cell.
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return DtwResult(boundary, np.zeros((n, m)), base)
    if base is BaseDistance.LINF:
        raise ValidationError(
            "use dtw_max / dtw_max_matrix for the L_inf accumulation rule"
        )
    if window is not None and len(window) != n:
        raise ValidationError(
            f"window has {len(window)} rows but |S| = {n}"
        )

    power = 2.0 if base is BaseDistance.L2 else 1.0
    acc = active_kernel().additive_matrix(
        s_arr, q_arr, power=power, window=window
    )
    _charge_cells(n * m)
    total = float(acc[n - 1, m - 1])
    distance = total ** (1.0 / power) if power != 1.0 else total
    return DtwResult(distance, acc, base)


def dtw_additive(
    s: SequenceLike,
    q: SequenceLike,
    *,
    base: BaseDistance = BaseDistance.L1,
    window: Window | None = None,
    threshold: float | None = None,
) -> float:
    """Additive time-warping distance (Definition 1).

    Memory-efficient two-row DP.  If *threshold* is given, computation
    abandons early and returns ``inf`` as soon as every cell of a row
    exceeds it (sound for additive accumulation because costs only grow
    along a path).
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return boundary
    if base is BaseDistance.LINF:
        raise ValidationError("use dtw_max for the L_inf accumulation rule")
    if window is not None and len(window) != n:
        raise ValidationError(f"window has {len(window)} rows but |S| = {n}")

    power = 2.0 if base is BaseDistance.L2 else 1.0
    cutoff = None
    if threshold is not None:
        if threshold < 0:
            raise ValidationError(f"threshold must be non-negative, got {threshold}")
        cutoff = threshold**power if power != 1.0 else threshold

    total, abandoned = active_kernel().additive_total(
        s_arr, q_arr, power=power, window=window, cutoff=cutoff
    )
    if abandoned is not None:
        _charge_cells(abandoned * m, abandon_depth=abandoned / n)
        return _INF
    _charge_cells(n * m)
    if total == _INF:
        return _INF
    return total ** (1.0 / power) if power != 1.0 else total


# ----------------------------------------------------------------------
# Definition 2: max accumulation (L_inf base) — the paper's model
# ----------------------------------------------------------------------


def dtw_max_matrix(
    s: SequenceLike,
    q: SequenceLike,
    *,
    window: Window | None = None,
) -> DtwResult:
    """Full-matrix DTW under the max recurrence (Definition 2).

    ``acc[i, j] = max(|s_i - q_j|, min(acc[i-1, j], acc[i, j-1],
    acc[i-1, j-1]))`` with ``acc[0, 0] = |s_0 - q_0|``.
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return DtwResult(boundary, np.zeros((n, m)), LINF)
    if window is not None and len(window) != n:
        raise ValidationError(f"window has {len(window)} rows but |S| = {n}")

    acc = active_kernel().max_matrix(s_arr, q_arr, window=window)
    _charge_cells(n * m)
    return DtwResult(float(acc[n - 1, m - 1]), acc, LINF)


def _charge_cells(cells: int, *, abandon_depth: float | None = None) -> None:
    """Charge *cells* of DP work (and an early abandon) to the ambient
    registry; a no-op when observability is off."""
    registry = active_registry()
    if registry is None:
        return
    registry.count("dtw.cells", cells)
    if abandon_depth is not None:
        registry.count("dtw.early_abandons")
        registry.observe("dtw.abandon_depth", abandon_depth)


def _max_bounded(s_arr: np.ndarray, q_arr: np.ndarray, epsilon: float) -> float:
    """Definition-2 distance if it is ``<= epsilon``, else ``inf``.

    Both corners lie on every warping path, so a corner farther apart
    than *epsilon* rejects the pair in O(1) (charged as 2 cells at
    abandon depth 0).  Otherwise the active kernel's bounded fill runs.

    Instrumentation: ``dtw.cells`` counts the cells on the anti-diagonals
    swept; an abandoned fill also charges ``dtw.early_abandons`` and
    observes ``dtw.abandon_depth`` (fraction of anti-diagonals swept).
    """
    if abs(s_arr[0] - q_arr[0]) > epsilon or abs(s_arr[-1] - q_arr[-1]) > epsilon:
        _charge_cells(2, abandon_depth=0.0)
        return _INF
    distance, cells, depth = active_kernel().max_bounded(s_arr, q_arr, epsilon)
    _charge_cells(cells, abandon_depth=depth)
    return distance


def dtw_max_within(
    s: SequenceLike, q: SequenceLike, epsilon: float
) -> bool:
    """Decision procedure: is ``dtw_max(S, Q) <= epsilon``?

    One early-abandoning bounded fill, as in
    :func:`dtw_max_early_abandon`.
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return boundary <= epsilon
    if epsilon < 0:
        raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
    return bool(_max_bounded(s_arr, q_arr, epsilon) <= epsilon)


def dtw_max(s: SequenceLike, q: SequenceLike) -> float:
    """The paper's time-warping distance (Definition 2, exact value).

    One unbounded max fill, bit-identical to the bottom-right cell of
    :func:`dtw_max_matrix` at every input size; it carries the
    recurrence on its last two anti-diagonals instead of a full matrix.
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return boundary
    return _max_bounded(s_arr, q_arr, _INF)


def dtw_max_early_abandon(
    s: SequenceLike, q: SequenceLike, epsilon: float
) -> float:
    """Exact Definition-2 distance if it is ``<= epsilon``, else ``inf``.

    This is the verification primitive every search method uses in its
    post-processing step: one bounded fill both computes the exact
    distance and stops as soon as no admissible path remains (the
    ``L_inf`` early-abandon advantage the paper describes in section
    4.1).
    """
    s_arr, q_arr = _check_operands(s, q)
    n, m = s_arr.size, q_arr.size
    boundary = _empty_case(n, m)
    if boundary is not None:
        return boundary if boundary <= epsilon else _INF
    if epsilon < 0:
        raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
    return _max_bounded(s_arr, q_arr, epsilon)


def dtw_distance(
    s: SequenceLike,
    q: SequenceLike,
    *,
    base: BaseDistance = LINF,
    window: Window | None = None,
    threshold: float | None = None,
) -> float:
    """Unified entry point for the time-warping distance.

    Dispatches on the accumulation rule: :attr:`BaseDistance.LINF`
    (the paper's Definition 2) uses the bounded max fill, ``L1`` /
    ``L2`` (Definition 1) use the additive DP.  *threshold* enables
    early abandoning: the result is ``inf`` whenever the true distance
    exceeds it.
    """
    if base is LINF:
        if window is not None:
            result = dtw_max_matrix(s, q, window=window).distance
            if threshold is not None and result > threshold:
                return _INF
            return result
        if threshold is not None:
            return dtw_max_early_abandon(s, q, threshold)
        return dtw_max(s, q)
    return dtw_additive(s, q, base=base, window=window, threshold=threshold)


def warping_path(
    matrix: np.ndarray, *, base: BaseDistance = LINF
) -> list[tuple[int, int]]:
    """Recover one optimal warping path from an accumulated-cost matrix.

    Walks from the bottom-right cell back to ``(0, 0)`` choosing, among
    the admissible predecessors (up, left, diagonal), one whose
    accumulated cost is consistent with the current cell.  Diagonal
    moves are preferred on ties to yield the shortest of the optimal
    paths.  Returns the path in forward order as ``(i, j)`` index pairs.
    """
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("path recovery requires a non-empty 2-d matrix")
    n, m = matrix.shape
    if not math.isfinite(matrix[n - 1, m - 1]):
        raise ValidationError("no admissible warping path (matrix ends at inf)")
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        best: tuple[float, int, int] | None = None
        for di, dj in ((-1, -1), (-1, 0), (0, -1)):  # diagonal preferred
            pi, pj = i + di, j + dj
            if pi < 0 or pj < 0:
                continue
            val = matrix[pi, pj]
            if not math.isfinite(val):
                continue
            if best is None or val < best[0]:
                best = (float(val), pi, pj)
        if best is None:
            raise ValidationError("matrix is not a valid DTW accumulation matrix")
        i, j = best[1], best[2]
        path.append((i, j))
    path.reverse()
    return path
