"""The ``vectorized`` kernel — anti-diagonal wavefront fills in numpy.

Cells on an anti-diagonal ``i + j = d`` depend only on diagonals
``d - 1`` (up / left) and ``d - 2`` (diagonal step), so the DP fills in
``n + m - 1`` python iterations, each a handful of vectorized numpy
operations over one diagonal — versus the reference kernel's
``O(n * m)`` per-cell interpreter steps.

Bit-exactness with the reference kernel holds by construction: per cell
the same IEEE-754 double operations run in the same combination
(``abs``/``sub``/``mul``/``add`` and exact ``min``/``max``), and the
early-abandon decision is re-evaluated row-by-row in completion order
(row ``i`` completes on diagonal ``i + m - 1``), reproducing the
reference's first-all-inf-row abandonment — including its charge — even
though later rows are already partially filled.  The bounded
Definition-2 fill (:meth:`VectorizedKernel.max_bounded`) abandons on the
same anti-diagonal the reference reads off its full matrix.

Windowed fills go to the reference per-cell loop: a banded wavefront
pays the per-diagonal numpy dispatch on diagonals that hold only a few
admissible cells, and measured slower than the interpreter loop at every
length.
"""

from __future__ import annotations

import math

import numpy as np

from ..bands import Window
from .reference import ReferenceKernel
from .registry import register_kernel

__all__ = ["VectorizedKernel"]

_INF = math.inf

#: Below this grid size the per-diagonal numpy dispatch overhead costs
#: more than it saves and the reference per-cell loop wins (measured
#: crossover ~1.6-2k cells); small fills delegate to the reference DP,
#: which is bit-exact with itself by definition.
_WAVEFRONT_MIN_CELLS = 2048


class VectorizedKernel(ReferenceKernel):
    """Anti-diagonal numpy wavefront for unconstrained fills."""

    name = "vectorized"

    def additive_total(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
        cutoff: float | None,
    ) -> tuple[float, int | None]:
        n, m = s_arr.size, q_arr.size
        if window is not None or n * m < _WAVEFRONT_MIN_CELLS:
            return super().additive_total(
                s_arr, q_arr, power=power, window=window, cutoff=cutoff
            )
        qr = np.ascontiguousarray(q_arr[::-1])
        # The reference two-row DP overflows to inf silently (python
        # float semantics); match that rather than warning per diagonal.
        with np.errstate(over="ignore"):
            if cutoff is None and self._overflow_free(s_arr, q_arr, power):
                return self._additive_wavefront_lean(s_arr, qr, power)
            return self._additive_wavefront(s_arr, qr, power, cutoff)

    @staticmethod
    def _overflow_free(
        s_arr: np.ndarray, q_arr: np.ndarray, power: float
    ) -> bool:
        """True when no accumulated cell can overflow to inf.

        Any warping path visits fewer than ``n + m`` cells, each costing
        at most ``(max|s| + max|q|) ** power``, so a finite product
        bounds every partial sum — ruling out the overflow-to-inf rows
        that make even the unconstrained reference DP abandon.
        """
        peak = float(np.abs(s_arr).max()) + float(np.abs(q_arr).max())
        if power == 2.0:
            peak = peak * peak
        return math.isfinite(peak * (s_arr.size + q_arr.size))

    def _additive_wavefront_lean(
        self, s_arr: np.ndarray, qr: np.ndarray, power: float
    ) -> tuple[float, int | None]:
        """The unconstrained overflow-free fill: no abandon can happen.

        Every in-grid cell has at least one finite predecessor and a
        finite cost (callers prove this via :meth:`_overflow_free`),
        hence stays finite — the abandon bookkeeping of the general
        wavefront is dead weight here.  Instead of re-initialising the whole
        ``curr`` buffer each diagonal, two sentinel writes suffice: the
        admissible row range ``[i0, i1]`` moves by at most one per
        diagonal, so the only stale slots later diagonals can read are
        ``i0`` (below the written run) and ``i1 + 2`` (above it).
        """
        n, m = s_arr.size, qr.size
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            cost = np.abs(s_arr[i0 : i1 + 1] - qr[m - 1 - d + i0 : m - d + i1])
            if power == 2.0:
                cost = cost * cost
            if d == 0:
                curr[1] = cost[0]  # the (0, 0) corner: best is 0.0
            else:
                best = np.minimum(prev1[i0 : i1 + 1], prev1[i0 + 1 : i1 + 2])
                np.minimum(best, prev2[i0 : i1 + 1], out=best)
                best += cost
                curr[i0 + 1 : i1 + 2] = best
            curr[i0] = _INF
            if i1 + 2 <= n:
                curr[i1 + 2] = _INF
            prev2, prev1, curr = prev1, curr, prev2
        return float(prev1[n]), None

    def _additive_wavefront(
        self,
        s_arr: np.ndarray,
        qr: np.ndarray,
        power: float,
        cutoff: float | None,
    ) -> tuple[float, int | None]:
        n, m = s_arr.size, qr.size
        row_finite = np.zeros(n, dtype=bool)
        # Diagonal buffers indexed by row + 1; slot 0 is an inf sentinel
        # standing in for the out-of-grid row -1.
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            curr[:] = _INF
            cost = np.abs(s_arr[i0 : i1 + 1] - qr[m - 1 - d + i0 : m - d + i1])
            if power == 2.0:
                cost = cost * cost
            if d == 0:
                cell = cost  # the (0, 0) corner: best is 0.0
            else:
                best = np.minimum(
                    np.minimum(prev1[i0 : i1 + 1], prev1[i0 + 1 : i1 + 2]),
                    prev2[i0 : i1 + 1],
                )
                cell = best + cost
            if cutoff is not None:
                cell[cell > cutoff] = _INF
            curr[i0 + 1 : i1 + 2] = cell
            row_finite[i0 : i1 + 1] |= np.isfinite(cell)
            # Row i completes once diagonal i + m - 1 is filled; checking
            # in completion order reproduces the reference early abandon.
            completed = d - m + 1
            if completed >= 0 and not row_finite[completed]:
                return _INF, completed + 1
            prev2, prev1, curr = prev1, curr, prev2
        return float(prev1[n]), None

    def additive_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
    ) -> np.ndarray:
        if window is not None or s_arr.size * q_arr.size < _WAVEFRONT_MIN_CELLS:
            return super().additive_matrix(
                s_arr, q_arr, power=power, window=window
            )
        cost = np.abs(s_arr[:, None] - q_arr[None, ::-1])
        if power != 1.0:
            cost = cost**power
        return self._wavefront_matrix(cost, additive=True)

    def max_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        window: Window | None,
    ) -> np.ndarray:
        if window is not None or s_arr.size * q_arr.size < _WAVEFRONT_MIN_CELLS:
            return super().max_matrix(s_arr, q_arr, window=window)
        cost = np.abs(s_arr[:, None] - q_arr[None, ::-1])
        return self._wavefront_matrix(cost, additive=False)

    def _wavefront_matrix(
        self, cost: np.ndarray, *, additive: bool
    ) -> np.ndarray:
        """Fill the full accumulated matrix one anti-diagonal at a time.

        *cost* is ``(n, m)`` against the reversed query: ``cost[i, m - 1
        - j]`` is the cost of cell ``(i, j)``.  ``additive=True``
        accumulates ``best + cost`` (Definition 1, *cost* already raised
        to the base power); ``additive=False`` accumulates ``max(cost,
        best)`` (Definition 2).

        The fill runs in place on a padded ``(n + 1) x (m + 1)``
        accumulator in the same reversed layout: cell ``(i, j)`` sits at
        ``[i + 1, m - 1 - j]``, and row 0 and column ``m`` hold the inf
        border of the out-of-grid row and column -1.  In the flattened
        accumulator anti-diagonal ``d`` is then a strided view with step
        ``m + 2``; its up, left and diagonal predecessors are the same
        view shifted by ``-(m + 1)``, ``+1`` and ``-m``, all on earlier
        anti-diagonals.  So each anti-diagonal reads and writes
        views only, with no reset and no index arrays.
        """
        n, m = cost.shape
        row = m + 1
        step = m + 2
        padded = np.full((n + 1, row), _INF)
        flat = padded.ravel()
        costs = cost.ravel()
        best = np.empty(min(n, m))
        # The (0, 0) corner: best is 0.0 and cost >= 0, so both
        # recurrences reduce to the cost itself.
        padded[1, m - 1] = cost[0, m - 1]
        for d in range(1, n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            size = i1 - i0 + 1
            start = i0 * step + 2 * m - d
            stop = start + (size - 1) * step + 1
            first = i0 * row + m - 1 - d
            c = costs[first : first + (size - 1) * row + 1 : row]
            b = best[:size]
            np.minimum(
                flat[start - row : stop - row : step],
                flat[start + 1 : stop + 1 : step],
                out=b,
            )
            np.minimum(b, flat[start - m : stop - m : step], out=b)
            cells = flat[start:stop:step]
            if additive:
                np.add(b, c, out=cells)
            else:
                np.maximum(c, b, out=cells)
        return padded[1:, m - 1 :: -1].copy()

    def max_bounded(
        self, s_arr: np.ndarray, q_arr: np.ndarray, epsilon: float
    ) -> tuple[float, int, float | None]:
        """The bounded max-recurrence fill as one early-abandoning wavefront.

        Each anti-diagonal computes ``max(cost, min(up, left, diag))``
        with the buffer layout and two sentinel writes of
        :meth:`_additive_wavefront_lean`.  The costs are one ``|S| x
        |Q|`` array built up front against the reversed query, so
        anti-diagonal ``d`` is the strided view at offset ``m - 1 - d``
        with step ``m + 1``.  A step advances ``i + j`` by one or two,
        so the pass abandons once two consecutive anti-diagonals hold no
        cell ``<= epsilon`` — one such diagonal can still be jumped by a
        diagonal step.  Values are never clipped, so a surviving corner
        is the exact distance.
        """
        n, m = s_arr.size, q_arr.size
        cost = np.abs(s_arr[:, None] - q_arr[None, ::-1]).ravel()
        step = m + 1
        span = n + m - 1
        bounded = epsilon != _INF
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        best = np.empty(n)
        cells = 0
        dead_before = False
        live = 0  # row of a cell <= epsilon on the last live anti-diagonal
        for d in range(span):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            size = i1 - i0 + 1
            start = i0 * step + m - 1 - d
            c = cost[start : start + (size - 1) * step + 1 : step]
            cell = curr[i0 + 1 : i1 + 2]
            if d == 0:
                cell[0] = c[0]  # the (0, 0) corner: no predecessor
            else:
                b = best[:size]
                np.minimum(prev1[i0 : i1 + 1], prev1[i0 + 1 : i1 + 2], out=b)
                np.minimum(b, prev2[i0 : i1 + 1], out=b)
                np.maximum(c, b, out=cell)
            curr[i0] = _INF
            if i1 + 2 <= n:
                curr[i1 + 2] = _INF
            cells += size
            if bounded:
                # The successors of the last live cell found sit in its
                # row or the next: probe those two before reducing the
                # whole anti-diagonal.
                if i0 <= live <= i1 and curr[live + 1] <= epsilon:
                    dead = False
                elif i0 <= live + 1 <= i1 and curr[live + 2] <= epsilon:
                    live += 1
                    dead = False
                else:
                    # ``min`` keeps the GIL where ``argmin`` drops it on
                    # every call, which lets another shard thread cut in.
                    low = cell.min()
                    dead = bool(low > epsilon)
                    if not dead:
                        live = i0 + cell.tolist().index(low)
                    elif dead_before:
                        return _INF, cells, (d + 1) / span
                dead_before = dead
            prev2, prev1, curr = prev1, curr, prev2
        corner = float(prev1[n])
        return (corner if corner <= epsilon else _INF), n * m, None


register_kernel("vectorized", VectorizedKernel())
