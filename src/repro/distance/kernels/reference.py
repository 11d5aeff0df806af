"""The ``reference`` kernel — the library's original DTW fills.

This is the semantics oracle every other kernel is pinned to: the
per-cell two-row additive DP and full-matrix fills exactly as they
shipped before the registry existed, plus the bounded Definition-2
fill read off the full max-recurrence matrix.  Nothing here charges
metrics — kernels return structured outcomes and the wrappers in
:mod:`repro.distance.dtw` translate them into identical ``dtw.*``
charges for every kernel.
"""

from __future__ import annotations

import math

import numpy as np

from ..bands import Window
from .registry import register_kernel

__all__ = ["ReferenceKernel"]

_INF = math.inf


class ReferenceKernel:
    """Per-cell Python DP fills — slow, simple, and the parity oracle."""

    name = "reference"

    # -- Definition 1: additive accumulation ---------------------------------

    def additive_total(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
        cutoff: float | None,
    ) -> tuple[float, int | None]:
        """Memory-efficient two-row DP; see the wrapper for semantics.

        Returns ``(raw corner total, None)`` for a completed fill, or
        ``(inf, i + 1)`` when every cell of row ``i`` exceeded *cutoff*
        (or was unreachable) — the early-abandon condition, sound for
        additive accumulation because costs only grow along a path.
        """
        n, m = s_arr.size, q_arr.size
        q_list = q_arr.tolist()
        prev: list[float] = [_INF] * m
        curr: list[float] = [_INF] * m
        for i in range(n):
            s_i = float(s_arr[i])
            lo, hi = window[i] if window is not None else (0, m)
            row_min = _INF
            for j in range(m):
                curr[j] = _INF
            for j in range(lo, hi):
                if i == 0 and j == 0:
                    best = 0.0
                else:
                    best = prev[j]
                    if j > 0:
                        if prev[j - 1] < best:
                            best = prev[j - 1]
                        if curr[j - 1] < best:
                            best = curr[j - 1]
                if best == _INF:
                    continue
                d = abs(s_i - q_list[j])
                cell = best + (d * d if power == 2.0 else d)
                if cutoff is None or cell <= cutoff:
                    curr[j] = cell
                    if cell < row_min:
                        row_min = cell
            if row_min == _INF and not (i == 0 and lo > 0):
                return _INF, i + 1
            prev, curr = curr, prev
        return prev[m - 1], None

    def additive_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
    ) -> np.ndarray:
        """Full additive accumulated-cost matrix (inadmissible cells: inf)."""
        n, m = s_arr.size, q_arr.size
        cost = np.abs(s_arr[:, None] - q_arr[None, :])
        if power != 1.0:
            cost = cost**power
        acc = np.full((n, m), _INF)
        for i in range(n):
            lo, hi = window[i] if window is not None else (0, m)
            row_cost = cost[i]
            prev = acc[i - 1] if i > 0 else None
            acc_row = acc[i]
            for j in range(lo, hi):
                if i == 0 and j == 0:
                    best = 0.0
                else:
                    best = _INF
                    if prev is not None:
                        up = prev[j]
                        if up < best:
                            best = up
                        if j > 0:
                            diag = prev[j - 1]
                            if diag < best:
                                best = diag
                    if j > 0:
                        left = acc_row[j - 1]
                        if left < best:
                            best = left
                acc_row[j] = row_cost[j] + best
        return acc

    # -- Definition 2: max accumulation --------------------------------------

    def max_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        window: Window | None,
    ) -> np.ndarray:
        """Full max-recurrence matrix:
        ``acc[i, j] = max(|s_i - q_j|, min(up, left, diag))``.
        """
        n, m = s_arr.size, q_arr.size
        cost = np.abs(s_arr[:, None] - q_arr[None, :])
        acc = np.full((n, m), _INF)
        for i in range(n):
            lo, hi = window[i] if window is not None else (0, m)
            row_cost = cost[i]
            prev = acc[i - 1] if i > 0 else None
            acc_row = acc[i]
            for j in range(lo, hi):
                if i == 0 and j == 0:
                    reach = 0.0
                else:
                    reach = _INF
                    if prev is not None:
                        if prev[j] < reach:
                            reach = prev[j]
                        if j > 0 and prev[j - 1] < reach:
                            reach = prev[j - 1]
                    if j > 0 and acc_row[j - 1] < reach:
                        reach = acc_row[j - 1]
                c = row_cost[j]
                acc_row[j] = c if c > reach else reach
        return acc

    def max_bounded(
        self, s_arr: np.ndarray, q_arr: np.ndarray, epsilon: float
    ) -> tuple[float, int, float | None]:
        """Definition-2 distance if it is ``<= epsilon``, else ``inf``.

        Fills the whole :meth:`max_matrix` and reads the abandon point
        off its anti-diagonal minima: a warping step advances ``i + j``
        by one or two, so no admissible path crosses two consecutive
        anti-diagonals whose cells all exceed *epsilon*.  The first
        such pair ends the pass.

        Returns ``(distance or inf, cells, abandon depth)``: *cells*
        counts the cells on the anti-diagonals swept, and the depth is
        the fraction of anti-diagonals swept when the pass abandoned, or
        ``None`` for a full pass.
        """
        n, m = s_arr.size, q_arr.size
        acc = self.max_matrix(s_arr, q_arr, window=None)
        span = n + m - 1
        # Anti-diagonal d (cells with i + j == d) is the column-flipped
        # matrix's diagonal at offset m - 1 - d.
        flipped = acc[:, ::-1]
        dead = [
            float(flipped.diagonal(m - 1 - d).min()) > epsilon
            for d in range(span)
        ]
        for d in range(1, span):
            if dead[d - 1] and dead[d]:
                swept = np.add.outer(np.arange(n), np.arange(m)) <= d
                return _INF, int(swept.sum()), (d + 1) / span
        corner = float(acc[n - 1, m - 1])
        return (corner if corner <= epsilon else _INF), n * m, None


register_kernel("reference", ReferenceKernel())
