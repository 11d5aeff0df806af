"""The optional ``numba`` kernel — JIT-compiled two-row additive DP.

Registered only when :mod:`numba` is importable; on machines without it
this module imports cleanly and registers nothing (see
``OPTIONAL_KERNELS``).  The JIT function
mirrors the reference two-row DP statement for statement: every per-cell
operation is the same IEEE-754 double ``abs``/``sub``/``mul``/``add``
and comparison, so results and early-abandon outcomes are bit-identical.
The matrix fills and the bounded Definition-2 fill are inherited from
the vectorized kernel, which is itself pinned bit-exact to reference.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..bands import Window
from .registry import register_kernel
from .vectorized import VectorizedKernel

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the common case in this image
    _numba = None

__all__ = ["NUMBA_AVAILABLE", "NumbaKernel"]

#: True when the optional numba dependency was importable and the
#: ``numba`` kernel registered itself.
NUMBA_AVAILABLE = _numba is not None


def _py_additive_total(
    s_arr: np.ndarray,
    q_arr: np.ndarray,
    power: float,
    lo: np.ndarray,
    hi: np.ndarray,
    cutoff: float,
) -> tuple[float, int]:
    """Two-row DP, numba-compilable.  ``cutoff=inf`` disables abandoning
    by value (an all-inf row can still abandon, exactly as in reference);
    the second return value is the abandoned row count, 0 for none.
    """
    inf = np.inf
    n = s_arr.shape[0]
    m = q_arr.shape[0]
    prev = np.full(m, inf)
    curr = np.full(m, inf)
    for i in range(n):
        s_i = s_arr[i]
        lo_i = lo[i]
        hi_i = hi[i]
        row_min = inf
        for j in range(m):
            curr[j] = inf
        for j in range(lo_i, hi_i):
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = prev[j]
                if j > 0:
                    if prev[j - 1] < best:
                        best = prev[j - 1]
                    if curr[j - 1] < best:
                        best = curr[j - 1]
            if best == inf:
                continue
            d = abs(s_i - q_arr[j])
            cell = best + (d * d if power == 2.0 else d)
            if cell <= cutoff:
                curr[j] = cell
                if cell < row_min:
                    row_min = cell
        if row_min == inf and not (i == 0 and lo_i > 0):
            return inf, i + 1
        prev, curr = curr, prev
    return prev[m - 1], 0


_jit_additive_total: Any = (
    _numba.njit(cache=True, fastmath=False)(_py_additive_total)
    if NUMBA_AVAILABLE  # pragma: no cover - compiled only where numba exists
    else _py_additive_total
)


class NumbaKernel(VectorizedKernel):
    """JIT two-row additive DP; vectorized fills for everything else."""

    name = "numba"

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
        if window is not None:
            bounds = np.asarray(window, dtype=np.int64)
            lo, hi = bounds[:, 0], bounds[:, 1]
        else:
            lo = np.zeros(n, dtype=np.int64)
            hi = np.full(n, m, dtype=np.int64)
        total, abandoned = _jit_additive_total(
            s_arr,
            q_arr,
            power,
            lo,
            hi,
            np.inf if cutoff is None else cutoff,
        )
        return float(total), int(abandoned) or None


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba exists
    register_kernel("numba", NumbaKernel())
