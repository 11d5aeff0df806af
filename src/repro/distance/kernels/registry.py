"""The DTW kernel registry — interchangeable fills, one contract.

A *kernel* is one implementation of the low-level DTW computations the
public functions in :mod:`repro.distance.dtw` dispatch to: the additive
two-row accumulation (Definition 1), the full-matrix fills (for warping
path recovery), and the bounded early-abandoning max fill (Definition 2).

Kernels are registered under a short name in :data:`KERNELS` and
selected process-wide via :func:`set_kernel`, per-scope via
:func:`use_kernel`, or through the ``REPRO_DTW_KERNEL`` environment
variable (read lazily on first use; an explicit :func:`set_kernel`
always wins).  The default is the ``vectorized`` kernel.

The exactness contract
----------------------
Every registered kernel must be **bit-identical** to the ``reference``
kernel: same distances, same accumulated matrices (hence same warping
paths), and — because the kernels return structured outcomes instead of
charging metrics themselves — identical ``dtw.cells`` /
``dtw.early_abandons`` / ``dtw.abandon_depth`` charges by construction
(the wrappers in :mod:`repro.distance.dtw` do all charging from the
outcome).  The contract is enforced three ways:

* the hypothesis differential suite ``tests/distance/test_kernel_parity.py``
  runs generated sequence pairs through every registered kernel and
  asserts bit-exact agreement with ``reference``;
* every registration must appear in the kernel-parity manifest
  ``tests/distance/kernel_manifest.py`` (lint rule RL009 checks the
  mapping statically, the suite checks it for staleness at run time);
* the committed ``BENCH_*.json`` baselines gate the exact work counters
  in CI, so a kernel that drifted would fail the bench compare.

Kernel outcome conventions
--------------------------
``additive_total`` returns ``(total, abandoned_rows)`` where *total* is
the raw accumulated corner value (squared costs for the ``L_2`` base)
and *abandoned_rows* is the number of DP rows processed when the
reference early-abandon condition fired, or ``None`` for a completed
fill.  ``max_bounded`` returns ``(distance, cells, abandon_depth)``:
*distance* is the exact Definition-2 distance when it is ``<= epsilon``
and ``inf`` otherwise, *cells* counts the cells on the anti-diagonals
swept, and *abandon_depth* is the fraction of anti-diagonals swept when
the fill abandoned (two consecutive anti-diagonals with no cell
``<= epsilon``), or ``None`` for a full fill.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ...exceptions import ValidationError

if TYPE_CHECKING:
    from ..bands import Window

__all__ = [
    "KERNELS",
    "OPTIONAL_KERNELS",
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "DtwKernel",
    "register_kernel",
    "available_kernels",
    "get_kernel",
    "set_kernel",
    "active_kernel",
    "use_kernel",
]

#: Environment variable naming the kernel to use when none was set
#: programmatically (``REPRO_DTW_KERNEL=reference repro bench ...``).
KERNEL_ENV_VAR = "REPRO_DTW_KERNEL"

#: The kernel used when neither :func:`set_kernel` nor the environment
#: chose one.
DEFAULT_KERNEL = "vectorized"

#: Kernel names whose registration is conditional on an optional
#: dependency being importable.  The parity manifest may (and should)
#: carry entries for these even on machines where they never register.
OPTIONAL_KERNELS = frozenset({"numba"})


class DtwKernel(Protocol):
    """The kernel contract every registry entry implements.

    All array arguments are validated, non-empty, contiguous float64
    1-d arrays (the wrappers in :mod:`repro.distance.dtw` handle
    coercion, boundary cases and window-shape validation before
    dispatching).
    """

    #: Registry name; must match the registration key.
    name: str

    def additive_total(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: "Window | None",
        cutoff: float | None,
    ) -> tuple[float, int | None]:
        """Two-row additive DP: ``(raw corner total, abandoned rows | None)``."""
        ...

    def additive_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: "Window | None",
    ) -> np.ndarray:
        """The full additive accumulated-cost matrix (inadmissible: inf)."""
        ...

    def max_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        window: "Window | None",
    ) -> np.ndarray:
        """The full max-recurrence accumulated matrix (Definition 2)."""
        ...

    def max_bounded(
        self, s_arr: np.ndarray, q_arr: np.ndarray, epsilon: float
    ) -> tuple[float, int, float | None]:
        """Bounded max fill: ``(distance or inf, cells, abandon depth)``."""
        ...


#: Every registered kernel, keyed by name.  Mutate only through
#: :func:`register_kernel`; lint rule RL009 cross-checks each
#: registration against the kernel-parity manifest.
KERNELS: dict[str, DtwKernel] = {}

_lock = threading.Lock()
_active_name: str | None = None


def register_kernel(name: str, kernel: DtwKernel) -> DtwKernel:
    """Register *kernel* under *name*; returns the kernel.

    Every call site must keep *name* a string literal so RL009 can
    statically tie the registration to its parity-manifest entry.
    """
    if kernel.name != name:
        raise ValidationError(
            f"kernel name mismatch: registering {name!r} but kernel "
            f"declares {kernel.name!r}"
        )
    with _lock:
        KERNELS[name] = kernel
    return kernel


def available_kernels() -> tuple[str, ...]:
    """The registered kernel names, sorted."""
    return tuple(sorted(KERNELS))


def get_kernel(name: str) -> DtwKernel:
    """The registered kernel called *name* (raises on unknown names)."""
    try:
        return KERNELS[name]
    except KeyError:
        known = ", ".join(available_kernels())
        raise ValidationError(
            f"unknown DTW kernel {name!r}; registered: {known}"
        ) from None


def _resolve_default() -> str:
    env = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if env:
        get_kernel(env)  # validate eagerly so a typo fails loudly
        return env
    return DEFAULT_KERNEL


def set_kernel(name: str) -> str:
    """Select the process-wide kernel; returns the previous selection."""
    global _active_name
    get_kernel(name)
    with _lock:
        previous = _active_name if _active_name is not None else _resolve_default()
        _active_name = name
    return previous


def active_kernel() -> DtwKernel:
    """The currently selected kernel (set > environment > default)."""
    name = _active_name
    if name is None:
        name = _resolve_default()
    return get_kernel(name)


@contextmanager
def use_kernel(name: str) -> Iterator[DtwKernel]:
    """Scope the kernel selection: ``with use_kernel("reference"): ...``."""
    global _active_name
    kernel = get_kernel(name)
    with _lock:
        previous = _active_name
        _active_name = name
    try:
        yield kernel
    finally:
        with _lock:
            _active_name = previous
