"""The ``repro lint`` rule pack — one module per rule.

========  ==============================================================
RL003     no wall clock or unseeded randomness inside ``src/repro``
RL004     only :class:`~repro.exceptions.ReproError` subclasses raised
RL005     metric names follow the ``layer.noun`` grammar (DESIGN.md §9)
RL006     hot-path modules do not allocate inside per-cell loops
RL007     no dead public exports (``__all__`` referenced nowhere)
RL008     benchmark workload specs are explicitly seeded
RL010     process-worker functions avoid module-level mutable state
RL013     concurrent-closure writes are lock-guarded or per-query-local
RL014     charged metrics resolve to a test or bench baseline
RL015     public API raise-sets are ReproError-only, closed over calls
========  ==============================================================

RL013-RL015 are whole-program rules: they opt into the engine's
``check_project`` hook and share one :mod:`~repro.lint.semantics`
graph per run.  The missing codes belong to retired rules whose
invariants tier-1 tests now check against the live registries (no
false dismissal per lower bound, kernel and store parity, query-log
round trip, cascade tier reachability); a waiver naming one is
reported stale.
"""

from __future__ import annotations

from collections.abc import Sequence

from ...exceptions import ValidationError
from ..engine import Rule
from .rl003_determinism import DeterminismRule
from .rl004_exceptions import ExceptionDomainRule
from .rl005_metric_names import MetricNameRule
from .rl006_hot_loops import HotLoopAllocationRule
from .rl007_dead_exports import DeadExportRule
from .rl008_bench_seeds import BenchSeedRule
from .rl010_spawn_safety import SpawnSafetyRule
from .rl013_lock_discipline import LockDisciplineRule
from .rl014_charge_accounting import ChargeAccountingRule
from .rl015_exception_contract import ExceptionContractRule

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "make_rules",
    "DeterminismRule",
    "ExceptionDomainRule",
    "MetricNameRule",
    "HotLoopAllocationRule",
    "DeadExportRule",
    "BenchSeedRule",
    "SpawnSafetyRule",
    "LockDisciplineRule",
    "ChargeAccountingRule",
    "ExceptionContractRule",
]

#: Every rule class, in code order.
ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    ExceptionDomainRule,
    MetricNameRule,
    HotLoopAllocationRule,
    DeadExportRule,
    BenchSeedRule,
    SpawnSafetyRule,
    LockDisciplineRule,
    ChargeAccountingRule,
    ExceptionContractRule,
)

RULES_BY_CODE: dict[str, type[Rule]] = {rule.code: rule for rule in ALL_RULES}


def make_rules(codes: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the requested rules (all of them by default)."""
    if codes is None:
        return [rule() for rule in ALL_RULES]
    selected: list[Rule] = []
    seen: set[str] = set()
    for raw in codes:
        code = raw.strip().upper()
        if not code or code in seen:
            continue
        rule = RULES_BY_CODE.get(code)
        if rule is None:
            known = ", ".join(sorted(RULES_BY_CODE))
            raise ValidationError(f"unknown lint rule {raw!r} (known: {known})")
        seen.add(code)
        selected.append(rule())
    if not selected:
        raise ValidationError("no lint rules selected")
    return selected
