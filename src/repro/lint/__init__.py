"""``repro lint`` — the domain-aware static-analysis pass.

The sharded, thread-parallel engine rests on conventions no test run
can fully exercise: shared state on the query path must be lock-guarded
or thread-local, work counters must be deterministic functions of the
seeded workload, only domain errors may cross the public API.  This
package is the static gate for those conventions: an AST-based rule engine
(:mod:`repro.lint.engine`) plus one module per project rule under
:mod:`repro.lint.rules`.

Run it as ``repro lint [--rules ...] [--format json|table] PATH`` or via
the ``repro-lint`` console script; suppress a finding in place with a
``# repro-lint: disable=RL0xx`` comment on the offending line.
"""

from __future__ import annotations

from .engine import (
    FileContext,
    LintReport,
    Project,
    Rule,
    StaleSuppression,
    Violation,
    apply_suppressions,
    prune_suppressions,
    run_lint,
)
from .rules import ALL_RULES, RULES_BY_CODE, make_rules

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "FileContext",
    "LintReport",
    "Project",
    "Rule",
    "StaleSuppression",
    "Violation",
    "apply_suppressions",
    "make_rules",
    "prune_suppressions",
    "run_lint",
]
