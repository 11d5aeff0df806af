"""RL014 — every charged metric is accounted for by tests or baselines.

A metric charged in ``src/`` that nothing ever asserts on is
observability rot: it costs a dict update per query and drifts
silently when a refactor renames a layer.  This rule collects every
charge site in the project's ``src/`` tree — ``.count()`` /
``.observe()`` / ``.set_gauge()`` on registry-shaped receivers plus the
ambient :mod:`repro.obs.metrics` helpers, the same surface RL005
validates — and requires each charged name to *resolve* into at least
one accounting artifact:

* a parity/regression suite under ``tests/`` referencing the name, or
* a bench baseline (``BENCH_*.json`` at the repo root or
  ``benchmarks/_baselines/*.json``).

F-string charges are matched by skeleton: each formatted value becomes
a one-segment wildcard, so ``f"cascade.{tier}.pruned"`` is accounted by
any artifact mentioning ``cascade.lb_kim.pruned``.

The only exemption is the ``.seconds`` convention: a name whose final
segment is exactly ``seconds`` is a wall-time series, excluded from
parity suites by design (DESIGN.md §9) — and nothing *else* is
excluded, so a timing-ish name spelled any other way must be accounted
or renamed.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from ..engine import FileContext, Project, Rule, Violation
from .rl005_metric_names import _receiver_name

if TYPE_CHECKING:
    from ..semantics import SemanticGraph

__all__ = ["ChargeAccountingRule"]

#: Registry methods that charge a series (creation helpers are not
#: charges; an instrument built but never charged shows up as RL007
#: dead code instead).
_CHARGE_METHODS = frozenset({"count", "observe", "set_gauge"})

_RECEIVER_NAMES = frozenset(
    {"registry", "per_query", "metrics", "outer", "sink"}
)

#: Marker for f-string placeholders; ``*`` cannot appear in a metric
#: name, so skeletons never collide with literal text.
_PLACEHOLDER = "*"

#: What one placeholder may stand for inside a name segment.
_WILDCARD = r"[a-z0-9_\-\[\]]+"


def _charge_skeleton(node: ast.expr) -> str | None:
    """The charged name with formatted values as ``*`` placeholders."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append(_PLACEHOLDER)
            else:
                return None
        return "".join(parts)
    return None


def _skeleton_pattern(skeleton: str) -> re.Pattern[str]:
    """A regex matching every concrete name the skeleton can charge."""
    return re.compile(
        re.escape(skeleton).replace(re.escape(_PLACEHOLDER), _WILDCARD)
    )


def _is_charge_call(ctx: FileContext, call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr not in _CHARGE_METHODS:
            return False
        receiver = _receiver_name(func.value)
        return receiver is not None and (
            receiver in _RECEIVER_NAMES
            or receiver.endswith("registry")
            or receiver.endswith("metrics")
        )
    if isinstance(func, ast.Name) and func.id in _CHARGE_METHODS:
        origin = ctx.imports.get(func.id, "")
        return origin.endswith(f"obs.metrics.{func.id}") or origin.endswith(
            f"obs.{func.id}"
        )
    return False


class ChargeAccountingRule(Rule):
    code = "RL014"
    title = "charged metrics must resolve to a test or bench baseline"
    rationale = (
        "a metric nothing asserts on drifts silently; every charge "
        "must be pinned by a parity suite or bench baseline "
        "(DESIGN.md par.9)"
    )

    def check_project(
        self, graph: "SemanticGraph", project: Project
    ) -> Iterator[Violation]:
        corpus = self._accounting_corpus(project.root)
        for ctx in project.files:
            if not ctx.rel.startswith("src/"):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if not _is_charge_call(ctx, node):
                    continue
                skeleton = _charge_skeleton(node.args[0])
                if skeleton is None:
                    continue
                if skeleton.rsplit(".", 1)[-1] == "seconds":
                    continue  # the one sanctioned parity exclusion
                pattern = _skeleton_pattern(skeleton)
                if any(pattern.search(text) for text in corpus):
                    continue
                display = skeleton.replace(_PLACEHOLDER, "{...}")
                yield self.violation(
                    ctx,
                    node.args[0],
                    f"charged metric {display!r} resolves to no parity "
                    "suite under tests/ and no bench baseline "
                    "(BENCH_*.json, benchmarks/_baselines/); account for "
                    "it or use the '.seconds' timing convention",
                )

    # -- accounting corpus ---------------------------------------------------

    def _accounting_corpus(self, root: Path) -> list[str]:
        """The text of every accounting artifact, in path order."""
        paths: list[Path] = []
        tests = root / "tests"
        if tests.is_dir():
            paths.extend(sorted(tests.rglob("*.py")))
        paths.extend(sorted(root.glob("BENCH_*.json")))
        baselines = root / "benchmarks" / "_baselines"
        if baselines.is_dir():
            paths.extend(sorted(baselines.glob("*.json")))
        corpus: list[str] = []
        for path in paths:
            try:
                corpus.append(path.read_text())
            except (OSError, UnicodeDecodeError):
                continue
        return corpus
