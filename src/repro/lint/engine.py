"""The rule engine behind ``repro lint``.

Stdlib-only static analysis: every checked file is parsed once into an
:class:`ast.Module` (plus a :mod:`tokenize` pass for suppression
comments) and handed to each active rule.  Rules are small classes with
three hooks — :meth:`Rule.check_file` for per-file checks,
:meth:`Rule.finalize` for whole-project checks that need to see every
file (dead exports), and :meth:`Rule.check_project` for rules that
opt into the semantic core (:mod:`repro.lint.semantics`): the
import/module graph, symbol table and conservative call graph are
built once per run, lazily, and shared by every opted-in rule.

Suppressions are per-line comments::

    raise KeyError(name)  # repro-lint: disable=RL004
    # repro-lint: disable-file=RL003   (anywhere: whole file)

``disable=all`` / ``disable-file=all`` silence every rule.  Suppressed
findings are still collected (reported separately) so ``--format json``
artifacts show what was waived, not just what fired.  Waivers whose
rule no longer fires on their line, or that name no rule in the pack,
are reported in the ``stale`` section and removable with
:func:`prune_suppressions` (``--prune-suppressions``).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import ValidationError
from ..obs.export import render_table

if TYPE_CHECKING:
    from .semantics import SemanticGraph

__all__ = [
    "Violation",
    "StaleSuppression",
    "FileContext",
    "Project",
    "Rule",
    "LintReport",
    "run_lint",
    "apply_suppressions",
    "prune_suppressions",
]

#: Rule code reserved for files the engine itself cannot parse.
PARSE_ERROR_CODE = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)=([A-Za-z0-9_*,\s]+|all)"
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule code anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def location(self) -> str:
        """``path:line:col`` — the clickable anchor."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready plain-data form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], dict[str, int]]:
    """``(line -> codes, file-level code -> declaring line)``."""
    per_line: dict[int, frozenset[str]] = {}
    whole_file: dict[str, int] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line, whole_file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper() if code.strip() != "all" else "all"
            for code in match.group(2).split(",")
            if code.strip()
        )
        if match.group(1) == "disable-file":
            for code in codes:
                whole_file.setdefault(code, token.start[0])
        else:
            line = token.start[0]
            per_line[line] = per_line.get(line, frozenset()) | codes
    return per_line, whole_file


class FileContext:
    """One parsed source file plus the lookups every rule needs."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        suppressions, file_suppression_lines = _parse_suppressions(source)
        self.suppressions = suppressions
        self.file_suppression_lines = file_suppression_lines
        self.file_suppressions = frozenset(file_suppression_lines)
        self._imports: dict[str, str] | None = None

    # -- suppression lookup --------------------------------------------------

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when *code* is waived on *line* (or file-wide)."""
        if "all" in self.file_suppressions or code in self.file_suppressions:
            return True
        codes = self.suppressions.get(line)
        return codes is not None and ("all" in codes or code in codes)

    # -- import-aware name resolution ---------------------------------------

    @property
    def imports(self) -> dict[str, str]:
        """Local alias -> dotted origin, from this file's import statements.

        ``import numpy as np`` maps ``np -> numpy``;
        ``from threading import Lock`` maps ``Lock -> threading.Lock``;
        relative imports keep their leading dots
        (``from ..obs.metrics import count`` -> ``..obs.metrics.count``).
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        table[alias.asname or alias.name.split(".")[0]] = (
                            alias.name
                        )
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        table[alias.asname or alias.name] = (
                            f"{module}.{alias.name}" if module else alias.name
                        )
            self._imports = table
        return self._imports

    def qualified(self, node: ast.expr) -> str | None:
        """The dotted origin of a Name/Attribute chain, import-resolved.

        ``np.random.default_rng`` -> ``numpy.random.default_rng``;
        an unimported bare name resolves to itself (builtins).
        Returns ``None`` for expressions that are not a plain chain.
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def identifiers(self) -> frozenset[str]:
        """Every identifier-shaped token in the source (docstrings too)."""
        return frozenset(_IDENTIFIER_RE.findall(self.source))


class Project:
    """Everything one lint run can see: parsed files plus the repo root.

    *root* anchors the cross-file rules (the dead-export reference
    corpus spanning ``src``/``tests``/``benchmarks``/``docs``, the
    charge-accounting corpus under ``tests/``).
    """

    #: Directories (relative to root) scanned for cross-reference files.
    REFERENCE_DIRS = ("src", "tests", "benchmarks", "examples")

    def __init__(self, root: Path, files: list[FileContext]) -> None:
        self.root = root
        # Sorted by repo-relative path so every downstream consumer —
        # rule anchors, the semantic graph, the JSON report — is
        # independent of file-discovery order.
        self.files = sorted(files, key=lambda ctx: ctx.rel)
        self._by_rel = {ctx.rel: ctx for ctx in self.files}
        self._reference_identifiers: dict[str, frozenset[str]] | None = None

    def file(self, rel: str) -> FileContext | None:
        """The checked file at repo-relative posix path *rel*, if any."""
        return self._by_rel.get(rel)

    def reference_identifiers(self) -> dict[str, frozenset[str]]:
        """Identifier sets of every reference file, keyed by rel path.

        Covers all Python under :attr:`REFERENCE_DIRS` plus the Markdown
        docs (``*.md`` at the root and under ``docs/``) — a textual
        mention in documentation keeps a public symbol alive.
        """
        if self._reference_identifiers is not None:
            return self._reference_identifiers
        corpus: dict[str, frozenset[str]] = {}
        paths: list[Path] = []
        for sub in self.REFERENCE_DIRS:
            base = self.root / sub
            if base.is_dir():
                paths.extend(sorted(base.rglob("*.py")))
        paths.extend(sorted(self.root.glob("*.md")))
        docs = self.root / "docs"
        if docs.is_dir():
            paths.extend(sorted(docs.rglob("*.md")))
        for path in paths:
            rel = path.relative_to(self.root).as_posix()
            if rel in corpus:
                continue
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError):
                continue
            corpus[rel] = frozenset(_IDENTIFIER_RE.findall(text))
        self._reference_identifiers = corpus
        return corpus


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`code` (``RL0xx``), :attr:`title` (a short
    imperative label) and :attr:`rationale` (one sentence tying the rule
    to the invariant it protects), then override one or more hooks.
    Overriding :meth:`check_project` opts the rule into the semantic
    core — the engine builds the module/symbol/call graph once, lazily,
    only when an active rule asks for it.
    """

    code: str = "RL0XX"
    title: str = ""
    rationale: str = ""

    def check_file(
        self, ctx: FileContext, project: Project
    ) -> Iterator[Violation]:
        """Per-file findings (default: none)."""
        return iter(())

    def finalize(self, project: Project) -> Iterator[Violation]:
        """Whole-project findings, after every file was seen."""
        return iter(())

    def check_project(
        self, graph: "SemanticGraph", project: Project
    ) -> Iterator[Violation]:
        """Whole-program findings over the semantic graph (opt-in)."""
        return iter(())

    @classmethod
    def uses_semantics(cls) -> bool:
        """True when the rule overrides :meth:`check_project`."""
        return cls.check_project is not Rule.check_project

    def violation(
        self, ctx_or_rel: FileContext | str, node: ast.AST | None, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at *node* (or the file)."""
        rel = ctx_or_rel.rel if isinstance(ctx_or_rel, FileContext) else ctx_or_rel
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Violation(rel, int(line), int(col) + 1, self.code, message)


@dataclass(frozen=True, order=True)
class StaleSuppression:
    """A waiver comment whose rule no longer fires on its line."""

    path: str
    line: int
    rule: str
    scope: str  # "line" | "file"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "scope": self.scope,
        }


@dataclass
class LintReport:
    """The outcome of one lint run."""

    root: Path
    files_checked: int
    rules: list[str]
    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    stale: list[StaleSuppression] = field(default_factory=list)
    #: The semantic graph, present when a semantic rule ran (or the
    #: caller requested it); never serialized into the JSON report.
    graph: "SemanticGraph | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def exit_code(self) -> int:
        """Non-zero iff any unsuppressed finding remains."""
        return 1 if self.violations else 0

    def to_json(self, *, indent: int = 2) -> str:
        """The machine-readable report (the CI artifact)."""
        return json.dumps(
            {
                "root": str(self.root),
                "files_checked": self.files_checked,
                "rules": list(self.rules),
                "summary": {
                    "violations": len(self.violations),
                    "suppressed": len(self.suppressed),
                    "stale": len(self.stale),
                },
                "violations": [v.to_dict() for v in self.violations],
                "suppressed": [v.to_dict() for v in self.suppressed],
                "stale": [s.to_dict() for s in self.stale],
            },
            indent=indent,
            sort_keys=True,
        )

    def render(self) -> str:
        """The human-readable table (reuses the obs table renderer)."""
        lines: list[str] = []
        if self.violations:
            lines.append(
                render_table(
                    ("rule", "location", "message"),
                    [
                        (v.rule, v.location, v.message)
                        for v in self.violations
                    ],
                )
            )
            lines.append("")
        lines.append(
            f"repro lint: {len(self.violations)} violation(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.stale)} stale waiver(s), "
            f"{self.files_checked} file(s) checked, "
            f"rules: {', '.join(self.rules)}"
        )
        return "\n".join(lines)


def find_project_root(start: Path) -> Path:
    """Walk up from *start* to the enclosing ``pyproject.toml`` holder."""
    current = start if start.is_dir() else start.parent
    current = current.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def _collect_paths(paths: Sequence[str | Path]) -> list[Path]:
    collected: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ValidationError(f"lint path does not exist: {path}")
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(resolved)
    return collected


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _stale_suppressions(
    project: Project,
    findings: Sequence[Violation],
    executed: frozenset[str],
    known: frozenset[str],
) -> list[StaleSuppression]:
    """Waivers that silence nothing on their anchor.

    *findings* is the pre-suppression set: a waiver that silences a
    still-firing finding is live, not stale.  A known code outside
    *executed* (the rules this run actually exercised, plus RL000) is
    never reported stale — a restricted ``--rules`` run cannot tell
    whether the waived rule would fire.  A code outside *known* names
    no rule at all (a typo, or a retired rule), so it is stale on every
    run.
    """
    by_line: dict[tuple[str, int], set[str]] = {}
    by_file: dict[str, set[str]] = {}
    for violation in findings:
        by_line.setdefault((violation.path, violation.line), set()).add(
            violation.rule
        )
        by_file.setdefault(violation.path, set()).add(violation.rule)

    def is_stale(code: str, fired: set[str]) -> bool:
        if code == "all":
            return not fired
        if code not in known:
            return True
        return code in executed and code not in fired

    stale: list[StaleSuppression] = []
    for ctx in project.files:
        for line in sorted(ctx.suppressions):
            fired = by_line.get((ctx.rel, line), set())
            for code in sorted(ctx.suppressions[line]):
                if is_stale(code, fired):
                    stale.append(StaleSuppression(ctx.rel, line, code, "line"))
        file_fired = by_file.get(ctx.rel, set())
        for code, line in sorted(ctx.file_suppression_lines.items()):
            if is_stale(code, file_fired):
                stale.append(StaleSuppression(ctx.rel, line, code, "file"))
    return sorted(stale)


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[str] | None = None,
    root: str | Path | None = None,
    want_graph: bool = False,
) -> LintReport:
    """Run the rule pack over *paths*; returns the :class:`LintReport`.

    *rules* restricts the pack to the given codes (case-insensitive);
    *root* overrides project-root autodetection (the nearest ancestor
    of the first path holding a ``pyproject.toml``).  *want_graph*
    forces the semantic graph onto the report even when no active rule
    needs it (the ``--graph`` export path).
    """
    # Deferred: the rules import this module.
    from .rules import RULES_BY_CODE, make_rules

    if not paths:
        raise ValidationError("at least one lint path is required")
    files = _collect_paths(paths)
    project_root = (
        Path(root).resolve() if root is not None else find_project_root(
            Path(paths[0]).resolve()
        )
    )
    active_rules = make_rules(rules)
    contexts: list[FileContext] = []
    parse_failures: list[Violation] = []
    for path in files:
        rel = _relative(path, project_root)
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", 1) or 1
            parse_failures.append(
                Violation(
                    rel,
                    int(line),
                    1,
                    PARSE_ERROR_CODE,
                    f"cannot parse file: {error}",
                )
            )
            continue
        contexts.append(FileContext(path, rel, source, tree))
    project = Project(project_root, contexts)

    graph: SemanticGraph | None = None
    if want_graph or any(rule.uses_semantics() for rule in active_rules):
        # Deferred import: the semantic core is only paid for when a
        # whole-program rule is active (or --graph asked for it).
        from .semantics import build_graph

        graph = build_graph(project)

    raw: list[Violation] = list(parse_failures)
    for rule in active_rules:
        for ctx in project.files:
            raw.extend(rule.check_file(ctx, project))
        raw.extend(rule.finalize(project))
        if graph is not None and rule.uses_semantics():
            raw.extend(rule.check_project(graph, project))

    ordered = sorted(set(raw))
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in ordered:
        ctx = project.file(violation.path)
        if ctx is not None and ctx.is_suppressed(violation.line, violation.rule):
            suppressed.append(violation)
        else:
            active.append(violation)
    executed = frozenset(
        {rule.code for rule in active_rules} | {PARSE_ERROR_CODE}
    )
    return LintReport(
        root=project_root,
        files_checked=len(contexts) + len(parse_failures),
        rules=[rule.code for rule in active_rules],
        violations=active,
        suppressed=suppressed,
        stale=_stale_suppressions(
            project,
            ordered,
            executed,
            frozenset(RULES_BY_CODE) | {PARSE_ERROR_CODE},
        ),
        graph=graph,
    )


_DISABLE_INLINE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\s]+|all)"
)


def _merge_disable_comment(line: str, codes: set[str]) -> str | None:
    """*line* with *codes* merged into its ``disable=`` list, or None.

    Returns ``None`` when the line carries no inline ``disable=``
    comment to merge into (``disable-file=`` directives are left for a
    human — a line code does not belong in a file-wide waiver).
    """
    match = _DISABLE_INLINE_RE.search(line)
    if match is None:
        return None
    listed = match.group(1)
    stripped = listed.rstrip()
    existing = {code.strip() for code in stripped.split(",") if code.strip()}
    if "all" in existing:
        return line
    merged = sorted({code.upper() for code in existing} | codes)
    end = match.start(1) + len(stripped)
    return line[: match.start(1)] + ",".join(merged) + line[end:]


def apply_suppressions(report: LintReport) -> list[Path]:
    """Append ``# repro-lint: disable=...`` to every violating line.

    The ``--fix-suppressions`` escape hatch for landing the analyzer on
    a tree with known, accepted debt: each unsuppressed finding gets an
    inline waiver (one comment per line, codes merged).  A line that
    already carries a ``disable=`` comment gets the new codes merged
    into its existing list (deduped, sorted) rather than a second
    appended comment.  Returns the modified files.
    """
    by_file: dict[str, dict[int, set[str]]] = {}
    for violation in report.violations:
        if violation.rule == PARSE_ERROR_CODE:
            continue
        by_file.setdefault(violation.path, {}).setdefault(
            violation.line, set()
        ).add(violation.rule)
    changed: list[Path] = []
    for rel, lines in sorted(by_file.items()):
        path = report.root / rel
        try:
            text = path.read_text()
        except OSError:
            continue
        source_lines = text.splitlines()
        modified = False
        for lineno, codes in sorted(lines.items()):
            index = lineno - 1
            if index >= len(source_lines):
                continue
            line = source_lines[index]
            if "repro-lint:" in line:
                merged = _merge_disable_comment(line, codes)
                if merged is None or merged == line:
                    continue
                source_lines[index] = merged
                modified = True
                continue
            joined = ",".join(sorted(codes))
            source_lines[index] = f"{line}  # repro-lint: disable={joined}"
            modified = True
        if modified:
            trailing = "\n" if text.endswith("\n") else ""
            path.write_text("\n".join(source_lines) + trailing)
            changed.append(path)
    return changed


def _prune_line(line: str, codes: set[str]) -> str | None:
    """*line* with the stale *codes* pruned; ``None`` deletes the line.

    When every code in the directive is stale the whole comment goes —
    including any trailing justification text, which belongs to the
    waiver it explained.
    """
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return line
    listed = [
        code.strip() for code in match.group(2).split(",") if code.strip()
    ]
    kept = sorted(
        code
        for code in listed
        if (code if code == "all" else code.upper()) not in codes
    )
    if kept:
        stripped = match.group(2).rstrip()
        end = match.start(2) + len(stripped)
        return line[: match.start(2)] + ",".join(kept) + line[end:]
    remainder = line[: match.start()].rstrip()
    return remainder if remainder else None


def prune_suppressions(report: LintReport) -> list[Path]:
    """Remove every stale waiver the report found; returns changed files.

    The ``--prune-suppressions`` counterpart of
    :func:`apply_suppressions`: stale codes are dropped from their
    ``disable=`` / ``disable-file=`` lists, a directive left empty is
    removed outright, and a line holding nothing but the directive is
    deleted.
    """
    by_file: dict[str, dict[int, set[str]]] = {}
    for item in report.stale:
        by_file.setdefault(item.path, {}).setdefault(item.line, set()).add(
            item.rule
        )
    changed: list[Path] = []
    for rel, lines in sorted(by_file.items()):
        path = report.root / rel
        try:
            text = path.read_text()
        except OSError:
            continue
        source_lines = text.splitlines()
        modified = False
        deleted: set[int] = set()
        for lineno, codes in sorted(lines.items()):
            index = lineno - 1
            if index >= len(source_lines):
                continue
            pruned = _prune_line(source_lines[index], codes)
            if pruned is None:
                deleted.add(index)
                modified = True
            elif pruned != source_lines[index]:
                source_lines[index] = pruned
                modified = True
        if modified:
            kept_lines = [
                line
                for index, line in enumerate(source_lines)
                if index not in deleted
            ]
            trailing = "\n" if text.endswith("\n") else ""
            path.write_text("\n".join(kept_lines) + trailing)
            changed.append(path)
    return changed


def dotted_all_entries(tree: ast.Module) -> list[tuple[str, ast.expr]]:
    """``__all__`` string entries of a module with their AST nodes."""
    entries: list[tuple[str, ast.expr]] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    entries.append((element.value, element))
    return entries


def literal_parts(node: ast.expr) -> str | None:
    """A string constant, or an f-string with placeholders as ``x``.

    Lets rules validate the *shape* of built names
    (``f"cascade.{name}.in"`` -> ``cascade.x.in``) without evaluating
    the formatted values.  Returns ``None`` for non-string expressions.
    """
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("x")
            else:
                return None
        return "".join(parts)
    return None


def walk_assign_targets(node: ast.stmt) -> Iterable[ast.expr]:
    """Assignment target expressions of Assign/AugAssign/AnnAssign."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []
