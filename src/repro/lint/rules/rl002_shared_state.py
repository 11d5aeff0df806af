"""RL002 — shared mutable state on the query path must be protected.

:class:`~repro.core.sharding.ShardedDatabase` fans queries out on a
thread pool, and the engines it drives are shared across those workers.
Any bare ``self.x = ...`` write reachable from a ``search*`` / ``knn*``
entry point is therefore a data race unless the attribute is a
``threading.local``, a ``contextvars.ContextVar``, a lock object, or
the write happens under a ``with self.<lock>:`` block.

The rule builds a per-class call graph over ``self.method()`` edges,
walks every method reachable from a query entry point, and flags
unguarded attribute writes.  Reads are never flagged (the codebase's
convention is copy-on-read snapshots), and writes to attributes rooted
at a thread-local (``self._last.stats = ...``) are safe by
construction.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Project, Rule, Violation, walk_assign_targets

__all__ = ["SharedStateRule"]

#: Constructor origins that make an attribute safe to mutate per thread.
_THREAD_SAFE_FACTORIES = frozenset(
    {"threading.local", "contextvars.ContextVar"}
)

#: Constructor origins that mark an attribute as a lock object.
_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition",
     "threading.Semaphore", "threading.BoundedSemaphore"}
)


def _method_defs(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _self_attr(node: ast.expr) -> str | None:
    """``attr`` when *node* is exactly ``self.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _root_self_attr(node: ast.expr) -> str | None:
    """The first attribute after ``self`` in a dotted/subscripted chain.

    ``self._last.stats`` -> ``_last``; ``self._assign[gid]`` ->
    ``_assign``; anything not rooted at ``self`` -> ``None``.
    """
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        parent = current.value
        if isinstance(current, ast.Attribute) and isinstance(
            parent, ast.Name
        ) and parent.id == "self":
            return current.attr
        current = parent
    return None


class _WriteCollector(ast.NodeVisitor):
    """Collects unguarded ``self.*`` writes inside one method body."""

    def __init__(
        self,
        ctx: FileContext,
        safe_attrs: frozenset[str],
        lock_attrs: frozenset[str],
    ) -> None:
        self.ctx = ctx
        self.safe_attrs = safe_attrs
        self.lock_attrs = lock_attrs
        self.lock_depth = 0
        self.writes: list[tuple[ast.expr, str]] = []

    def _is_lock_guard(self, item: ast.withitem) -> bool:
        attr = _self_attr(item.context_expr)
        return attr is not None and attr in self.lock_attrs

    def visit_With(self, node: ast.With) -> None:
        guarded = any(self._is_lock_guard(item) for item in node.items)
        if guarded:
            self.lock_depth += 1
        self.generic_visit(node)
        if guarded:
            self.lock_depth -= 1

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        if isinstance(target, ast.Starred):
            self._check_target(target.value)
            return
        root = _root_self_attr(target)
        if root is None:
            return
        if root in self.safe_attrs or root in self.lock_attrs:
            return
        if self.lock_depth > 0:
            return
        self.writes.append((target, root))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    # Nested function/class definitions start a fresh ``self`` scope.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return None

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return None


class SharedStateRule(Rule):
    code = "RL002"
    title = "query-path state must be lock-guarded or thread-local"
    rationale = (
        "shard thread pools run search*/knn* concurrently on shared "
        "engines; a bare attribute write there is a data race"
    )

    #: Classes whose instances cross the shard thread-pool boundary.
    target_classes = ("QueryEngine", "ShardedDatabase")
    #: Method-name prefixes that are query-path entry points.
    entry_prefixes = ("search", "knn")

    def check_file(
        self, ctx: FileContext, project: Project
    ) -> Iterator[Violation]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in self.target_classes:
                yield from self._check_class(ctx, node)

    def _classify_attrs(
        self, ctx: FileContext, methods: dict[str, ast.FunctionDef]
    ) -> tuple[frozenset[str], frozenset[str]]:
        """``(thread-safe attrs, lock attrs)`` over the whole class."""
        safe: set[str] = set()
        locks: set[str] = set()
        for method in methods.values():
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                origin = ctx.qualified(stmt.value.func)
                if origin is None:
                    continue
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if origin in _THREAD_SAFE_FACTORIES:
                        safe.add(attr)
                    elif origin in _LOCK_FACTORIES:
                        locks.add(attr)
        return frozenset(safe), frozenset(locks)

    def _query_closure(self, methods: dict[str, ast.FunctionDef]) -> set[str]:
        """Methods reachable from the query entry points via self-calls."""
        entries = [
            name
            for name in methods
            if name.startswith(self.entry_prefixes)
        ]
        reachable: set[str] = set()
        frontier = list(entries)
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for node in ast.walk(methods[name]):
                if not isinstance(node, ast.Call):
                    continue
                callee = _self_attr(node.func)
                if callee is not None and callee in methods:
                    frontier.append(callee)
        return reachable

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        methods = _method_defs(cls)
        safe, locks = self._classify_attrs(ctx, methods)
        for name in sorted(self._query_closure(methods)):
            collector = _WriteCollector(ctx, safe, locks)
            for stmt in methods[name].body:
                collector.visit(stmt)
            for target, root in collector.writes:
                yield self.violation(
                    ctx,
                    target,
                    f"{cls.name}.{name} writes shared attribute "
                    f"'self.{root}' on the query path without a lock, "
                    "threading.local, or contextvars protection",
                )
