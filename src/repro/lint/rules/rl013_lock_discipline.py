"""RL013 — lock discipline over the whole concurrent call graph.

The shard thread pool does not stop at a class boundary — a
``search`` call flows into the cascade, the store, the kernel registry,
and any of those can hide an unguarded write.  This rule checks the
whole semantic call graph: every function reachable from a
``query``, ``executor`` or ``worker`` entry point is a function some
thread pool or spawned process may run concurrently, so every mutable
attribute or global it writes must be

* guarded by a ``with self.<lock>:`` block (lock attributes are
  classified across the class MRO, so the lock may live in a base
  class in another module),
* rooted at a ``threading.local`` / ``contextvars.ContextVar``, or
* **per-query-local**: an attribute of a class whose every
  instantiation site is itself inside the concurrent closure — a fresh
  instance per call cannot race.

Construction-phase methods (``__init__`` and friends) are exempt: an
object under construction has not been published yet.  A write the
rule cannot prove safe but a human can (e.g. a single-writer pattern
documented at the site) is waived in place with a justification::

    self._hits += 1  # repro-lint: disable=RL013 -- guarded by caller
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..engine import Project, Rule, Violation

if TYPE_CHECKING:
    from ..semantics import ClassSymbol, FunctionSymbol, SemanticGraph

__all__ = ["LockDisciplineRule"]

#: Constructor origins that make an attribute safe to mutate per thread.
_THREAD_SAFE_FACTORIES = frozenset(
    {"threading.local", "contextvars.ContextVar"}
)

#: Constructor origins that mark an attribute as a lock object.
_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition",
     "threading.Semaphore", "threading.BoundedSemaphore"}
)


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
        self, safe_attrs: frozenset[str], lock_attrs: frozenset[str]
    ) -> None:
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


#: Entry-point kinds whose closure runs under concurrency.
_CONCURRENT_KINDS = ("query", "executor", "worker")

#: Methods that run before the instance is published to other threads.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__init_subclass__",
     "__set_name__", "__setstate__"}
)


class LockDisciplineRule(Rule):
    code = "RL013"
    title = "concurrent-closure writes must be lock-guarded or local"
    rationale = (
        "thread pools and spawned workers run the whole call-graph "
        "closure of query entry points concurrently; an unguarded "
        "write anywhere in that closure is a data race"
    )

    def check_project(
        self, graph: "SemanticGraph", project: Project
    ) -> Iterator[Violation]:
        closures = {
            kind: graph.reachable_from_entries(kind)
            for kind in _CONCURRENT_KINDS
        }
        combined = frozenset().union(*closures.values())
        callers: dict[str, set[str]] = {}
        for caller, callee in graph.calls.edges:
            callers.setdefault(callee, set()).add(caller)
        attr_classes: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        for key in sorted(combined):
            fn = graph.calls.nodes.get(key)
            if fn is None or fn.node.name in _CONSTRUCTION_METHODS:
                continue
            kinds = ",".join(
                kind for kind in _CONCURRENT_KINDS if key in closures[kind]
            )
            yield from self._check_globals(fn, kinds)
            if fn.owner is not None and not self._construction_only(
                graph, fn, callers
            ):
                yield from self._check_attr_writes(
                    graph, fn, combined, attr_classes, kinds
                )

    # -- module-global writes ------------------------------------------------

    def _check_globals(
        self, fn: "FunctionSymbol", kinds: str
    ) -> Iterator[Violation]:
        declared = {
            name
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        if not declared:
            return
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    yield self.violation(
                        fn.ctx,
                        target,
                        f"{fn.qualname} writes module global "
                        f"'{target.id}' on a concurrent path (reachable "
                        f"from {kinds} entry points) — use a lock or "
                        "per-query state",
                    )

    # -- attribute writes ----------------------------------------------------

    def _construction_only(
        self,
        graph: "SemanticGraph",
        fn: "FunctionSymbol",
        callers: dict[str, set[str]],
    ) -> bool:
        """True when *fn* is only reached through its class's constructors.

        A helper like ``FeatureStore._adopt`` that every constructor and
        alternate-constructor classmethod funnels through runs on an
        instance that has not been published yet — its writes are
        construction, not sharing.
        """
        sites = callers.get(fn.key)
        if not sites:
            return False
        for caller_key in sites:
            caller = graph.calls.nodes.get(caller_key)
            if (
                caller is None
                or caller.module != fn.module
                or caller.owner != fn.owner
            ):
                return False
            if caller.node.name in _CONSTRUCTION_METHODS:
                continue
            if any(
                isinstance(decorator, ast.Name)
                and decorator.id == "classmethod"
                for decorator in caller.node.decorator_list
            ):
                continue
            return False
        return True

    def _classify_attrs(
        self, graph: "SemanticGraph", cls: "ClassSymbol"
    ) -> tuple[frozenset[str], frozenset[str]]:
        """``(thread-safe attrs, lock attrs)`` across the class MRO.

        Walks base classes in other modules too, resolving factory
        origins through each defining file's own import table.
        """
        safe: set[str] = set()
        locks: set[str] = set()
        for owner in graph.symbols.mro(cls):
            for stmt in owner.node.body:
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Assign):
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    origin = owner.ctx.qualified(node.value.func)
                    if origin is None:
                        continue
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        if origin in _THREAD_SAFE_FACTORIES:
                            safe.add(attr)
                        elif origin in _LOCK_FACTORIES:
                            locks.add(attr)
        return frozenset(safe), frozenset(locks)

    def _is_per_query_local(
        self,
        graph: "SemanticGraph",
        cls: "ClassSymbol",
        closure: frozenset[str],
    ) -> bool:
        """True when every instance of *cls* is built inside the closure.

        A class constructed only by functions that themselves run on
        the concurrent path yields one fresh instance per call — its
        attributes are per-query state, not shared state.
        """
        sites = graph.calls.instantiators_of(cls.key)
        return bool(sites) and all(site in closure for site in sites)

    def _check_attr_writes(
        self,
        graph: "SemanticGraph",
        fn: "FunctionSymbol",
        closure: frozenset[str],
        attr_classes: dict[str, tuple[frozenset[str], frozenset[str]]],
        kinds: str,
    ) -> Iterator[Violation]:
        cls = graph.symbols.class_named(f"{fn.module}:{fn.owner}")
        if cls is None:
            return
        if self._is_per_query_local(graph, cls, closure):
            return
        if cls.key not in attr_classes:
            attr_classes[cls.key] = self._classify_attrs(graph, cls)
        safe, locks = attr_classes[cls.key]
        collector = _WriteCollector(safe, locks)
        for stmt in fn.node.body:
            collector.visit(stmt)
        for target, root in collector.writes:
            yield self.violation(
                fn.ctx,
                target,
                f"{fn.qualname} writes shared attribute 'self.{root}' "
                f"on a concurrent path (reachable from {kinds} entry "
                "points) without a lock, threading.local/contextvars "
                "protection, or per-query-local construction",
            )
