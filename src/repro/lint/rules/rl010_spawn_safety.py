"""RL010 — worker functions must not touch module-level mutable state.

The process executor starts shard workers with the ``spawn`` method:
each worker re-imports the module and gets a **fresh copy** of every
module-level object.  A module-level dict, list or set referenced from
a worker entry point therefore *looks* shared with the parent but is
not — mutations diverge silently across the process boundary, which is
exactly the failure mode the executor plane's bit-exactness contract
forbids.  Worker state must live in the worker's arguments (pickled
once, explicit), never in module globals.

The rule finds functions wired as process entry points — any name
passed as the ``target=`` of a ``Process(...)``-style call — walks the
module-level call graph reachable from them, and flags every reference
to a module-level mutable binding (container literals, comprehensions,
or calls to the standard mutable-container factories) from those
functions.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Project, Rule, Violation, walk_assign_targets

__all__ = ["SpawnSafetyRule"]

#: Call origins that build a mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.Counter",
        "collections.deque",
        "collections.OrderedDict",
    }
)

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _mutable_module_globals(
    ctx: FileContext, tree: ast.Module
) -> dict[str, ast.stmt]:
    """Module-level names bound to a mutable container, name -> binding."""
    found: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        targets = walk_assign_targets(stmt)
        if not targets:
            continue
        value = getattr(stmt, "value", None)
        if value is None:
            continue
        mutable = isinstance(value, _MUTABLE_LITERALS)
        if not mutable and isinstance(value, ast.Call):
            origin = ctx.qualified(value.func)
            mutable = origin in _MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = stmt
    return found


def _worker_entry_names(tree: ast.Module) -> set[str]:
    """Names passed as ``target=`` to a ``*Process(...)`` call."""
    entries: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        callee_name = (
            callee.attr
            if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name) else None
        )
        if callee_name is None or not callee_name.endswith("Process"):
            continue
        for keyword in node.keywords:
            if keyword.arg == "target" and isinstance(keyword.value, ast.Name):
                entries.add(keyword.value.id)
    return entries


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _worker_closure(
    tree: ast.Module,
) -> dict[str, ast.FunctionDef]:
    """Worker entry functions plus module functions they call."""
    functions = _module_functions(tree)
    frontier = [name for name in _worker_entry_names(tree) if name in functions]
    reachable: dict[str, ast.FunctionDef] = {}
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable[name] = functions[name]
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in functions
            ):
                frontier.append(node.func.id)
    return reachable


def _local_names(fn: ast.FunctionDef) -> set[str]:
    """Names the function binds locally (params + assignment targets).

    A local binding shadows a same-named module global, so references
    to it are process-safe; ``global`` declarations cancel the shadow.
    """
    shadow = {
        arg.arg
        for arg in (
            fn.args.args
            + fn.args.posonlyargs
            + fn.args.kwonlyargs
            + ([fn.args.vararg] if fn.args.vararg else [])
            + ([fn.args.kwarg] if fn.args.kwarg else [])
        )
    }
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        for target in walk_assign_targets(node) if isinstance(
            node, ast.stmt
        ) else ():
            if isinstance(target, ast.Name):
                shadow.add(target.id)
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(
            node.target, ast.Name
        ):
            shadow.add(node.target.id)
    return shadow - declared_global


class SpawnSafetyRule(Rule):
    code = "RL010"
    title = "process-worker functions must not use module-level mutable state"
    rationale = (
        "spawned workers re-import the module, so a module-level "
        "container referenced from a worker is a fresh copy — mutations "
        "silently diverge from the parent instead of being shared"
    )

    def check_file(
        self, ctx: FileContext, project: Project
    ) -> Iterator[Violation]:
        mutable = _mutable_module_globals(ctx, ctx.tree)
        if not mutable:
            return
        for fn_name, fn in sorted(_worker_closure(ctx.tree).items()):
            local_shadow = _local_names(fn)
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and node.id in mutable
                    and node.id not in local_shadow
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"worker function {fn_name!r} references "
                        f"module-level mutable {node.id!r}; spawned "
                        "workers get a fresh copy, so this state is not "
                        "shared with the parent — pass it through the "
                        "worker's arguments instead",
                    )
                elif isinstance(node, ast.Global) and any(
                    name in mutable for name in node.names
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"worker function {fn_name!r} declares a module "
                        "global mutable binding; spawned workers cannot "
                        "share module state with the parent",
                    )
