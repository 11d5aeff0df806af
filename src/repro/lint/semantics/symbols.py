"""Project-wide symbol table with alias, re-export and MRO resolution.

Top-level functions, classes (with their methods and resolved base
classes), module-level values and import bindings, indexed per module
and resolvable across modules: ``resolve("repro", "ReproError")``
follows the ``from .exceptions import ReproError`` re-export to the
defining :class:`ClassSymbol` in ``repro.exceptions``.

The resolver is *conservative by refusal*: anything it cannot pin to a
project definition becomes an :class:`ExternalSymbol` (dotted name kept
for diagnostics) or ``None``, never a guess.  Cycles in re-export
chains terminate via a visited set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..engine import FileContext, Project
from .modules import ModuleGraph

__all__ = [
    "ClassSymbol",
    "ExternalSymbol",
    "FunctionSymbol",
    "ImportBinding",
    "ModuleSymbol",
    "Symbol",
    "SymbolTable",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


class Symbol:
    """Base of every resolved name."""

    module: str
    qualname: str

    @property
    def key(self) -> str:
        """The canonical node id: ``module:qualname``."""
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class FunctionSymbol(Symbol):
    """A top-level function or a class method."""

    module: str
    qualname: str
    node: FunctionNode = field(compare=False, repr=False)
    ctx: FileContext = field(compare=False, repr=False)
    owner: str | None = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass(frozen=True)
class ClassSymbol(Symbol):
    """A top-level class with its directly defined methods."""

    module: str
    qualname: str
    node: ast.ClassDef = field(compare=False, repr=False)
    ctx: FileContext = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass(frozen=True)
class ValueSymbol(Symbol):
    """A module-level assignment that is neither def nor class."""

    module: str
    qualname: str
    node: ast.stmt = field(compare=False, repr=False)
    value: ast.expr | None = field(compare=False, repr=False)


@dataclass(frozen=True)
class ModuleSymbol(Symbol):
    """A project module referenced as a value (``import repro.obs``)."""

    module: str
    qualname: str = ""

    @property
    def key(self) -> str:
        return self.module


@dataclass(frozen=True)
class ExternalSymbol(Symbol):
    """A name that resolves outside the project (stdlib, numpy, ...)."""

    module: str
    qualname: str = ""

    @property
    def dotted(self) -> str:
        return (
            f"{self.module}.{self.qualname}" if self.qualname else self.module
        )


@dataclass(frozen=True)
class ImportBinding:
    """A module-local name bound by an import statement."""

    local: str
    source_module: str
    source_name: str | None


class SymbolTable:
    """Definitions and cross-module name resolution over one project."""

    def __init__(self, modules: ModuleGraph) -> None:
        self.modules = modules
        self._members: dict[str, dict[str, Symbol]] = {}
        self._aliases: dict[str, dict[str, ast.expr]] = {}
        self._functions: list[FunctionSymbol] = []
        self._classes: list[ClassSymbol] = []
        self._bases: dict[str, tuple[str, ...]] = {}
        self._subclasses: dict[str, tuple[str, ...]] = {}
        self._methods_by_name: dict[str, tuple[FunctionSymbol, ...]] = {}
        self._attr_types: dict[str, dict[str, tuple[str, ...]]] = {}
        self._implementors: dict[str, tuple[str, ...]] = {}
        for module in modules.modules:
            ctx = modules.file_of(module)
            if ctx is not None:
                self._index_module(module, ctx)
        self._link_hierarchy()

    # -- construction --------------------------------------------------------

    def _index_module(self, module: str, ctx: FileContext) -> None:
        members: dict[str, Symbol] = {}
        aliases: dict[str, ast.expr] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionSymbol(module, stmt.name, stmt, ctx)
                members[stmt.name] = fn
                self._functions.append(fn)
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassSymbol(module, stmt.name, stmt, ctx)
                members[stmt.name] = cls
                self._classes.append(cls)
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method = FunctionSymbol(
                            module,
                            f"{stmt.name}.{sub.name}",
                            sub,
                            ctx,
                            owner=stmt.name,
                        )
                        self._functions.append(method)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    if name not in members:
                        members[name] = ValueSymbol(module, name, stmt, value)
                    if value is not None and isinstance(
                        value, (ast.Name, ast.Attribute)
                    ):
                        aliases[name] = value
        self._members[module] = members
        self._aliases[module] = aliases

    def _link_hierarchy(self) -> None:
        subclasses: dict[str, list[str]] = {}
        for cls in self._classes:
            base_keys: list[str] = []
            for base in cls.node.bases:
                resolved = self.resolve_expr(cls.module, base)
                if isinstance(resolved, ClassSymbol):
                    base_keys.append(resolved.key)
                    subclasses.setdefault(resolved.key, []).append(cls.key)
            self._bases[cls.key] = tuple(base_keys)
        self._subclasses = {
            key: tuple(sorted(set(values)))
            for key, values in subclasses.items()
        }
        by_name: dict[str, list[FunctionSymbol]] = {}
        for fn in self._functions:
            if fn.owner is not None:
                by_name.setdefault(fn.name, []).append(fn)
        self._methods_by_name = {
            name: tuple(sorted(fns, key=lambda f: f.key))
            for name, fns in by_name.items()
        }

    # -- enumeration ---------------------------------------------------------

    @property
    def functions(self) -> list[FunctionSymbol]:
        """Every function and method symbol, sorted by key."""
        return sorted(self._functions, key=lambda f: f.key)

    @property
    def classes(self) -> list[ClassSymbol]:
        """Every class symbol, sorted by key."""
        return sorted(self._classes, key=lambda c: c.key)

    def members_of(self, module: str) -> dict[str, Symbol]:
        """Symbols *defined* in (not imported into) *module*."""
        return self._members.get(module, {})

    def import_bindings(self, module: str) -> list[ImportBinding]:
        """The module's import-bound local names, sorted by local name.

        ``source_name`` is ``None`` when the binding denotes a module
        object itself (``import m`` / ``from pkg import submodule``).
        """
        return [
            ImportBinding(local, source_module, source_name)
            for local, (source_module, source_name) in sorted(
                self.modules.bindings_of(module).items()
            )
        ]

    def class_named(self, key: str) -> ClassSymbol | None:
        """The class at node key ``module:qualname``, if any."""
        module, _, qualname = key.partition(":")
        symbol = self._members.get(module, {}).get(qualname)
        return symbol if isinstance(symbol, ClassSymbol) else None

    def function_at(self, key: str) -> FunctionSymbol | None:
        """The function/method at node key, if any."""
        module, _, qualname = key.partition(":")
        owner, _, method = qualname.partition(".")
        if method:
            cls = self.class_named(f"{module}:{owner}")
            if cls is None:
                return None
            return self.find_method(cls, method, inherited=False)
        symbol = self._members.get(module, {}).get(qualname)
        return symbol if isinstance(symbol, FunctionSymbol) else None

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, module: str, name: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> Symbol | None:
        """The symbol local name *name* denotes inside *module*.

        Follows module-level aliases (``dtw = dtw_additive``) and import
        bindings across modules until a definition (or an external name)
        is reached.  Returns ``None`` for genuinely unknown names —
        builtins, ``*``-imports, dynamic bindings.
        """
        if (module, name) in _seen:
            return None
        seen = _seen | {(module, name)}
        members = self._members.get(module)
        if members is None:
            return None
        symbol = members.get(name)
        if isinstance(symbol, ValueSymbol):
            alias = self._aliases.get(module, {}).get(name)
            if alias is not None:
                target = self._resolve_expr_inner(module, alias, seen)
                if target is not None:
                    return target
            return symbol
        if symbol is not None:
            return symbol
        binding = self.modules.bindings_of(module).get(name)
        if binding is None:
            return None
        source_module, source_name = binding
        if source_name is None:
            if self.modules.file_of(source_module) is not None:
                return ModuleSymbol(source_module)
            return ExternalSymbol(source_module)
        if self.modules.file_of(source_module) is not None:
            return self.resolve(source_module, source_name, seen)
        return ExternalSymbol(source_module, source_name)

    def resolve_expr(
        self, module: str, expr: ast.expr
    ) -> Symbol | None:
        """Resolve a Name/Attribute/string-annotation expression."""
        return self._resolve_expr_inner(module, expr, frozenset())

    def _resolve_expr_inner(
        self,
        module: str,
        expr: ast.expr,
        seen: frozenset[tuple[str, str]],
    ) -> Symbol | None:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            # Forward-reference annotation: ``"QueryEngine"``.
            return self.resolve(module, expr.value.split(".")[0], seen)
        if isinstance(expr, ast.Name):
            return self.resolve(module, expr.id, seen)
        if isinstance(expr, ast.Attribute):
            base = self._resolve_expr_inner(module, expr.value, seen)
            return self._member_of(base, expr.attr, seen)
        if isinstance(expr, ast.Subscript):
            # ``Optional[T]`` / ``list[T]``: resolve the container name;
            # callers that want the parameter unwrap it themselves.
            return self._resolve_expr_inner(module, expr.value, seen)
        return None

    def _member_of(
        self,
        base: Symbol | None,
        attr: str,
        seen: frozenset[tuple[str, str]],
    ) -> Symbol | None:
        if isinstance(base, ModuleSymbol):
            return self.resolve(base.module, attr, seen)
        if isinstance(base, ExternalSymbol):
            return ExternalSymbol(base.dotted, attr)
        if isinstance(base, ClassSymbol):
            method = self.find_method(base, attr)
            if method is not None:
                return method
        return None

    def resolve_dotted(self, module: str, dotted: str) -> Symbol | None:
        """Resolve ``a.b.c`` relative to *module*."""
        parts = dotted.split(".")
        symbol = self.resolve(module, parts[0])
        seen: frozenset[tuple[str, str]] = frozenset()
        for attr in parts[1:]:
            symbol = self._member_of(symbol, attr, seen)
            if symbol is None:
                return None
        return symbol

    # -- class hierarchy -----------------------------------------------------

    def bases_of(self, cls: ClassSymbol) -> list[ClassSymbol]:
        """Direct project base classes of *cls*."""
        found: list[ClassSymbol] = []
        for key in self._bases.get(cls.key, ()):
            base = self.class_named(key)
            if base is not None:
                found.append(base)
        return found

    def mro(self, cls: ClassSymbol) -> list[ClassSymbol]:
        """*cls* plus its project ancestors, nearest first (BFS)."""
        chain: list[ClassSymbol] = []
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current.key in seen:
                continue
            seen.add(current.key)
            chain.append(current)
            frontier.extend(self.bases_of(current))
        return chain

    def subclasses_of(self, cls: ClassSymbol) -> list[ClassSymbol]:
        """Every transitive project subclass of *cls*, sorted by key."""
        found: dict[str, ClassSymbol] = {}
        frontier = [cls.key]
        while frontier:
            key = frontier.pop()
            for sub_key in self._subclasses.get(key, ()):
                if sub_key in found:
                    continue
                sub = self.class_named(sub_key)
                if sub is not None:
                    found[sub_key] = sub
                    frontier.append(sub_key)
        return [found[key] for key in sorted(found)]

    def is_subclass(self, cls: ClassSymbol, ancestor_name: str) -> bool:
        """True when *cls*'s project MRO holds a class named so."""
        return any(c.name == ancestor_name for c in self.mro(cls))

    def find_method(
        self, cls: ClassSymbol, name: str, *, inherited: bool = True
    ) -> FunctionSymbol | None:
        """The method *name* on *cls* (walking the MRO by default)."""
        chain = self.mro(cls) if inherited else [cls]
        for owner in chain:
            for stmt in owner.node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == name
                ):
                    return FunctionSymbol(
                        owner.module,
                        f"{owner.name}.{name}",
                        stmt,
                        owner.ctx,
                        owner=owner.name,
                    )
        return None

    def methods_named(self, name: str) -> tuple[FunctionSymbol, ...]:
        """Every project method with this bare name, sorted by key."""
        return self._methods_by_name.get(name, ())

    # -- structural protocols ------------------------------------------------

    def is_protocol(self, cls: ClassSymbol) -> bool:
        """True when *cls* subclasses ``typing.Protocol`` (textually)."""
        for base in cls.node.bases:
            text = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if text == "Protocol":
                return True
        return False

    def implementors_of(self, protocol: ClassSymbol) -> list[ClassSymbol]:
        """Project classes structurally satisfying *protocol*.

        A class implements the protocol when its MRO defines every
        public method the protocol declares.  Protocols declaring no
        public methods match nothing (everything would).
        """
        cached = self._implementors.get(protocol.key)
        if cached is not None:
            return [
                cls
                for key in cached
                if (cls := self.class_named(key)) is not None
            ]
        wanted = sorted(
            stmt.name
            for stmt in protocol.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")
        )
        found: list[str] = []
        if wanted:
            for cls in self.classes:
                if cls.key == protocol.key or self.is_protocol(cls):
                    continue
                if all(
                    self.find_method(cls, name) is not None
                    for name in wanted
                ):
                    found.append(cls.key)
        self._implementors[protocol.key] = tuple(found)
        return [
            cls
            for key in found
            if (cls := self.class_named(key)) is not None
        ]

    # -- attribute types -----------------------------------------------------

    def attr_types(self, cls: ClassSymbol) -> dict[str, tuple[str, ...]]:
        """``self.attr`` -> candidate class keys, inferred per class.

        Sources, over every method of *cls* and its project ancestors:
        ``self.attr = ClassName(...)`` (constructor call),
        ``self.attr = factory(...)`` (project factory with a resolvable
        return annotation), and ``self.attr: T`` annotations.  Multiple
        candidate classes are all kept — downstream consumers fan out.
        """
        cached = self._attr_types.get(cls.key)
        if cached is not None:
            return cached
        found: dict[str, set[str]] = {}
        for owner in self.mro(cls):
            for stmt in owner.node.body:
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                param_types: dict[str, str] = {}
                args = stmt.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.annotation is None:
                        continue
                    annotated = self.resolve_expr(
                        owner.module, arg.annotation
                    )
                    if isinstance(annotated, ClassSymbol):
                        param_types[arg.arg] = annotated.key
                for node in ast.walk(stmt):
                    attr, inferred = self._attr_assignment(
                        owner.module, node, param_types
                    )
                    if attr is not None and inferred is not None:
                        found.setdefault(attr, set()).add(inferred)
        table = {
            attr: tuple(sorted(keys)) for attr, keys in sorted(found.items())
        }
        self._attr_types[cls.key] = table
        return table

    def _attr_assignment(
        self,
        module: str,
        node: ast.AST,
        param_types: dict[str, str],
    ) -> tuple[str | None, str | None]:
        """``(attr, class key)`` when *node* types a ``self.attr``."""
        target: ast.expr | None = None
        annotation: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, annotation, value = node.target, node.annotation, node.value
        else:
            return None, None
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return None, None
        if annotation is not None:
            resolved = self.resolve_expr(module, annotation)
            if isinstance(resolved, ClassSymbol):
                return target.attr, resolved.key
        if isinstance(value, ast.Name) and value.id in param_types:
            # ``self._db = db`` with an annotated parameter.
            return target.attr, param_types[value.id]
        cls_key = self.infer_call_type(module, value)
        if cls_key is not None:
            return target.attr, cls_key
        return None, None

    def infer_call_type(
        self, module: str, value: ast.expr | None
    ) -> str | None:
        """Class key a call expression evaluates to, if inferable.

        ``ClassName(...)`` -> the class; ``factory(...)`` -> the class
        named by the factory's return annotation, when both resolve
        inside the project.
        """
        if not isinstance(value, ast.Call):
            return None
        resolved = self.resolve_expr(module, value.func)
        if isinstance(resolved, ClassSymbol):
            return resolved.key
        if isinstance(resolved, FunctionSymbol):
            returns = resolved.node.returns
            if returns is not None:
                ret = self.resolve_expr(resolved.module, returns)
                if isinstance(ret, ClassSymbol):
                    return ret.key
        return None
