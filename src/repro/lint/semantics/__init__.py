"""The whole-program semantic core behind the cross-module lint rules.

``repro lint``'s per-file rules see one file at a time, which cannot
express the invariants the codebase actually depends on: *transitive*
lock discipline across the executor plane, *reachable* charge
accounting, and ReproError-only raise-sets *closed over calls*.  This
package supplies the three layers those rules share:

* :mod:`~repro.lint.semantics.modules` — the project-wide import/module
  graph: repo-relative files mapped to dotted module names, import
  statements resolved (including relative imports) to edges and
  per-file binding tables.
* :mod:`~repro.lint.semantics.symbols` — the symbol table: top-level
  functions, classes (with methods, resolved base classes and a
  subclass index), aliases, and cross-module resolution that follows
  re-export chains.
* :mod:`~repro.lint.semantics.callgraph` — a conservative call graph
  over function/method symbols with type-informed attribute-call
  resolution and reachability queries from the declared entry points
  (:mod:`~repro.lint.semantics.entrypoints`).

Everything here is derived from the already-parsed
:class:`~repro.lint.engine.Project` — no imports of the analyzed code,
so the graph stays buildable on broken or foreign trees.  Construction
and every exported artifact are deterministic: iteration is sorted by
(module, qualname) throughout, so two runs over the same tree emit
byte-identical JSON.
"""

from __future__ import annotations

from .callgraph import CallGraph, CallSite, SemanticGraph, build_graph
from .entrypoints import EntryPoint, find_entry_points
from .export import GRAPH_SCHEMA_VERSION, graph_to_dict, render_dot, render_json
from .modules import ImportEdge, ModuleGraph, module_name_for
from .symbols import (
    ClassSymbol,
    ExternalSymbol,
    FunctionSymbol,
    ImportBinding,
    ModuleSymbol,
    Symbol,
    SymbolTable,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassSymbol",
    "EntryPoint",
    "ExternalSymbol",
    "FunctionSymbol",
    "GRAPH_SCHEMA_VERSION",
    "ImportBinding",
    "ImportEdge",
    "ModuleGraph",
    "ModuleSymbol",
    "SemanticGraph",
    "Symbol",
    "SymbolTable",
    "build_graph",
    "find_entry_points",
    "graph_to_dict",
    "module_name_for",
    "render_dot",
    "render_json",
]
