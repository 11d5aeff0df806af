"""Span recorder for the traced benchmark run.

The program is not edited: :func:`install` wraps the public functions of
each layer (index backend, filter cascade, DTW verifier, sequence
storage, query engine, shard router and executor, metrics plane) from
the outside, and every wrapped call records one span
``(id, parent, op, name, start_ns, end_ns)`` in memory.  Parents
propagate through a :class:`contextvars.ContextVar`; the thread
executor runs shard tasks in a copy of the caller's context, so spans
opened on pool threads parent under the fan-out span.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (the union of the children, so shard
engines running side by side on two threads are not double-subtracted);
time on overlapping threads is scaled down to wall-clock time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Root span name the benchmark loop opens around each operation.
ROOT = "op"

_MISSING = object()


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.op_id = 0
        self.accepted = 0
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self.t0 = time.perf_counter_ns()

    # -- recording -----------------------------------------------------------

    def operation(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` as the next operation, inside a root span."""
        self.op_id += 1
        return self.wrapped(ROOT, fn)(*args)

    def _iter(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Re-yield *iterator*, one span per ``next`` (lazy producers)."""
        step = self.wrapped(name, next)
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            yield item

    def wrapped(self, name: str, fn: Callable[..., Any], *, lazy: bool = False) -> Callable[..., Any]:
        """*fn* recording a span per call (and per item when *lazy*)."""
        current, spans, ids, clock = self._current, self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, self.op_id, name, start, end))
            return self._iter(name, result) if lazy else result

        return traced

    def verifier(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A DTW verify wrapper that also counts accepted candidates."""
        span = self.wrapped("dtw.verify", fn)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = span(*args, **kwargs)
            # early_abandon returns a distance (inf when rejected),
            # within returns a truth value.
            if isinstance(result, float):
                accepted = result != float("inf")
            else:
                accepted = bool(result)
            self.accepted += accepted
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``replacement(original)``.

        A classmethod keeps its descriptor; a method *owner* inherits is
        shadowed on *owner* and removed again by :meth:`uninstall`.
        """
        original = vars(owner).get(attr, _MISSING)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(replacement(original.__func__)))
        else:
            setattr(owner, attr, replacement(getattr(owner, attr)))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def active(self, db: Any) -> Iterator[None]:
        """Trace *db*'s layer boundaries for the duration of the block."""
        self.install(db)
        try:
            yield
        finally:
            self.uninstall()

    def install(self, db: Any) -> None:
        """Wrap every layer boundary *db* (a ``TimeWarpingDatabase``) uses."""
        from repro.core import cascade, query_engine, sharding
        from repro.obs.metrics import MetricsRegistry
        from repro.storage.database import SequenceDatabase

        def named(name: str, lazy: bool = False) -> Callable[[Any], Any]:
            return lambda fn: self.wrapped(name, fn, lazy=lazy)

        backend_cls = type(db.sharded.engines[0].backend)
        for attr, name in (
            ("range_search", "index.range_search"),
            ("insert", "index.write"),
            ("delete", "index.write"),
            ("bulk_load", "index.bulk_load"),
        ):
            self.patch(backend_cls, attr, named(name))
        self.patch(backend_cls, "knn_iter", named("index.knn_iter", lazy=True))

        self.patch(cascade.FilterCascade, "filter", named("cascade.filter"))
        self.patch(cascade.FilterCascade, "run_many", named("cascade.run_many"))
        self.patch(cascade.FeatureStore, "from_database", named("cascade.store_build"))
        self.patch(cascade.FeatureStore, "matches", named("cascade.stale_check"))
        self.patch(cascade.FeatureStore, "rows_for", named("cascade.rows_for"))

        for module, attr in (
            (query_engine, "dtw_max_early_abandon"),
            (cascade, "dtw_max_early_abandon"),
            (cascade, "dtw_max_within"),
        ):
            self.patch(module, attr, self.verifier)

        for attr, name in (
            ("fetch", "storage.fetch"),
            ("charge_fetch", "storage.fetch"),
            ("insert", "storage.write"),
            ("delete", "storage.write"),
            ("ids", "storage.ids"),
        ):
            self.patch(SequenceDatabase, attr, named(name))
        self.patch(SequenceDatabase, "scan", named("storage.scan", lazy=True))

        for attr in (
            "search_detailed",
            "knn_detailed",
            "search_many_detailed",
            "insert",
            "delete",
            "bulk_insert",
        ):
            self.patch(query_engine.QueryEngine, attr, named("engine"))
        for attr in (
            "search_detailed",
            "knn_detailed",
            "search_many_detailed",
            "insert",
            "delete",
            "bulk_load",
        ):
            self.patch(sharding.ShardedDatabase, attr, named("sharding"))
        self.patch(type(db.sharded.executor), "run", named("exec.run"))

        self.patch(MetricsRegistry, "merge", named("obs"))
        self.patch(MetricsRegistry, "snapshot", named("obs"))
        self.patch(query_engine, "record_query", named("obs"))
        self.patch(sharding, "record_query", named("obs"))

    # -- analysis ----------------------------------------------------------------

    def layer_times(
        self, first_op: int = 0, last_op: int | None = None
    ) -> tuple[dict[str, float], dict[str, int], float]:
        """``(self seconds by layer span name, calls by name, operation seconds)``
        over the operations numbered ``first_op + 1`` to *last_op*.

        Spans on concurrent threads (shard engines under ``exec.run``)
        overlap.  Each child subtree is weighted by the share of its
        siblings' summed time that their union covers, so the self times
        of an operation add up to its wall-clock time.
        """
        spans = sorted(s for s in self.spans if first_op < s[2] and (last_op is None or s[2] <= last_op))
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        self_ns: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        share: dict[int | None, float] = {None: 1.0}
        weight: dict[int | None, float] = {None: 1.0}
        root_ns = 0
        # Span ids rise from parent to child, so parents come first.
        for sid, parent, _, name, start, end in spans:
            kids = children.get(sid, ())
            covered = _union_ns(kids, start, end)
            summed = sum(hi - lo for lo, hi in kids)
            share[sid] = covered / summed if summed else 1.0
            weight[sid] = weight[parent] * share[parent]
            calls[name] += 1
            self_ns[name] += weight[sid] * (end - start - covered)
            if parent is None:
                root_ns += end - start
        seconds = {name: ns / 1e9 for name, ns in self_ns.items() if name != ROOT}
        return seconds, dict(calls), root_ns / 1e9

    def write(self, path: Path) -> None:
        """Write the span log as JSON lines (times relative to tracer start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start_ns": start - self.t0,
                            "end_ns": end - self.t0,
                        }
                    )
                    + "\n"
                )


def _union_ns(intervals: Any, start: int, end: int) -> int:
    """Length of the union of *intervals*, clipped to ``[start, end]``."""
    covered = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
