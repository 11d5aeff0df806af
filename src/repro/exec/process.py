"""The process executor: spawn-based shard workers, shared feature memory.

Each shard gets one spawned worker process owning a *replica*
:class:`~repro.core.query_engine.QueryEngine` (the shard's storage and
index backend pickle over at spawn time), while the shard's feature
store is published once into a :mod:`multiprocessing.shared_memory`
segment and attached zero-copy by the worker — cascade filtering and
DTW verification read sequence values straight from shared memory,
off the GIL.

Protocol (one duplex pipe per worker, strictly FIFO, parent drives):

``("call", method, args, kwargs, trace)``
    Run ``engine.<method>(*args, **kwargs)``; reply
    ``("ok", result, spans)`` where *spans* are the worker-side root
    trace spans (empty unless *trace*), or ``("err", exc, ())``.
``("mirror", method, args)``
    Replay a mutation the parent already applied to its authoritative
    engines, keeping the replica's storage/index/buffer state in
    lockstep; synchronous ``("ok", None, ())`` ack.
``("close",)``
    Acknowledge and exit the worker loop.

Bit-exactness: the worker builds its cascade through a factory that
charges the same ``db.scan()`` the in-process engines charge, then
adopts the shared store when it still mirrors the replica database
(after mirrored mutations it falls back to a locally rebuilt store,
exactly like the in-process lazy rebuild).  Query charges travel back
on the pickled ``QueryResult``/``BatchResult`` snapshots and merge in
shard order, so counters are bit-identical to the serial executor.

One caveat is inherent to replication: parent-side reads *outside* the
executor (``ShardedDatabase.get``) touch only the parent's buffer
pool.  With the default ``buffer_pages=0`` there is no cached state
and parity is unconditional; with a warm buffer pool, interleaving
parent-side ``get`` calls between queries can make hit/miss counters
diverge from the serial executor (documented in DESIGN.md §13).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable

from ..exceptions import ExecutorError
from ..obs.metrics import use_registry
from ..obs.tracing import Span, SpanGrafter, Tracer, active_tracer, use_tracer
from .base import ShardExecutor, register_executor
from .shm import (
    MmapStoreHandle,
    SharedStoreHandle,
    attach_store,
    publish_mmap,
    publish_store,
)

if TYPE_CHECKING:
    from multiprocessing.context import SpawnContext
    from multiprocessing.process import BaseProcess
    from multiprocessing.shared_memory import SharedMemory

    from ..core.query_engine import QueryEngine
    from ..index.backend import IndexBackend
    from ..storage.database import SequenceDatabase

__all__ = ["ProcessExecutor"]

#: Seconds a graceful shutdown waits before terminating a worker.
_JOIN_TIMEOUT = 5.0


@dataclass
class _WorkerInit:
    """Everything a worker needs to rebuild its shard engine (picklable)."""

    shard: int
    database: "SequenceDatabase"
    backend: "IndexBackend"
    store: SharedStoreHandle | MmapStoreHandle | None


def _shared_cascade_factory(
    handle: SharedStoreHandle | MmapStoreHandle | None,
) -> "Callable[[SequenceDatabase], Any]":
    """A cascade factory that adopts the shared store when still valid.

    Charges one ``db.scan()`` exactly like
    :meth:`FilterCascade.from_database`, so the first query's counters
    match the in-process executors bit-for-bit.  The attachment —
    shared-memory segment or read-only file map, depending on the
    handle — happens once and is cached (a ``SharedMemory`` object, if
    any, must outlive the store views).
    """
    from ..core.cascade import FeatureStore, FilterCascade

    cache: dict[str, Any] = {}

    def factory(db: "SequenceDatabase") -> FilterCascade:
        if handle is not None:
            if "store" not in cache:
                cache["segment"], cache["store"] = attach_store(handle)
            store = cache["store"]
            if store.matches(db):
                db.scan()  # the charged build pass, shared store or not
                return FilterCascade(store)
        return FilterCascade(FeatureStore.from_database(db))

    return factory


def _worker_main(conn: Connection, init: _WorkerInit) -> None:
    """Worker loop: serve call/mirror commands until closed."""
    from ..core.query_engine import QueryEngine

    engine = QueryEngine(
        init.database,
        init.backend,
        cascade_factory=_shared_cascade_factory(init.store),
    )
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "close":
                conn.send(("ok", None, ()))
                break
            try:
                if message[0] == "call":
                    _, method, args, kwargs, trace = message
                    spans: tuple[Span, ...] = ()
                    with use_registry(None):
                        if trace:
                            tracer = Tracer()
                            with use_tracer(tracer):
                                result = getattr(engine, method)(
                                    *args, **kwargs
                                )
                            spans = tuple(tracer.roots)
                        else:
                            result = getattr(engine, method)(*args, **kwargs)
                    conn.send(("ok", result, spans))
                elif message[0] == "mirror":
                    _, method, args = message
                    with use_registry(None):
                        getattr(engine, method)(*args)
                    conn.send(("ok", None, ()))
                else:
                    raise ExecutorError(
                        f"unknown worker command {message[0]!r}"
                    )
            except Exception as exc:  # ship the failure, keep serving
                conn.send(("err", exc, ()))
    finally:
        conn.close()


def _release(
    conns: list[Connection],
    procs: list["BaseProcess"],
    segments: list["SharedMemory"],
) -> None:
    """Tear the worker fleet down; safe to call twice (finalizer path)."""
    for conn in conns:
        try:
            if not conn.closed:
                conn.send(("close",))
                if conn.poll(_JOIN_TIMEOUT):
                    conn.recv()
        except (OSError, EOFError, BrokenPipeError):
            pass
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=_JOIN_TIMEOUT)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_JOIN_TIMEOUT)
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


@register_executor
class ProcessExecutor(ShardExecutor):
    """One spawned worker per shard over shared feature arrays.

    Workers are spawned lazily on the first fan-out, pickling each
    shard's storage + backend as they are *at that moment*; later
    mutations are kept in lockstep via :meth:`mirror`.  The published
    shared store reflects spawn-time contents — after mutations the
    workers transparently rebuild local stores (the same lazy rebuild
    the in-process engines perform), trading the zero-copy read for
    unchanged answers and counters.
    """

    name = "process"

    def __init__(self, engines: list["QueryEngine"]) -> None:
        super().__init__(engines)
        self._ctx: "SpawnContext" = get_context("spawn")
        self._conns: list[Connection] | None = None
        self._procs: list["BaseProcess"] = []
        self._segments: list["SharedMemory"] = []
        self._finalizer: weakref.finalize | None = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_started(self) -> list[Connection]:
        with self._lifecycle_lock:
            self._require_open()
            if self._conns is not None:
                return self._conns
            from ..core.cascade import FeatureStore

            conns: list[Connection] = []
            procs: list["BaseProcess"] = []
            segments: list["SharedMemory"] = []
            try:
                for shard, engine in enumerate(self._engines):
                    # Publish the shard's feature state charge-free: the
                    # cost model only charges reads the query pipeline
                    # performs, and the worker charges its own build scan.
                    # A clean mmap-store shard publishes by file path —
                    # workers map the columnar data file read-only and no
                    # values are copied or pickled; otherwise fall back to
                    # copying the packed arrays into shared memory.
                    handle: SharedStoreHandle | MmapStoreHandle | None
                    handle = publish_mmap(engine.database)
                    if handle is None:
                        store = FeatureStore.from_contents(engine.database)
                        segment, handle = publish_store(store)
                        segments.append(segment)
                    parent_conn, child_conn = self._ctx.Pipe()
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(
                            child_conn,
                            _WorkerInit(
                                shard, engine.database, engine.backend, handle
                            ),
                        ),
                        name=f"repro-shard-{shard}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    conns.append(parent_conn)
                    procs.append(proc)
            except BaseException:
                _release(conns, procs, segments)
                raise
            self._conns, self._procs, self._segments = conns, procs, segments
            self._finalizer = weakref.finalize(
                self, _release, conns, procs, segments
            )
            return conns

    def close(self) -> None:
        """Shut workers down and unlink the shared segments (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            finalizer = self._finalizer
        if finalizer is not None:
            finalizer()

    # -- execution -----------------------------------------------------------

    def _receive(self, shard: int, conn: Connection) -> tuple[Any, Any, Any]:
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise ExecutorError(
                f"shard {shard} worker died mid-query "
                f"(exitcode={self._procs[shard].exitcode})"
            ) from exc
        return reply

    def run(
        self,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        conns = self._ensure_started()
        trace = active_tracer() is not None
        message = ("call", method, tuple(args), dict(kwargs or {}), trace)
        for conn in conns:
            conn.send(message)
        # Drain every shard before raising so one failed shard never
        # leaves stale replies in the other pipes.
        replies = [
            self._receive(shard, conn) for shard, conn in enumerate(conns)
        ]
        for status, payload, _ in replies:
            if status == "err":
                raise payload
        # Graft the workers' span trees under the fan-out span in shard
        # order with shard tags — the same deterministic shape the
        # serial and thread executors produce.
        grafter = SpanGrafter(len(conns))
        results: list[Any] = []
        for shard, (status, payload, spans) in enumerate(replies):
            if spans:
                grafter.add(shard, spans)
            results.append(payload)
        grafter.graft()
        return results

    def mirror(
        self, shard: int, method: str, args: tuple[Any, ...] = ()
    ) -> None:
        if self._conns is None:
            # Workers not spawned yet: they will pickle the already-
            # mutated parent state at spawn time.
            return
        conn = self._conns[shard]
        conn.send(("mirror", method, tuple(args)))
        status, payload, _ = self._receive(shard, conn)
        if status == "err":
            raise payload
