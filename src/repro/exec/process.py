"""The process executor: spawn-based shard workers over shard replicas.

Each shard gets one spawned worker process owning a *replica*
:class:`~repro.core.query_engine.QueryEngine` (the shard's storage and
index backend pickle over at spawn time).  The worker builds its
feature store from that replica with
:meth:`~repro.core.cascade.FilterCascade.from_database`, exactly as an
in-process engine does, so cascade filtering and DTW verification run
off the parent's GIL.  The build is zero-copy wherever the replica's
store serves its elements dense: a view of the ``heap`` column the
replica unpickled, or the ``numpy.memmap`` a clean ``mmap`` replica
re-opens over the shard's data file.

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

Bit-exactness: the replica's store build charges the same
``db.scan()`` the in-process engines charge, and mirrored mutations
trigger the same lazy rebuild.  Query charges travel back on the
pickled ``QueryResult``/``BatchResult`` snapshots and merge in shard
order, so counters are bit-identical to the serial executor.

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
from typing import TYPE_CHECKING, Any

from ..exceptions import ExecutorError
from ..obs.metrics import use_registry
from ..obs.tracing import Span, SpanGrafter, Tracer, active_tracer, use_tracer
from .base import ShardExecutor, register_executor

if TYPE_CHECKING:
    from multiprocessing.context import SpawnContext
    from multiprocessing.process import BaseProcess

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


def _worker_main(conn: Connection, init: _WorkerInit) -> None:
    """Worker loop: serve call/mirror commands until closed."""
    from ..core.query_engine import QueryEngine

    engine = QueryEngine(init.database, init.backend)
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


def _release(conns: list[Connection], procs: list["BaseProcess"]) -> None:
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


@register_executor
class ProcessExecutor(ShardExecutor):
    """One spawned worker per shard, each over a replica of its shard.

    Workers are spawned lazily on the first fan-out, pickling each
    shard's storage + backend as they are *at that moment*; later
    mutations are kept in lockstep via :meth:`mirror`, and each worker
    rebuilds its feature store from its replica whenever one lands
    (the same lazy rebuild the in-process engines perform).
    """

    name = "process"

    def __init__(self, engines: list["QueryEngine"]) -> None:
        super().__init__(engines)
        self._ctx: "SpawnContext" = get_context("spawn")
        self._conns: list[Connection] | None = None
        self._procs: list["BaseProcess"] = []
        self._finalizer: weakref.finalize | None = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_started(self) -> list[Connection]:
        with self._lifecycle_lock:
            self._require_open()
            if self._conns is not None:
                return self._conns
            conns: list[Connection] = []
            procs: list["BaseProcess"] = []
            try:
                for shard, engine in enumerate(self._engines):
                    parent_conn, child_conn = self._ctx.Pipe()
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(
                            child_conn,
                            _WorkerInit(shard, engine.database, engine.backend),
                        ),
                        name=f"repro-shard-{shard}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    conns.append(parent_conn)
                    procs.append(proc)
            except BaseException:
                _release(conns, procs)
                raise
            self._conns, self._procs = conns, procs
            self._finalizer = weakref.finalize(self, _release, conns, procs)
            return conns

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
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
