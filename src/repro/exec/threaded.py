"""The thread executor: a persistent shard pool that the caller joins.

Historically ``ShardedDatabase`` built a fresh
:class:`~concurrent.futures.ThreadPoolExecutor` inside every search
call, paying N thread spawns per query.  The pool is now created
lazily on the first multi-shard call and reused for the executor's
lifetime; :meth:`close` shuts it down idempotently.

The calling thread does not wait idle on the pool: it runs shards
itself, and the pool's ``N - 1`` threads take the shards it has not
reached yet (:meth:`ThreadExecutor._fan_out`).  Each shard runs in a
*copy* of the submitting thread's :mod:`contextvars` context, so trace
spans opened by the shard engines parent correctly under the caller's
fan-out span.  With a single engine the call runs inline — no pool is
ever created, preserving the old single-shard fast path.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable

from ..obs.metrics import use_registry
from ..obs.querylog import use_querylog
from ..obs.tracing import Span, SpanGrafter, attach_to
from .base import ShardExecutor, register_executor

if TYPE_CHECKING:
    from ..core.query_engine import QueryEngine

__all__ = ["ThreadExecutor"]


@register_executor
class ThreadExecutor(ShardExecutor):
    """Fan out on a lazily-created, persistent thread pool."""

    name = "thread"

    def __init__(self, engines: list["QueryEngine"]) -> None:
        super().__init__(engines)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def active_pool(self) -> ThreadPoolExecutor | None:
        """The persistent pool, or ``None`` before the first fan-out.

        Exposed so the reuse regression test can assert two consecutive
        queries run on the *same* pool object.
        """
        return self._pool

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                self._require_open()
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=len(self._engines) - 1,
                        thread_name_prefix="repro-shard",
                    )
                    self._pool = pool
        return pool

    def run(
        self,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        self._require_open()
        kwargs = kwargs or {}
        grafter = SpanGrafter(len(self._engines))

        def isolated(engine: "QueryEngine", holder: Span | None) -> Any:
            # Spans park under a detached per-shard holder; the grafter
            # re-attaches them in shard order after every shard finishes,
            # so completion-order scheduling never leaks into the trace.
            with use_registry(None), use_querylog(None), attach_to(holder):
                return getattr(engine, method)(*args, **kwargs)

        if len(self._engines) == 1:
            results = [isolated(self._engines[0], grafter.holder(0))]
        else:
            results = self._fan_out(isolated, grafter)
        grafter.graft()
        return results

    def _fan_out(
        self, isolated: Callable[..., Any], grafter: SpanGrafter
    ) -> list[Any]:
        """Run every shard, the calling thread included; shard order out.

        The caller claims shards in order and runs them itself while
        the pool threads claim any it has not reached.  A pool thread
        can claim one only while it holds the GIL: when the caller drops
        it in a long numpy call or I/O, or at CPython's forced switch
        (every 5 ms).  Shards the caller reaches first never cross
        threads, and the caller never blocks on a shard it could run.
        Errors are re-raised in shard order once every shard has
        finished, so no shard outlives the call.
        """
        engines = self._engines
        contexts = [contextvars.copy_context() for _ in engines]
        holders = [grafter.holder(shard) for shard in range(len(engines))]
        results: list[Any] = [None] * len(engines)
        errors: list[BaseException | None] = [None] * len(engines)
        finished = [threading.Event() for _ in engines]
        claims = itertools.count()
        claim_lock = threading.Lock()

        def drain() -> None:
            while True:
                with claim_lock:
                    shard = next(claims)
                if shard >= len(engines):
                    return
                try:
                    results[shard] = contexts[shard].run(
                        isolated, engines[shard], holders[shard]
                    )
                except BaseException as exc:  # re-raised by the caller
                    errors[shard] = exc
                finally:
                    finished[shard].set()

        pool = self._ensure_pool()
        for _ in range(len(engines) - 1):
            pool.submit(drain)
        drain()
        for event in finished:
            event.wait()
        for error in errors:
            if error is not None:
                raise error
        return results

    def close(self) -> None:
        """Shut the pool down (idempotent; in-flight tasks finish)."""
        if self._closed:
            return
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
