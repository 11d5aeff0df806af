"""The shard execution plane: how a query fans out across shards.

:class:`~repro.core.sharding.ShardedDatabase` owns the *routing* math —
gid/lid translation, round-robin placement, shard-order result merging.
*How* the per-shard engine calls actually run is a separate concern,
factored into a :class:`ShardExecutor`:

* ``serial`` — every shard runs inline in the calling thread, in shard
  order.  The old ``shards == 1`` short-circuit, generalized to any N.
* ``thread`` — a lazily-created, *persistent* thread pool that the
  calling thread joins: the caller runs shards itself and the pool's
  ``N - 1`` workers take the ones it has not reached.  Each shard runs
  in a copy of the submitting thread's :mod:`contextvars` context so
  trace spans parent correctly.
* ``process`` — spawn-based worker processes that own a replica of
  their shard's :class:`~repro.core.query_engine.QueryEngine` and
  build its feature store from that replica, like any other engine.
  This is the executor that takes DTW verification off the GIL.

All three are registered here by name; selection order is the explicit
``executor=`` argument, then the ``REPRO_EXECUTOR`` environment
variable, then the ``thread`` default.  The contract every executor
must honour is *bit-exactness*: answers, distances, ordering,
``CascadeStats`` and merged metric counters of any workload are
identical across executors, because charges are suppressed in the
workers (``use_registry(None)``) and travel back on the per-shard
return values, which the router merges in shard order.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

from ..exceptions import ExecutorError, ValidationError

if TYPE_CHECKING:
    from ..core.query_engine import QueryEngine

__all__ = [
    "DEFAULT_EXECUTOR",
    "ENV_EXECUTOR",
    "EXECUTORS",
    "ShardExecutor",
    "available_executors",
    "make_executor",
    "register_executor",
    "resolve_executor_name",
]

#: The executor used when neither ``executor=`` nor the environment
#: variable selects one.
DEFAULT_EXECUTOR = "thread"

#: Environment variable consulted when no explicit executor is passed.
ENV_EXECUTOR = "REPRO_EXECUTOR"


class ShardExecutor(ABC):
    """Fan a method call out to every shard engine; results in shard order.

    Parameters
    ----------
    engines:
        The per-shard :class:`QueryEngine` instances, shard order.  The
        executor never reorders or filters them; result lists align
        index-for-index with this list.
    """

    #: Registry name of the executor (``serial``/``thread``/``process``).
    name: ClassVar[str]

    def __init__(self, engines: list["QueryEngine"]) -> None:
        if not engines:
            raise ValidationError("at least one shard engine is required")
        self._engines = list(engines)
        self._closed = False
        # Serializes lifecycle transitions (lazy start, close) against
        # concurrent callers; never held during query execution.
        self._lifecycle_lock = threading.Lock()

    # -- introspection -------------------------------------------------------

    @property
    def engines(self) -> list["QueryEngine"]:
        """The shard engines this executor fans out over (shard order)."""
        return list(self._engines)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ExecutorError(
                f"{self.name} executor is closed; create a new database "
                "or executor to keep querying"
            )

    # -- execution -----------------------------------------------------------

    @abstractmethod
    def run(
        self,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Invoke ``engine.<method>(*args, **kwargs)`` on every shard.

        Returns the per-shard results **in shard order** regardless of
        completion order — the deterministic merge the bit-exactness
        guarantee needs.  The ambient metrics registry is suppressed
        inside the calls; charges travel on the return values.
        """

    def mirror(
        self, shard: int, method: str, args: tuple[Any, ...] = ()
    ) -> None:
        """Forward a mutation already applied to the parent's engines.

        The router applies every insert/bulk-load/delete/compact to its own
        (authoritative) engines first, then calls ``mirror`` so an
        executor holding *replicas* — the process executor — can replay
        the same operation on its worker's copy, keeping storage,
        index and buffer-pool state in lockstep.  Executors that share
        the parent's engines (serial, thread) inherit this no-op.
        """

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (idempotent)."""
        with self._lifecycle_lock:
            self._closed = True

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_E = TypeVar("_E", bound=type[ShardExecutor])

#: Registered executor classes, keyed by :attr:`ShardExecutor.name`.
EXECUTORS: dict[str, type[ShardExecutor]] = {}


def register_executor(cls: _E) -> _E:
    """Class decorator adding *cls* to the :data:`EXECUTORS` registry."""
    EXECUTORS[cls.name] = cls
    return cls


def available_executors() -> tuple[str, ...]:
    """The registered executor names, sorted."""
    return tuple(sorted(EXECUTORS))


def resolve_executor_name(name: str | None = None) -> str:
    """Resolve the executor to use and validate it.

    Explicit *name* wins; ``None`` falls back to the ``REPRO_EXECUTOR``
    environment variable, then to :data:`DEFAULT_EXECUTOR`.
    """
    if name is None:
        name = os.environ.get(ENV_EXECUTOR) or DEFAULT_EXECUTOR
    if name not in EXECUTORS:
        known = ", ".join(available_executors())
        raise ValidationError(
            f"unknown executor {name!r}; registered: {known}"
        )
    return name


def make_executor(
    name: str | None, engines: list["QueryEngine"]
) -> ShardExecutor:
    """Construct the executor *name* (resolved per
    :func:`resolve_executor_name`) over *engines*."""
    return EXECUTORS[resolve_executor_name(name)](engines)
