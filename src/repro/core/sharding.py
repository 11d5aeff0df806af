""":class:`ShardedDatabase` — N independent query engines, one answer.

Partitions sequences round-robin across *N* shards, each a full
:class:`~repro.core.query_engine.QueryEngine` with its own paged
storage, index backend and feature store.  Queries fan out to every
shard on a thread pool and the per-shard results are merged — answers,
distances, ordering and per-stage :class:`CascadeStats` are
bit-identical to running the same workload on a single shard:

* Global ids (*gids*) are assigned by one monotone counter; shard
  ``gid % N`` stores the sequence under its own local id (*lid*).
  Round-robin preserves arrival order within each shard, so per-shard
  ``(distance, lid)`` ordering equals global ``(distance, gid)``
  ordering and a merge of per-shard top-*k* lists is an exact global
  top-*k*.
* Range searches are embarrassingly parallel: every shard's answer set
  is disjoint, and the merged list is re-sorted by the same
  ``(distance, gid)`` key the single-shard path uses.
* Stage counters merge by :meth:`CascadeStats.merge`, so ``n_in`` of
  the index stage sums to the global database size.

*How* the per-shard calls run is delegated to a pluggable
:class:`~repro.exec.base.ShardExecutor` (``executor=`` /
``REPRO_EXECUTOR``): ``serial`` runs shards inline, ``thread`` fans
out on a persistent thread pool, ``process`` dispatches to spawned
workers that each build their feature store from their own replica of
the shard.  The router's job is unchanged either way — it applies
mutations to its own authoritative engines (mirroring them to executor
replicas), fans queries out through the executor, and merges results
in shard order, so answers and counters are bit-identical across
executors.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from ..exceptions import SequenceNotFoundError, ValidationError
from ..exec import make_executor
from ..exec.base import ShardExecutor
from ..obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
)
from ..obs.querylog import record_query
from ..obs.tracing import maybe_span
from ..storage.database import SequenceDatabase
from ..storage.diskmodel import DiskModel
from ..types import Sequence, SequenceLike, as_array, as_sequence
from .cascade import CascadeStats
from .query_engine import BatchResult, QueryEngine, QueryResult, SearchOutcome

__all__ = ["ShardedDatabase"]


class ShardedDatabase:
    """Round-robin shard router over N :class:`QueryEngine` instances.

    Parameters
    ----------
    page_size, disk, buffer_pages:
        Storage parameters, applied to every shard.
    backend:
        Index backend name used by every shard.
    shards:
        Number of shards (>= 1).
    backend_options:
        Extra options forwarded to each shard's backend constructor.
    executor:
        Shard execution plane: ``"serial"``, ``"thread"`` or
        ``"process"`` (default: the ``REPRO_EXECUTOR`` environment
        variable, else ``"thread"``).
    store:
        Sequence-store name applied to every shard (``heap``/``mmap``;
        default: the ``REPRO_STORE`` environment variable, else
        ``heap``).
    """

    def __init__(
        self,
        *,
        page_size: int = 1024,
        disk: DiskModel | None = None,
        buffer_pages: int = 0,
        backend: str = "rtree",
        shards: int = 1,
        backend_options: dict[str, object] | None = None,
        executor: str | None = None,
        store: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self._backend_name = backend
        self._backend_options = dict(backend_options or {})
        self._n = shards
        self._engines = [
            QueryEngine(
                SequenceDatabase(
                    page_size=page_size,
                    disk=disk,
                    buffer_pages=buffer_pages,
                    store=store,
                ),
                backend,
                backend_options=backend_options,
            )
            for _ in range(shards)
        ]
        # gid -> (shard, lid) and its per-shard inverse.  For one shard
        # both maps are the identity (counters advance in lockstep).
        self._assign: dict[int, tuple[int, int]] = {}
        self._rev: list[dict[int, int]] = [{} for _ in range(shards)]
        self._next_gid = 0
        self._metrics = MetricsRegistry()
        self._last = threading.local()
        self._executor: ShardExecutor = make_executor(executor, self._engines)

    @classmethod
    def adopt(
        cls,
        engines: list[QueryEngine],
        *,
        backend_name: str,
        backend_options: dict[str, object] | None = None,
        assign: dict[int, tuple[int, int]] | None = None,
        next_gid: int | None = None,
        executor: str | None = None,
    ) -> "ShardedDatabase":
        """Wrap pre-built engines (loaded or adopted storages).

        *assign* maps gid -> (shard, lid); when omitted the engines
        must be a single shard whose lids double as gids (the
        single-shard identity invariant).
        """
        if not engines:
            raise ValidationError("at least one engine is required")
        self = cls.__new__(cls)
        self._backend_name = backend_name
        self._backend_options = dict(backend_options or {})
        self._n = len(engines)
        self._engines = list(engines)
        if assign is None:
            if len(engines) != 1:
                raise ValidationError(
                    "an assign mapping is required for multi-shard adoption"
                )
            assign = {lid: (0, lid) for lid in engines[0].database.ids()}
        self._assign = dict(assign)
        self._rev = [{} for _ in engines]
        for gid, (shard, lid) in self._assign.items():
            self._rev[shard][lid] = gid
        if next_gid is None:
            if len(engines) == 1:
                # Keep the gid counter in lockstep with the shard's own
                # id counter — the single-shard identity invariant must
                # survive adopted storages that have seen deletions.
                next_gid = engines[0].database.next_id
            else:
                next_gid = max(self._assign) + 1 if self._assign else 0
        self._next_gid = next_gid
        self._metrics = MetricsRegistry()
        self._last = threading.local()
        self._executor = make_executor(executor, self._engines)
        return self

    # -- introspection -------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self._n

    @property
    def backend_name(self) -> str:
        """Registry name of the per-shard index backend."""
        return self._backend_name

    @property
    def store_name(self) -> str:
        """Registry name of the per-shard sequence store."""
        return self._engines[0].database.store_name

    @property
    def executor_name(self) -> str:
        """Registry name of the shard execution plane."""
        return self._executor.name

    @property
    def executor(self) -> ShardExecutor:
        """The shard executor fanning queries out (shard order results)."""
        return self._executor

    @property
    def engines(self) -> list[QueryEngine]:
        """The per-shard query engines (shard order)."""
        return list(self._engines)

    @property
    def storages(self) -> list[SequenceDatabase]:
        """Each shard's paged storage (shard order)."""
        return [engine.database for engine in self._engines]

    @property
    def last_cascade_stats(self) -> CascadeStats | None:
        """Shard-merged counters of this thread's most recent query.

        Compatibility view; prefer :meth:`search_detailed`, whose
        :class:`QueryResult` carries the stats on the return path.
        """
        return getattr(self._last, "stats", None)

    @property
    def last_candidate_ids(self) -> list[int]:
        """Lower-bound survivors (gids) of this thread's last search."""
        return list(getattr(self._last, "candidate_ids", []))

    @property
    def metrics(self) -> MetricsRegistry:
        """Cumulative registry of every query served, shard-merged."""
        return self._metrics

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Cumulative counters plus aggregated structure gauges.

        Counters were merged from the per-shard return-path snapshots in
        shard order, so integer totals are bit-identical to a
        single-shard run of the same workload.
        """
        self._metrics.set_gauge(
            "storage.total_pages",
            sum(e.database.total_pages for e in self._engines),
        )
        self._metrics.set_gauge("storage.sequences", len(self))
        hits = sum(e.database.buffer.hits for e in self._engines)
        misses = sum(e.database.buffer.misses for e in self._engines)
        self._metrics.set_gauge(
            "storage.buffer.hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0,
        )
        node_stats = [e.backend.node_stats() for e in self._engines]
        prefix = f"index.{self._backend_name}"
        self._metrics.set_gauge(
            f"{prefix}.nodes", sum(s.nodes for s in node_stats)
        )
        self._metrics.set_gauge(
            f"{prefix}.height", max(s.height for s in node_stats)
        )
        self._metrics.set_gauge(
            f"{prefix}.size_in_bytes", sum(s.size_in_bytes for s in node_stats)
        )
        self._metrics.set_gauge("sharded.shards", self._n)
        return self._metrics.snapshot()

    @property
    def next_gid(self) -> int:
        """The next gid to be assigned (monotone, never reused)."""
        return self._next_gid

    def assignment(self) -> dict[int, tuple[int, int]]:
        """A copy of the gid -> (shard, lid) placement map."""
        return dict(self._assign)

    def __len__(self) -> int:
        return sum(len(engine) for engine in self._engines)

    def __contains__(self, gid: int) -> bool:
        return gid in self._assign

    def ids(self) -> list[int]:
        """All stored gids in insertion order."""
        return sorted(self._assign)

    def shard_of(self, gid: int) -> int:
        """The shard holding *gid*; raises when not stored."""
        return self._locate(gid)[0]

    def _locate(self, gid: int) -> tuple[int, int]:
        try:
            return self._assign[gid]
        except KeyError:
            raise SequenceNotFoundError(
                f"sequence {gid} is not stored"
            ) from None

    # -- population ---------------------------------------------------------

    def insert(self, sequence: SequenceLike) -> int:
        """Store one sequence on shard ``gid % N``; returns its gid."""
        seq = as_sequence(sequence)
        gid = self._next_gid
        shard = gid % self._n
        lid = self._engines[shard].insert(seq)
        self._next_gid += 1
        self._assign[gid] = (shard, lid)
        self._rev[shard][lid] = gid
        self._executor.mirror(shard, "insert", (seq,))
        return gid

    def bulk_load(self, sequences: Iterable[SequenceLike]) -> list[int]:
        """Store many sequences, bulk-loading each shard's index once.

        All or nothing.  One shard's storage checks the whole load
        before it keeps any of it; several shards load one after
        another, so every sequence is checked in full here first.
        """
        if self._n == 1:
            items = list(sequences)
        else:
            items = [as_array(seq, allow_empty=False) for seq in sequences]
        first = self._next_gid
        gids = list(range(first, first + len(items)))
        for shard, engine in enumerate(self._engines):
            # Round-robin: gid g lives on shard g % n.
            start = (shard - first) % self._n
            batch = items[start :: self._n]
            if not batch:
                continue
            lids = engine.bulk_insert(batch)
            rev = self._rev[shard]
            for gid, lid in zip(gids[start :: self._n], lids):
                self._assign[gid] = (shard, lid)
                rev[lid] = gid
            self._executor.mirror(shard, "bulk_insert", (batch,))
        self._next_gid = first + len(items)
        return gids

    def delete(self, gid: int) -> None:
        """Remove a sequence by gid from its shard."""
        shard, lid = self._locate(gid)
        self._engines[shard].delete(lid)
        del self._assign[gid]
        del self._rev[shard][lid]
        self._executor.mirror(shard, "delete", (lid,))

    def compact(self) -> None:
        """Reclaim every shard's tombstoned storage space."""
        for shard, engine in enumerate(self._engines):
            engine.compact()
            self._executor.mirror(shard, "compact")

    def get(self, gid: int) -> Sequence:
        """Fetch a stored sequence by gid (charges the shard's I/O)."""
        shard, lid = self._locate(gid)
        stored = self._engines[shard].database.fetch(lid)
        return self._as_global(gid, stored)

    @staticmethod
    def _as_global(gid: int, stored: Sequence) -> Sequence:
        if stored.seq_id == gid:
            return stored
        return Sequence(stored.values, seq_id=gid, label=stored.label)

    def _translate(self, shard: int, match: SearchOutcome) -> SearchOutcome:
        gid = self._rev[shard][match.seq_id]
        if gid == match.seq_id:
            return match
        return SearchOutcome(
            gid, match.distance, self._as_global(gid, match.sequence)
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the execution plane (pool threads, worker
        processes).  Idempotent; the database remains readable
        through non-fanning paths (``get``, ``ids``) but further
        queries raise :class:`~repro.exceptions.ExecutorError`."""
        self._executor.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- queries ----------------------------------------------------------------

    def _run_shards(
        self,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Fan ``engine.<method>(*args)`` out via the executor.

        Results come back in shard order regardless of completion
        order, and the ambient metrics registry is suppressed inside
        the calls: per-shard charges travel back on the engines'
        return-path snapshots and are merged in shard order — the
        deterministic, bit-exact aggregation the parity guarantee
        needs (engine-level merging from concurrent workers would be
        completion-ordered instead).
        """
        return self._executor.run(method, args, kwargs)

    @contextmanager
    def _query_scope(self) -> Iterator[MetricsRegistry]:
        """Collect one query's shard-merged charges.

        On exit the merged snapshot is folded into the cumulative
        registry and into whatever registry was ambient when the query
        arrived, exactly once.
        """
        outer = active_registry()
        per_query = MetricsRegistry()
        try:
            yield per_query
        finally:
            snapshot = per_query.snapshot()
            self._metrics.merge(snapshot)
            if outer is not None:
                outer.merge(snapshot)

    def search(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[SearchOutcome]:
        """Shard-parallel range search, merged by ``(distance, gid)``."""
        return self.search_detailed(
            query, epsilon, band_radius=band_radius
        ).matches

    def search_detailed(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> QueryResult:
        """:meth:`search` with shard-merged stats on the return path."""
        with self._query_scope() as per_query, maybe_span(
            "sharded.search", shards=self._n, backend=self._backend_name
        ):
            with per_query.timer("sharded.search.seconds"):
                per_query.count("sharded.queries")
                shard_results = self._run_shards(
                    "search_detailed",
                    (query, epsilon),
                    {"band_radius": band_radius},
                )
                merged: list[SearchOutcome] = []
                candidate_gids: list[int] = []
                for shard, shard_result in enumerate(shard_results):
                    per_query.merge(shard_result.metrics)
                    merged.extend(
                        self._translate(shard, match)
                        for match in shard_result.matches
                    )
                    candidate_gids.extend(
                        self._rev[shard][lid]
                        for lid in shard_result.candidate_ids
                    )
                merged.sort(key=lambda m: (m.distance, m.seq_id))
            result = QueryResult(
                matches=merged,
                stats=CascadeStats.merge(r.stats for r in shard_results),
                candidate_ids=sorted(candidate_gids),
                metrics=per_query.snapshot(),
            )
            record_query(
                kind="range",
                epsilon=epsilon,
                backend=self._backend_name,
                executor=self._executor.name,
                store=self.store_name,
                shards=self._n,
                stages=[
                    (s.name, s.n_in, s.n_out) for s in result.stats.stages
                ],
                snapshot=result.metrics,
                result_count=len(merged),
                total_metric="sharded.search.seconds",
            )
        self._last.stats = result.stats
        self._last.candidate_ids = result.candidate_ids
        return result

    def search_many(
        self,
        queries: Iterable[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[list[SearchOutcome]]:
        """Shard-parallel batch search; one merged list per query."""
        return self.search_many_detailed(
            queries, epsilon, band_radius=band_radius
        ).results

    def search_many_detailed(
        self,
        queries: Iterable[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> BatchResult:
        """:meth:`search_many` with shard-merged return-path stats."""
        query_list = [as_sequence(query) for query in queries]
        with self._query_scope() as per_query, maybe_span(
            "sharded.search_many",
            shards=self._n,
            backend=self._backend_name,
            queries=len(query_list),
        ):
            with per_query.timer("sharded.search_many.seconds"):
                per_query.count("sharded.queries", len(query_list))
                shard_results = self._run_shards(
                    "search_many_detailed",
                    (query_list, epsilon),
                    {"band_radius": band_radius},
                )
                for shard_result in shard_results:
                    per_query.merge(shard_result.metrics)
                merged: list[list[SearchOutcome]] = []
                for query_index in range(len(query_list)):
                    combined: list[SearchOutcome] = []
                    for shard, shard_result in enumerate(shard_results):
                        combined.extend(
                            self._translate(shard, match)
                            for match in shard_result.results[query_index]
                        )
                    combined.sort(key=lambda m: (m.distance, m.seq_id))
                    merged.append(combined)
                shard_stats = [
                    r.stats for r in shard_results if r.stats is not None
                ]
            result = BatchResult(
                results=merged,
                stats=CascadeStats.merge(shard_stats) if shard_stats else None,
                metrics=per_query.snapshot(),
            )
            record_query(
                kind="range_batch",
                epsilon=epsilon,
                backend=self._backend_name,
                executor=self._executor.name,
                store=self.store_name,
                shards=self._n,
                n_queries=len(query_list),
                stages=[
                    (s.name, s.n_in, s.n_out)
                    for s in (
                        result.stats.stages if result.stats is not None else []
                    )
                ],
                snapshot=result.metrics,
                result_count=sum(len(r) for r in merged),
                total_metric="sharded.search_many.seconds",
            )
        if result.stats is not None:
            self._last.stats = result.stats
        return result

    def knn(self, query: SequenceLike, k: int) -> list[SearchOutcome]:
        """Shard-parallel kNN: merge per-shard top-*k* lists."""
        return self.knn_detailed(query, k).matches

    def knn_detailed(self, query: SequenceLike, k: int) -> QueryResult:
        """:meth:`knn` with shard-merged metrics on the return path.

        Exact: each shard's list is its true top-*k*, every stored
        sequence lives in exactly one shard, and within a shard the
        local tie-break order equals the global one (round-robin
        preserves insertion order), so the global top-*k* is a subset
        of the union of the per-shard lists.
        """
        with self._query_scope() as per_query, maybe_span(
            "sharded.knn", shards=self._n, backend=self._backend_name, k=k
        ):
            with per_query.timer("sharded.knn.seconds"):
                per_query.count("sharded.knn_queries")
                shard_results = self._run_shards("knn_detailed", (query, k))
                merged: list[SearchOutcome] = []
                for shard, shard_result in enumerate(shard_results):
                    per_query.merge(shard_result.metrics)
                    merged.extend(
                        self._translate(shard, match)
                        for match in shard_result.matches
                    )
                merged.sort(key=lambda m: (m.distance, m.seq_id))
            result = QueryResult(
                matches=merged[:k],
                stats=CascadeStats([]),
                candidate_ids=[],
                metrics=per_query.snapshot(),
            )
            record_query(
                kind="knn",
                k=k,
                backend=self._backend_name,
                executor=self._executor.name,
                store=self.store_name,
                shards=self._n,
                stages=[],
                snapshot=result.metrics,
                result_count=len(result.matches),
                total_metric="sharded.knn.seconds",
            )
        return result

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase({len(self)} sequences, "
            f"{self._n} shard(s), backend={self._backend_name!r}, "
            f"executor={self._executor.name!r})"
        )
