""":class:`TimeWarpingDatabase` — the library's public facade.

Composes a :class:`~repro.core.sharding.ShardedDatabase` — N shards,
each a paged :class:`~repro.storage.database.SequenceDatabase` plus a
pluggable :class:`~repro.index.backend.IndexBackend` driven by a
:class:`~repro.core.query_engine.QueryEngine` — into the end-to-end
system a user adopts: insert sequences, then run whole-matching
similarity searches under time warping with guaranteed-complete
results, or k-nearest-neighbour queries.  This is the paper's
TW-Sim-Search packaged for application use (the lower-level
:class:`~repro.methods.tw_sim.TWSimSearch` exposes the
experiment-oriented cost accounting).

``TimeWarpingDatabase(backend="rstar", shards=4)`` is the one-line
entry point to a different access method or a shard-parallel layout;
answers are identical for every exact backend and any shard count.

Example
-------
>>> from repro import TimeWarpingDatabase
>>> db = TimeWarpingDatabase()
>>> db.insert([20, 21, 21, 20, 20, 23, 23, 23], label="S")
0
>>> db.insert([10, 10, 11, 12], label="T")
1
>>> [m.seq_id for m in db.search([20, 20, 21, 20, 23], epsilon=1.0)]
[0]
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..exceptions import ValidationError
from ..index.backend import BACKENDS, IndexBackend
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..storage.database import SequenceDatabase
from ..storage.diskmodel import DiskModel
from ..types import Sequence, SequenceLike, as_sequence
from .cascade import CascadeStats
from .query_engine import BatchResult, QueryEngine, QueryResult, SearchOutcome
from .sharding import ShardedDatabase

__all__ = ["TimeWarpingDatabase", "SearchOutcome"]

_META_FORMAT = "twdb"
_META_VERSION = 1


class TimeWarpingDatabase:
    """A sequence database answering similarity queries under time warping.

    Parameters
    ----------
    page_size:
        Storage/index page size in bytes (paper: 1 KB).
    disk:
        Disk timing model for simulated I/O accounting; defaults to the
        paper's parameters.
    buffer_pages:
        LRU buffer pool capacity for each shard's data file.
    backend:
        Index backend name (see :data:`repro.index.backend.BACKENDS`);
        the paper's default is the plain R-tree.
    shards:
        Number of round-robin shards queried in parallel (>= 1).
    backend_options:
        Extra options forwarded to each shard's backend constructor.
    executor:
        Shard execution plane — ``"serial"``, ``"thread"`` or
        ``"process"`` (default: the ``REPRO_EXECUTOR`` environment
        variable, else ``"thread"``).  A runtime choice, not a stored
        property: it is never persisted by :meth:`save`.
    store:
        Sequence-store name applied to every shard — ``"heap"`` or
        ``"mmap"`` (default: the ``REPRO_STORE`` environment variable,
        else ``"heap"``).  A stored property: :meth:`save` persists it
        and :meth:`load` sniffs each shard file's magic, so databases
        round-trip under either store.
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
        self._sharded = ShardedDatabase(
            page_size=page_size,
            disk=disk,
            buffer_pages=buffer_pages,
            backend=backend,
            shards=shards,
            backend_options=backend_options,
            executor=executor,
            store=store,
        )
        self._labels: dict[int, str | None] = {}

    @classmethod
    def from_storage(
        cls,
        storage: SequenceDatabase,
        *,
        backend: str = "rtree",
        shards: int = 1,
        backend_options: dict[str, object] | None = None,
        labels: dict[int, str | None] | None = None,
        executor: str | None = None,
    ) -> "TimeWarpingDatabase":
        """Index an existing storage under the chosen backend/sharding.

        With one shard the storage is adopted in place (its ids become
        the facade's ids); with several it is redistributed round-robin
        onto fresh per-shard storages, preserving ids.  Either way the
        index build charges one sequential scan.
        """
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        instance = cls.__new__(cls)
        instance._labels = dict(labels or {})
        if shards == 1:
            engine = QueryEngine(storage, backend, backend_options=backend_options)
            engine.rebuild_index()
            instance._sharded = ShardedDatabase.adopt(
                [engine],
                backend_name=backend,
                backend_options=backend_options,
                executor=executor,
            )
            return instance
        engines = [
            QueryEngine(
                SequenceDatabase(
                    page_size=storage.page_size,
                    disk=storage.disk,
                    store=storage.store_name,
                ),
                backend,
                backend_options=backend_options,
            )
            for _ in range(shards)
        ]
        assign: dict[int, tuple[int, int]] = {}
        per_shard: list[list[Sequence]] = [[] for _ in range(shards)]
        per_gids: list[list[int]] = [[] for _ in range(shards)]
        for sequence in storage.scan():
            assert sequence.seq_id is not None
            shard = sequence.seq_id % shards
            per_shard[shard].append(sequence)
            per_gids[shard].append(sequence.seq_id)
        for shard, batch in enumerate(per_shard):
            if not batch:
                continue
            lids = engines[shard].bulk_insert(batch)
            for gid, lid in zip(per_gids[shard], lids):
                assign[gid] = (shard, lid)
        instance._sharded = ShardedDatabase.adopt(
            engines,
            backend_name=backend,
            backend_options=backend_options,
            assign=assign,
            next_gid=storage.next_id,
            executor=executor,
        )
        return instance

    # -- population ---------------------------------------------------------

    def insert(self, sequence: SequenceLike, *, label: str | None = None) -> int:
        """Store one sequence and index its feature vector; returns its id."""
        seq = as_sequence(sequence)
        seq_id = self._sharded.insert(seq)
        self._labels[seq_id] = label if label is not None else seq.label
        return seq_id

    def bulk_load(self, sequences: Iterable[SequenceLike]) -> list[int]:
        """Store many sequences and bulk-load each shard's index once.

        Substantially faster than repeated :meth:`insert` for initial
        loads (paper section 4.3.1); existing contents are preserved.
        All or nothing: a load holding an empty, non-1-d or non-finite
        sequence raises and stores none of it.
        """
        items = list(sequences)
        ids = self._sharded.bulk_load(items)
        for seq_id, item in zip(ids, items):
            if isinstance(item, Sequence) and item.label is not None:
                self._labels[seq_id] = item.label
        return ids

    def delete(self, seq_id: int) -> None:
        """Remove a sequence from storage and the feature index.

        Raises :class:`~repro.exceptions.SequenceNotFoundError` when the
        id is not stored.  Storage space is tombstoned; call
        :meth:`compact` to reclaim it.
        """
        self._sharded.delete(seq_id)
        self._labels.pop(seq_id, None)

    def compact(self) -> None:
        """Reclaim the storage space deletes tombstoned, on every shard.

        Page numbers shift, so each shard's buffer pool is cleared; the
        ``process`` executor's worker replicas compact in lockstep.
        """
        self._sharded.compact()

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sharded)

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._sharded

    def get(self, seq_id: int) -> Sequence:
        """Fetch a stored sequence by id."""
        return self._sharded.get(seq_id)

    def ids(self) -> list[int]:
        """All stored (global) sequence ids, ascending."""
        return self._sharded.ids()

    def label_of(self, seq_id: int) -> str | None:
        """The label the sequence was inserted with, if any."""
        return self._labels.get(seq_id)

    @property
    def backend_name(self) -> str:
        """Registry name of the per-shard index backend."""
        return self._sharded.backend_name

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self._sharded.n_shards

    @property
    def executor_name(self) -> str:
        """Registry name of the shard execution plane."""
        return self._sharded.executor_name

    @property
    def store_name(self) -> str:
        """Registry name of the per-shard sequence store."""
        return self._sharded.store_name

    def close(self) -> None:
        """Release the execution plane (pool threads, worker processes).

        Idempotent; safe on every executor, required etiquette for
        ``executor="process"``.
        """
        self._sharded.close()

    def __enter__(self) -> "TimeWarpingDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def storage(self) -> SequenceDatabase:
        """The underlying paged storage (single-shard databases).

        For sharded databases there is one storage per shard — use
        :attr:`shard_storages`.
        """
        if self._sharded.n_shards != 1:
            raise ValidationError(
                "a sharded database has one storage per shard; "
                "use shard_storages"
            )
        return self._sharded.storages[0]

    @property
    def shard_storages(self) -> list[SequenceDatabase]:
        """Each shard's paged storage (shard order)."""
        return self._sharded.storages

    @property
    def backend(self) -> IndexBackend:
        """The index backend (single-shard databases)."""
        if self._sharded.n_shards != 1:
            raise ValidationError(
                "a sharded database has one backend per shard; "
                "use sharded.engines"
            )
        return self._sharded.engines[0].backend

    @property
    def index(self):
        """The underlying index structure (single-shard databases).

        The backend's native tree when it has one (R-tree family,
        suffix tree), else the backend itself.
        """
        backend = self.backend
        return getattr(backend, "tree", backend)

    @property
    def sharded(self) -> ShardedDatabase:
        """The shard router (per-shard engines, storages, placement)."""
        return self._sharded

    @property
    def last_cascade_stats(self) -> CascadeStats | None:
        """Per-stage pruning counters of the most recent search.

        For :meth:`search_many` this is the stage-wise merge over all
        queries of the batch (and over all shards).
        """
        return self._sharded.last_cascade_stats

    @property
    def last_candidate_ids(self) -> list[int]:
        """Lower-bound survivors (pre-verification) of the last search."""
        return self._sharded.last_candidate_ids

    # -- observability -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Cumulative metrics registry of every query served."""
        return self._sharded.metrics

    def metrics_snapshot(self) -> MetricsSnapshot:
        """One snapshot of every counter the database has charged.

        Counters (``cascade.*``, ``index.*``, ``dtw.*``, ``storage.*``,
        ``engine.*``) accumulate over the database's lifetime and merge
        bit-exactly across shards; structure gauges (index node counts,
        storage pages) reflect the current state.  Per-query values are
        available on :meth:`search_detailed`'s return path.
        """
        return self._sharded.metrics_snapshot()

    # -- queries ----------------------------------------------------------------

    def search(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[SearchOutcome]:
        """All sequences with ``D_tw(S, Q) <= epsilon`` (Algorithm 1).

        Exact and complete: the index prunes with ``D_tw-lb`` (no false
        dismissal, Theorem 1) and every candidate is verified with the
        true distance.  Results are sorted by ascending distance.

        *band_radius*, if given, verifies with Sakoe–Chiba-constrained
        DTW instead (extension): the banded distance only exceeds the
        unconstrained one, so the same index remains a sound filter —
        ``D_tw-lb <= D_tw <= D_tw^band`` — while matches are required
        to align without extreme time distortion.
        """
        return self._sharded.search(query, epsilon, band_radius=band_radius)

    def search_detailed(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> QueryResult:
        """:meth:`search` with per-query stats and metrics on the return path.

        The returned :class:`QueryResult` carries this query's cascade
        stage counters, lower-bound survivor ids and a full metrics
        snapshot — safe under concurrent queries, unlike the
        :attr:`last_cascade_stats` compatibility view.
        """
        return self._sharded.search_detailed(
            query, epsilon, band_radius=band_radius
        )

    def search_many(
        self,
        queries: Iterable[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[list[SearchOutcome]]:
        """Answer a batch of similarity queries in one pass.

        Returns one :meth:`search`-identical result list per query (the
        same ids, distances and ordering), but amortizes feature
        extraction across the batch and evaluates the lower-bound tiers
        as whole-database matrix operations instead of per-query index
        walks.  :attr:`last_cascade_stats` afterwards holds the
        stage-wise merge over all queries of the batch.
        """
        return self._sharded.search_many(
            queries, epsilon, band_radius=band_radius
        )

    def search_many_detailed(
        self,
        queries: Iterable[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> BatchResult:
        """:meth:`search_many` with batch stats on the return path."""
        return self._sharded.search_many_detailed(
            queries, epsilon, band_radius=band_radius
        )

    def knn(self, query: SequenceLike, k: int) -> list[SearchOutcome]:
        """The *k* sequences with the smallest ``D_tw`` to the query.

        The classical lower-bound kNN refinement: each shard walks its
        index in ascending ``D_tw-lb`` order (lazy best-first) and
        verifies with early-abandoning DTW thresholded at the current
        *k*-th best distance; per-shard top-*k* lists merge exactly.
        """
        return self._sharded.knn(query, k)

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the database.

        Single-shard layout (seed-compatible): ``<path>`` holds the
        data heap, ``<path>.idx`` the index (when the backend supports
        a page-exact format), ``<path>.labels`` the label map, and
        ``<path>.meta`` the backend/shard metadata.  Sharded layout:
        one ``<path>.shard<i>`` heap (plus optional ``.idx``) per
        shard, with the gid placement recorded in ``<path>.meta``.
        """
        path = Path(path)
        engines = self._sharded.engines
        meta: dict[str, object] = {
            "format": _META_FORMAT,
            "version": _META_VERSION,
            "backend": self._sharded.backend_name,
            "shards": self._sharded.n_shards,
            "next_gid": self._sharded.next_gid,
            "store": self._sharded.store_name,
        }
        if self._sharded.n_shards == 1:
            engines[0].database.save(path)
            self._save_index(engines[0], path.with_name(path.name + ".idx"))
        else:
            meta["assign"] = {
                str(gid): [shard, lid]
                for gid, (shard, lid) in self._sharded.assignment().items()
            }
            for i, engine in enumerate(engines):
                shard_path = path.with_name(f"{path.name}.shard{i}")
                engine.database.save(shard_path)
                self._save_index(
                    engine, shard_path.with_name(shard_path.name + ".idx")
                )
        labels = {str(k): v for k, v in self._labels.items() if v is not None}
        path.with_name(path.name + ".labels").write_text(json.dumps(labels))
        path.with_name(path.name + ".meta").write_text(json.dumps(meta))

    @staticmethod
    def _save_index(engine: QueryEngine, index_path: Path) -> None:
        if not engine.backend.save(index_path):
            # The backend has no page-exact format; drop any stale file
            # so a later load rebuilds from the data instead.
            index_path.unlink(missing_ok=True)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        disk: DiskModel | None = None,
        buffer_pages: int = 0,
        executor: str | None = None,
    ) -> "TimeWarpingDatabase":
        """Re-open a database persisted with :meth:`save`.

        Backend name and shard layout round-trip through the
        ``<path>.meta`` file; files written before it existed load as
        a single-shard R-tree database.  Each shard's index is loaded
        from its ``.idx`` file when present, else rebuilt from the data
        by a (charged) bulk load.
        """
        path = Path(path)
        backend_name = "rtree"
        shards = 1
        next_gid: int | None = None
        assign: dict[int, tuple[int, int]] | None = None
        store_name: str | None = None
        meta_path = path.with_name(path.name + ".meta")
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            backend_name = meta.get("backend", "rtree")
            shards = int(meta.get("shards", 1))
            store_name = meta.get("store")
            if "next_gid" in meta:
                next_gid = int(meta["next_gid"])
            if "assign" in meta:
                assign = {
                    int(gid): (int(pair[0]), int(pair[1]))
                    for gid, pair in meta["assign"].items()
                }
        if backend_name not in BACKENDS:
            raise ValidationError(
                f"persisted database uses unknown backend {backend_name!r}"
            )
        if shards == 1:
            shard_paths = [path]
        else:
            shard_paths = [
                path.with_name(f"{path.name}.shard{i}") for i in range(shards)
            ]
        engines: list[QueryEngine] = []
        for shard_path in shard_paths:
            db = SequenceDatabase.load(
                shard_path,
                disk=disk,
                buffer_pages=buffer_pages,
                store=store_name,
            )
            engines.append(cls._load_engine(db, backend_name, shard_path))
        labels: dict[int, str | None] = {}
        labels_path = path.with_name(path.name + ".labels")
        if labels_path.exists():
            raw = json.loads(labels_path.read_text())
            labels = {int(k): v for k, v in raw.items()}
        instance = cls.__new__(cls)
        instance._sharded = ShardedDatabase.adopt(
            engines,
            backend_name=backend_name,
            assign=assign,
            # A reloaded single-shard storage restarts its id counter at
            # max(ids)+1 (seed behaviour); the gid counter must follow
            # it to keep the gid==lid identity.  Sharded layouts keep
            # the persisted counter so gids are never reused.
            next_gid=next_gid if shards > 1 else None,
            executor=executor,
        )
        instance._labels = labels
        return instance

    @staticmethod
    def _load_engine(
        db: SequenceDatabase, backend_name: str, shard_path: Path
    ) -> QueryEngine:
        index_path = shard_path.with_name(shard_path.name + ".idx")
        if index_path.exists():
            loaded = BACKENDS[backend_name].load(
                index_path, page_size=db.page_size
            )
            if loaded is not None:
                return QueryEngine(db, loaded)
        engine = QueryEngine(db, backend_name)
        engine.rebuild_index()
        return engine
