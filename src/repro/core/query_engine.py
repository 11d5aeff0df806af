""":class:`QueryEngine` — backend → filter cascade → verification.

One object owns the whole similarity-search pipeline of Algorithm 1:
an :class:`~repro.index.backend.IndexBackend` generates candidates, the
:class:`~repro.core.cascade.FilterCascade` prunes them with the
lower-bound tiers, and DTW verification refines the survivors — with
every simulated-I/O and pruning counter charged in one place.  The
public facade (:class:`~repro.core.engine.TimeWarpingDatabase`), the
``methods/*`` experiment classes and the eval harness all compose this
engine instead of re-implementing the pipeline.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from ..distance.bands import sakoe_chiba_window
from ..distance.dtw import dtw_max_early_abandon, dtw_max_matrix
from ..exceptions import ValidationError
from ..index.backend import IndexBackend, make_backend
from ..obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
    timed,
    use_registry,
)
from ..obs.querylog import record_query
from ..obs.tracing import maybe_span
from ..storage.database import SequenceDatabase
from ..types import Sequence, SequenceLike, as_sequence, as_values
from .cascade import STAGE_DTW, CascadeStats, FilterCascade, charged_stage

__all__ = [
    "QueryEngine",
    "SearchOutcome",
    "QueryResult",
    "BatchResult",
    "charged_candidates",
]


@dataclass(frozen=True)
class SearchOutcome:
    """One match of a similarity search.

    Attributes
    ----------
    seq_id:
        The matching sequence's identifier.
    distance:
        Its true time-warping distance to the query.
    sequence:
        The matching sequence itself.
    """

    seq_id: int
    distance: float
    sequence: Sequence


@dataclass(frozen=True)
class QueryResult:
    """Everything one engine query produced — the return-path stats.

    Per-query statistics used to live in mutable engine attributes that
    concurrent queries clobbered; they are now carried on the return
    value, so every caller reads the stats of *its own* query.

    Attributes
    ----------
    matches:
        Qualifying sequences, ascending distance.
    stats:
        Per-stage pruning counters of this query.
    candidate_ids:
        Lower-bound survivors (pre-verification), ascending id.
    metrics:
        The full registry snapshot of this query's charges (cascade
        tiers, index node reads, DTW cells, storage pages).
    """

    matches: list[SearchOutcome]
    stats: CascadeStats
    candidate_ids: list[int]
    metrics: MetricsSnapshot


@dataclass(frozen=True)
class BatchResult:
    """Return-path stats of one :meth:`QueryEngine.search_many` batch."""

    results: list[list[SearchOutcome]]
    stats: CascadeStats | None
    metrics: MetricsSnapshot


class _CostSink(Protocol):
    """The two counters an index traversal charges (MethodStats quacks)."""

    index_node_reads: int
    simulated_io_seconds: float


def charged_candidates(
    backend: IndexBackend,
    db: SequenceDatabase,
    values: SequenceLike,
    epsilon: float,
    stats: _CostSink,
    *,
    io_charge: Callable[[int], float] | None = None,
) -> list[int]:
    """Run a backend range search and charge its node I/O to *stats*.

    Node reads accumulated by the traversal are added to
    ``stats.index_node_reads`` and converted to simulated seconds —
    by default one random page read per node, or via *io_charge* when
    the backend's nodes pack differently (e.g. the suffix tree packs
    many small nodes per page).
    """
    backend.access.mark("charged-candidates")
    candidate_ids = backend.range_search(values, epsilon)
    node_reads, _, _ = backend.access.delta("charged-candidates")
    stats.index_node_reads += node_reads
    if io_charge is not None:
        seconds = io_charge(node_reads)
    else:
        seconds = db.disk.random_read_time(node_reads, db.page_size)
    stats.simulated_io_seconds += seconds
    registry = active_registry()
    if registry is not None:
        # ``.seconds`` final segment: timing series, parity-excluded by
        # convention (RL014).
        registry.count(f"index.{backend.name}.io.seconds", seconds)
    return candidate_ids


class QueryEngine:
    """The composed search pipeline over one storage + one index backend.

    Parameters
    ----------
    database:
        The paged sequence storage the engine reads through.
    backend:
        An :class:`IndexBackend` instance, or a registry name
        (``"rtree"``, ``"rstar"``, ...) constructed at the storage's
        page size.
    backend_options:
        Extra constructor options when *backend* is a name.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        backend: IndexBackend | str = "rtree",
        *,
        backend_options: dict[str, object] | None = None,
    ) -> None:
        if isinstance(backend, str):
            backend = make_backend(
                backend,
                page_size=database.page_size,
                **(backend_options or {}),
            )
        elif backend_options:
            raise ValidationError(
                "backend_options require a backend name, not an instance"
            )
        self._db = database
        self._backend = backend
        self._cascade: FilterCascade | None = None
        self._cascade_lock = threading.Lock()
        self._metrics = MetricsRegistry()
        # Thread-local so concurrent queries never see each other's
        # stats; the authoritative per-query values travel on the
        # QueryResult return path.
        self._last = threading.local()

    # -- composition ---------------------------------------------------------

    @property
    def database(self) -> SequenceDatabase:
        """The underlying paged storage."""
        return self._db

    @property
    def backend(self) -> IndexBackend:
        """The candidate-generating index backend."""
        return self._backend

    @property
    def last_cascade_stats(self) -> CascadeStats | None:
        """Per-stage pruning counters of this thread's most recent query.

        Compatibility view; prefer :meth:`search_detailed`, whose
        :class:`QueryResult` carries the stats on the return path.
        """
        return getattr(self._last, "stats", None)

    @property
    def last_candidate_ids(self) -> list[int]:
        """Lower-bound survivors of this thread's most recent search."""
        return list(getattr(self._last, "candidate_ids", []))

    # -- observability -------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Cumulative registry of every query this engine has served."""
        return self._metrics

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Cumulative counters plus current index/storage structure gauges."""
        self._metrics.set_gauge("storage.total_pages", self._db.total_pages)
        self._metrics.set_gauge("storage.sequences", len(self._db))
        self._metrics.set_gauge(
            "storage.buffer.hit_ratio", self._db.buffer.hit_ratio
        )
        node_stats = self._backend.node_stats()
        prefix = f"index.{self._backend.name}"
        self._metrics.set_gauge(f"{prefix}.nodes", node_stats.nodes)
        self._metrics.set_gauge(f"{prefix}.height", node_stats.height)
        self._metrics.set_gauge(f"{prefix}.size_in_bytes", node_stats.size_in_bytes)
        return self._metrics.snapshot()

    @contextmanager
    def _query_scope(self) -> Iterator[MetricsRegistry]:
        """Route one query's charges into a fresh per-query registry.

        On exit the per-query snapshot is folded into the engine's
        cumulative registry and into whatever registry was ambient when
        the query arrived (so an outer harness- or session-level
        registry still sees every charge, exactly once).
        """
        outer = active_registry()
        per_query = MetricsRegistry()
        try:
            with use_registry(per_query):
                yield per_query
        finally:
            snapshot = per_query.snapshot()
            self._metrics.merge(snapshot)
            if outer is not None:
                outer.merge(snapshot)

    def __len__(self) -> int:
        return len(self._db)

    # -- population ---------------------------------------------------------

    def insert(self, sequence: SequenceLike) -> int:
        """Store one sequence and index it; returns its id."""
        seq = as_sequence(sequence)
        if len(seq) == 0:
            raise ValidationError("cannot insert an empty sequence")
        seq_id = self._db.insert(seq)
        self._backend.insert(seq_id, seq.values)
        return seq_id

    def bulk_insert(self, sequences: Iterable[SequenceLike]) -> list[int]:
        """Store many sequences and bulk-load the index in one pass.

        All or nothing: the storage checks every sequence before it or
        the index keeps any (see
        :meth:`~repro.storage.database.SequenceDatabase.insert_many`).
        """
        arrays = [as_values(sequence) for sequence in sequences]
        ids = self._db.insert_many(arrays)
        self._backend.bulk_load(zip(ids, arrays))
        return ids

    def delete(self, seq_id: int) -> None:
        """Remove a sequence from storage and the index."""
        stored = self._db.fetch(seq_id)
        self._backend.delete(seq_id, stored.values)
        self._db.delete(seq_id)

    def compact(self) -> None:
        """Reclaim the storage space deletes tombstoned."""
        self._db.compact()

    def rebuild_index(self) -> None:
        """Re-index the whole storage with one (charged) sequential scan."""
        items: list[tuple[int, SequenceLike]] = []
        for sequence in self._db.scan():
            assert sequence.seq_id is not None
            items.append((sequence.seq_id, sequence.values))
        self._backend.bulk_load(items)

    # -- queries ----------------------------------------------------------------

    def _active_cascade(self) -> FilterCascade:
        """The filter cascade over the current contents (lazily rebuilt).

        Ids are never reused and stored sequences are immutable, so the
        store stays valid until an insert/delete changes the id set —
        then one sequential scan rebuilds it.  The check is O(1): the
        store compares the database mutation count it was built at
        (:meth:`FeatureStore.matches`).
        """
        cascade = self._cascade
        if cascade is None or not cascade.store.matches(self._db):
            with self._cascade_lock:
                cascade = self._cascade
                if cascade is None or not cascade.store.matches(self._db):
                    cascade = FilterCascade.from_database(self._db)
                    self._cascade = cascade
        return cascade

    def search(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[SearchOutcome]:
        """All sequences with ``D_tw(S, Q) <= epsilon`` (Algorithm 1).

        Exact and complete for every ``exact`` backend: the index
        prunes with a valid lower bound (no false dismissal) and every
        candidate is verified with the true distance.  Results are
        sorted by ascending distance.

        *band_radius*, if given, verifies with Sakoe–Chiba-constrained
        DTW instead (extension): the banded distance only exceeds the
        unconstrained one, so the same index remains a sound filter.

        Thin wrapper over :meth:`search_detailed` that returns only the
        matches (per-query stats stay available on this thread's
        :attr:`last_cascade_stats` compatibility view).
        """
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
        """:meth:`search` with per-query stats on the return path.

        Surviving sequences are served from the cascade's in-memory
        store, but each one is still charged as the random fetch
        Algorithm 1's post-processing step performs.
        """
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        with self._query_scope() as per_query, maybe_span(
            "engine.search", backend=self._backend.name, epsilon=epsilon
        ):
            with timed("engine.search.seconds"):
                candidate_ids = sorted(
                    self._backend.range_search(q.values, epsilon)
                )
                cascade = self._active_cascade()
                rows = cascade.store.rows_for(candidate_ids)
                stages = [
                    charged_stage(
                        self._backend.name, len(self._db), int(rows.size)
                    )
                ]
                surviving, tier_stages = cascade.filter(
                    q.values, epsilon, rows=rows, band_radius=band_radius
                )
                stages.extend(tier_stages)
                ids = cascade.store.ids
                survivor_ids = [int(ids[row]) for row in surviving]
                matches: list[SearchOutcome] = []
                with timed("dtw.verify.seconds"):
                    for row in surviving:
                        seq_id = int(ids[row])
                        self._db.charge_fetch(seq_id)
                        distance = self._verify_distance(
                            cascade.store.values(int(row)),
                            q.values,
                            epsilon,
                            band_radius,
                        )
                        if distance <= epsilon:
                            stored = cascade.store.sequence(int(row))
                            matches.append(
                                SearchOutcome(seq_id, distance, stored)
                            )
                stages.append(
                    charged_stage(STAGE_DTW, int(surviving.size), len(matches))
                )
                per_query.count("engine.queries")
                per_query.count("engine.candidates", len(survivor_ids))
                per_query.count("engine.answers", len(matches))
                matches.sort(key=lambda m: (m.distance, m.seq_id))
            result = QueryResult(
                matches=matches,
                stats=CascadeStats(stages),
                candidate_ids=survivor_ids,
                metrics=per_query.snapshot(),
            )
            record_query(
                kind="range",
                epsilon=epsilon,
                backend=self._backend.name,
                executor="inline",
                store=self._db.store_name,
                shards=1,
                stages=[(s.name, s.n_in, s.n_out) for s in stages],
                snapshot=result.metrics,
                result_count=len(matches),
                total_metric="engine.search.seconds",
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
        """Answer a batch of similarity queries in one pass.

        Returns one :meth:`search`-identical result list per query (the
        same ids, distances and ordering); see
        :meth:`search_many_detailed` for the return-path stats.
        """
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
        """:meth:`search_many` with batch stats on the return path.

        Amortizes feature extraction across the batch and evaluates the
        lower-bound tiers as whole-database matrix operations instead of
        per-query index walks.  ``stats`` holds the stage-wise merge
        over all queries of the batch (None for an empty batch).
        """
        query_seqs = [as_sequence(query) for query in queries]
        for q in query_seqs:
            if len(q) == 0:
                raise ValidationError("query sequence must be non-empty")
        if epsilon < 0:
            raise ValidationError(f"epsilon must be non-negative, got {epsilon}")
        with self._query_scope() as per_query, maybe_span(
            "engine.search_many",
            backend=self._backend.name,
            queries=len(query_seqs),
        ):
            with timed("engine.search_many.seconds"):
                cascade = self._active_cascade()
                batch = cascade.run_many(
                    [q.values for q in query_seqs],
                    epsilon,
                    band_radius=band_radius,
                )
                results: list[list[SearchOutcome]] = []
                for outcome in batch:
                    rows = cascade.store.rows_for(outcome.answer_ids)
                    matches = [
                        SearchOutcome(
                            seq_id,
                            outcome.distances[seq_id],
                            cascade.store.sequence(int(row)),
                        )
                        for seq_id, row in zip(outcome.answer_ids, rows)
                    ]
                    matches.sort(key=lambda m: (m.distance, m.seq_id))
                    results.append(matches)
                stats = (
                    CascadeStats.merge(o.stats for o in batch) if batch else None
                )
                per_query.count("engine.queries", len(query_seqs))
                per_query.count(
                    "engine.candidates",
                    sum(len(o.candidate_ids) for o in batch),
                )
                per_query.count("engine.answers", sum(len(r) for r in results))
            result = BatchResult(
                results=results, stats=stats, metrics=per_query.snapshot()
            )
            record_query(
                kind="range_batch",
                epsilon=epsilon,
                backend=self._backend.name,
                executor="inline",
                store=self._db.store_name,
                shards=1,
                n_queries=len(query_seqs),
                stages=[
                    (s.name, s.n_in, s.n_out)
                    for s in (stats.stages if stats is not None else [])
                ],
                snapshot=result.metrics,
                result_count=sum(len(r) for r in results),
                total_metric="engine.search_many.seconds",
            )
        if result.stats is not None:
            self._last.stats = result.stats
        return result

    def knn(self, query: SequenceLike, k: int) -> list[SearchOutcome]:
        """The *k* sequences with the smallest ``D_tw`` to the query."""
        return self.knn_detailed(query, k).matches

    def knn_detailed(self, query: SequenceLike, k: int) -> QueryResult:
        """:meth:`knn` with per-query metrics on the return path.

        The classical lower-bound kNN refinement, consumed lazily: the
        backend yields candidates in ascending lower-bound order
        (:meth:`IndexBackend.knn_iter`); each is verified with
        early-abandoning DTW thresholded at the current *k*-th best
        distance, and the walk stops as soon as the next lower bound
        exceeds that threshold — no further sequence can qualify.
        """
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        with self._query_scope() as per_query, maybe_span(
            "engine.knn", backend=self._backend.name, k=k
        ):
            with timed("engine.knn.seconds"):
                found: list[SearchOutcome] = []
                examined = 0
                for lb, seq_id in self._backend.knn_iter(q.values):
                    if len(found) >= k and lb > found[k - 1].distance:
                        break
                    threshold = (
                        found[k - 1].distance
                        if len(found) >= k
                        else float("inf")
                    )
                    stored = self._db.fetch(seq_id)
                    distance = dtw_max_early_abandon(
                        stored.values, q.values, threshold
                    )
                    examined += 1
                    if distance <= threshold:
                        found.append(SearchOutcome(seq_id, distance, stored))
                        found.sort(key=lambda m: (m.distance, m.seq_id))
                        del found[k:]
                per_query.count("engine.knn_queries")
                per_query.count("engine.knn_examined", examined)
            result = QueryResult(
                matches=found,
                stats=CascadeStats([]),
                candidate_ids=[],
                metrics=per_query.snapshot(),
            )
            record_query(
                kind="knn",
                k=k,
                backend=self._backend.name,
                executor="inline",
                store=self._db.store_name,
                shards=1,
                stages=[],
                snapshot=result.metrics,
                result_count=len(found),
                total_metric="engine.knn.seconds",
            )
        return result

    @staticmethod
    def _verify_distance(
        s_values: np.ndarray,
        q_values: np.ndarray,
        epsilon: float,
        band_radius: int | None,
    ) -> float:
        if band_radius is None:
            return dtw_max_early_abandon(s_values, q_values, epsilon)
        window = sakoe_chiba_window(len(s_values), len(q_values), band_radius)
        return dtw_max_matrix(s_values, q_values, window=window).distance
