"""Observability integration: shard-merge parity, concurrency safety,
and counters from the streaming/subsequence extensions.

The tentpole invariants:

* **Bit-exact shard merging** — every partition-invariant counter
  (cascade tiers, DTW cell work, candidate/answer counts, storage
  fetches) is identical whether the database runs as one shard or
  several, for every exact backend.  Structure-dependent counters
  (node reads, page counts) legitimately differ and are excluded.
* **Per-query isolation** — concurrent searches each get their own
  stats on the :class:`QueryResult` return path, and the thread-local
  ``last_cascade_stats`` compatibility view never mixes threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.engine import TimeWarpingDatabase
from repro.core.streaming import StreamMonitor
from repro.core.subsequence import SubsequenceIndex
from repro.exceptions import ValidationError
from repro.exec import available_executors
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, use_registry
from repro.obs.tracing import Tracer, use_tracer

PARITY_BACKENDS = ["rtree", "rstar", "linear"]

#: Counters that must not depend on how the data is partitioned.  Node
#: reads and page counts depend on tree shape / heap layout and are
#: deliberately absent; ``engine.queries`` counts per-engine invocations
#: (x N with N shards) and is covered by the top-level ``sharded.queries``.
INVARIANT_PREFIXES = ("cascade.", "dtw.")
INVARIANT_NAMES = (
    "sharded.queries",
    "engine.candidates",
    "engine.answers",
    "storage.fetches",
)


def _invariant(snapshot: MetricsSnapshot) -> dict[str, float]:
    return {
        name: value
        for name, value in snapshot.counters.items()
        if name.startswith(INVARIANT_PREFIXES) or name in INVARIANT_NAMES
    }


def _work_histograms(snapshot: MetricsSnapshot) -> dict[str, tuple]:
    """The partition-invariant face of every work-derived histogram.

    Timing histograms (a ``seconds`` name segment) measure wall clock
    and are excluded; for the rest the integer bucket vector, exact
    extrema, count, and the quantiles derived from them must be
    bit-identical however the database is sharded.  (``total`` is a
    float sum whose addition order is partition-dependent, so it is
    deliberately not compared.)
    """
    return {
        name: (
            summary.buckets,
            summary.count,
            summary.minimum,
            summary.maximum,
            summary.p50,
            summary.p95,
            summary.p99,
        )
        for name, summary in snapshot.histograms.items()
        if "seconds" not in name.split(".")
    }


def _workload(seed: int = 11, n: int = 30) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=int(rng.integers(8, 24))).cumsum() for _ in range(n)
    ]


def _build(arrays: list[np.ndarray], backend: str, shards: int) -> TimeWarpingDatabase:
    db = TimeWarpingDatabase(backend=backend, shards=shards)
    for values in arrays:
        db.insert(values)
    return db


@pytest.fixture(scope="module")
def arrays() -> list[np.ndarray]:
    return _workload()


class TestShardMergeParity:
    """Sharded counter merges are bit-identical to single-shard runs."""

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_cumulative_counters_match(self, arrays, backend) -> None:
        queries = arrays[:6]
        epsilon = 2.0
        single = _build(arrays, backend, 1)
        sharded = _build(arrays, backend, 3)
        for query in queries:
            single.search(query, epsilon)
            sharded.search(query, epsilon)
        left = _invariant(single.metrics_snapshot())
        right = _invariant(sharded.metrics_snapshot())
        assert left == right
        assert left["sharded.queries"] == len(queries)
        assert any(name.startswith("cascade.") for name in left)
        assert left["dtw.cells"] == right["dtw.cells"]

    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    def test_per_query_return_path_matches(self, arrays, backend) -> None:
        single = _build(arrays, backend, 1)
        sharded = _build(arrays, backend, 3)
        result_1 = single.search_detailed(arrays[2], 1.5)
        result_3 = sharded.search_detailed(arrays[2], 1.5)
        assert result_1.matches == result_3.matches
        assert sorted(result_1.candidate_ids) == sorted(result_3.candidate_ids)
        assert _invariant(result_1.metrics) == _invariant(result_3.metrics)

    def test_batch_counters_match(self, arrays) -> None:
        single = _build(arrays, "rtree", 1)
        sharded = _build(arrays, "rtree", 3)
        batch = arrays[:5]
        result_1 = single.search_many_detailed(batch, 2.0)
        result_3 = sharded.search_many_detailed(batch, 2.0)
        assert [
            [m.seq_id for m in matches] for matches in result_1.results
        ] == [[m.seq_id for m in matches] for matches in result_3.results]
        assert _invariant(result_1.metrics) == _invariant(result_3.metrics)

    def test_knn_counters_merge_across_shards(self, arrays) -> None:
        """kNN charges its own counters: one ``sharded.knn_queries`` per
        facade call, one ``engine.knn_queries`` per shard engine, and
        ``engine.knn_examined`` for the refined candidates.  Examined
        counts are structure-dependent (per-shard candidate order), so
        only the invocation counters are compared exactly."""
        single = _build(arrays, "rtree", 1)
        sharded = _build(arrays, "rtree", 3)
        assert [m.seq_id for m in single.knn(arrays[3], 3)] == [
            m.seq_id for m in sharded.knn(arrays[3], 3)
        ]
        left = single.metrics_snapshot()
        right = sharded.metrics_snapshot()
        assert left.counter("sharded.knn_queries") == 1
        assert right.counter("sharded.knn_queries") == 1
        assert left.counter("engine.knn_queries") == 1
        assert right.counter("engine.knn_queries") == 3
        assert left.counter("engine.knn_examined") > 0
        assert right.counter("engine.knn_examined") > 0

    def test_merge_order_is_shard_order(self, arrays) -> None:
        """Repeating the same query yields the same snapshot — no
        completion-order nondeterminism in the merge."""
        db = _build(arrays, "rtree", 3)
        first = _invariant(db.search_detailed(arrays[0], 2.0).metrics)
        for _ in range(5):
            again = _invariant(db.search_detailed(arrays[0], 2.0).metrics)
            assert again == first


class TestCumulativeRegistry:
    def test_counters_accumulate_across_queries(self, arrays) -> None:
        db = _build(arrays, "rtree", 2)
        one = db.search_detailed(arrays[0], 1.0).metrics
        db.search(arrays[0], 1.0)
        total = db.metrics_snapshot()
        assert total.counter("sharded.queries") == 2
        assert total.counter("dtw.cells") == 2 * one.counter("dtw.cells")

    def test_structure_gauges_present(self, arrays) -> None:
        db = _build(arrays, "rstar", 2)
        db.search(arrays[0], 1.0)
        snapshot = db.metrics_snapshot()
        assert snapshot.gauges["sharded.shards"] == 2
        assert snapshot.gauges["storage.sequences"] == len(arrays)
        assert snapshot.gauges["index.rstar.nodes"] > 0

    def test_ambient_registry_sees_facade_queries(self, arrays) -> None:
        db = _build(arrays, "rtree", 2)
        registry = MetricsRegistry()
        with use_registry(registry):
            db.search(arrays[1], 1.5)
        snapshot = registry.snapshot()
        assert snapshot.counter("sharded.queries") == 1
        assert snapshot.counter("dtw.cells") > 0
        # No double counting: ambient equals the per-query charge.
        assert _invariant(snapshot) == _invariant(
            db.search_detailed(arrays[1], 1.5).metrics
        )

    def test_spans_cover_shard_fanout(self, arrays) -> None:
        db = _build(arrays, "rtree", 3)
        tracer = Tracer()
        with use_tracer(tracer):
            db.search(arrays[0], 1.0)
        (root,) = tracer.roots
        assert root.name == "sharded.search"
        assert len(root.find("engine.search")) == 3


class TestHistogramShardParity:
    """Acceptance: 1-shard and N-shard runs produce identical bucket
    vectors and p50/p95/p99 for every work-derived histogram, on every
    executor plane."""

    @pytest.mark.parametrize(
        "executor", sorted(available_executors())
    )
    def test_per_query_histograms_match(self, arrays, executor) -> None:
        epsilon = 2.0
        with TimeWarpingDatabase(backend="rtree", shards=1) as single, (
            TimeWarpingDatabase(backend="rtree", shards=3, executor=executor)
        ) as sharded:
            for values in arrays:
                single.insert(values)
                sharded.insert(values)
            recorded: set[str] = set()
            for query in arrays[:4]:
                left = single.search_detailed(query, epsilon).metrics
                right = sharded.search_detailed(query, epsilon).metrics
                histograms = _work_histograms(left)
                assert histograms == _work_histograms(right)
                recorded.update(histograms)
        # A query whose candidates all qualify abandons nothing and
        # records no work histogram; across the four, one must.
        assert "dtw.abandon_depth" in recorded, "no work-derived histograms recorded"

    def test_cumulative_histograms_match(self, arrays) -> None:
        with TimeWarpingDatabase(backend="rtree", shards=1) as single, (
            TimeWarpingDatabase(backend="rtree", shards=3)
        ) as sharded:
            for values in arrays:
                single.insert(values)
                sharded.insert(values)
            for query in arrays[:5]:
                single.search(query, 1.5)
                sharded.search(query, 1.5)
            left = _work_histograms(single.metrics_snapshot())
            right = _work_histograms(sharded.metrics_snapshot())
        assert left == right
        assert "dtw.abandon_depth" in left

    def test_timing_histograms_recorded_per_tier(self, arrays) -> None:
        """Each cascade tier, the verify stage, and the end-to-end
        search charge a timing histogram on the per-query snapshot."""
        with TimeWarpingDatabase(backend="rtree", shards=2) as db:
            for values in arrays:
                db.insert(values)
            metrics = db.search_detailed(arrays[0], 2.0).metrics
        names = set(metrics.histograms)
        assert "sharded.search.seconds" in names
        assert "engine.search.seconds" in names
        assert any(name.startswith("cascade.") and name.endswith(".seconds")
                   for name in names)


class TestSpanGraftOrder:
    """Satellite: fan-out span children attach in shard order on every
    executor, however the pool schedules completions."""

    @pytest.mark.parametrize(
        "executor", sorted(available_executors())
    )
    def test_children_in_shard_order(self, arrays, executor) -> None:
        with TimeWarpingDatabase(
            backend="rtree", shards=3, executor=executor
        ) as db:
            for values in arrays:
                db.insert(values)
            tracer = Tracer()
            with use_tracer(tracer):
                for _ in range(3):
                    db.search(arrays[0], 1.5)
            for root in tracer.roots:
                assert root.name == "sharded.search"
                children = [
                    span for span in root.children
                    if span.name == "engine.search"
                ]
                assert [
                    span.attributes.get("shard") for span in children
                ] == [0, 1, 2]


class TestConcurrentQueries:
    """Satellite: per-query stats survive concurrent searches."""

    def test_return_path_isolated_under_concurrency(self, arrays) -> None:
        db = _build(arrays, "rtree", 2)
        queries = arrays[:8]
        epsilon = 1.8
        expected = [db.search_detailed(query, epsilon) for query in queries]

        def run(index: int):
            result = db.search_detailed(queries[index], epsilon)
            # The compatibility view is thread-local: right after the
            # call it reflects *this* thread's query, not a racing one.
            view_stats = db.last_cascade_stats
            view_ids = db.last_candidate_ids
            return result, view_stats, view_ids

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run, range(len(queries))))
        for index, (result, view_stats, view_ids) in enumerate(outcomes):
            reference = expected[index]
            assert result.matches == reference.matches
            assert result.candidate_ids == reference.candidate_ids
            assert _invariant(result.metrics) == _invariant(reference.metrics)
            assert view_ids == reference.candidate_ids
            assert [
                (stage.name, stage.n_in, stage.n_out)
                for stage in view_stats.stages
            ] == [
                (stage.name, stage.n_in, stage.n_out)
                for stage in reference.stats.stages
            ]

    def test_fresh_thread_has_no_last_stats(self, arrays) -> None:
        db = _build(arrays, "rtree", 1)
        db.search(arrays[0], 1.0)

        def probe():
            return db.last_cascade_stats, db.last_candidate_ids

        with ThreadPoolExecutor(max_workers=1) as pool:
            stats, ids = pool.submit(probe).result()
        assert stats is None and ids == []


class TestStreamingCounters:
    """Satellite: streaming edges charge the ambient registry."""

    def test_empty_stream(self) -> None:
        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = StreamMonitor([1.0, 2.0], epsilon=0.5)
        assert monitor.elements_seen == 0
        assert not monitor.matches_now
        assert monitor.can_still_match
        assert "stream.pushes" not in registry.snapshot().counters

    def test_eps_zero_exact_match(self) -> None:
        registry = MetricsRegistry()
        monitor = StreamMonitor([1.0, 2.0, 3.0], epsilon=0.0)
        with use_registry(registry):
            assert not monitor.push(1.0)
            assert not monitor.push(2.0)
            assert monitor.push(3.0)
        snapshot = registry.snapshot()
        assert snapshot.counter("stream.pushes") == 3
        assert snapshot.counter("stream.matches") == 1
        assert "stream.frontier_deaths" not in snapshot.counters

    def test_frontier_death_charged_once(self) -> None:
        registry = MetricsRegistry()
        monitor = StreamMonitor([1.0, 2.0], epsilon=0.1)
        with use_registry(registry):
            monitor.push(50.0)  # kills the frontier
            monitor.push(1.0)  # already dead: cheap, no second death
        assert not monitor.can_still_match
        snapshot = registry.snapshot()
        assert snapshot.counter("stream.pushes") == 2
        assert snapshot.counter("stream.frontier_deaths") == 1


class TestSubsequenceCounters:
    """Satellite: windowed-index edges charge the ambient registry."""

    def test_window_shorter_than_sequence(self) -> None:
        registry = MetricsRegistry()
        index = SubsequenceIndex([4])
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        index.add(values, seq_id=0)
        assert index.window_count == 5  # 8 - 4 + 1 sliding windows
        index.build()
        with use_registry(registry):
            matches = index.search(values[2:6], epsilon=0.0)
        assert [(m.seq_id, m.start) for m in matches] == [(0, 2)]
        snapshot = registry.snapshot()
        assert snapshot.counter("subseq.queries") == 1
        assert snapshot.counter("subseq.candidates") >= 1
        assert snapshot.counter("subseq.matches") == 1
        # The window verification runs real DTW under the same registry.
        assert snapshot.counter("dtw.cells") > 0

    def test_window_longer_than_sequence_is_skipped(self) -> None:
        index = SubsequenceIndex([10])
        index.add(np.arange(4, dtype=float))
        assert index.window_count == 0
        with pytest.raises(ValidationError, match="no windows"):
            index.build()

    def test_best_match_charges_knn_counters(self) -> None:
        registry = MetricsRegistry()
        index = SubsequenceIndex([3])
        index.add(np.array([0.0, 5.0, 10.0, 15.0, 20.0]), seq_id=7)
        index.build()
        with use_registry(registry):
            best = index.best_match([5.2, 9.8, 15.1])
        assert best is not None and best.seq_id == 7
        snapshot = registry.snapshot()
        assert snapshot.counter("subseq.knn_queries") == 1
        assert snapshot.counter("subseq.knn_examined") >= 1
