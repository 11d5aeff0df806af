"""Cross-executor parity: the execution plane must be invisible.

The load-bearing invariant of :mod:`repro.exec`: answers, distances,
ordering, per-query :class:`CascadeStats` and merged metric counters
are bit-identical whichever executor runs the shards — ``serial``,
``thread`` or ``process`` — at any shard count, on any backend, and
across mutations.  Every test here compares full
:meth:`search_detailed` results structurally, not just answer sets.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.engine import TimeWarpingDatabase
from repro.exceptions import ExecutorError, ValidationError
from repro.exec import (
    DEFAULT_EXECUTOR,
    ENV_EXECUTOR,
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    make_executor,
    resolve_executor_name,
)
from repro.storage.database import SequenceDatabase

ALL_EXECUTORS = ("serial", "thread", "process")


def _workload(seed: int, n: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=int(rng.integers(8, 30))).cumsum() for _ in range(n)
    ]


def _facade(
    arrays: list[np.ndarray],
    *,
    backend: str = "rtree",
    shards: int = 4,
    executor: str | None = None,
    page_size: int = 1024,
) -> TimeWarpingDatabase:
    storage = SequenceDatabase(page_size=page_size)
    for values in arrays:
        storage.insert(values)
    return TimeWarpingDatabase.from_storage(
        storage, backend=backend, shards=shards, executor=executor
    )


def _observe(facade: TimeWarpingDatabase, queries, epsilon: float):
    """Everything an executor could get wrong, as comparable structure."""
    out = []
    for query in queries:
        result = facade.search_detailed(query, epsilon)
        out.append(
            (
                [(m.seq_id, m.distance) for m in result.matches],
                result.candidate_ids,
                [
                    (s.name, s.n_in, s.n_out)
                    for s in result.stats.stages
                ],
                dict(result.metrics.counters),
            )
        )
    return out


@pytest.fixture(scope="module")
def arrays() -> list[np.ndarray]:
    return _workload(5)


@pytest.fixture(scope="module")
def queries() -> list[np.ndarray]:
    return _workload(91, n=3)


class TestExecutorParity:
    @pytest.mark.parametrize("backend", ["rtree", "linear"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_search_detailed_bit_identical(
        self, backend, shards, arrays, queries
    ):
        with _facade(
            arrays, backend=backend, shards=shards, executor="serial"
        ) as reference_facade:
            reference = _observe(reference_facade, queries, 1.5)
        for executor in ("thread", "process"):
            with _facade(
                arrays, backend=backend, shards=shards, executor=executor
            ) as facade:
                assert facade.executor_name == executor
                assert _observe(facade, queries, 1.5) == reference

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_knn_matches_serial(self, executor, arrays, queries):
        with _facade(arrays, shards=3, executor="serial") as serial:
            expect = [
                [(m.seq_id, m.distance) for m in serial.knn(q, 5)]
                for q in queries
            ]
        with _facade(arrays, shards=3, executor=executor) as facade:
            got = [
                [(m.seq_id, m.distance) for m in facade.knn(q, 5)]
                for q in queries
            ]
        assert got == expect

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_batch_matches_per_query(self, executor, arrays, queries):
        with _facade(arrays, shards=4, executor=executor) as facade:
            batch = facade.search_many(queries, 1.2)
            for query, matches in zip(queries, batch):
                single = facade.search(query, 1.2)
                assert [(m.seq_id, m.distance) for m in matches] == [
                    (m.seq_id, m.distance) for m in single
                ]

    def test_mutations_stay_in_lockstep(self, arrays, queries):
        """Insert/delete/compact after spawn must reach every replica."""
        # Pages small enough that compacting the deleted records moves
        # page spans, so a replica that skipped the compact would
        # charge different storage counters.
        facades = {
            name: _facade(arrays[:12], shards=3, executor=name, page_size=512)
            for name in ALL_EXECUTORS
        }
        try:
            # Force the process workers to spawn *before* mutating, so
            # the mirror path (not the pickled snapshot) is what keeps
            # replicas current.
            for facade in facades.values():
                facade.search(queries[0], 0.5)
            for facade in facades.values():
                facade.delete(4)
                facade.delete(7)
                facade.compact()
                facade.insert(arrays[12])
                facade.insert(arrays[13])
            observed = {
                name: _observe(facade, queries, 2.0)
                for name, facade in facades.items()
            }
            assert observed["thread"] == observed["serial"]
            assert observed["process"] == observed["serial"]
        finally:
            for facade in facades.values():
                facade.close()


class TestDegenerateLayouts:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_more_shards_than_sequences(self, executor, arrays, queries):
        few = arrays[:3]
        with _facade(few, shards=5, executor=executor) as facade:
            for query in queries:
                matches = facade.search(query, 2.0)
                assert {m.seq_id for m in matches} <= {0, 1, 2}
                distances = [m.distance for m in matches]
                assert distances == sorted(distances)

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_all_deleted_shard(self, executor, arrays, queries):
        with _facade(arrays[:9], shards=3, executor=executor) as facade:
            facade.search(queries[0], 0.5)  # spawn before mutating
            for gid in (1, 4, 7):  # empties shard 1 entirely
                facade.delete(gid)
            assert len(facade) == 6
            survivors = {0, 2, 3, 5, 6, 8}
            for query in queries:
                assert {
                    m.seq_id for m in facade.search(query, 3.0)
                } <= survivors
                assert {m.seq_id for m in facade.knn(query, 3)} <= survivors

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_knn_k_beyond_database_size(self, executor, arrays, queries):
        with _facade(arrays[:4], shards=2, executor=executor) as facade:
            neighbours = facade.knn(queries[0], 50)
            assert sorted(m.seq_id for m in neighbours) == [0, 1, 2, 3]
            distances = [m.distance for m in neighbours]
            assert distances == sorted(distances)


class TestThreadPoolReuse:
    def test_consecutive_queries_reuse_one_pool(self, arrays, queries):
        """Regression: the old router built a fresh pool per call."""
        with _facade(arrays, shards=4, executor="thread") as facade:
            executor = facade.sharded.executor
            assert isinstance(executor, ThreadExecutor)
            assert executor.active_pool is None  # created lazily
            facade.search(queries[0], 1.0)
            first = executor.active_pool
            assert first is not None
            facade.search(queries[1], 1.0)
            facade.knn(queries[2], 3)
            assert executor.active_pool is first

    def test_single_engine_runs_inline(self, arrays, queries):
        with _facade(arrays, shards=1, executor="thread") as facade:
            executor = facade.sharded.executor
            facade.search(queries[0], 1.0)
            assert isinstance(executor, ThreadExecutor)
            assert executor.active_pool is None


class _Shard:
    """A stand-in shard engine whose ``work`` runs a given callable."""

    def __init__(self, index: int, body) -> None:
        self.index = index
        self.body = body
        self.threads: list[int] = []

    def work(self) -> int:
        self.threads.append(threading.get_ident())
        self.body(self.index)
        return self.index


class TestThreadFanOut:
    def test_every_shard_runs_once_in_shard_order(self):
        shards = [_Shard(i, lambda i: None) for i in range(5)]
        with ThreadExecutor(shards) as executor:
            for _ in range(20):
                assert executor.run("work") == [0, 1, 2, 3, 4]
        assert all(len(shard.threads) == 20 for shard in shards)

    def test_pool_takes_shards_while_the_caller_waits(self):
        """A shard blocked outside the GIL leaves the others to the pool:
        shard 0 can only finish after shard 1 ran, whichever thread
        claimed it."""
        ran = threading.Event()

        def body(index: int) -> None:
            if index == 0:
                assert ran.wait(timeout=10)
            else:
                ran.set()

        shards = [_Shard(i, body) for i in range(2)]
        with ThreadExecutor(shards) as executor:
            assert executor.run("work") == [0, 1]
        assert shards[0].threads != shards[1].threads

    def test_errors_raise_in_shard_order_after_every_shard(self):
        finished: list[int] = []

        def body(index: int) -> None:
            if index == 2:
                time.sleep(0.05)
            finished.append(index)
            if index in (1, 2):
                raise ValueError(f"shard {index}")

        shards = [_Shard(i, body) for i in range(3)]
        with ThreadExecutor(shards) as executor:
            with pytest.raises(ValueError, match="shard 1"):
                executor.run("work")
            assert sorted(finished) == [0, 1, 2]


class TestExecutorLifecycle:
    def test_registry_names(self):
        assert set(available_executors()) == {"serial", "thread", "process"}
        assert EXECUTORS["serial"] is SerialExecutor
        assert EXECUTORS["thread"] is ThreadExecutor
        assert EXECUTORS["process"] is ProcessExecutor

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        assert resolve_executor_name(None) == DEFAULT_EXECUTOR
        monkeypatch.setenv(ENV_EXECUTOR, "serial")
        assert resolve_executor_name(None) == "serial"
        assert resolve_executor_name("process") == "process"

    def test_unknown_names_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_executor_name("fork-bomb")
        monkeypatch.setenv(ENV_EXECUTOR, "gpu")
        with pytest.raises(ValidationError):
            resolve_executor_name(None)

    def test_env_var_selects_facade_executor(self, monkeypatch, arrays):
        monkeypatch.setenv(ENV_EXECUTOR, "serial")
        with _facade(arrays[:6], shards=2) as facade:
            assert facade.executor_name == "serial"

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ValidationError):
            make_executor("serial", [])

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_close_is_idempotent_and_final(self, executor, arrays, queries):
        facade = _facade(arrays[:6], shards=2, executor=executor)
        facade.search(queries[0], 1.0)
        facade.close()
        facade.close()  # second close is a no-op
        with pytest.raises(ExecutorError):
            facade.search(queries[0], 1.0)

    def test_worker_exceptions_propagate(self, arrays):
        with _facade(arrays[:6], shards=2, executor="process") as facade:
            with pytest.raises(ValidationError):
                facade.search(np.array([]), 1.0)
            # the plane survives a failed query
            assert facade.search(arrays[0], 0.0)
