"""The engine's feature store stays fresh through every kind of write.

:meth:`FeatureStore.matches` is an O(1) comparison of the mutation
count a store recorded at build time against the database's current
one.  These tests pin what that buys: after any interleaving of insert,
delete, compact, save and reload, every shard engine's active store
equals a freshly built :meth:`FeatureStore.from_database` row for row
(ids, features, values), and the next query sees the write.  Writes go
through the facade, so on the ``process`` executor they are mirrored to
the worker replicas whose stores are checked.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cascade import FeatureStore
from repro.core.engine import TimeWarpingDatabase
from repro.distance.dtw import dtw_max
from repro.storage import SequenceDatabase

STORES = ("heap", "mmap")
EXECUTORS = ("serial", "thread", "process")
EPSILON = 1.5


def _pool(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=int(rng.integers(6, 20))).cumsum() for _ in range(n)]


POOL = _pool(11, 40)


class _Harness:
    """A sharded facade plus the model of what it must contain."""

    def __init__(self, tmp_path, store: str, executor: str) -> None:
        self.path = tmp_path / "db.bin"
        self.executor = executor
        self.facade = TimeWarpingDatabase(store=store, shards=2, executor=executor)
        self.model: dict[int, np.ndarray] = {}
        for gid, values in zip(self.facade.bulk_load(POOL[:8]), POOL[:8]):
            self.model[gid] = values
        self.next_pool = 8

    def close(self) -> None:
        self.facade.close()

    # -- steps ---------------------------------------------------------------

    def insert(self) -> None:
        values = POOL[self.next_pool % len(POOL)]
        self.next_pool += 1
        self.model[self.facade.insert(values)] = values

    def delete(self, pick: int) -> None:
        if not self.model:
            return
        gid = sorted(self.model)[pick % len(self.model)]
        self.facade.delete(gid)
        del self.model[gid]

    def compact(self) -> None:
        self.facade.compact()

    def save(self) -> None:
        self.facade.save(self.path)

    def reload(self) -> None:
        self.facade.save(self.path)
        self.facade.close()
        self.facade = TimeWarpingDatabase.load(self.path, executor=self.executor)

    def apply(self, step: tuple[str, int]) -> None:
        kind, pick = step
        if kind == "delete":
            self.delete(pick)
        else:
            getattr(self, kind)()

    # -- checks --------------------------------------------------------------

    def assert_fresh(self) -> None:
        """Each shard's active store equals a fresh build, row for row."""
        cascades = self.facade.sharded.executor.run("_active_cascade")
        for cascade, storage in zip(cascades, self.facade.sharded.storages):
            active, fresh = cascade.store, FeatureStore.from_database(storage)
            assert active.matches(storage)
            np.testing.assert_array_equal(active.ids, fresh.ids)
            np.testing.assert_array_equal(active.features, fresh.features)
            np.testing.assert_array_equal(active.offsets, fresh.offsets)
            np.testing.assert_array_equal(active.values_flat, fresh.values_flat)

    def assert_queries_see_writes(self) -> None:
        """Every stored sequence finds itself; answers equal brute force."""
        for gid, values in list(self.model.items())[:3]:
            found = {m.seq_id: m.distance for m in self.facade.search(values, EPSILON)}
            expected = {
                other: dtw_max(values, stored)
                for other, stored in self.model.items()
                if dtw_max(values, stored) <= EPSILON
            }
            assert found == expected
            assert found[gid] == 0.0
        assert len(self.facade) == len(self.model)

    def check(self) -> None:
        self.assert_fresh()
        self.assert_queries_see_writes()


STEPS = st.tuples(
    st.sampled_from(("insert", "delete", "compact", "save", "reload")),
    st.integers(min_value=0, max_value=1000),
)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("store", STORES)
def test_fixed_interleaving_keeps_store_fresh(tmp_path, store, executor):
    harness = _Harness(tmp_path, store, executor)
    try:
        harness.check()
        for step in (
            ("insert", 0),
            ("delete", 3),
            ("insert", 0),
            ("compact", 0),
            ("delete", 0),
            ("save", 0),
            ("insert", 0),
            ("reload", 0),
            ("delete", 5),
            ("insert", 0),
            ("compact", 0),
            ("reload", 0),
        ):
            harness.apply(step)
            harness.check()
    finally:
        harness.close()


@pytest.mark.parametrize(
    ("executor", "examples"), [("serial", 25), ("thread", 15), ("process", 6)]
)
@pytest.mark.parametrize("store", STORES)
def test_any_interleaving_keeps_store_fresh(tmp_path_factory, store, executor, examples):
    @given(steps=st.lists(STEPS, min_size=1, max_size=6))
    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def run(steps):
        harness = _Harness(tmp_path_factory.mktemp("fresh"), store, executor)
        try:
            for step in steps:
                harness.apply(step)
                harness.check()
        finally:
            harness.close()

    run()


class TestMutationCount:
    def test_inserts_and_deletes_bump_compact_does_not(self):
        db = SequenceDatabase()
        assert db.mutation_count == 0
        ids = db.insert_many(POOL[:3])
        assert db.mutation_count == 3
        db.delete(ids[1])
        assert db.mutation_count == 4
        db.compact()
        assert db.mutation_count == 4

    def test_store_matches_until_the_next_write(self):
        db = SequenceDatabase()
        db.insert_many(POOL[:4])
        store = FeatureStore.from_database(db)
        assert store.matches(db)
        db.compact()
        assert store.matches(db)  # same ids, same values
        db.insert(POOL[4])
        assert not store.matches(db)
        rebuilt = FeatureStore.from_database(db)
        db.delete(0)
        assert not rebuilt.matches(db)

    def test_store_from_loose_sequences_never_matches(self):
        db = SequenceDatabase()
        db.insert_many(POOL[:2])
        assert not FeatureStore(list(db.contents())).matches(db)
