"""Store parity: every registered sequence store vs the heap oracle.

The storage plane's load-bearing invariant: whichever
:class:`~repro.storage.store.SequenceStore` serves the bytes — the
in-memory ``heap`` oracle or the memory-mapped ``mmap`` columnar store
— answers, distances, ordering, per-query cascade stats and every
merged ``storage.*`` / ``index.*`` counter are **bit-identical**, on
every executor and at every shard count.  The stores may differ only
in *real* IO behaviour, never in simulated cost or results.

The suite parametrizes over :func:`available_stores`, so a store that
registers through ``register_store`` is held to the ``heap`` oracle
here without any further bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cascade import FeatureStore
from repro.core.engine import TimeWarpingDatabase
from repro.exceptions import ReproError, ValidationError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage import (
    DEFAULT_STORE,
    ENV_STORE,
    SequenceDatabase,
    available_stores,
    make_store,
    resolve_store_name,
)

ALL_STORES = available_stores()
ALL_EXECUTORS = ("serial", "thread", "process")


def _workload(seed: int, n: int = 40) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=int(rng.integers(8, 30))).cumsum() for _ in range(n)
    ]


@pytest.fixture(scope="module")
def arrays() -> list[np.ndarray]:
    return _workload(17)


@pytest.fixture(scope="module")
def queries() -> list[np.ndarray]:
    return _workload(23, n=3)


def _observe(tmp_path, arrays, queries, *, store: str, executor: str):
    """Everything a store swap could perturb, as one comparable value.

    Builds and saves a database on *store*, reloads it under *executor*
    inside a fresh metrics registry, and returns the full structural
    observation: range answers, batch answers, kNN answers, per-stage
    cascade survival, and the complete merged counter dict.
    """
    path = tmp_path / f"{store}-{executor}" / "db.bin"
    path.parent.mkdir()
    built = TimeWarpingDatabase(store=store, shards=2, executor="serial")
    built.bulk_load(arrays)
    built.save(path)
    built.close()
    registry = MetricsRegistry()
    with use_registry(registry):
        facade = TimeWarpingDatabase.load(path, executor=executor)
        assert facade.store_name == store
        detailed = facade.search_detailed(queries[0], 2.0)
        batch = facade.search_many_detailed(queries, 1.5)
        neighbours = facade.knn(queries[1], 5)
        facade.close()
    return (
        [(m.seq_id, m.distance) for m in detailed.matches],
        detailed.candidate_ids,
        [(s.name, s.n_in, s.n_out) for s in detailed.stats.stages],
        [
            [(m.seq_id, m.distance) for m in matches]
            for matches in batch.results
        ],
        [(m.seq_id, m.distance) for m in neighbours],
        dict(registry.snapshot().counters),
    )


class TestStoreParity:
    """``heap`` is the oracle; every other store must be its bit-twin."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory, arrays, queries):
        tmp = tmp_path_factory.mktemp("store-parity")
        return _observe(tmp, arrays, queries, store="heap", executor="serial")

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    @pytest.mark.parametrize("store", ALL_STORES)
    def test_saved_and_reloaded_stores_are_bit_identical(
        self, tmp_path, arrays, queries, reference, store, executor
    ):
        observed = _observe(
            tmp_path, arrays, queries, store=store, executor=executor
        )
        assert observed == reference

    @pytest.mark.parametrize("shards", [1, 3])
    def test_parity_holds_across_shard_counts(
        self, tmp_path, arrays, queries, shards
    ):
        def build(store: str):
            path = tmp_path / store
            path.mkdir()
            db = TimeWarpingDatabase(store=store, shards=shards)
            db.bulk_load(arrays)
            db.save(path / "db.bin")
            db.close()
            loaded = TimeWarpingDatabase.load(path / "db.bin")
            try:
                return [
                    [
                        (m.seq_id, m.distance)
                        for m in loaded.search(query, 1.8)
                    ]
                    for query in queries
                ]
            finally:
                loaded.close()

        observed = {store: build(store) for store in ALL_STORES}
        for store, answers in observed.items():
            assert answers == observed["heap"], store

    def test_unsaved_in_memory_databases_agree(self, arrays, queries):
        """Parity must not depend on a save/load cycle: every store
        (the mmap one from its in-memory tail) answers like the heap
        before any file exists."""

        def observe(store: str):
            with TimeWarpingDatabase(store=store, shards=2) as facade:
                facade.bulk_load(arrays)
                result = facade.search_detailed(queries[0], 2.0)
                return (
                    [(m.seq_id, m.distance) for m in result.matches],
                    dict(result.metrics.counters),
                )

        observed = {store: observe(store) for store in ALL_STORES}
        for store, answers in observed.items():
            assert answers == observed["heap"], store


class TestFeatureParity:
    """The vectorized dense feature path equals the per-sequence path."""

    @pytest.mark.parametrize("store", ALL_STORES)
    def test_from_database_features_match_per_sequence_extraction(
        self, tmp_path, arrays, store
    ):
        db = SequenceDatabase(store=store)
        db.insert_many(arrays)
        db.save(tmp_path / "db.bin")
        loaded = SequenceDatabase.load(tmp_path / "db.bin")
        dense = FeatureStore.from_database(loaded)
        scalar = FeatureStore(list(loaded.contents()))
        np.testing.assert_array_equal(dense.features, scalar.features)
        assert len(dense) == len(scalar)
        for row in range(len(dense)):
            ours, theirs = dense.sequence(row), scalar.sequence(row)
            assert ours.seq_id == theirs.seq_id
            np.testing.assert_array_equal(ours.values, theirs.values)

    def test_dense_arrays_gated_until_clean(self, tmp_path, arrays):
        db = SequenceDatabase(store="mmap")
        db.insert_many(arrays[:5])
        assert db.dense_arrays() is None  # dirty: unsaved tail
        db.save(tmp_path / "db.bin")
        assert db.dense_arrays() is not None
        db.insert(arrays[5])
        assert db.dense_arrays() is None  # dirty again


def _state(store):
    """What a rejected extend must leave as it was."""
    dense = store.dense_arrays()
    return (
        len(store),
        store.total_bytes,
        store.ids(),
        None if dense is None else [a.tolist() for a in dense],
    )


_BAD_BATCHES = {
    "nan": (10, [np.ones(3), np.array([1.0, np.nan])]),
    "inf": (10, [np.ones(3), np.array([-np.inf, 1.0])]),
    "empty": (10, [np.ones(3), np.array([])]),
    "two_dimensional": (10, [np.ones(3), np.ones((2, 2))]),
    "stored_id": (1, [np.ones(3), np.ones(2)]),
    "negative_id": (-1, [np.ones(3), np.ones(2)]),
}


class TestExtendAllOrNothing:
    """A rejected batch leaves every store exactly as it was."""

    @pytest.mark.parametrize("bad", sorted(_BAD_BATCHES))
    @pytest.mark.parametrize("clean", [False, True], ids=["unsaved", "saved"])
    @pytest.mark.parametrize("name", ALL_STORES)
    def test_rejected_extend_changes_nothing(self, tmp_path, name, clean, bad):
        store = make_store(name, page_size=64)
        store.extend(0, [np.arange(1.0, 4.0), np.arange(5.0, 7.0)])
        store.remove(0)
        store.compact()
        if clean:
            store.save(tmp_path / "db.bin")
        before = _state(store)
        first_id, batch = _BAD_BATCHES[bad]
        with pytest.raises(ReproError):
            store.extend(first_id, batch)
        assert _state(store) == before
        store.extend(2, [np.array([8.0, 9.0])])
        assert store.ids() == [1, 2]
        assert store.read(2).values.tolist() == [8.0, 9.0]

    @pytest.mark.parametrize("name", ALL_STORES)
    def test_extend_matches_appends(self, name):
        batch = _workload(5, n=12)
        one_pass = make_store(name, page_size=64)
        one_pass.extend(3, batch)
        appended = make_store(name, page_size=64)
        for seq_id, values in enumerate(batch, start=3):
            appended.append(seq_id, values)
        assert _state(one_pass) == _state(appended)
        for seq_id in appended.ids():
            assert one_pass.pages_of(seq_id) == appended.pages_of(seq_id)
            assert one_pass.read(seq_id).values.tolist() == (
                appended.read(seq_id).values.tolist()
            )

    @pytest.mark.parametrize("shards", [1, 3])
    def test_rejected_bulk_load_leaves_every_shard_unchanged(self, shards):
        db = TimeWarpingDatabase(shards=shards)
        db.bulk_load([np.ones(3), np.ones(4)])
        with pytest.raises(ValidationError):
            db.bulk_load([np.ones(2), np.ones(2), np.array([1.0, np.nan])])
        assert db.ids() == [0, 1]
        assert db.bulk_load([np.ones(2)]) == [2]


class TestRegistryContract:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(ENV_STORE, raising=False)
        assert resolve_store_name(None) == DEFAULT_STORE == "heap"
        monkeypatch.setenv(ENV_STORE, "mmap")
        assert resolve_store_name(None) == "mmap"
        assert resolve_store_name("heap") == "heap"  # explicit beats env

    def test_unknown_store_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_store_name("tape")
        monkeypatch.setenv(ENV_STORE, "drum")
        with pytest.raises(ValidationError):
            resolve_store_name(None)

    def test_make_store_builds_each_registered_store(self):
        for name in available_stores():
            store = make_store(name, page_size=256)
            assert store.name == name
            assert store.page_size == 256
            assert len(store) == 0

    def test_env_var_selects_database_store(self, monkeypatch):
        monkeypatch.setenv(ENV_STORE, "mmap")
        assert SequenceDatabase().store_name == "mmap"
        monkeypatch.delenv(ENV_STORE)
        assert SequenceDatabase().store_name == DEFAULT_STORE
