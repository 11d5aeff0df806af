"""Worker replicas share memory with the feature store built over them.

A ``process`` worker unpickles a replica of its shard's
:class:`SequenceDatabase` and builds its feature store with
:meth:`FeatureStore.from_database`, like any in-process engine.  These
tests pin what keeps that build zero-copy: on a ``heap`` replica the
store's element buffer is a read-only view of the replica's own
column; on a clean ``mmap`` replica it is the read-only
``numpy.memmap`` the replica re-opens over the shard's data file.
They also pin that the stores answer like the per-sequence oracle, that
a replica whose data file is gone fails with a :class:`StorageError`,
and that saved two-shard databases answer correctly on the process
executor after a load.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.cascade import FeatureStore, FilterCascade
from repro.core.engine import TimeWarpingDatabase
from repro.distance.dtw import dtw_max
from repro.exceptions import StorageError
from repro.storage import SequenceDatabase


def _arrays(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=int(rng.integers(5, 24))).cumsum() for _ in range(n)]


def _replica(db: SequenceDatabase) -> SequenceDatabase:
    """The database as a spawned worker receives it."""
    return pickle.loads(pickle.dumps(db))


def _heap_db(n: int = 12, seed: int = 3) -> SequenceDatabase:
    db = SequenceDatabase(store="heap")
    db.insert_many(_arrays(n, seed))
    return db


def _saved_db(tmp_path, n: int = 16, seed: int = 9) -> SequenceDatabase:
    db = SequenceDatabase(store="mmap")
    db.insert_many(_arrays(n, seed))
    db.save(tmp_path / "db.bin")
    return db


def _assert_answers_like_oracle(store: FeatureStore, db: SequenceDatabase) -> None:
    oracle = FeatureStore(list(db.contents()))
    query = np.random.default_rng(11).normal(size=14).cumsum()
    for epsilon in (0.0, 0.8, 2.5):
        ours = FilterCascade(oracle).run(query, epsilon)
        theirs = FilterCascade(store).run(query, epsilon)
        assert theirs.answer_ids == ours.answer_ids
        assert theirs.candidate_ids == ours.candidate_ids
        assert [(s.name, s.n_in, s.n_out) for s in theirs.stats.stages] == [
            (s.name, s.n_in, s.n_out) for s in ours.stats.stages
        ]


class TestPackedRoundTrip:
    """A replica's store holds the same five flat arrays as the oracle."""

    def test_packed_fields_are_flat_arrays(self):
        db = _heap_db()
        store = FeatureStore.from_database(_replica(db))
        oracle = FeatureStore(list(db.contents()))
        assert store.features.shape == (12, 4)
        assert store.offsets[0] == 0
        assert store.offsets[-1] == store.values_flat.size
        for name in ("ids", "features", "lengths", "offsets", "values_flat"):
            np.testing.assert_array_equal(
                getattr(store, name), getattr(oracle, name)
            )

    def test_sequences_view_flat_buffer(self):
        store = FeatureStore.from_database(_replica(_heap_db()))
        for row in range(len(store)):
            assert np.shares_memory(store.sequence(row).values, store.values_flat)


class TestSharedSegment:
    """Heap replicas: the store shares the replica's element column."""

    def test_attached_store_answers_identically(self):
        replica = _replica(_heap_db(n=20))
        _assert_answers_like_oracle(FeatureStore.from_database(replica), replica)

    def test_attached_values_are_read_only(self):
        replica = _replica(_heap_db())
        store = FeatureStore.from_database(replica)
        assert np.shares_memory(store.values_flat, replica.dense_arrays()[3])
        assert not store.values_flat.flags.writeable
        with pytest.raises(ValueError):
            store.sequence(0).values[0] = 99.0


class TestMmapTransport:
    """Clean mmap replicas map the shard's data file; no values travel."""

    def test_attached_store_answers_identically(self, tmp_path):
        replica = _replica(_saved_db(tmp_path, n=20))
        _assert_answers_like_oracle(FeatureStore.from_database(replica), replica)

    def test_attached_values_view_the_mapped_file(self, tmp_path):
        store = FeatureStore.from_database(_replica(_saved_db(tmp_path)))
        values = store.sequence(0).values
        base: np.ndarray = values
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)
        with pytest.raises(ValueError):
            values[0] = 99.0

    def test_attach_missing_file_raises_storage_error(self, tmp_path):
        payload = pickle.dumps(_saved_db(tmp_path))
        (tmp_path / "db.bin.dat").unlink()
        with pytest.raises(StorageError, match="db.bin.dat"):
            pickle.loads(payload)

    def test_empty_store_attaches(self, tmp_path):
        db = SequenceDatabase(store="mmap")
        db.save(tmp_path / "db.bin")
        store = FeatureStore.from_database(_replica(db))
        assert len(store) == 0
        assert FilterCascade(store).run(np.arange(4.0), 1.0).answer_ids == []


class TestProcessExecutorZeroCopy:
    """Saved shards answer on the process executor after a load."""

    @pytest.mark.parametrize("store", ["heap", "mmap"])
    def test_saved_database_answers_under_process(self, tmp_path, store):
        arrays = _arrays(18, 21)
        path = tmp_path / "db.bin"
        with TimeWarpingDatabase(store=store, shards=2) as built:
            built.bulk_load(arrays)
            built.save(path)
        with TimeWarpingDatabase.load(path, executor="process") as facade:
            assert facade.store_name == store
            for gid in (0, 7):
                found = {
                    m.seq_id: m.distance for m in facade.search(arrays[gid], 1.0)
                }
                expected = {
                    other: dtw_max(arrays[gid], values)
                    for other, values in enumerate(arrays)
                    if dtw_max(arrays[gid], values) <= 1.0
                }
                assert found == expected
                assert found[gid] == 0.0
