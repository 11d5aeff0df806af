"""Tests for the TimeWarpingDatabase facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TimeWarpingDatabase
from repro.distance.dtw import dtw_max
from repro.exceptions import ValidationError
from repro.index.backend import BACKEND_NAMES


@pytest.fixture()
def populated(small_walk_dataset):
    db = TimeWarpingDatabase(page_size=512)
    for seq in small_walk_dataset:
        db.insert(seq)
    return db


class TestPopulation:
    def test_insert_assigns_sequential_ids(self):
        db = TimeWarpingDatabase()
        assert db.insert([1, 2]) == 0
        assert db.insert([3, 4]) == 1
        assert len(db) == 2

    def test_empty_sequence_rejected(self):
        db = TimeWarpingDatabase()
        with pytest.raises(ValidationError):
            db.insert([])

    def test_contains_and_get(self):
        db = TimeWarpingDatabase()
        seq_id = db.insert([1, 2, 3])
        assert seq_id in db
        assert list(db.get(seq_id)) == [1.0, 2.0, 3.0]

    def test_labels(self):
        db = TimeWarpingDatabase()
        seq_id = db.insert([1, 2], label="IBM")
        assert db.label_of(seq_id) == "IBM"
        assert db.label_of(999) is None

    def test_bulk_load_returns_ids(self):
        db = TimeWarpingDatabase()
        ids = db.bulk_load([[1, 2], [3, 4], [5, 6]])
        assert ids == [0, 1, 2]
        assert len(db) == 3

    def test_bulk_load_preserves_existing(self):
        db = TimeWarpingDatabase()
        first = db.insert([9, 9])
        db.bulk_load([[1, 2], [3, 4]])
        assert len(db) == 3
        assert [m.seq_id for m in db.search([9, 9], epsilon=0.0)] == [first]

    def test_bulk_load_rejects_empty_sequence(self):
        db = TimeWarpingDatabase()
        with pytest.raises(ValidationError):
            db.bulk_load([[1.0], []])

    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
    def test_bulk_load_keeps_no_alias_of_caller_arrays(self, backend):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=12).cumsum() for _ in range(20)]
        loaded = TimeWarpingDatabase(backend=backend)
        loaded.bulk_load(arrays)
        untouched = TimeWarpingDatabase(backend=backend)
        untouched.bulk_load([a.copy() for a in arrays])
        query = arrays[3].copy()
        for a in arrays:
            a += 100.0
        for epsilon in (0.0, 1.0):
            assert [m.seq_id for m in loaded.search(query, epsilon)] == [
                m.seq_id for m in untouched.search(query, epsilon)
            ]


class TestSearch:
    def test_paper_intro_example(self):
        db = TimeWarpingDatabase()
        sid = db.insert([20, 21, 21, 20, 20, 23, 23, 23])
        db.insert([100, 120])
        matches = db.search([20, 20, 21, 20, 23], epsilon=0.5)
        assert [m.seq_id for m in matches] == [sid]
        assert matches[0].distance == 0.0

    def test_exactly_matches_linear_scan(self, populated, small_walk_dataset):
        rng = np.random.default_rng(6)
        for _ in range(10):
            base = small_walk_dataset[int(rng.integers(len(small_walk_dataset)))]
            query = np.asarray(base.values) + rng.uniform(-0.2, 0.2, len(base))
            eps = float(rng.uniform(0.05, 0.6))
            expected = sorted(
                i
                for i, seq in enumerate(small_walk_dataset)
                if dtw_max(seq.values, query) <= eps
            )
            got = sorted(m.seq_id for m in populated.search(query, eps))
            assert got == expected

    def test_results_sorted_by_distance(self, populated):
        query = populated.get(0)
        matches = populated.search(query, epsilon=1.0)
        distances = [m.distance for m in matches]
        assert distances == sorted(distances)

    def test_distances_are_exact(self, populated):
        query = np.asarray(populated.get(3).values) + 0.05
        for match in populated.search(query, epsilon=0.8):
            assert match.distance == pytest.approx(
                dtw_max(match.sequence.values, query)
            )

    def test_empty_query_rejected(self, populated):
        with pytest.raises(ValidationError):
            populated.search([], epsilon=1.0)

    def test_negative_epsilon_rejected(self, populated):
        with pytest.raises(ValidationError):
            populated.search([1.0], epsilon=-1.0)

    def test_zero_epsilon_finds_self(self, populated):
        target = populated.get(5)
        matches = populated.search(target, epsilon=0.0)
        assert 5 in [m.seq_id for m in matches]


class TestKnn:
    def test_matches_brute_force(self, populated, small_walk_dataset):
        rng = np.random.default_rng(8)
        for k in (1, 3, 7):
            base = small_walk_dataset[int(rng.integers(len(small_walk_dataset)))]
            query = np.asarray(base.values) + rng.uniform(-0.3, 0.3, len(base))
            truth = sorted(
                (dtw_max(seq.values, query), i)
                for i, seq in enumerate(small_walk_dataset)
            )[:k]
            got = populated.knn(query, k)
            assert len(got) == k
            assert [m.seq_id for m in got] == [i for _, i in truth]
            for (d, _), m in zip(truth, got):
                assert m.distance == pytest.approx(d)

    def test_k_larger_than_database(self, populated):
        got = populated.knn(populated.get(0), k=10_000)
        assert len(got) == len(populated)

    def test_invalid_k(self, populated):
        with pytest.raises(ValidationError):
            populated.knn([1.0], k=0)

    def test_empty_query_rejected(self, populated):
        with pytest.raises(ValidationError):
            populated.knn([], k=1)


class TestIndexAccess:
    def test_index_holds_all_entries(self, populated):
        assert len(populated.index) == len(populated)
        populated.index.validate()

    def test_storage_counts_io(self, populated):
        populated.storage.io.reset()
        populated.search(populated.get(0), epsilon=0.2)
        assert populated.storage.io.random_pages >= 0
