"""Tests for the paged heap file."""

from __future__ import annotations

import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascade import FeatureStore
from repro.exceptions import (
    SequenceNotFoundError,
    StorageError,
    ValidationError,
)
from repro.storage import SequenceDatabase
from repro.storage.pages import SequenceHeapFile


class TestAppendAndRead:
    def test_round_trip(self):
        heap = SequenceHeapFile(page_size=64)
        heap.append(0, np.array([1.0, 2.0, 3.0]))
        seq = heap.read(0)
        assert list(seq) == [1.0, 2.0, 3.0]
        assert seq.seq_id == 0

    def test_missing_id_raises(self):
        heap = SequenceHeapFile()
        with pytest.raises(SequenceNotFoundError):
            heap.read(5)

    def test_duplicate_id_rejected(self):
        heap = SequenceHeapFile()
        heap.append(1, np.array([1.0]))
        with pytest.raises(StorageError):
            heap.append(1, np.array([2.0]))

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            SequenceHeapFile().append(-1, np.array([1.0]))

    def test_empty_values_rejected(self):
        with pytest.raises(Exception):
            SequenceHeapFile().append(0, np.array([]))

    def test_too_small_page_rejected(self):
        with pytest.raises(ValidationError):
            SequenceHeapFile(page_size=8)

    def test_contains_and_len(self):
        heap = SequenceHeapFile()
        heap.append(0, np.array([1.0]))
        heap.append(1, np.array([2.0]))
        assert 0 in heap and 1 in heap and 2 not in heap
        assert len(heap) == 2


class TestPageGeometry:
    def test_small_record_single_page(self):
        heap = SequenceHeapFile(page_size=1024)
        pages = heap.append(0, np.array([1.0, 2.0]))
        assert list(pages) == [0]

    def test_long_record_spans_pages(self):
        heap = SequenceHeapFile(page_size=64)
        pages = heap.append(0, np.zeros(100) + 1.0)
        # 12-byte header + 800 bytes = 812 bytes -> 13 pages of 64.
        assert len(list(pages)) == 13

    def test_total_pages_matches_bytes(self):
        heap = SequenceHeapFile(page_size=64)
        heap.append(0, np.ones(20))
        assert heap.total_pages == -(-heap.total_bytes // 64)

    def test_records_are_contiguous(self):
        heap = SequenceHeapFile(page_size=64)
        heap.append(0, np.ones(10))
        heap.append(1, np.ones(10))
        p0 = list(heap.pages_of(0))
        p1 = list(heap.pages_of(1))
        assert p1[0] >= p0[-1]  # second record starts at or after first's end


class TestScan:
    def test_physical_order(self):
        heap = SequenceHeapFile()
        for i in range(5):
            heap.append(i, np.array([float(i)]))
        assert [s.seq_id for s in heap.scan()] == [0, 1, 2, 3, 4]
        assert heap.ids() == [0, 1, 2, 3, 4]

    def test_scan_values_intact(self):
        heap = SequenceHeapFile()
        data = {i: np.random.default_rng(i).uniform(0, 10, i + 1) for i in range(8)}
        for i, values in data.items():
            heap.append(i, values)
        for seq in heap.scan():
            assert np.allclose(seq.values, data[seq.seq_id])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        heap = SequenceHeapFile(page_size=128)
        rng = np.random.default_rng(7)
        originals = {}
        for i in range(10):
            values = rng.uniform(-5, 5, int(rng.integers(1, 40)))
            originals[i] = values
            heap.append(i, values)
        path = tmp_path / "data.heap"
        heap.save(path)
        loaded = SequenceHeapFile.load(path)
        assert loaded.page_size == 128
        assert len(loaded) == 10
        for i, values in originals.items():
            assert np.allclose(loaded.read(i).values, values)
        assert loaded.ids() == heap.ids()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a heap file at all")
        with pytest.raises(StorageError):
            SequenceHeapFile.load(path)


def _record(seq_id: int, values: list[float]) -> bytes:
    return struct.pack("<QI", seq_id, len(values)) + struct.pack(
        f"<{len(values)}d", *values
    )


#: A page-64 heap holding records 0..2, record 1 tombstoned: magic, page
#: size, directory (count, then id/offset/length per live record), then
#: every record — the dead one included — at its logical offset.
_TOMBSTONED_FILE = (
    b"RPRS\x01"
    + struct.pack("<I", 64)
    + struct.pack("<I", 2)
    + struct.pack("<QQQ", 0, 0, 28)
    + struct.pack("<QQQ", 2, 48, 36)
    + _record(0, [1.0, 2.0])
    + _record(1, [3.0])
    + _record(2, [4.0, 5.0, 6.0])
)

#: The same heap after compaction.
_COMPACTED_FILE = (
    b"RPRS\x01"
    + struct.pack("<I", 64)
    + struct.pack("<I", 2)
    + struct.pack("<QQQ", 0, 0, 28)
    + struct.pack("<QQQ", 2, 28, 36)
    + _record(0, [1.0, 2.0])
    + _record(2, [4.0, 5.0, 6.0])
)


def _small_heap() -> SequenceHeapFile:
    heap = SequenceHeapFile(page_size=64)
    heap.append(0, np.array([1.0, 2.0]))
    heap.append(1, np.array([3.0]))
    heap.append(2, np.array([4.0, 5.0, 6.0]))
    heap.remove(1)
    return heap


class TestFileFormat:
    """The bytes :meth:`save` writes are pinned against hand-built files."""

    def test_save_writes_tombstoned_record(self, tmp_path):
        path = tmp_path / "data.heap"
        _small_heap().save(path)
        assert path.read_bytes() == _TOMBSTONED_FILE

    def test_save_after_compact(self, tmp_path):
        heap = _small_heap()
        assert heap.compact() == 20
        path = tmp_path / "data.heap"
        heap.save(path)
        assert path.read_bytes() == _COMPACTED_FILE

    def test_hand_built_file_loads_and_resaves_identically(self, tmp_path):
        path = tmp_path / "data.heap"
        path.write_bytes(_TOMBSTONED_FILE)
        heap = SequenceHeapFile.load(path)
        assert heap.ids() == [0, 2]
        assert heap.total_bytes == 84
        assert list(heap.pages_of(2)) == [0, 1]
        assert heap.read(2).values.tolist() == [4.0, 5.0, 6.0]
        again = tmp_path / "again.heap"
        heap.save(again)
        assert again.read_bytes() == _TOMBSTONED_FILE
        assert heap.compact() == 20
        heap.save(again)
        assert again.read_bytes() == _COMPACTED_FILE

    @pytest.mark.parametrize(
        ("field_offset", "packed", "message"),
        [
            (0, struct.pack("<Q", 7), "expected id 2, found 7"),
            (8, struct.pack("<I", 2), "does not match element count 2"),
        ],
    )
    def test_header_disagreeing_with_directory_fails_at_load(
        self, tmp_path, field_offset, packed, message
    ):
        data_start = len(_TOMBSTONED_FILE) - 84
        at = data_start + 48 + field_offset  # record 2's header
        data = bytearray(_TOMBSTONED_FILE)
        data[at : at + len(packed)] = packed
        path = tmp_path / "corrupt.heap"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=message):
            SequenceHeapFile.load(path)

    def test_truncated_data_section_fails_at_load(self, tmp_path):
        path = tmp_path / "short.heap"
        path.write_bytes(_TOMBSTONED_FILE[:-8])
        with pytest.raises(StorageError, match="truncated"):
            SequenceHeapFile.load(path)


class TestColumn:
    """One in-memory copy of the elements, served zero-copy."""

    def test_reads_are_copies(self):
        heap = SequenceHeapFile()
        heap.append(0, np.array([1.0, 2.0]))
        column = heap.dense_arrays()[3]
        assert not np.shares_memory(heap.read(0).values, column)
        assert not np.shares_memory(next(heap.scan()).values, column)

    def test_dense_until_a_remove_and_again_after_compact(self):
        heap = _small_heap()
        assert heap.dense_arrays() is None
        heap.compact()
        ids, lengths, offsets, values = heap.dense_arrays()
        assert ids.tolist() == [0, 2]
        assert lengths.tolist() == [2, 3]
        assert offsets.tolist() == [0, 2, 5]
        assert values.tolist() == [1.0, 2.0, 4.0, 5.0, 6.0]
        assert not values.flags.writeable

    def test_views_survive_growth_and_compaction(self):
        heap = SequenceHeapFile()
        heap.append(0, np.arange(1.0, 4.0))
        heap.append(1, np.arange(10.0, 12.0))
        view = heap.dense_arrays()[3]
        for seq_id in range(2, 400):
            heap.append(seq_id, np.full(8, float(seq_id)))
        heap.remove(1)
        heap.compact()
        assert view.tolist() == [1.0, 2.0, 3.0, 10.0, 11.0]

    def test_pickle_ships_only_the_used_column(self):
        heap = SequenceHeapFile()
        # The column's first growth makes room for 1024 elements (8 KB).
        heap.append(0, np.array([1.0, 2.0]))
        payload = pickle.dumps(heap)
        assert len(payload) < 2_000
        replica = pickle.loads(payload)
        assert replica.read(0).values.tolist() == [1.0, 2.0]
        replica.append(1, np.array([3.0]))
        assert replica.ids() == [0, 1]
        assert heap.ids() == [0]

    def test_feature_store_shares_the_column_without_a_copy(self):
        db = SequenceDatabase(store="heap")
        rng = np.random.default_rng(3)
        db.insert_many(rng.normal(size=(100, 1000)).cumsum(axis=1))
        element_bytes = 100 * 1000 * 8
        tracemalloc.start()
        try:
            store = FeatureStore.from_database(db)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(store.values_flat, db.dense_arrays()[3])
        assert peak < 0.1 * element_bytes


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=30, deadline=None)
def test_property_round_trip_any_values(sequences):
    heap = SequenceHeapFile(page_size=64)
    for i, values in enumerate(sequences):
        heap.append(i, np.array(values))
    for i, values in enumerate(sequences):
        assert heap.read(i).values.tolist() == [float(v) for v in values]
