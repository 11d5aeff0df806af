"""Paged heap store for sequences — the ``heap`` oracle.

Logically, sequences are serialized with a fixed binary layout and
appended to a growing page file.  Records are *spanned*: a long
sequence occupies a contiguous byte range that may cross page
boundaries, and the page span of any record is derived from its byte
offsets — this is what converts logical reads into page-access counts
for the disk model.  Every other registered
:class:`~repro.storage.store.SequenceStore` replicates this byte
arithmetic, which is why the heap store doubles as the parity oracle.

Record layout (little-endian)::

    u64  sequence id
    u32  element count n
    f64  elements[n]

Physically, the elements live once in memory: one growable float64
column holding every record's values back-to-back in physical order.
The ``(offset, 12 + 8n)`` byte directory maps each id onto the logical
file and onto its slice of the column.  Removing a record tombstones
it: its bytes are kept aside for :meth:`HeapSequenceStore.save` and its
elements stay in the column until :meth:`HeapSequenceStore.compact`
rewrites the column densely.  While the column holds no removed
elements, :meth:`HeapSequenceStore.dense_arrays` serves it zero-copy.

The file written by :meth:`HeapSequenceStore.save` is the serialized
page file itself — magic, page size, directory, then every record
(tombstoned ones included) at its logical offset — so databases
survive process restarts.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Any, ClassVar, Iterator, Sequence as TypingSequence

import numpy as np

from ..exceptions import SequenceNotFoundError, StorageError, ValidationError
from ..types import Sequence, SequenceLike, as_array, as_values
from .store import SequenceStore, register_store

__all__ = ["HeapSequenceStore", "SequenceHeapFile"]

_HEADER = struct.Struct("<QI")  # sequence id, element count
_DIR_ENTRY = struct.Struct("<QQQ")  # sequence id, byte offset, byte length
_MAGIC = b"RPRS\x01"

#: Column growth factor: amortized O(1) appends without doubling the
#: resident footprint of a large load.
_GROWTH = 1.25
_MIN_CAPACITY = 1024


@register_store
class HeapSequenceStore(SequenceStore):
    """Append-only heap file of serialized sequences on fixed-size pages."""

    name: ClassVar[str] = "heap"
    magic: ClassVar[bytes] = _MAGIC

    def __init__(self, page_size: int = 1024) -> None:
        if page_size < _HEADER.size + 8:
            raise ValidationError(
                f"page_size {page_size} too small for a record header"
            )
        self._page_size = page_size
        # Every record's elements in physical order; [:_used] is live
        # or tombstoned data, the rest spare capacity.
        self._column = np.empty(0, dtype=np.float64)
        self._used = 0
        self._live = 0  # elements of live records
        self._end = 0  # logical bytes, tombstoned records included
        # id -> (byte offset, byte length, column start)
        self._records: dict[int, tuple[int, int, int]] = {}
        self._order: list[int] = []  # live ids in physical order
        # (byte offset, serialized record) of every tombstoned record
        self._dead: list[tuple[int, bytes]] = []

    # -- geometry -----------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._page_size

    @property
    def total_bytes(self) -> int:
        """Bytes currently stored (tombstoned records included)."""
        return self._end

    @property
    def total_pages(self) -> int:
        """Pages the file occupies (ceiling of bytes / page size)."""
        return -(-self._end // self._page_size) if self._end else 0

    def pages_of(self, seq_id: int) -> range:
        """The page numbers a stored record spans."""
        offset, length, _start = self._locate(seq_id)
        first = offset // self._page_size
        last = (offset + length - 1) // self._page_size
        return range(first, last + 1)

    def _locate(self, seq_id: int) -> tuple[int, int, int]:
        try:
            return self._records[seq_id]
        except KeyError:
            raise SequenceNotFoundError(f"sequence {seq_id} is not stored") from None

    # -- writes -----------------------------------------------------------------

    def append(self, seq_id: int, values: np.ndarray) -> range:
        """Serialize and append one sequence; returns its page span."""
        if seq_id in self._records:
            raise StorageError(f"sequence {seq_id} already stored")
        if seq_id < 0:
            raise ValidationError(f"seq_id must be non-negative, got {seq_id}")
        arr = as_array(values, allow_empty=False)
        start = self._used
        self._grow(arr.size)
        self._column[start : start + arr.size] = arr
        self._used += arr.size
        self._live += arr.size
        length = _HEADER.size + 8 * arr.size
        self._records[seq_id] = (self._end, length, start)
        self._order.append(seq_id)
        self._end += length
        return self.pages_of(seq_id)

    def extend(self, first_id: int, arrays: TypingSequence[SequenceLike]) -> None:
        """Append ``arrays[k]`` under id ``first_id + k`` in one pass.

        All or nothing, like :meth:`SequenceStore.extend`: the ids and
        shapes are checked first, then the batch is copied into the
        column's spare capacity with one ``concatenate`` and its
        elements checked finite there, all before the directory
        records any of it.
        """
        checked = [as_values(values) for values in arrays]
        self._check_new_ids(first_id, len(checked))
        if not checked:
            return
        start = self._used
        total = sum(arr.size for arr in checked)
        self._grow(total)
        batch = self._column[start : start + total]
        np.concatenate(checked, out=batch)
        if not np.isfinite(batch).all():
            raise ValidationError("sequence elements must be finite numbers")
        records = self._records
        end = self._end
        for seq_id, arr in enumerate(checked, start=first_id):
            length = _HEADER.size + 8 * arr.size
            records[seq_id] = (end, length, start)
            end += length
            start += arr.size
        self._order.extend(range(first_id, first_id + len(checked)))
        self._used += total
        self._live += total
        self._end = end

    def _grow(self, n_values: int) -> None:
        """Grow the column to hold *n_values* more elements."""
        needed = self._used + n_values
        if needed <= self._column.size:
            return
        capacity = max(needed, int(self._column.size * _GROWTH), _MIN_CAPACITY)
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._used] = self._column[: self._used]
        # Views handed out earlier keep the old column alive; stored
        # values are immutable, so they stay valid.
        self._column = grown

    def remove(self, seq_id: int) -> int:
        """Drop a record from the directory; returns the bytes tombstoned.

        The record's bytes stay in the file (append-only heap) until
        :meth:`compact` reclaims them — the standard tombstone scheme.
        """
        offset, length, _start = self._locate(seq_id)
        self._dead.append((offset, self._serialize(seq_id)))
        del self._records[seq_id]
        self._order.remove(seq_id)
        self._live -= (length - _HEADER.size) // 8
        return length

    def compact(self) -> int:
        """Rewrite the file dropping tombstoned space; returns bytes freed.

        Offsets of surviving records change; page spans are recomputed
        implicitly because they derive from the offsets.  The live
        elements move to a fresh dense column, so views of the old one
        handed out earlier stay valid.
        """
        if not self._dead:
            return 0
        column = np.empty(self._live, dtype=np.float64)
        end = 0
        used = 0
        for seq_id in self._order:
            _offset, length, start = self._records[seq_id]
            count = (length - _HEADER.size) // 8
            column[used : used + count] = self._column[start : start + count]
            self._records[seq_id] = (end, length, used)
            end += length
            used += count
        freed = self._end - end
        self._column = column
        self._used = used
        self._end = end
        self._dead = []
        return freed

    # -- reads ---------------------------------------------------------------------

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> list[int]:
        """Stored ids in physical (insertion) order."""
        return list(self._order)

    def read(self, seq_id: int) -> Sequence:
        """One sequence by id, copied out of the column."""
        _offset, length, start = self._locate(seq_id)
        count = (length - _HEADER.size) // 8
        return Sequence(self._column[start : start + count].copy(), seq_id=seq_id)

    def scan(self) -> Iterator[Sequence]:
        """Iterate all sequences in physical order (a sequential scan)."""
        for seq_id in self._order:
            yield self.read(seq_id)

    def dense_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(ids, lengths, offsets, values_flat)`` over the live column.

        *values_flat* is a read-only view of the column itself, served
        whenever the column holds no removed elements — always, except
        between a :meth:`remove` and the next :meth:`compact`.
        """
        if self._used != self._live:
            return None
        n = len(self._order)
        records = self._records
        ids = np.fromiter(self._order, dtype=np.int64, count=n)
        lengths = np.fromiter(
            ((records[seq_id][1] - _HEADER.size) // 8 for seq_id in self._order),
            dtype=np.int64,
            count=n,
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = self._column[: self._used]
        values.flags.writeable = False
        return ids, lengths, offsets, values

    # -- persistence ------------------------------------------------------------------

    def _serialize(self, seq_id: int) -> bytes:
        """The record's on-file bytes: header, then its elements."""
        _offset, length, start = self._records[seq_id]
        count = (length - _HEADER.size) // 8
        body = self._column[start : start + count].astype("<f8", copy=False)
        return _HEADER.pack(seq_id, count) + body.tobytes()

    def save(self, path: str | Path) -> None:
        """Write the heap file (with directory) to a real file."""
        path = Path(path)
        directory = [struct.pack("<I", len(self._order))]
        physical: list[tuple[int, int | bytes]] = list(self._dead)
        for seq_id in self._order:
            offset, length, _start = self._records[seq_id]
            directory.append(_DIR_ENTRY.pack(seq_id, offset, length))
            physical.append((offset, seq_id))
        physical.sort(key=lambda item: item[0])
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", self._page_size))
            f.write(b"".join(directory))
            for _offset, record in physical:
                f.write(
                    record if isinstance(record, bytes) else self._serialize(record)
                )

    @classmethod
    def load(cls, path: str | Path) -> "HeapSequenceStore":
        """Re-open a heap file written by :meth:`save`.

        Every directory entry is checked against the record header it
        points at.  Corrupt or truncated files raise
        :class:`~repro.exceptions.StorageError` with the path in the
        message; low-level ``struct.error``/``OSError`` never escape.
        """
        path = Path(path)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as error:
            raise StorageError(
                f"cannot read heap store {path}: {error}"
            ) from error
        if data[: len(_MAGIC)] != _MAGIC:
            raise StorageError(f"{path} is not a repro heap file")
        try:
            pos = len(_MAGIC)
            (page_size,) = struct.unpack_from("<I", data, pos)
            pos += 4
            (count,) = struct.unpack_from("<I", data, pos)
            pos += 4
            heap = cls(page_size=page_size)
            entries = []
            for _ in range(count):
                entries.append(_DIR_ENTRY.unpack_from(data, pos))
                pos += _DIR_ENTRY.size
        except struct.error as error:
            raise StorageError(
                f"heap store {path} is truncated or corrupt: {error}"
            ) from error
        body = memoryview(data)[pos:]
        size = len(body)
        cursor = 0  # end of the previous live record
        for seq_id, offset, length in entries:
            if offset + length > size:
                raise StorageError(
                    f"heap store {path} is truncated: record {seq_id} "
                    f"ends at byte {offset + length} of a "
                    f"{size}-byte data section"
                )
            if offset < cursor or seq_id in heap._records:
                raise StorageError(
                    f"heap store {path} is corrupt: record {seq_id} at byte "
                    f"{offset} overlaps or repeats an earlier record"
                )
            if length < _HEADER.size + 8:
                raise StorageError(
                    f"heap store {path} is corrupt: record {seq_id} has "
                    f"impossible length {length}"
                )
            found, n = _HEADER.unpack_from(body, offset)
            if found != seq_id:
                raise StorageError(
                    f"heap store {path}: corrupt record: expected id "
                    f"{seq_id}, found {found}"
                )
            if _HEADER.size + 8 * n != length:
                raise StorageError(
                    f"heap store {path}: corrupt record {seq_id}: length "
                    f"{length} does not match element count {n}"
                )
            if offset > cursor:
                heap._dead.append((cursor, bytes(body[cursor:offset])))
            heap._records[seq_id] = (offset, length, heap._used)
            heap._order.append(seq_id)
            heap._used += n
            cursor = offset + length
        if cursor < size:
            heap._dead.append((cursor, bytes(body[cursor:])))
        heap._column = np.empty(heap._used, dtype=np.float64)
        for seq_id in heap._order:
            offset, length, start = heap._records[seq_id]
            n = (length - _HEADER.size) // 8
            heap._column[start : start + n] = np.frombuffer(
                body, dtype="<f8", count=n, offset=offset + _HEADER.size
            )
        heap._live = heap._used
        heap._end = size
        return heap

    # -- pickling (process-executor replicas) --------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # A view pickles only its own elements: the replica receives
        # the used part of the column, not its spare capacity.
        state = dict(self.__dict__)
        state["_column"] = self._column[: self._used]
        return state


#: Historical name of the heap store (pre store-registry API).
SequenceHeapFile = HeapSequenceStore
