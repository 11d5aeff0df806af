"""The ``mmap`` store: a memory-mapped columnar sequence layout.

Physically, the store is four files:

``<path>``
    The directory: magic ``RPCS\\x01``, page size, save epoch, the
    logical end-of-file, and one ``(id, logical offset, logical
    length)`` triple per record — the *same* triple the heap store
    persists, because page geometry derives from it.
``<path>.dat``
    One contiguous little-endian float64 array — every live record's
    elements back-to-back in insertion order, no headers, no holes.
    Re-opened with ``numpy.memmap`` so reads are zero-copy views the
    OS pages in on demand (and N processes mapping the file share one
    physical copy).
``<path>.store.meta``
    A versioned JSON sidecar (``format``/``version``/``epoch``/value
    count); a sidecar whose epoch does not match the directory is
    *stale* and refused.
``<path>.log``
    The append log: every insert/delete/compact after a save is
    recorded here and replayed on load, so mutations survive restart
    without rewriting the data file.  :meth:`save` compacts — the new
    ``.dat`` holds live values only — and truncates the log under a
    fresh epoch.

Logically, the store keeps the heap's byte arithmetic: each record
occupies ``12 + 8n`` bytes at the offset the heap would have placed it,
tombstones persist until :meth:`compact`, and page spans/total pages
derive from those logical offsets.  The simulated ``storage.*``
charges are therefore bit-identical to the heap store's, while the
*physical* reads the ``a7_storage`` bench measures go through the map.

Values appended since the last save live in an in-memory tail buffer
(the log makes them durable); :meth:`dense_arrays` exposes the whole
element buffer zero-copy only in the *clean* state — freshly saved or
loaded with an empty log — which is exactly when the mapped file and
the live contents coincide.

Corrupt, truncated or version-mismatched files raise
:class:`~repro.exceptions.StorageError` naming the offending path;
``struct.error``/``OSError`` never escape.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any, BinaryIO, ClassVar, Iterator

import numpy as np

from ..exceptions import SequenceNotFoundError, StorageError, ValidationError
from ..types import Sequence, as_array
from .store import SequenceStore, register_store

__all__ = ["MmapColumnarStore"]

_MAGIC = b"RPCS\x01"
_LOG_MAGIC = b"RPCL\x01"
_META_FORMAT = "rpcs"
_META_VERSION = 1

#: Directory header after the magic: page_size, epoch, logical end, count.
_DIR_HEADER = struct.Struct("<IQQI")
_DIR_ENTRY = struct.Struct("<QQQ")
#: Log record headers: append carries (id, count) then the elements;
#: delete carries the id; compact is the opcode alone.
_LOG_APPEND = struct.Struct("<QI")
_LOG_DELETE = struct.Struct("<Q")

#: Logical bytes of a record header (u64 id + u32 count), heap layout.
_RECORD_HEADER_BYTES = 12

_MIN_TAIL_CAPACITY = 1024


def _corrupt(path: Path, what: str) -> StorageError:
    return StorageError(f"columnar store {path}: {what}")


@register_store
class MmapColumnarStore(SequenceStore):
    """Columnar sequence store over a memory-mapped value file."""

    name: ClassVar[str] = "mmap"
    magic: ClassVar[bytes] = _MAGIC

    def __init__(self, page_size: int = 1024) -> None:
        if page_size < _RECORD_HEADER_BYTES + 8:
            raise ValidationError(
                f"page_size {page_size} too small for a record header"
            )
        self._page_size = page_size
        # Logical heap-layout directory: id -> (offset, length in bytes).
        self._offsets: dict[int, tuple[int, int]] = {}
        self._order: list[int] = []
        self._logical_end = 0
        # Physical placement: a record's elements live either in the
        # mapped file (id -> (start, count) into _mapped) or in the
        # in-memory tail (id -> (start, count) into _tail).
        self._mapped: np.ndarray = np.empty(0, dtype=np.float64)
        self._map_spans: dict[int, tuple[int, int]] = {}
        self._tail: np.ndarray = np.empty(0, dtype=np.float64)
        self._tail_len = 0
        self._tail_spans: dict[int, tuple[int, int]] = {}
        self._paths: tuple[Path, Path, Path, Path] | None = None
        self._epoch = 0
        self._dirty = False
        self._log_file: BinaryIO | None = None

    # -- file layout ---------------------------------------------------------

    @staticmethod
    def _sidecars(path: Path) -> tuple[Path, Path, Path, Path]:
        """``(directory, data, meta, log)`` paths for a store at *path*.

        The sidecar is ``.store.meta`` (not bare ``.meta``) so it never
        collides with the ``<path>.meta`` file
        :meth:`~repro.core.engine.TimeWarpingDatabase.save` writes next
        to a single-shard data file.
        """
        return (
            path,
            path.with_name(path.name + ".dat"),
            path.with_name(path.name + ".store.meta"),
            path.with_name(path.name + ".log"),
        )

    # -- geometry -----------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._page_size

    @property
    def total_bytes(self) -> int:
        """Logical bytes stored (heap arithmetic, tombstones included)."""
        return self._logical_end

    @property
    def total_pages(self) -> int:
        """Pages the logical file occupies (ceiling of bytes / page size)."""
        end = self._logical_end
        return -(-end // self._page_size) if end else 0

    def pages_of(self, seq_id: int) -> range:
        """The page numbers a stored record logically spans."""
        offset, length = self._locate(seq_id)
        first = offset // self._page_size
        last = (offset + length - 1) // self._page_size
        return range(first, last + 1)

    def _locate(self, seq_id: int) -> tuple[int, int]:
        try:
            return self._offsets[seq_id]
        except KeyError:
            raise SequenceNotFoundError(f"sequence {seq_id} is not stored") from None

    @property
    def epoch(self) -> int:
        """The save generation (incremented by every :meth:`save`)."""
        return self._epoch

    # -- writes -----------------------------------------------------------------

    def append(self, seq_id: int, values: np.ndarray) -> range:
        """Append one sequence; returns its (logical) page span."""
        if seq_id in self._offsets:
            raise StorageError(f"sequence {seq_id} already stored")
        if seq_id < 0:
            raise ValidationError(f"seq_id must be non-negative, got {seq_id}")
        arr = np.ascontiguousarray(
            as_array(values, allow_empty=False), dtype=np.float64
        )
        self._append_values(seq_id, arr)
        if self._log_file is not None:
            self._log_file.write(
                b"A" + _LOG_APPEND.pack(seq_id, arr.size) + arr.tobytes()
            )
            self._log_file.flush()
        return self.pages_of(seq_id)

    def _append_values(self, seq_id: int, arr: np.ndarray) -> None:
        """The in-memory half of :meth:`append` (shared with log replay)."""
        length = _RECORD_HEADER_BYTES + 8 * arr.size
        self._offsets[seq_id] = (self._logical_end, length)
        self._order.append(seq_id)
        self._logical_end += length
        start = self._tail_len
        self._reserve_tail(arr.size)
        self._tail[start : start + arr.size] = arr
        self._tail_len = start + arr.size
        self._tail_spans[seq_id] = (start, arr.size)
        self._dirty = True

    def _reserve_tail(self, n: int) -> None:
        needed = self._tail_len + n
        if needed <= self._tail.size:
            return
        capacity = max(self._tail.size * 2, needed, _MIN_TAIL_CAPACITY)
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._tail_len] = self._tail[: self._tail_len]
        # Views handed out earlier keep the old buffer alive; stored
        # values are immutable, so they stay valid.
        self._tail = grown

    def remove(self, seq_id: int) -> int:
        """Drop a record from the directory; returns the bytes tombstoned."""
        length = self._remove_entry(seq_id)
        if self._log_file is not None:
            self._log_file.write(b"D" + _LOG_DELETE.pack(seq_id))
            self._log_file.flush()
        return length

    def _remove_entry(self, seq_id: int) -> int:
        _offset, length = self._locate(seq_id)
        del self._offsets[seq_id]
        self._order.remove(seq_id)
        self._map_spans.pop(seq_id, None)
        self._tail_spans.pop(seq_id, None)
        self._dirty = True
        return length

    def compact(self) -> int:
        """Reclaim tombstoned *logical* space; returns bytes freed.

        Only the logical offsets move (page spans derive from them);
        physical values stay where they are — the data file itself is
        rewritten densely by the next :meth:`save`.
        """
        freed = self._compact_entries()
        if self._log_file is not None:
            self._log_file.write(b"C")
            self._log_file.flush()
        return freed

    def _compact_entries(self) -> int:
        end = 0
        for seq_id in self._order:
            _offset, length = self._offsets[seq_id]
            self._offsets[seq_id] = (end, length)
            end += length
        freed = self._logical_end - end
        self._logical_end = end
        return freed

    # -- reads ---------------------------------------------------------------------

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def ids(self) -> list[int]:
        """Stored ids in physical (insertion) order."""
        return list(self._order)

    def read(self, seq_id: int) -> Sequence:
        """One sequence by id — a zero-copy view over the map or tail."""
        self._locate(seq_id)  # SequenceNotFoundError on unknown ids
        return Sequence(self._values_of(seq_id), seq_id=seq_id)

    def _values_of(self, seq_id: int) -> np.ndarray:
        span = self._map_spans.get(seq_id)
        source = self._mapped
        if span is None:
            span = self._tail_spans[seq_id]
            source = self._tail
        start, count = span
        view = source[start : start + count]
        view.flags.writeable = False
        return view

    def scan(self) -> Iterator[Sequence]:
        """Iterate all sequences in physical order (a sequential scan)."""
        for seq_id in self._order:
            yield Sequence(self._values_of(seq_id), seq_id=seq_id)

    def dense_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(ids, lengths, offsets, values_flat)`` in the clean state.

        Available exactly when the mapped file and the live contents
        coincide — freshly saved or loaded with an empty log.  Any
        mutation invalidates it until the next :meth:`save`.
        """
        if self._dirty or self._paths is None:
            return None
        n = len(self._order)
        ids = np.asarray(self._order, dtype=np.int64)
        lengths = np.empty(n, dtype=np.int64)
        for row, seq_id in enumerate(self._order):
            lengths[row] = self._map_spans[seq_id][1]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return ids, lengths, offsets, self._mapped

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the store: directory, dense data file, sidecar, fresh log.

        Physically compacting — the new ``.dat`` holds live values
        only, in insertion order — while the directory keeps the
        current *logical* offsets (tombstoned space persists until
        :meth:`compact`, exactly like the heap store).
        """
        main, dat, meta, log = self._sidecars(Path(path))
        epoch = self._epoch + 1
        entry_blob = bytearray()
        spans: dict[int, tuple[int, int]] = {}
        n_values = 0
        for seq_id in self._order:
            offset, length = self._offsets[seq_id]
            entry_blob += _DIR_ENTRY.pack(seq_id, offset, length)
            count = (length - _RECORD_HEADER_BYTES) // 8
            spans[seq_id] = (n_values, count)
            n_values += count
        # Write the new data file aside and rename it into place: when
        # re-saving over the store's own path, truncating ``dat`` in
        # place would rip the pages out from under ``self._mapped``
        # mid-rewrite (SIGBUS on the very reads producing the bytes).
        dat_tmp = dat.with_name(dat.name + ".tmp")
        with open(dat_tmp, "wb") as f:
            for seq_id in self._order:
                f.write(self._values_of(seq_id).tobytes())
        os.replace(dat_tmp, dat)
        with open(main, "wb") as f:
            f.write(_MAGIC)
            f.write(
                _DIR_HEADER.pack(
                    self._page_size, epoch, self._logical_end, len(self._order)
                )
            )
            f.write(bytes(entry_blob))
        meta.write_text(
            json.dumps(
                {
                    "format": _META_FORMAT,
                    "version": _META_VERSION,
                    "epoch": epoch,
                    "page_size": self._page_size,
                    "values": n_values,
                    "sequences": len(self._order),
                }
            )
        )
        if self._log_file is not None:
            self._log_file.close()
        with open(log, "wb") as f:
            f.write(_LOG_MAGIC + struct.pack("<Q", epoch))
        # Re-base on the freshly written files: all values now come
        # from the map, the tail empties, and mutations append to the
        # new log.
        self._mapped = self._open_map(dat, n_values)
        self._map_spans = spans
        self._tail = np.empty(0, dtype=np.float64)
        self._tail_len = 0
        self._tail_spans = {}
        self._paths = (main, dat, meta, log)
        self._epoch = epoch
        self._dirty = False
        self._log_file = open(log, "ab")

    @staticmethod
    def _open_map(dat: Path, n_values: int) -> np.ndarray:
        if n_values == 0:
            return np.empty(0, dtype=np.float64)
        try:
            size = dat.stat().st_size
        except OSError as error:
            raise _corrupt(dat.parent / dat.name, f"cannot stat data file: {error}")
        if size != n_values * 8:
            raise _corrupt(
                dat,
                f"data file is truncated: {size} bytes on disk, "
                f"{n_values * 8} expected",
            )
        try:
            return np.memmap(dat, dtype="<f8", mode="r", shape=(n_values,))
        except (OSError, ValueError) as error:
            raise _corrupt(dat, f"cannot map data file: {error}") from error

    @classmethod
    def load(cls, path: str | Path) -> "MmapColumnarStore":
        """Re-open a store persisted with :meth:`save`, replaying the log."""
        main, dat, meta, log = cls._sidecars(Path(path))
        try:
            data = main.read_bytes()
        except OSError as error:
            raise StorageError(
                f"cannot read columnar store {main}: {error}"
            ) from error
        if data[: len(_MAGIC)] != _MAGIC:
            raise _corrupt(main, "not a columnar store directory (bad magic)")
        try:
            page_size, epoch, logical_end, count = _DIR_HEADER.unpack_from(
                data, len(_MAGIC)
            )
            pos = len(_MAGIC) + _DIR_HEADER.size
            entries = []
            for _ in range(count):
                entries.append(_DIR_ENTRY.unpack_from(data, pos))
                pos += _DIR_ENTRY.size
        except struct.error as error:
            raise _corrupt(
                main, f"directory is truncated or corrupt: {error}"
            ) from error
        cls._check_sidecar(meta, epoch, page_size)
        store = cls(page_size=page_size)
        store._epoch = epoch
        store._logical_end = logical_end
        n_values = 0
        for seq_id, offset, length in entries:
            if (
                length < _RECORD_HEADER_BYTES + 8
                or (length - _RECORD_HEADER_BYTES) % 8
            ):
                raise _corrupt(
                    main, f"record {seq_id} has impossible length {length}"
                )
            values = (length - _RECORD_HEADER_BYTES) // 8
            store._offsets[seq_id] = (offset, length)
            store._order.append(seq_id)
            store._map_spans[seq_id] = (n_values, values)
            n_values += values
        store._mapped = cls._open_map(dat, n_values)
        store._paths = (main, dat, meta, log)
        store._replay_log(log, epoch)
        store._log_file = open(log, "ab")
        return store

    @staticmethod
    def _check_sidecar(meta: Path, epoch: int, page_size: int) -> None:
        if not meta.exists():
            raise _corrupt(meta.parent / meta.name, "missing .meta sidecar")
        try:
            doc = json.loads(meta.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise _corrupt(meta, f"unreadable sidecar: {error}") from error
        if doc.get("format") != _META_FORMAT:
            raise _corrupt(
                meta, f"sidecar format {doc.get('format')!r} is not {_META_FORMAT!r}"
            )
        if doc.get("version") != _META_VERSION:
            raise _corrupt(
                meta,
                f"sidecar version {doc.get('version')!r} is unsupported "
                f"(this build reads version {_META_VERSION})",
            )
        if doc.get("epoch") != epoch:
            raise _corrupt(
                meta,
                f"stale sidecar: epoch {doc.get('epoch')!r} does not match "
                f"directory epoch {epoch} (crashed mid-save?)",
            )
        if doc.get("page_size") != page_size:
            raise _corrupt(
                meta,
                f"stale sidecar: page_size {doc.get('page_size')!r} does not "
                f"match directory page_size {page_size}",
            )

    def _replay_log(self, log: Path, epoch: int) -> None:
        """Apply the append log's records (no re-logging: they are on disk)."""
        if not log.exists():
            raise _corrupt(
                log,
                "missing append log (mutations since the last save are "
                "unrecoverable; re-save the database to recreate it)",
            )
        try:
            data = log.read_bytes()
        except OSError as error:
            raise _corrupt(log, f"unreadable append log: {error}") from error
        if data[: len(_LOG_MAGIC)] != _LOG_MAGIC:
            raise _corrupt(log, "not an append log (bad magic)")
        try:
            (log_epoch,) = struct.unpack_from("<Q", data, len(_LOG_MAGIC))
        except struct.error as error:
            raise _corrupt(log, f"truncated log header: {error}") from error
        if log_epoch != epoch:
            raise _corrupt(
                log,
                f"stale append log: epoch {log_epoch} does not match "
                f"directory epoch {epoch}",
            )
        pos = len(_LOG_MAGIC) + 8
        try:
            while pos < len(data):
                op = data[pos : pos + 1]
                pos += 1
                if op == b"A":
                    seq_id, count = _LOG_APPEND.unpack_from(data, pos)
                    pos += _LOG_APPEND.size
                    end = pos + 8 * count
                    if end > len(data):
                        raise _corrupt(
                            log, f"truncated append record for sequence {seq_id}"
                        )
                    arr = np.frombuffer(data[pos:end], dtype="<f8").astype(
                        np.float64
                    )
                    pos = end
                    self._append_values(seq_id, arr)
                elif op == b"D":
                    (seq_id,) = _LOG_DELETE.unpack_from(data, pos)
                    pos += _LOG_DELETE.size
                    self._remove_entry(seq_id)
                elif op == b"C":
                    self._compact_entries()
                else:
                    raise _corrupt(log, f"unknown log opcode {op!r}")
        except struct.error as error:
            raise _corrupt(log, f"truncated log record: {error}") from error

    # -- pickling (process-executor replicas) --------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the map or the log handle.

        A replica re-opens the data file read-only on arrival — spawn
        cost does not scale with the mapped values — and never holds
        the log open: mirrored mutations mutate the replica's memory
        only, leaving the parent the sole writer of the on-disk log.
        """
        state = self.__dict__.copy()
        state["_log_file"] = None
        state["_mapped"] = None
        # The full save-time map length, not the live-record total:
        # deleted records' values stay in the file (and spans of the
        # survivors keep their original positions) until the next save.
        state["_n_mapped"] = int(self._mapped.size)
        state["_tail"] = np.array(self._tail[: self._tail_len])
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        n_mapped = state.pop("_n_mapped")
        self.__dict__.update(state)
        if self._paths is not None:
            self._mapped = self._open_map(self._paths[1], n_mapped)
        else:
            self._mapped = np.empty(0, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"MmapColumnarStore({len(self)} sequences, "
            f"{self.total_pages} logical pages, epoch {self._epoch})"
        )
