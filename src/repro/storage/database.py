""":class:`SequenceDatabase` — the storage façade all methods read through.

Wraps a registered :class:`~repro.storage.store.SequenceStore` (the
``heap`` oracle or the memory-mapped ``mmap`` columnar layout), the
buffer pool and the disk model, and accumulates the I/O statistics the
experiments report: sequential pages (scans), random pages (candidate
fetches by id), buffer hits, and the simulated disk time both kinds of
access translate into.  Because every store honours the heap's logical
byte arithmetic, the charging surface here is store-agnostic — counters
are bit-identical whichever store holds the bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import active_registry
from ..types import Sequence, SequenceLike, as_sequence
from .buffer import BufferPool
from .diskmodel import DiskModel
from .store import STORES, make_store, resolve_store_name, sniff_store_name

__all__ = ["SequenceDatabase", "IOStats"]


@dataclass
class IOStats:
    """Cumulative I/O counters of a :class:`SequenceDatabase`."""

    sequential_pages: int = 0
    random_pages: int = 0
    buffer_hits: int = 0
    simulated_seconds: float = 0.0
    _marks: dict[str, tuple[int, int, int, float]] = field(
        default_factory=dict, repr=False
    )

    def reset(self) -> None:
        """Zero all counters (marks are kept)."""
        self.sequential_pages = 0
        self.random_pages = 0
        self.buffer_hits = 0
        self.simulated_seconds = 0.0

    def snapshot(self) -> tuple[int, int, int, float]:
        """``(sequential_pages, random_pages, buffer_hits, simulated_seconds)``."""
        return (
            self.sequential_pages,
            self.random_pages,
            self.buffer_hits,
            self.simulated_seconds,
        )

    def mark(self, name: str) -> None:
        """Remember the current counters under *name*."""
        self._marks[name] = self.snapshot()

    def delta_seconds(self, name: str) -> float:
        """Simulated seconds accumulated since :meth:`mark`."""
        base = self._marks.get(name, (0, 0, 0, 0.0))
        return self.simulated_seconds - base[3]


class SequenceDatabase:
    """A database of variable-length sequences on simulated paged storage.

    Parameters
    ----------
    page_size:
        Bytes per page for both the data file and derived index sizing
        (paper: 1 KB).
    disk:
        The disk timing model (defaults to the paper's parameters).
    buffer_pages:
        LRU buffer pool capacity; 0 (default) models the paper's
        cold-cache single-user runs.
    store:
        Registered sequence-store name (``heap``/``mmap``); ``None``
        resolves via the ``REPRO_STORE`` environment variable, then the
        ``heap`` default.
    """

    def __init__(
        self,
        *,
        page_size: int = 1024,
        disk: DiskModel | None = None,
        buffer_pages: int = 0,
        store: str | None = None,
    ) -> None:
        self._store = make_store(store, page_size=page_size)
        self._disk = disk if disk is not None else DiskModel()
        self._buffer = BufferPool(buffer_pages)
        self._next_id = 0
        self._mutations = 0
        # Concurrent shard queries charge I/O through one database; the
        # multi-field IOStats updates must land atomically per charge.
        self._io_lock = threading.Lock()
        self.io = IOStats()

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # Process executors pickle the database into spawned workers; the
        # lock is per-process state and cannot cross, so each side gets
        # its own.
        state = dict(self.__dict__)
        del state["_io_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._io_lock = threading.Lock()

    # -- metadata -----------------------------------------------------------

    @property
    def store_name(self) -> str:
        """Registry name of the sequence store holding the bytes."""
        return self._store.name

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._store.page_size

    @property
    def disk(self) -> DiskModel:
        """The disk timing model."""
        return self._disk

    @property
    def buffer(self) -> BufferPool:
        """The LRU buffer pool."""
        return self._buffer

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._store

    @property
    def total_pages(self) -> int:
        """Pages the data file occupies."""
        return self._store.total_pages

    @property
    def total_bytes(self) -> int:
        """Bytes of sequence data stored."""
        return self._store.total_bytes

    def ids(self) -> list[int]:
        """All stored sequence ids in insertion order."""
        return self._store.ids()

    @property
    def mutation_count(self) -> int:
        """How many inserts and deletes this database has applied.

        Every change of the id set bumps it; :meth:`compact` does not,
        since it moves bytes but keeps every id and value.  Ids are
        never reused and stored sequences are immutable, so a derived
        structure that recorded this count still mirrors the contents
        while the two are equal.  Pickled replicas carry the count, and
        replicas kept in lockstep (mirrored writes) keep agreeing.
        """
        return self._mutations

    @property
    def next_id(self) -> int:
        """The id the next insert will be assigned (monotone, never reused)."""
        return self._next_id

    # -- writes -----------------------------------------------------------------

    def insert(self, sequence: SequenceLike) -> int:
        """Store a sequence; returns its assigned id (``ID(S)``)."""
        seq = as_sequence(sequence)
        if len(seq) == 0:
            raise ValidationError("cannot store an empty sequence")
        seq_id = self._next_id
        self._next_id += 1
        self._store.append(seq_id, seq.values)
        self._mutations += 1
        return seq_id

    def insert_many(self, sequences: Iterable[SequenceLike]) -> list[int]:
        """Store several sequences in one batch; returns their ids in order.

        All or nothing: the store's
        :meth:`~repro.storage.store.SequenceStore.extend` checks every
        sequence before it keeps any, so a rejected batch leaves the
        database unchanged.
        """
        batch = list(sequences)
        first = self._next_id
        self._store.extend(first, batch)
        self._next_id += len(batch)
        self._mutations += len(batch)
        return list(range(first, first + len(batch)))

    def delete(self, seq_id: int) -> None:
        """Remove a sequence (tombstone; see :meth:`compact`).

        Raises :class:`~repro.exceptions.SequenceNotFoundError` when the
        id is not stored.  Ids are never reused.
        """
        self._store.remove(seq_id)
        self._mutations += 1

    def compact(self) -> int:
        """Reclaim tombstoned space; returns bytes freed.

        Also clears the buffer pool, since page numbers shift.
        """
        freed = self._store.compact()
        self._buffer.clear()
        return freed

    # -- reads -------------------------------------------------------------------

    def fetch(self, seq_id: int) -> Sequence:
        """Random access by id — the post-processing read of Algorithm 1.

        Charges random-read disk time for every page of the record that
        misses the buffer pool.
        """
        self.charge_fetch(seq_id)
        return self._store.read(seq_id)

    def charge_fetch(self, seq_id: int) -> None:
        """Charge the I/O of :meth:`fetch` without materializing the record.

        For callers that already hold the sequence in memory (e.g. the
        engine's feature store) but whose cost model must still account
        the random access Algorithm 1 performs: buffer-pool touches,
        random-page counts and simulated disk seconds are identical to
        a real :meth:`fetch`.
        """
        pages = self._store.pages_of(seq_id)
        missed = 0
        hits = 0
        for page_no in pages:
            if self._buffer.access(page_no):
                hits += 1
            else:
                missed += 1
        # The record's pages are contiguous: one seek, then transfer.
        seconds = self._disk.record_read_time(missed, self.page_size)
        with self._io_lock:
            self.io.buffer_hits += hits
            self.io.random_pages += missed
            self.io.simulated_seconds += seconds
        # Buffer hit/miss counters are charged per page by the pool
        # itself (storage.buffer.*); only the fetch-level costs here.
        registry = active_registry()
        if registry is not None:
            registry.count("storage.fetches")
            registry.count("storage.random_pages", missed)
            registry.count("storage.simulated_seconds", seconds)

    def scan(self) -> Iterator[Sequence]:
        """Sequential scan of the whole database (Naive-Scan / LB-Scan).

        Charges one sequential pass over all pages up front, which is
        how a real scan operator reads the file regardless of how many
        sequences the consumer actually keeps.
        """
        pages = self._store.total_pages
        seconds = self._disk.sequential_read_time(pages, self.page_size)
        with self._io_lock:
            self.io.sequential_pages += pages
            self.io.simulated_seconds += seconds
        registry = active_registry()
        if registry is not None:
            registry.count("storage.scans")
            registry.count("storage.sequential_pages", pages)
            registry.count("storage.simulated_seconds", seconds)
        return self._store.scan()

    def contents(self) -> Iterator[Sequence]:
        """Iterate the stored sequences without charging any I/O.

        The uncharged counterpart of :meth:`scan`, for readers outside
        the query pipeline (tests use it as the oracle of what a store
        holds): the simulated cost model only charges reads the *query
        pipeline* performs.
        """
        return self._store.scan()

    def dense_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The store's zero-copy ``(ids, lengths, offsets, values_flat)``.

        ``None`` unless the store can serve its whole element buffer as
        one contiguous array (see
        :meth:`repro.storage.store.SequenceStore.dense_arrays`).
        Uncharged, like :meth:`contents`.
        """
        return self._store.dense_arrays()

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the data file to *path* (plus any store sidecars)."""
        self._store.save(path)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        disk: DiskModel | None = None,
        buffer_pages: int = 0,
        store: str | None = None,
    ) -> "SequenceDatabase":
        """Re-open a database persisted with :meth:`save`.

        The store format is sniffed from the file's magic bytes when
        *store* is ``None``; passing a name forces that implementation
        (and fails with a domain error on a mismatched file).
        """
        if store is not None:
            name = resolve_store_name(store)
        else:
            name = sniff_store_name(path)
        loaded = STORES[name].load(path)
        db = cls(
            page_size=loaded.page_size,
            disk=disk,
            buffer_pages=buffer_pages,
            store=name,
        )
        db._store = loaded
        ids = loaded.ids()
        db._next_id = max(ids) + 1 if ids else 0
        return db

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase({len(self)} sequences, "
            f"{self.total_pages} pages of {self.page_size} B)"
        )
