"""The pluggable sequence-store plane: how sequence bytes are kept.

:class:`~repro.storage.database.SequenceDatabase` owns the *cost
accounting* — buffer-pool touches, page counts, simulated disk seconds.
*Where the bytes live* is a separate concern, factored into a
:class:`SequenceStore`:

* ``heap`` — the original byte-level paged heap
  (:class:`~repro.storage.pages.HeapSequenceStore`): elements kept once
  in one growable in-memory float64 column, persisted as a single
  serialized record file.  Kept as the oracle implementation.
* ``mmap`` — the memory-mapped columnar layout
  (:class:`~repro.storage.columnar.MmapColumnarStore`): one contiguous
  float64 data file mapped read-only, an offset/length directory, a
  versioned ``.meta`` sidecar and an append log so insert/delete
  survives restart.  Reads are zero-copy views over the mapped array.

Both are registered here by name; selection order is the explicit
``store=`` argument, then the ``REPRO_STORE`` environment variable,
then the ``heap`` default — the same resolution contract as the
backend/executor/kernel registries.  The contract every store must
honour is *logical-layout parity*: record offsets, lengths, page spans
and therefore every simulated ``storage.*`` charge follow the heap's
byte arithmetic (``12 + 8n`` bytes per record) regardless of the
physical layout, so answers and counters are bit-identical across
stores.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import ClassVar, Iterator, Sequence as TypingSequence, TypeVar

import numpy as np

from ..exceptions import StorageError, ValidationError
from ..types import Sequence, SequenceLike, as_array

__all__ = [
    "DEFAULT_STORE",
    "ENV_STORE",
    "STORES",
    "SequenceStore",
    "available_stores",
    "make_store",
    "register_store",
    "resolve_store_name",
    "sniff_store_name",
]

#: The store used when neither ``store=`` nor the environment selects one.
DEFAULT_STORE = "heap"

#: Environment variable consulted when no explicit store is passed.
ENV_STORE = "REPRO_STORE"


class SequenceStore(ABC):
    """Keeps sequence records; exposes the heap's logical page geometry.

    Implementations serialize each record as the heap's
    ``u64 id, u32 count, f64[count]`` layout *logically* — offsets,
    lengths, and page spans are derived from that arithmetic even when
    the physical bytes live elsewhere — so the disk model charges
    identically for every store.
    """

    #: Registry name of the store (``heap``/``mmap``).
    name: ClassVar[str]

    #: Leading magic bytes of the store's persisted main file.
    magic: ClassVar[bytes]

    # -- geometry -----------------------------------------------------------

    @property
    @abstractmethod
    def page_size(self) -> int:
        """Bytes per page."""

    @property
    @abstractmethod
    def total_bytes(self) -> int:
        """Logical bytes currently stored (tombstoned space included)."""

    @property
    @abstractmethod
    def total_pages(self) -> int:
        """Pages the logical file occupies (ceiling of bytes / page size)."""

    @abstractmethod
    def pages_of(self, seq_id: int) -> range:
        """The page numbers a stored record logically spans."""

    # -- writes -------------------------------------------------------------

    @abstractmethod
    def append(self, seq_id: int, values: np.ndarray) -> range:
        """Serialize and append one sequence; returns its page span."""

    def extend(self, first_id: int, arrays: TypingSequence[SequenceLike]) -> None:
        """Append ``arrays[k]`` under id ``first_id + k``, all or nothing.

        The whole batch is rejected, and the store left unchanged, when
        an id is negative or already stored, or a sequence is empty,
        not 1-d or holds a non-finite element.  This default checks
        every sequence, then loops over :meth:`append`; a store may
        override it to write the batch in one pass.
        """
        checked = [as_array(values, allow_empty=False) for values in arrays]
        self._check_new_ids(first_id, len(checked))
        for offset, values in enumerate(checked):
            self.append(first_id + offset, values)

    def _check_new_ids(self, first_id: int, count: int) -> None:
        """Raise unless ids ``first_id .. first_id + count - 1`` are all free."""
        if first_id < 0:
            raise ValidationError(f"seq_id must be non-negative, got {first_id}")
        for seq_id in range(first_id, first_id + count):
            if seq_id in self:
                raise StorageError(f"sequence {seq_id} already stored")

    @abstractmethod
    def remove(self, seq_id: int) -> int:
        """Drop a record from the directory; returns the bytes tombstoned."""

    @abstractmethod
    def compact(self) -> int:
        """Reclaim tombstoned logical space; returns bytes freed."""

    # -- reads --------------------------------------------------------------

    @abstractmethod
    def __contains__(self, seq_id: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def ids(self) -> list[int]:
        """Stored ids in physical (insertion) order."""

    @abstractmethod
    def read(self, seq_id: int) -> Sequence:
        """Materialize one sequence by id."""

    @abstractmethod
    def scan(self) -> Iterator[Sequence]:
        """Iterate all sequences in physical order (a sequential scan)."""

    def dense_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(ids, lengths, offsets, values_flat)`` when served zero-copy.

        A store whose live element values sit contiguously, in
        insertion order and with no interleaved tombstones can hand the
        cascade its whole value buffer as one array: *offsets* is the
        ``(n + 1,)`` element prefix-sum into *values_flat*.  Stores (or
        states) that cannot return ``None`` and callers fall back to
        the per-sequence :meth:`scan` copy path.
        """
        return None

    # -- persistence --------------------------------------------------------

    @abstractmethod
    def save(self, path: str | Path) -> None:
        """Persist the store to *path* (plus any sidecar files)."""

    @classmethod
    @abstractmethod
    def load(cls, path: str | Path) -> "SequenceStore":
        """Re-open a store persisted with :meth:`save`."""


_S = TypeVar("_S", bound=type[SequenceStore])

#: Registered store classes, keyed by :attr:`SequenceStore.name`.
STORES: dict[str, type[SequenceStore]] = {}


def register_store(cls: _S) -> _S:
    """Class decorator adding *cls* to the :data:`STORES` registry."""
    STORES[cls.name] = cls
    return cls


def available_stores() -> tuple[str, ...]:
    """The registered store names, sorted."""
    return tuple(sorted(STORES))


def resolve_store_name(name: str | None = None) -> str:
    """Resolve the store to use and validate it.

    Explicit *name* wins; ``None`` falls back to the ``REPRO_STORE``
    environment variable, then to :data:`DEFAULT_STORE`.
    """
    if name is None:
        name = os.environ.get(ENV_STORE) or DEFAULT_STORE
    if name not in STORES:
        known = ", ".join(available_stores())
        raise ValidationError(f"unknown store {name!r}; registered: {known}")
    return name


def make_store(name: str | None, *, page_size: int = 1024) -> SequenceStore:
    """Construct the store *name* (resolved per :func:`resolve_store_name`)."""
    return STORES[resolve_store_name(name)](page_size=page_size)  # type: ignore[call-arg]


def sniff_store_name(path: str | Path) -> str:
    """Identify which registered store persisted *path* by its magic."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            head = f.read(8)
    except OSError as error:
        raise StorageError(f"cannot read store file {path}: {error}") from error
    for name, cls in sorted(STORES.items()):
        if head.startswith(cls.magic):
            return name
    raise StorageError(
        f"{path} is not a persisted sequence store (unrecognized magic "
        f"{head[:5]!r}; known stores: {', '.join(available_stores())})"
    )
