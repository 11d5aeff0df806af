"""Paged storage engine with a simulated disk cost model.

The paper measures elapsed times on a 2001-era workstation whose 9.5 ms
disk seek dominates random I/O.  Re-running on modern hardware (or fully
in memory) would distort the CPU/IO balance that produces the paper's
crossovers, so this package provides:

* :mod:`repro.storage.store` — the pluggable :class:`SequenceStore`
  registry (``store=`` / ``REPRO_STORE``): where sequence bytes live.
* :mod:`repro.storage.pages` — the ``heap`` store: a real byte-level
  heap file of fixed-size pages holding serialized sequences (the
  parity oracle).
* :mod:`repro.storage.columnar` — the ``mmap`` store: one contiguous
  memory-mapped float64 data file plus offset directory, versioned
  ``.meta`` sidecar and append log; reads are zero-copy views.
* :mod:`repro.storage.buffer` — an LRU buffer pool deciding which page
  accesses hit memory.
* :mod:`repro.storage.diskmodel` — converts page-access counts into
  simulated disk time with the paper's disk parameters (sequential scans
  pay transfer cost; random fetches pay seek + transfer).
* :mod:`repro.storage.database` — :class:`SequenceDatabase`, the façade
  all search methods read sequences through, accumulating I/O counters.

Every store honours the heap's *logical* byte arithmetic (``12 + 8n``
bytes per record), so page counts and all simulated ``storage.*``
charges are bit-identical across stores.
"""

from .buffer import BufferPool
from .columnar import MmapColumnarStore
from .database import IOStats, SequenceDatabase
from .diskmodel import DiskModel
from .pages import HeapSequenceStore, SequenceHeapFile
from .store import (
    DEFAULT_STORE,
    ENV_STORE,
    STORES,
    SequenceStore,
    available_stores,
    make_store,
    register_store,
    resolve_store_name,
    sniff_store_name,
)

__all__ = [
    "BufferPool",
    "DEFAULT_STORE",
    "DiskModel",
    "ENV_STORE",
    "HeapSequenceStore",
    "IOStats",
    "MmapColumnarStore",
    "STORES",
    "SequenceDatabase",
    "SequenceHeapFile",
    "SequenceStore",
    "available_stores",
    "make_store",
    "register_store",
    "resolve_store_name",
    "sniff_store_name",
]
