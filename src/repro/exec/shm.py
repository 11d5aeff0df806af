"""Publishing a packed :class:`FeatureStore` to worker processes.

Two transports, one attach entry point:

* **Shared memory** — the store is five flat arrays
  (:attr:`FeatureStore.PACKED_FIELDS`); :func:`publish_store` copies
  them back-to-back into one :mod:`multiprocessing.shared_memory`
  segment and returns a picklable :class:`SharedStoreHandle`
  describing the layout.
* **Memory-mapped file** — when the shard's database sits on the
  ``mmap`` columnar store in its clean state, :func:`publish_mmap`
  skips the copy entirely: the handle carries the data file's *path*
  plus the small id/length/offset arrays, and each worker maps the
  file read-only.  The OS page cache shares one physical copy across
  all processes and nothing per-publish is pickled or re-packed.

A worker process calls :func:`attach_store` with either handle and
gets a read-only, **zero-copy** store — every cascade tier and every
DTW verification in the worker reads sequence values straight out of
the shared segment or the mapped file.

Lifecycle: for shared memory, the *publisher* owns the segment — it
keeps the returned :class:`~multiprocessing.shared_memory.SharedMemory`
object and is responsible for ``close()`` + ``unlink()`` when the
executor shuts down.  Attachers only ``close()`` (implicitly, at
process exit).  Pre-3.13 Pythons register *attachments* with the
:mod:`multiprocessing.resource_tracker` as well; that is harmless
here because spawned workers share the publisher's tracker process,
whose name cache is a set — the duplicate register deduplicates and
the publisher's ``unlink()`` unregisters exactly once.  Mapped files
need no lifecycle at all: the store's own ``save``/``load`` owns the
file, and attachments are plain read-only maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..core.cascade import FeatureStore
from ..exceptions import StorageError

if TYPE_CHECKING:
    from ..storage.database import SequenceDatabase

__all__ = [
    "ArraySpec",
    "MmapStoreHandle",
    "SharedStoreHandle",
    "publish_mmap",
    "publish_store",
    "attach_store",
]


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one packed array inside the shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedStoreHandle:
    """A picklable description of a published feature store.

    Attributes
    ----------
    segment:
        The shared-memory segment name (attachable by any process).
    size:
        Segment size in bytes.
    arrays:
        Layout of the packed arrays, in :attr:`FeatureStore.PACKED_FIELDS`
        order.
    mutation_count:
        The publisher's database mutation count the arrays mirror
        (:attr:`FeatureStore.mutation_count`).
    """

    segment: str
    size: int
    arrays: tuple[ArraySpec, ...]
    mutation_count: int | None = None


@dataclass(frozen=True)
class MmapStoreHandle:
    """A picklable description of a store served from a mapped file.

    The heavyweight element buffer never crosses the pipe: workers
    ``numpy.memmap`` *path* read-only and rebuild the feature store
    over it with :meth:`FeatureStore.from_arrays`.  Only the small
    id/length/offset arrays travel in the handle.

    Attributes
    ----------
    path:
        The columnar store's contiguous float64 data file.
    n_values:
        Total float64 elements in the file.
    epoch:
        The store's save generation the handle was taken from.
    ids / lengths / offsets:
        The row directory (``(n,)``/``(n,)``/``(n + 1,)`` int64).
    mutation_count:
        The publisher's database mutation count the file mirrors.
    """

    path: str
    n_values: int
    epoch: int
    ids: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    mutation_count: int | None = None


def publish_mmap(db: "SequenceDatabase") -> MmapStoreHandle | None:
    """Describe *db*'s store as a mapped-file handle, if it can be.

    Returns ``None`` unless the database's sequence store advertises a
    clean on-disk value file (see
    :meth:`~repro.storage.store.SequenceStore.mmap_source`) — callers
    fall back to :func:`publish_store`.  No values are copied; the
    directory arrays are snapshotted so the handle does not pin the
    publisher's map.
    """
    mutation_count = db.mutation_count
    source = db.mmap_source()
    if source is None:
        return None
    dense = db.dense_arrays()
    if dense is None:
        return None
    ids, lengths, offsets, _values = dense
    return MmapStoreHandle(
        path=source.path,
        n_values=source.n_values,
        epoch=source.epoch,
        ids=np.array(ids),
        lengths=np.array(lengths),
        offsets=np.array(offsets),
        mutation_count=mutation_count,
    )


def publish_store(
    store: FeatureStore,
) -> tuple[shared_memory.SharedMemory, SharedStoreHandle]:
    """Copy *store*'s packed arrays into a fresh shared segment.

    Returns the owning ``SharedMemory`` object (caller must ``close()``
    and ``unlink()`` it eventually) and the layout handle to ship to
    attachers.
    """
    packed = {
        name: np.ascontiguousarray(array)
        for name, array in store.packed().items()
    }
    specs: list[ArraySpec] = []
    offset = 0
    for name in FeatureStore.PACKED_FIELDS:
        array = packed[name]
        specs.append(
            ArraySpec(name, str(array.dtype), tuple(array.shape), offset)
        )
        offset += array.nbytes
    # Zero-byte segments are rejected by the OS; a store with no
    # sequences still publishes its (single-element) offsets array, but
    # guard anyway.
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for spec in specs:
        array = packed[spec.name]
        if array.nbytes == 0:
            continue
        view: np.ndarray = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        view[...] = array
        del view  # keep no exported views: segment.close() must not block
    return segment, SharedStoreHandle(
        segment=segment.name,
        size=max(offset, 1),
        arrays=tuple(specs),
        mutation_count=store.mutation_count,
    )


def attach_store(
    handle: SharedStoreHandle | MmapStoreHandle,
) -> tuple[shared_memory.SharedMemory | None, FeatureStore]:
    """Attach to a published store, zero-copy and read-only.

    For a :class:`MmapStoreHandle` the data file is mapped read-only
    and the segment slot of the return value is ``None`` (there is no
    shared-memory lifecycle to manage).  For a
    :class:`SharedStoreHandle` the caller must keep the returned
    ``SharedMemory`` object alive as long as the store is in use (the
    store's arrays are views into its buffer).
    """
    if isinstance(handle, MmapStoreHandle):
        return None, _attach_mmap(handle)
    segment = shared_memory.SharedMemory(name=handle.segment, create=False)
    views: dict[str, np.ndarray] = {}
    for spec in handle.arrays:
        dtype = np.dtype(spec.dtype)
        count = int(np.prod(spec.shape, dtype=np.int64))
        if count == 0:
            view = np.empty(spec.shape, dtype=dtype)
        else:
            view = np.ndarray(
                spec.shape, dtype=dtype, buffer=segment.buf, offset=spec.offset
            )
        view.flags.writeable = False
        views[spec.name] = view
    return segment, FeatureStore.from_packed(
        **views, mutation_count=handle.mutation_count
    )


def _attach_mmap(handle: MmapStoreHandle) -> FeatureStore:
    """Map the handle's data file read-only and re-host a store over it."""
    if handle.n_values == 0:
        values = np.empty(0, dtype=np.float64)
    else:
        try:
            values = np.memmap(
                handle.path, dtype="<f8", mode="r", shape=(handle.n_values,)
            )
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot map store data file {handle.path}: {error}"
            ) from error
    return FeatureStore.from_arrays(
        handle.ids,
        handle.lengths,
        handle.offsets,
        values,
        mutation_count=handle.mutation_count,
    )
