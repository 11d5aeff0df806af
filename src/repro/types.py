"""Core value types shared across the library.

The central type is :class:`Sequence`, a lightweight immutable wrapper
around a 1-d :class:`numpy.ndarray` of float64 elements plus an optional
identifier and label.  The paper's notation maps onto it directly:

========================  =======================================
Paper                     Library
========================  =======================================
``S = <s_1 ... s_|S|>``   ``Sequence(values)``
``|S|``                   ``len(seq)``
``First(S)``              ``seq.first``
``Last(S)``               ``seq.last``
``Greatest(S)``           ``seq.greatest``
``Smallest(S)``           ``seq.smallest``
``Rest(S)``               ``seq.rest()``
========================  =======================================
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

from .exceptions import EmptySequenceError, ValidationError

__all__ = ["Sequence", "SequenceLike", "as_array", "as_sequence", "as_values"]

#: Anything acceptable as sequence input to public API functions.
SequenceLike = Union["Sequence", np.ndarray, Iterable[float]]


def _one_dimensional(values: SequenceLike) -> np.ndarray:
    """*values* (not a :class:`Sequence`) as a 1-d float64 array."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except TypeError:
        # Generators and other one-shot iterables.
        arr = np.fromiter(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(
            f"sequence must be 1-dimensional, got shape {arr.shape}"
        )
    return arr


def as_array(values: SequenceLike, *, allow_empty: bool = True) -> np.ndarray:
    """Coerce *values* to a read-only contiguous 1-d float64 array.

    Accepts a :class:`Sequence`, a numpy array, or any iterable of numbers.
    Raises :class:`ValidationError` for non-1-d input or non-finite
    elements, and :class:`EmptySequenceError` if *values* is empty while
    ``allow_empty`` is false.
    """
    if isinstance(values, Sequence):
        arr = values.values
    else:
        arr = _one_dimensional(values)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("sequence elements must be finite numbers")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
    if not allow_empty and arr.size == 0:
        raise EmptySequenceError("operation requires a non-empty sequence")
    return arr


def as_values(values: SequenceLike) -> np.ndarray:
    """The elements of a non-empty sequence as a 1-d float64 array.

    The bulk-load counterpart of :func:`as_array`: shape and emptiness
    are checked per sequence, finiteness is not.  A bulk load checks
    the finiteness of all its elements in one pass instead (see
    :meth:`repro.storage.store.SequenceStore.extend`).  A float64 input
    array is returned as-is, neither copied nor made read-only.
    """
    if isinstance(values, Sequence):
        arr = values.values
    else:
        arr = _one_dimensional(values)
    if arr.size == 0:
        raise EmptySequenceError("operation requires a non-empty sequence")
    return arr


def as_sequence(values: SequenceLike, *, seq_id: int | None = None) -> "Sequence":
    """Coerce *values* to a :class:`Sequence`, preserving an existing wrapper."""
    if isinstance(values, Sequence):
        return values
    return Sequence(values, seq_id=seq_id)


class Sequence:
    """An immutable, ordered list of numeric elements (paper section 2).

    Parameters
    ----------
    values:
        The elements, any 1-d numeric iterable.  Stored as read-only
        float64.
    seq_id:
        Optional integer identifier (``ID(S)`` in the paper); assigned by
        the database layer when the sequence is inserted.
    label:
        Optional human-readable name (e.g. a ticker symbol).
    """

    __slots__ = ("_values", "_seq_id", "_label")

    def __init__(
        self,
        values: SequenceLike,
        *,
        seq_id: int | None = None,
        label: str | None = None,
    ) -> None:
        self._values = as_array(values)
        if seq_id is not None and seq_id < 0:
            raise ValidationError(f"seq_id must be non-negative, got {seq_id}")
        self._seq_id = seq_id
        self._label = label

    # -- identity -----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The underlying read-only float64 array."""
        return self._values

    @property
    def seq_id(self) -> int | None:
        """Database identifier, or ``None`` if not yet stored."""
        return self._seq_id

    @property
    def label(self) -> str | None:
        """Optional human-readable name."""
        return self._label

    def with_id(self, seq_id: int) -> "Sequence":
        """Return a copy of this sequence carrying *seq_id*."""
        clone = Sequence.__new__(Sequence)
        clone._values = self._values
        clone._seq_id = seq_id
        clone._label = self._label
        return clone

    # -- paper accessors ----------------------------------------------

    def _require_nonempty(self) -> None:
        if self._values.size == 0:
            raise EmptySequenceError("empty sequence has no elements")

    @property
    def first(self) -> float:
        """``First(S)``: the first element."""
        self._require_nonempty()
        return float(self._values[0])

    @property
    def last(self) -> float:
        """``Last(S)``: the last element."""
        self._require_nonempty()
        return float(self._values[-1])

    @property
    def greatest(self) -> float:
        """``Greatest(S)``: the maximum element."""
        self._require_nonempty()
        return float(self._values.max())

    @property
    def smallest(self) -> float:
        """``Smallest(S)``: the minimum element."""
        self._require_nonempty()
        return float(self._values.min())

    def rest(self) -> "Sequence":
        """``Rest(S)``: elements from position 2 to the end."""
        self._require_nonempty()
        return Sequence(self._values[1:])

    # -- container protocol -------------------------------------------

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values.tolist())

    def __getitem__(self, index: int | slice) -> Union[float, "Sequence"]:
        if isinstance(index, slice):
            return Sequence(self._values[index])
        return float(self._values[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return (
            self._values.shape == other._values.shape
            and bool(np.array_equal(self._values, other._values))
        )

    def __hash__(self) -> int:
        return hash((self._values.shape[0], self._values.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(f"{v:g}" for v in self._values[:4])
        tail = ", ..." if len(self) > 4 else ""
        ident = f", seq_id={self._seq_id}" if self._seq_id is not None else ""
        name = f", label={self._label!r}" if self._label else ""
        return f"Sequence(<{head}{tail}> len={len(self)}{ident}{name})"
