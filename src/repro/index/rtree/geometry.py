"""N-dimensional axis-aligned rectangles (MBRs) for the R-tree.

A :class:`Rect` is an immutable pair of coordinate tuples ``lows`` and
``highs`` with ``lows[d] <= highs[d]`` in every dimension.  Degenerate
(zero-extent) rectangles represent points — TW-Sim-Search stores each
feature vector as a point rectangle.

All geometry used by insertion heuristics and queries lives here:
volume, margin, intersection, containment, union, enlargement and
overlap, each ``O(d)`` with plain-float arithmetic (for the 4-d feature
space this is faster than numpy round-trips).
"""

from __future__ import annotations

from typing import Iterable, Sequence as TypingSequence

from ...exceptions import ValidationError

__all__ = ["Rect"]


class Rect:
    """An immutable n-dimensional axis-aligned rectangle."""

    __slots__ = ("lows", "highs")

    def __init__(
        self,
        lows: TypingSequence[float],
        highs: TypingSequence[float],
    ) -> None:
        lows_t = tuple(float(v) for v in lows)
        highs_t = tuple(float(v) for v in highs)
        if len(lows_t) != len(highs_t):
            raise ValidationError(
                f"lows and highs differ in length: {len(lows_t)} vs {len(highs_t)}"
            )
        if not lows_t:
            raise ValidationError("rectangle must have at least one dimension")
        for lo, hi in zip(lows_t, highs_t):
            if lo != lo or hi != hi:  # NaN check
                raise ValidationError("rectangle bounds must not be NaN")
            if lo > hi:
                raise ValidationError(f"invalid bounds: low {lo} > high {hi}")
        object.__setattr__(self, "lows", lows_t)
        object.__setattr__(self, "highs", highs_t)

    def __setattr__(self, name: str, value: object) -> None:
        # the __setattr__ protocol requires AttributeError here; the
        # call graph reaches it through the object.__setattr__ writes
        raise AttributeError("Rect is immutable")  # repro-lint: disable=RL004,RL015

    def __reduce__(self) -> tuple[type["Rect"], tuple[tuple[float, ...], ...]]:
        # Default __slots__ pickling restores state through
        # __setattr__, which immutability blocks; rebuild through the
        # constructor instead (needed to ship indexes to shard workers).
        return (Rect, (self.lows, self.highs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_point(cls, point: TypingSequence[float]) -> "Rect":
        """A degenerate rectangle covering exactly *point*."""
        return cls(point, point)

    @classmethod
    def _trusted(
        cls, lows: tuple[float, ...], highs: tuple[float, ...]
    ) -> "Rect":
        """A rectangle over bounds already known valid, without re-checking.

        For bounds derived from valid rectangles or from finite feature
        points: float tuples of equal length with ``lows <= highs``.
        """
        rect = object.__new__(cls)
        object.__setattr__(rect, "lows", lows)
        object.__setattr__(rect, "highs", highs)
        return rect

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[tuple[float, float]]
    ) -> "Rect":
        """Build from per-dimension ``(low, high)`` pairs."""
        pairs = list(intervals)
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of several rectangles."""
        rects = list(rects)
        if not rects:
            raise ValidationError("union_of requires at least one rectangle")
        # ``min``/``max`` keep the first of equal bounds, so -0.0 and 0.0
        # resolve as a left-to-right scan over the rectangles would.
        return cls._trusted(
            tuple(map(min, zip(*(rect.lows for rect in rects)))),
            tuple(map(max, zip(*(rect.highs for rect in rects)))),
        )

    # -- basic properties ------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lows)

    @property
    def center(self) -> tuple[float, ...]:
        """The midpoint in every dimension."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    def volume(self) -> float:
        """Product of extents (``area`` in Guttman's 2-d terminology)."""
        v = 1.0
        for lo, hi in zip(self.lows, self.highs):
            v *= hi - lo
        return v

    def margin(self) -> float:
        """Sum of extents (the R*-tree split heuristic's perimeter proxy)."""
        return sum(hi - lo for lo, hi in zip(self.lows, self.highs))

    def is_point(self) -> bool:
        """True when the rectangle has zero extent in every dimension."""
        return all(lo == hi for lo, hi in zip(self.lows, self.highs))

    # -- predicates -------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles share at least a boundary point."""
        self._check_dim(other)
        for d in range(self.ndim):
            if self.lows[d] > other.highs[d] or other.lows[d] > self.highs[d]:
                return False
        return True

    def contains_point(self, point: TypingSequence[float]) -> bool:
        """True when *point* lies inside (boundary inclusive)."""
        if len(point) != self.ndim:
            raise ValidationError(
                f"point has {len(point)} dims, rectangle has {self.ndim}"
            )
        for d, value in enumerate(point):
            if value < self.lows[d] or value > self.highs[d]:
                return False
        return True

    def contains_rect(self, other: "Rect") -> bool:
        """True when *other* lies fully inside (boundary inclusive)."""
        self._check_dim(other)
        for d in range(self.ndim):
            if other.lows[d] < self.lows[d] or other.highs[d] > self.highs[d]:
                return False
        return True

    # -- combination ------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of this and *other*."""
        self._check_dim(other)
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def enlargement(self, other: "Rect") -> float:
        """Volume increase needed for this rectangle to cover *other*.

        Guttman's ChooseLeaf criterion: descend into the child whose MBR
        needs the least enlargement.
        """
        return self.union(other).volume() - self.volume()

    def overlap(self, other: "Rect") -> float:
        """Volume of the intersection (0 when disjoint)."""
        self._check_dim(other)
        v = 1.0
        for d in range(self.ndim):
            lo = max(self.lows[d], other.lows[d])
            hi = min(self.highs[d], other.highs[d])
            if lo > hi:
                return 0.0
            v *= hi - lo
        return v

    def min_distance_to_point(
        self, point: TypingSequence[float], *, p: float = 2.0
    ) -> float:
        """Minimum ``L_p`` distance from *point* to this rectangle.

        Used by best-first kNN as the priority of a node.  ``p`` may be
        ``float('inf')`` for the ``L_inf`` metric of ``D_tw-lb``.
        """
        if len(point) != self.ndim:
            raise ValidationError(
                f"point has {len(point)} dims, rectangle has {self.ndim}"
            )
        gaps = []
        for d, value in enumerate(point):
            if value < self.lows[d]:
                gaps.append(self.lows[d] - value)
            elif value > self.highs[d]:
                gaps.append(value - self.highs[d])
            else:
                gaps.append(0.0)
        if p == float("inf"):
            return max(gaps)
        if p == 1.0:
            return sum(gaps)
        return sum(g**p for g in gaps) ** (1.0 / p)

    # -- plumbing ----------------------------------------------------------

    def _check_dim(self, other: "Rect") -> None:
        if self.ndim != other.ndim:
            raise ValidationError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lows == other.lows and self.highs == other.highs

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __repr__(self) -> str:
        spans = ", ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lows, self.highs)
        )
        return f"Rect({spans})"
