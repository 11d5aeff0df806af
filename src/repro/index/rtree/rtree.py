"""The R-tree proper: insertion, deletion, queries, invariants.

A faithful in-memory Guttman R-tree with page-size-derived fan-out and
access accounting.  TW-Sim-Search uses it as a 4-d point index over
feature vectors, but the implementation is fully general: entries may be
proper rectangles, dimensions are arbitrary, and all three classic split
heuristics are available.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Iterable, Iterator, Sequence as TypingSequence

from ...exceptions import (
    EntryNotFoundError,
    IndexCorruptionError,
    ValidationError,
)
from .geometry import Rect
from .node import Entry, Node, fanout_for_page_size
from .split import SplitFunction, linear_split, quadratic_split, rstar_split
from .stats import AccessStats

__all__ = ["RTree", "SplitStrategy"]


class SplitStrategy(enum.Enum):
    """Which node split heuristic the tree uses on overflow."""

    LINEAR = "linear"
    QUADRATIC = "quadratic"
    RSTAR = "rstar"

    @property
    def function(self) -> SplitFunction:
        """The split callable for this strategy."""
        return _SPLIT_FUNCTIONS[self]


_SPLIT_FUNCTIONS: dict[SplitStrategy, SplitFunction] = {
    SplitStrategy.LINEAR: linear_split,
    SplitStrategy.QUADRATIC: quadratic_split,
    SplitStrategy.RSTAR: rstar_split,
}


class RTree:
    """An n-dimensional R-tree.

    Parameters
    ----------
    ndim:
        Dimensionality of all rectangles stored (4 for the paper's
        feature index).
    page_size:
        Simulated disk page size in bytes; determines the fan-out
        (paper: 1 KB).  Mutually exclusive with explicit fan-out.
    min_entries, max_entries:
        Explicit fan-out overriding *page_size*.
    split:
        Node split heuristic (default quadratic, as in Guttman's paper).
    """

    def __init__(
        self,
        ndim: int,
        *,
        page_size: int | None = 1024,
        min_entries: int | None = None,
        max_entries: int | None = None,
        split: SplitStrategy = SplitStrategy.QUADRATIC,
    ) -> None:
        if ndim <= 0:
            raise ValidationError(f"ndim must be positive, got {ndim}")
        if (min_entries is None) != (max_entries is None):
            raise ValidationError(
                "min_entries and max_entries must be given together"
            )
        if min_entries is not None and max_entries is not None:
            if min_entries < 1 or 2 * min_entries > max_entries + 1:
                raise ValidationError(
                    f"invalid fan-out: min={min_entries}, max={max_entries}"
                )
            self._min_entries, self._max_entries = min_entries, max_entries
            self._page_size = page_size
        else:
            if page_size is None:
                raise ValidationError("either page_size or explicit fan-out required")
            self._min_entries, self._max_entries = fanout_for_page_size(
                page_size, ndim
            )
            self._page_size = page_size
        self._ndim = ndim
        self._split = split
        self._root = Node(level=0)
        self._count = 0
        self.stats = AccessStats()

    # -- properties -----------------------------------------------------

    @property
    def ndim(self) -> int:
        """Dimensionality of stored rectangles."""
        return self._ndim

    @property
    def min_entries(self) -> int:
        """Minimum entries per non-root node."""
        return self._min_entries

    @property
    def max_entries(self) -> int:
        """Maximum entries per node (the fan-out)."""
        return self._max_entries

    @property
    def page_size(self) -> int | None:
        """Simulated page size the fan-out was derived from, if any."""
        return self._page_size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return self._root.level + 1

    def __len__(self) -> int:
        return self._count

    def node_count(self) -> int:
        """Total number of nodes (each models one disk page)."""
        return sum(1 for _ in self._iter_nodes())

    def size_in_bytes(self) -> int:
        """Approximate on-disk size: one page per node."""
        page = self._page_size if self._page_size else 1024
        return self.node_count() * page

    # -- insertion -------------------------------------------------------

    def insert(self, rect: Rect | TypingSequence[float], record: int) -> None:
        """Insert *record* with bounding rectangle (or point) *rect*."""
        rect = self._coerce_rect(rect)
        entry = Entry(rect=rect, record=record)
        leaf = self._choose_leaf(self._root, rect, target_level=0)
        leaf.entries.append(entry)
        self._handle_overflow(leaf)
        self._count += 1

    def insert_point(self, point: TypingSequence[float], record: int) -> None:
        """Insert *record* at a degenerate point rectangle."""
        self.insert(Rect.from_point(point), record)

    def _coerce_rect(self, rect: Rect | TypingSequence[float]) -> Rect:
        if not isinstance(rect, Rect):
            rect = Rect.from_point(rect)
        if rect.ndim != self._ndim:
            raise ValidationError(
                f"rectangle has {rect.ndim} dims, tree has {self._ndim}"
            )
        return rect

    def _choose_leaf(self, node: Node, rect: Rect, target_level: int) -> Node:
        """Guttman's ChooseLeaf, descending to *target_level*."""
        while node.level > target_level:
            best_entry: Entry | None = None
            best_enlargement = float("inf")
            best_volume = float("inf")
            for entry in node.entries:
                enlargement = entry.rect.enlargement(rect)
                volume = entry.rect.volume()
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement and volume < best_volume
                ):
                    best_entry = entry
                    best_enlargement = enlargement
                    best_volume = volume
            if best_entry is None or best_entry.child is None:
                raise IndexCorruptionError("internal node with no children")
            node = best_entry.child
        return node

    def _node_capacity(self, node: Node) -> int:
        """Entry capacity of *node* (constant here; X-tree supernodes vary)."""
        return self._max_entries

    def _record_node_visit(self, node: Node) -> None:
        """Account one traversal visit (X-tree charges supernode pages)."""
        self.stats.record_node(is_leaf=node.is_leaf, entries=len(node.entries))

    def _handle_overflow(self, node: Node) -> None:
        """Split overflowing nodes upward; adjust MBRs to the root."""
        while True:
            if len(node.entries) <= self._node_capacity(node):
                self._adjust_upward(node)
                return
            group_a, group_b = self._split.function(
                list(node.entries), self._min_entries, self._max_entries
            )
            node.entries = group_a
            for entry in group_a:
                if entry.child is not None:
                    entry.child.parent = node
            sibling = Node(level=node.level)
            for entry in group_b:
                sibling.add(entry)

            parent = node.parent
            if parent is None:
                # Grow the tree: new root over node and sibling.
                new_root = Node(level=node.level + 1)
                new_root.add(Entry(rect=node.mbr(), child=node))
                new_root.add(Entry(rect=sibling.mbr(), child=sibling))
                self._root = new_root
                return
            self._refresh_parent_entry(parent, node)
            parent.add(Entry(rect=sibling.mbr(), child=sibling))
            node = parent

    def _refresh_parent_entry(self, parent: Node, child: Node) -> None:
        for entry in parent.entries:
            if entry.child is child:
                entry.rect = child.mbr()
                return
        raise IndexCorruptionError("child not referenced by its parent")

    def _adjust_upward(self, node: Node) -> None:
        while node.parent is not None:
            self._refresh_parent_entry(node.parent, node)
            node = node.parent

    # -- deletion ----------------------------------------------------------

    def delete(self, rect: Rect | TypingSequence[float], record: int) -> None:
        """Remove the entry with exactly this rectangle and record id.

        Raises :class:`EntryNotFoundError` when absent.  Underflowing
        nodes are dissolved and their entries reinserted (Guttman's
        CondenseTree).
        """
        rect = self._coerce_rect(rect)
        leaf = self._find_leaf(self._root, rect, record)
        if leaf is None:
            raise EntryNotFoundError(f"record {record} with {rect} not in tree")
        leaf.entries = [
            e for e in leaf.entries if not (e.record == record and e.rect == rect)
        ]
        self._count -= 1
        self._condense(leaf)

    def _find_leaf(self, node: Node, rect: Rect, record: int) -> Node | None:
        if node.is_leaf:
            for entry in node.entries:
                if entry.record == record and entry.rect == rect:
                    return node
            return None
        for entry in node.entries:
            if entry.rect.contains_rect(rect) and entry.child is not None:
                found = self._find_leaf(entry.child, rect, record)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: list[tuple[int, Entry]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self._min_entries:
                parent.entries = [e for e in parent.entries if e.child is not node]
                for entry in node.entries:
                    orphans.append((node.level, entry))
            else:
                self._refresh_parent_entry(parent, node)
            node = parent
        # Shrink the root if it has a single child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            only = self._root.entries[0].child
            if only is None:
                raise IndexCorruptionError("internal root entry without child")
            only.parent = None
            self._root = only
        if not self._root.is_leaf and not self._root.entries:
            self._root = Node(level=0)
        # Reinsert orphaned entries at their original level.
        for level, entry in orphans:
            if entry.is_leaf_entry:
                target = self._choose_leaf(self._root, entry.rect, target_level=0)
                target.entries.append(entry)
                self._handle_overflow(target)
            else:
                self._reinsert_subtree(entry, level)

    def _reinsert_subtree(self, entry: Entry, level: int) -> None:
        """Re-add a subtree entry into a node at *level* (its old home level)."""
        if self._root.level < level:
            # The tree shrank below the subtree's level; re-add its leaves.
            assert entry.child is not None
            for leaf_entry, _level in _collect_leaf_entries(entry.child):
                target = self._choose_leaf(self._root, leaf_entry.rect, 0)
                target.entries.append(leaf_entry)
                self._handle_overflow(target)
            return
        target = self._choose_leaf(self._root, entry.rect, target_level=level)
        target.add(entry)
        self._handle_overflow(target)

    # -- queries -------------------------------------------------------------

    def range_search(self, rect: Rect | TypingSequence[tuple[float, float]]) -> list[int]:
        """All record ids whose rectangles intersect the query rectangle.

        This is Algorithm 1's Step 2 when *rect* is the 4-d square
        ``Feature(Q) ± eps``: the returned ids form the candidate set.
        Node visits are recorded in :attr:`stats`.
        """
        if not isinstance(rect, Rect):
            rect = Rect.from_intervals(rect)
        if rect.ndim != self._ndim:
            raise ValidationError(
                f"query rectangle has {rect.ndim} dims, tree has {self._ndim}"
            )
        # The dimension was checked once above and every stored entry
        # has the tree's dimension, so the per-entry overlap test is the
        # bare interval comparison of Rect.intersects.
        q_lows, q_highs = rect.lows, rect.highs
        dims = range(self._ndim)
        results: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._record_node_visit(node)
            for entry in node.entries:
                lows, highs = entry.rect.lows, entry.rect.highs
                for d in dims:
                    if q_lows[d] > highs[d] or lows[d] > q_highs[d]:
                        break
                else:
                    if entry.is_leaf_entry:
                        results.append(entry.record)  # type: ignore[arg-type]
                    else:
                        assert entry.child is not None
                        stack.append(entry.child)
        return results

    def point_search(self, point: TypingSequence[float]) -> list[int]:
        """All record ids whose rectangles contain *point*."""
        return self.range_search(Rect.from_point(point))

    def knn(
        self,
        point: TypingSequence[float],
        k: int,
        *,
        p: float = float("inf"),
    ) -> list[tuple[float, int]]:
        """The *k* records nearest to *point* under the ``L_p`` metric.

        Consumes :meth:`knn_iter` — the traversal stops as soon as the
        *k*-th result is produced, exactly as the bounded best-first
        loop would.  Returns ``(distance, record)`` pairs in
        non-decreasing distance order.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        return list(itertools.islice(self.knn_iter(point, p=p), k))

    def knn_iter(
        self,
        point: TypingSequence[float],
        *,
        p: float = float("inf"),
    ) -> Iterator[tuple[float, int]]:
        """Lazily yield ``(distance, record)`` in non-decreasing order.

        Best-first (Hjaltason–Samet) traversal using rectangle-to-point
        minimum distances as priorities; exact for any ``p >= 1``.
        With ``p = inf`` the distances yielded are ``D_tw-lb`` values
        when the tree stores feature points.  The traversal is
        incremental: node visits are paid only as results are consumed,
        so a caller that stops after *n* neighbours never touches the
        subtrees a ``knn(point, n)`` call would also have skipped.
        """
        if len(point) != self._ndim:
            raise ValidationError(
                f"point has {len(point)} dims, tree has {self._ndim}"
            )
        return self._knn_iter(point, p)

    def _knn_iter(
        self, point: TypingSequence[float], p: float
    ) -> Iterator[tuple[float, int]]:
        counter = itertools.count()
        heap: list[tuple[float, int, Entry | Node]] = [(0.0, next(counter), self._root)]
        while heap:
            dist, _tie, item = heapq.heappop(heap)
            if isinstance(item, Node):
                self._record_node_visit(item)
                for entry in item.entries:
                    d = entry.rect.min_distance_to_point(point, p=p)
                    heapq.heappush(heap, (d, next(counter), entry))
            else:
                if item.is_leaf_entry:
                    yield dist, item.record  # type: ignore[misc]
                else:
                    assert item.child is not None
                    heapq.heappush(heap, (dist, next(counter), item.child))

    # -- introspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Rect, int]]:
        """Iterate over all ``(rect, record)`` leaf entries."""
        for node in self._iter_nodes():
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.rect, entry.record  # type: ignore[misc]

    def _iter_nodes(self) -> Iterator[Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                for entry in node.entries:
                    if entry.child is not None:
                        stack.append(entry.child)

    def validate(self) -> None:
        """Check all structural invariants; raise on violation.

        Verified: fan-out bounds (root exempt from the minimum), MBR
        containment, uniform leaf depth, parent pointers, and that the
        entry count matches ``len(self)``.
        """
        leaf_levels: set[int] = set()
        count = self._validate_node(self._root, is_root=True, leaf_levels=leaf_levels)
        if len(leaf_levels) > 1:
            raise IndexCorruptionError(f"leaves at multiple levels: {leaf_levels}")
        if count != self._count:
            raise IndexCorruptionError(
                f"entry count mismatch: found {count}, tracked {self._count}"
            )

    def _validate_node(
        self, node: Node, *, is_root: bool, leaf_levels: set[int]
    ) -> int:
        if len(node.entries) > self._node_capacity(node):
            raise IndexCorruptionError(
                f"node overflow: {len(node.entries)} > {self._node_capacity(node)}"
            )
        if not is_root and len(node.entries) < self._min_entries:
            raise IndexCorruptionError(
                f"node underflow: {len(node.entries)} < {self._min_entries}"
            )
        if node.is_leaf:
            leaf_levels.add(node.level)
            for entry in node.entries:
                if not entry.is_leaf_entry:
                    raise IndexCorruptionError("leaf holds a child entry")
            return len(node.entries)
        total = 0
        for entry in node.entries:
            child = entry.child
            if child is None:
                raise IndexCorruptionError("internal entry without child")
            if child.parent is not node:
                raise IndexCorruptionError("broken parent pointer")
            if child.level != node.level - 1:
                raise IndexCorruptionError(
                    f"child level {child.level} under node level {node.level}"
                )
            if entry.rect != child.mbr():
                if not entry.rect.contains_rect(child.mbr()):
                    raise IndexCorruptionError("entry MBR does not cover child")
                raise IndexCorruptionError("entry MBR is not minimal")
            total += self._validate_node(child, is_root=False, leaf_levels=leaf_levels)
        return total

    # -- bulk state swap (used by the STR loader) ------------------------------

    def _adopt(self, root: Node, count: int) -> None:
        """Replace the tree contents wholesale (internal, for bulk loading)."""
        self._root = root
        self._count = count

    def __repr__(self) -> str:
        return (
            f"RTree(ndim={self._ndim}, entries={self._count}, "
            f"height={self.height}, fanout=[{self._min_entries},"
            f"{self._max_entries}], split={self._split.value})"
        )


def _collect_leaf_entries(node: Node) -> Iterable[tuple[Entry, int]]:
    """All leaf entries under *node* with their level (always 0)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            for entry in current.entries:
                yield entry, 0
        else:
            for entry in current.entries:
                if entry.child is not None:
                    stack.append(entry.child)
