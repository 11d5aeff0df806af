"""Sort-Tile-Recursive (STR) bulk loading for the R-tree.

The paper (section 4.3.1) notes that when many sequences exist at
initial index-construction time, bulk-loading methods give large build
speedups.  STR (Leutenegger et al., ICDE 1997) is the classic choice:

1. Sort all entries by the center of dimension 0 and cut them into
   vertical "slabs" of roughly equal size.
2. Recurse on the remaining dimensions inside each slab.
3. Pack consecutive runs of ``max_entries`` entries into leaves, then
   repeat the packing one level up until a single root remains.

Steps 1 and 2 run on an ``(n, ndim)`` matrix of entry centers: each
slab is a stable ``argsort`` of an index array, so ties keep their
queue order, and each leaf entry is created once, already in its final
position.

The resulting tree is fully packed (every node ~100% full), so it is
both smaller and faster to query than a tuple-at-a-time build — the
property the bulk-loading ablation (bench A3) measures.
"""

from __future__ import annotations

import math
from typing import Sequence as TypingSequence

import numpy as np

from ...exceptions import ValidationError
from .geometry import Rect
from .node import Entry, Node
from .rtree import RTree

__all__ = ["str_pack", "STRBulkLoader"]


def _str_order(centers: np.ndarray, node_capacity: int) -> np.ndarray:
    """Row order of an STR tiling of the ``(n, ndim)`` *centers* matrix."""
    ndim = centers.shape[1]

    def tile(rows: np.ndarray, dim: int) -> np.ndarray:
        key = centers[rows, min(dim, ndim - 1)]
        rows = rows[np.argsort(key, kind="stable")]
        n = rows.size
        if dim >= ndim - 1 or n <= node_capacity:
            return rows
        leaf_pages = math.ceil(n / node_capacity)
        # Number of slabs along this dimension: the (ndim - dim)-th root
        # of the page count, so the tiling is balanced across dimensions.
        slabs = max(1, math.ceil(leaf_pages ** (1.0 / (ndim - dim))))
        slab_size = math.ceil(n / slabs)
        return np.concatenate(
            [
                tile(rows[start : start + slab_size], dim + 1)
                for start in range(0, n, slab_size)
            ]
        )

    return tile(np.arange(len(centers)), 0)


def str_pack(
    points: TypingSequence[TypingSequence[float] | Rect],
    records: TypingSequence[int],
    *,
    ndim: int,
    page_size: int | None = 1024,
    min_entries: int | None = None,
    max_entries: int | None = None,
) -> RTree:
    """Build a fully packed R-tree from ``(point-or-rect, record)`` pairs.

    Convenience wrapper over :class:`STRBulkLoader`.
    """
    loader = STRBulkLoader(
        ndim,
        page_size=page_size,
        min_entries=min_entries,
        max_entries=max_entries,
    )
    for point, record in zip(points, records, strict=True):
        loader.add(point, record)
    return loader.build()


class STRBulkLoader:
    """Accumulates entries and packs them into an R-tree in one pass.

    Usage::

        loader = STRBulkLoader(ndim=4, page_size=1024)
        for feature, seq_id in ...:
            loader.add(feature, seq_id)
        tree = loader.build()
    """

    def __init__(
        self,
        ndim: int,
        *,
        page_size: int | None = 1024,
        min_entries: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        # Delegate fan-out validation to the RTree constructor.
        self._template = RTree(
            ndim,
            page_size=page_size,
            min_entries=min_entries,
            max_entries=max_entries,
        )
        self._ndim = ndim
        self._rects: list[Rect] = []
        self._records: list[int] = []

    def add(self, rect: Rect | TypingSequence[float], record: int) -> None:
        """Queue one entry for the build."""
        if not isinstance(rect, Rect):
            rect = Rect.from_point(rect)
        if rect.ndim != self._ndim:
            raise ValidationError(
                f"rectangle has {rect.ndim} dims, loader has {self._ndim}"
            )
        self._rects.append(rect)
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._rects)

    def build(self) -> RTree:
        """Pack all queued entries and return the finished tree."""
        tree = self._template
        rects, records = self._rects, self._records
        if not rects:
            return tree
        capacity = tree.max_entries
        # Python floats overflow to inf silently; match that here.
        with np.errstate(over="ignore"):
            centers = (
                np.array([rect.lows for rect in rects])
                + np.array([rect.highs for rect in rects])
            ) / 2.0
        ordered = [
            Entry(rect=rects[row], record=records[row])
            for row in _str_order(centers, capacity).tolist()
        ]

        # Pack leaves.
        level_nodes: list[Node] = []
        for start in range(0, len(ordered), capacity):
            node = Node(level=0)
            for entry in ordered[start : start + capacity]:
                node.add(entry)
            level_nodes.append(node)
        _avoid_trailing_underflow(level_nodes, tree.min_entries)

        # Pack upper levels until one node remains.
        level = 0
        while len(level_nodes) > 1:
            level += 1
            parents: list[Node] = []
            for start in range(0, len(level_nodes), capacity):
                parent = Node(level=level)
                for child in level_nodes[start : start + capacity]:
                    parent.add(Entry(rect=child.mbr(), child=child))
                parents.append(parent)
            _avoid_trailing_underflow(parents, tree.min_entries)
            level_nodes = parents

        tree._adopt(level_nodes[0], len(rects))
        return tree


def _avoid_trailing_underflow(nodes: list[Node], min_entries: int) -> None:
    """Rebalance the last two nodes of a packed level if the last underflows.

    Full packing can leave a final node with fewer than ``min_entries``
    entries; move entries from its (full) predecessor to restore the
    invariant without violating the predecessor's own minimum.
    """
    if len(nodes) < 2:
        return
    last = nodes[-1]
    if len(last.entries) >= min_entries:
        return
    prev = nodes[-2]
    needed = min_entries - len(last.entries)
    moved = prev.entries[-needed:]
    prev.entries = prev.entries[:-needed]
    for entry in reversed(moved):
        if entry.child is not None:
            entry.child.parent = last
        last.entries.insert(0, entry)
