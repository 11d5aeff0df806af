"""STR parity: the argsort loader packs exactly like the list-sorting one.

``_reference_tile`` and ``_reference_build`` are the STR loader as it
was before the tiling moved onto an ``(n, ndim)`` centre matrix: a
stable Python list sort keyed on each entry's centre tuple, recursing
on sub-lists.  The loader must reproduce its trees bit for bit (leaf
record order, every node's MBR, node count, height) and so the node
reads of every range query.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.features import extract_feature
from repro.index.backend import RTreeBackend
from repro.index.rtree.bulk import STRBulkLoader, _avoid_trailing_underflow
from repro.index.rtree.geometry import Rect
from repro.index.rtree.node import Entry, Node
from repro.index.rtree.rtree import RTree

PAGE = 512


def _reference_tile(
    entries: list[Entry], dim: int, node_capacity: int, ndim: int
) -> list[Entry]:
    """Recursively order entries by STR tiling starting at dimension *dim*."""
    if dim >= ndim - 1 or len(entries) <= node_capacity:
        entries.sort(key=lambda e: e.rect.center[min(dim, ndim - 1)])
        return entries
    entries.sort(key=lambda e: e.rect.center[dim])
    n = len(entries)
    leaf_pages = math.ceil(n / node_capacity)
    slabs = max(1, math.ceil(leaf_pages ** (1.0 / (ndim - dim))))
    slab_size = math.ceil(n / slabs)
    ordered: list[Entry] = []
    for start in range(0, n, slab_size):
        slab = entries[start : start + slab_size]
        ordered.extend(_reference_tile(slab, dim + 1, node_capacity, ndim))
    return ordered


def _reference_build(rects: list[Rect], records: list[int], ndim: int) -> RTree:
    tree = RTree(ndim, page_size=PAGE)
    if not rects:
        return tree
    capacity = tree.max_entries
    entries = [Entry(rect=r, record=rec) for r, rec in zip(rects, records)]
    ordered = _reference_tile(entries, 0, capacity, ndim)
    level_nodes: list[Node] = []
    for start in range(0, len(ordered), capacity):
        node = Node(level=0)
        for entry in ordered[start : start + capacity]:
            node.add(entry)
        level_nodes.append(node)
    _avoid_trailing_underflow(level_nodes, tree.min_entries)
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


def _build(rects: list[Rect], records: list[int], ndim: int) -> RTree:
    loader = STRBulkLoader(ndim, page_size=PAGE)
    for rect, record in zip(rects, records):
        loader.add(rect, record)
    return loader.build()


def _bits(rect: Rect) -> tuple[str, ...]:
    # float.hex tells -0.0 from 0.0, which == does not.
    return tuple(v.hex() for v in rect.lows + rect.highs)


def _layout(tree: RTree) -> list[tuple[int, list[tuple[tuple[str, ...], int | None]]]]:
    """Every node, breadth first: its level and its entries' bounds and records."""
    layout = []
    queue = [tree._root]
    while queue:
        node = queue.pop(0)
        layout.append(
            (node.level, [(_bits(e.rect), e.record) for e in node.entries])
        )
        queue.extend(e.child for e in node.entries if e.child is not None)
    return layout


def _assert_same_tree(ours: RTree, reference: RTree, ndim: int, seed: int) -> None:
    assert _layout(ours) == _layout(reference)
    assert ours.node_count() == reference.node_count()
    assert ours.height == reference.height
    assert len(ours) == len(reference)
    ours.validate()
    rng = np.random.default_rng(seed)
    for _ in range(8):
        low = rng.uniform(-4.0, 3.0, ndim)
        query = Rect(low, low + rng.uniform(0.0, 3.0, ndim))
        ours.stats.mark("q")
        reference.stats.mark("q")
        assert ours.range_search(query) == reference.range_search(query)
        assert ours.stats.delta("q") == reference.stats.delta("q")


def _tied_points(n: int, ndim: int, seed: int) -> list[Rect]:
    """Integer-valued points: many tied coordinates, zeros of both signs."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(-3, 4, size=(n, ndim)).astype(np.float64)
    flip = (coords == 0.0) & (rng.random(coords.shape) < 0.5)
    coords[flip] = -0.0
    return [Rect.from_point(row) for row in coords]


def _boxes(n: int, ndim: int, seed: int) -> list[Rect]:
    """Non-degenerate rectangles with coarse (often tied) bounds."""
    rng = np.random.default_rng(seed)
    lows = np.round(rng.uniform(-4.0, 3.0, size=(n, ndim)), 1)
    highs = lows + np.round(rng.uniform(0.1, 2.0, size=(n, ndim)), 1)
    return [Rect(lo, hi) for lo, hi in zip(lows, highs)]


@pytest.mark.parametrize("ndim", range(1, 7))
@pytest.mark.parametrize("make", [_tied_points, _boxes], ids=["points", "boxes"])
def test_matches_reference_loader(make, ndim):
    rects = make(300, ndim, seed=ndim)
    records = list(range(len(rects)))
    _assert_same_tree(
        _build(rects, records, ndim), _reference_build(rects, records, ndim), ndim, ndim
    )


def _sizes() -> list[int]:
    tree = RTree(4, page_size=PAGE)
    cap, low = tree.max_entries, tree.min_entries
    # At capacity (one leaf), one over, and a last leaf below the minimum.
    return [cap, cap + 1, 3 * cap + low - 1]


@pytest.mark.parametrize("n", _sizes())
def test_matches_reference_at_packing_edges(n):
    rects = _tied_points(n, 4, seed=n)
    records = list(range(100, 100 + n))
    _assert_same_tree(
        _build(rects, records, 4), _reference_build(rects, records, 4), 4, n
    )


def test_bulk_load_onto_populated_tree_matches_reference():
    rng = np.random.default_rng(11)
    backend = RTreeBackend(page_size=PAGE)
    for seq_id in range(40):
        backend.insert(seq_id, np.round(rng.normal(size=8).cumsum(), 1))
    existing = list(backend.tree.items())
    new = [(seq_id, np.round(rng.normal(size=8).cumsum(), 1)) for seq_id in range(40, 240)]
    backend.bulk_load(new)
    rects = [rect for rect, _ in existing] + [
        Rect.from_point(extract_feature(values).as_tuple()) for _, values in new
    ]
    records = [record for _, record in existing] + [seq_id for seq_id, _ in new]
    assert isinstance(backend.tree, RTree)
    _assert_same_tree(backend.tree, _reference_build(rects, records, 4), 4, 11)
