"""Pluggable index backends — one protocol, eight candidate generators.

The paper's method is the *combination* of a metric lower bound with a
spatial index, and explicitly leaves the index choice open ("any
multi-dimensional indexes such as the R-tree, R+-tree, R*-tree, and
X-tree can be used").  This module makes that choice a first-class
runtime parameter: every index subsystem the repo ships — the R-tree
family, STR bulk loading, the suffix tree, FastMap — is wrapped behind
one :class:`IndexBackend` contract the query engine composes with the
filter cascade, so ``TimeWarpingDatabase(backend="rstar")`` is all it
takes to swap the access method.

The contract is *sequence-level*, not rectangle-level: a backend is
fed ``(seq_id, values)`` pairs and asked for candidate ids given a raw
query and a tolerance.  Geometric backends derive the 4-tuple feature
point internally; the suffix-tree backend categorizes and traverses;
FastMap projects.  For every backend with ``exact = True`` the
candidate set is a superset of the true answers (no false dismissal),
so downstream verification yields identical answers regardless of the
backend chosen.  FastMap is the deliberate exception (``exact =
False``): its embedding of the non-metric ``D_tw`` is not contractive,
and the paper excludes it for exactly that deficiency — it is kept
behind the same protocol so the deficiency stays measurable.
"""

from __future__ import annotations

import abc
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

import numpy as np

from ..core.features import extract_feature
from ..core.lower_bound import feature_rect, filter_margin
from ..distance.dtw import dtw_max
from ..exceptions import EntryNotFoundError, ValidationError
from ..fastmap.fastmap import FastMap
from ..types import SequenceLike, as_values
from .rtree.bulk import STRBulkLoader
from .rtree.geometry import Rect
from .rtree.persist import load_rtree, save_rtree
from .rtree.rplus import RPlusTree
from .rtree.rstar import RStarTree
from .rtree.rtree import RTree, SplitStrategy
from .rtree.stats import AccessStats
from .rtree.xtree import XTree
from .suffixtree.categorize import Categorizer
from .suffixtree.search import WarpingTraversal
from .suffixtree.ukkonen import GeneralizedSuffixTree

__all__ = [
    "IndexNodeStats",
    "IndexBackend",
    "RTreeBackend",
    "RStarBackend",
    "RPlusBackend",
    "XTreeBackend",
    "STRBulkBackend",
    "SuffixTreeBackend",
    "FastMapBackend",
    "LinearBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "EXACT_BACKEND_NAMES",
    "make_backend",
]

#: Approximate serialized bytes per suffix-tree node (edge bounds,
#: child table slot, suffix link) — matches the ST-Filter cost model.
_SUFFIX_NODE_BYTES = 48

#: Serialized bytes per linear-scan entry: 4 float64 components + id.
_LINEAR_ENTRY_BYTES = 40


def _feature_point(values: SequenceLike) -> tuple[float, float, float, float]:
    """The 4-tuple feature point of a raw value sequence (paper order).

    Equal to :func:`~repro.core.features.extract_feature`, with two
    reductions per sequence and no intermediate object.  Finite extremes
    prove every element finite: ``max`` propagates NaN, and an infinite
    element would be an extreme.
    """
    arr = as_values(values)
    greatest = float(arr.max())
    smallest = float(arr.min())
    if not -math.inf < smallest <= greatest < math.inf:
        raise ValidationError("sequence elements must be finite numbers")
    return (float(arr[0]), float(arr[-1]), greatest, smallest)


@dataclass(frozen=True)
class IndexNodeStats:
    """Structural statistics of a backend's index.

    Attributes
    ----------
    nodes:
        Total node count (each node models one or more disk pages).
    height:
        Tree height in levels; 0 when the structure does not track one.
    size_in_bytes:
        Approximate on-disk size of the index.
    """

    nodes: int
    height: int
    size_in_bytes: int


class IndexBackend(abc.ABC):
    """A pluggable candidate-generating index over stored sequences.

    Contract
    --------
    * :meth:`insert` / :meth:`delete` keep the index synchronized with
      the storage layer; ids are arbitrary non-negative integers.
    * :meth:`range_search` returns candidate ids for a raw query and a
      tolerance.  When :attr:`exact` is True the candidates are a
      superset of ``{S : D_tw(S, Q) <= eps}`` — no false dismissal.
    * :meth:`knn_iter` lazily yields ``(lower_bound, seq_id)`` pairs in
      non-decreasing lower-bound order, where ``lower_bound <=
      D_tw(S, Q)``; the classical filter-and-refine kNN loop consumes
      it incrementally.
    * :meth:`save` / :meth:`load` optionally persist the structure;
      backends without a page-exact format return ``False`` / ``None``
      and are rebuilt from the data file.
    * :attr:`access` accumulates node-visit counters for per-query I/O
      charging; it survives internal rebuilds of the wrapped structure.
    """

    #: Registry name of the backend.
    name: ClassVar[str] = "abstract"
    #: Whether the candidate set provably contains every true answer.
    exact: ClassVar[bool] = True

    def __init__(self, *, page_size: int = 1024) -> None:
        if page_size <= 0:
            raise ValidationError(f"page_size must be positive, got {page_size}")
        self._page_size = page_size
        self._access = AccessStats(scope=f"index.{type(self).name}")

    @property
    def access(self) -> AccessStats:
        """Node-visit counters of every traversal run so far."""
        return self._access

    @property
    def page_size(self) -> int:
        """Simulated page size the index is charged against."""
        return self._page_size

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of indexed sequences."""

    @abc.abstractmethod
    def insert(self, seq_id: int, values: SequenceLike) -> None:
        """Index one sequence."""

    @abc.abstractmethod
    def delete(self, seq_id: int, values: SequenceLike) -> None:
        """Remove one sequence; raises ``EntryNotFoundError`` if absent."""

    def bulk_load(self, items: Iterable[tuple[int, SequenceLike]]) -> None:
        """Index many sequences at once (default: repeated insertion)."""
        for seq_id, values in items:
            self.insert(seq_id, values)

    @abc.abstractmethod
    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        """Candidate ids for query *values* at tolerance *epsilon*."""

    @abc.abstractmethod
    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        """Lazily yield ``(lower_bound, seq_id)`` by ascending bound."""

    @abc.abstractmethod
    def node_stats(self) -> IndexNodeStats:
        """Structural statistics of the index."""

    def save(self, path: str | Path) -> bool:
        """Persist the index to *path*; False when unsupported."""
        return False

    @classmethod
    def load(
        cls, path: str | Path, *, page_size: int = 1024
    ) -> "IndexBackend | None":
        """Reload an index written by :meth:`save`; None when unsupported."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} sequences)"


def _knn_from_features(
    pairs: Iterable[tuple[int, tuple[float, ...]]], values: SequenceLike
) -> Iterator[tuple[float, int]]:
    """Fallback kNN ordering: sort ``D_tw-lb`` over stored features.

    Used by backends whose native structure orders candidates by
    something other than the metric lower bound (suffix tree, FastMap).
    Exact — the yielded bounds are true ``D_tw-lb`` values — but eager:
    the whole feature list is scored up front.
    """
    q = _feature_point(values)
    scored = sorted(
        (max(abs(f - c) for f, c in zip(point, q)), seq_id)
        for seq_id, point in pairs
    )
    yield from scored


class FeaturePointBackend(IndexBackend):
    """Shared adapter for trees indexing the 4-d feature point."""

    def __init__(self, *, page_size: int = 1024) -> None:
        super().__init__(page_size=page_size)
        self._tree: RTree | RPlusTree = self._make_tree()
        self._tree.stats = self._access

    @abc.abstractmethod
    def _make_tree(self) -> RTree | RPlusTree:
        """Construct the empty underlying tree."""

    @property
    def tree(self) -> RTree | RPlusTree:
        """The underlying feature-point tree."""
        return self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, seq_id: int, values: SequenceLike) -> None:
        self._tree.insert_point(_feature_point(values), seq_id)

    def delete(self, seq_id: int, values: SequenceLike) -> None:
        self._tree.delete(_feature_point(values), seq_id)

    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        query_feature = extract_feature(np.asarray(values, dtype=float))
        return self._tree.range_search(feature_rect(query_feature, epsilon))

    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        return self._tree.knn_iter(_feature_point(values))

    def node_stats(self) -> IndexNodeStats:
        return IndexNodeStats(
            nodes=self._tree.node_count(),
            height=self._tree.height,
            size_in_bytes=self._tree.size_in_bytes(),
        )


class RTreeBackend(FeaturePointBackend):
    """Guttman R-tree (the facade's default, exactly the seed behavior).

    Incremental inserts use the configured split heuristic; bulk loads
    STR-repack the whole tree (paper section 4.3.1).
    """

    name = "rtree"

    def __init__(
        self,
        *,
        page_size: int = 1024,
        split: SplitStrategy = SplitStrategy.QUADRATIC,
    ) -> None:
        self._split = split
        super().__init__(page_size=page_size)

    def _make_tree(self) -> RTree:
        return RTree(4, page_size=self._page_size, split=self._split)

    def bulk_load(self, items: Iterable[tuple[int, SequenceLike]]) -> None:
        loader = STRBulkLoader(4, page_size=self._page_size)
        for rect, record in self._tree.items():
            loader.add(rect, record)
        for seq_id, values in items:
            point = _feature_point(values)
            loader.add(Rect._trusted(point, point), seq_id)
        self._tree = loader.build()
        self._tree.stats = self._access

    def save(self, path: str | Path) -> bool:
        assert isinstance(self._tree, RTree)
        save_rtree(self._tree, path)
        return True

    @classmethod
    def load(
        cls, path: str | Path, *, page_size: int = 1024
    ) -> "RTreeBackend":
        backend = cls(page_size=page_size)
        backend._tree = load_rtree(path)
        backend._tree.stats = backend._access
        return backend


class RStarBackend(FeaturePointBackend):
    """R*-tree: overlap-minimizing splits + forced reinsertion."""

    name = "rstar"

    def _make_tree(self) -> RStarTree:
        return RStarTree(4, page_size=self._page_size)

    def save(self, path: str | Path) -> bool:
        assert isinstance(self._tree, RTree)
        save_rtree(self._tree, path)
        return True

    @classmethod
    def load(
        cls, path: str | Path, *, page_size: int = 1024
    ) -> "RStarBackend":
        loaded = load_rtree(path)
        tree = RStarTree(
            4,
            page_size=None,
            min_entries=loaded.min_entries,
            max_entries=loaded.max_entries,
        )
        tree._page_size = loaded.page_size
        tree._adopt(loaded._root, len(loaded))
        backend = cls(page_size=page_size)
        backend._tree = tree
        backend._tree.stats = backend._access
        return backend


class RPlusBackend(FeaturePointBackend):
    """R+-tree: disjoint sibling regions, single-path point descent."""

    name = "rplus"

    def _make_tree(self) -> RPlusTree:
        return RPlusTree(4, page_size=self._page_size)


class XTreeBackend(FeaturePointBackend):
    """X-tree: supernodes instead of high-overlap splits.

    Not persistable: supernodes span several pages and do not fit the
    page-exact R-tree file format, so :meth:`save` declines and the
    engine rebuilds from the data file on load.
    """

    name = "xtree"

    def _make_tree(self) -> XTree:
        return XTree(4, page_size=self._page_size)


class STRBulkBackend(IndexBackend):
    """A *fully packed* R-tree, lazily STR-rebuilt after mutations.

    Where :class:`RTreeBackend` packs only on explicit bulk loads and
    lets incremental inserts degrade occupancy, this backend keeps the
    entire entry set and re-runs the STR pack on the first query after
    any mutation.  Every query therefore runs against a tree at maximal
    page occupancy — fewer nodes, fewer node reads per range query —
    at the cost of O(n log n) repacking per mutation batch.
    """

    name = "strbulk"

    def __init__(self, *, page_size: int = 1024) -> None:
        super().__init__(page_size=page_size)
        self._features: dict[int, tuple[float, ...]] = {}
        self._built: RTree | None = None

    def __len__(self) -> int:
        return len(self._features)

    @property
    def tree(self) -> RTree:
        """The packed R-tree over the current entries."""
        return self._packed()

    def _packed(self) -> RTree:
        if self._built is None:
            loader = STRBulkLoader(4, page_size=self._page_size)
            for seq_id, point in self._features.items():
                loader.add(point, seq_id)
            self._built = loader.build()
            self._built.stats = self._access
        return self._built

    def insert(self, seq_id: int, values: SequenceLike) -> None:
        self._features[seq_id] = _feature_point(values)
        self._built = None

    def delete(self, seq_id: int, values: SequenceLike) -> None:
        if seq_id not in self._features:
            raise EntryNotFoundError(f"record {seq_id} not in index")
        del self._features[seq_id]
        self._built = None

    def bulk_load(self, items: Iterable[tuple[int, SequenceLike]]) -> None:
        for seq_id, values in items:
            self._features[seq_id] = _feature_point(values)
        self._built = None

    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        query_feature = extract_feature(np.asarray(values, dtype=float))
        return self._packed().range_search(feature_rect(query_feature, epsilon))

    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        return self._packed().knn_iter(_feature_point(values))

    def node_stats(self) -> IndexNodeStats:
        tree = self._packed()
        return IndexNodeStats(
            nodes=tree.node_count(),
            height=tree.height,
            size_in_bytes=tree.size_in_bytes(),
        )

    def save(self, path: str | Path) -> bool:
        save_rtree(self._packed(), path)
        return True

    @classmethod
    def load(
        cls, path: str | Path, *, page_size: int = 1024
    ) -> "STRBulkBackend":
        backend = cls(page_size=page_size)
        tree = load_rtree(path)
        backend._features = {
            record: rect.lows for rect, record in tree.items()
        }
        backend._built = tree
        backend._built.stats = backend._access
        return backend


class SuffixTreeBackend(IndexBackend):
    """Categorizer + generalized suffix tree (the ST-Filter substrate).

    Candidates come from the pruned time-warping DP over the
    categorized tree — still a superset of the true answers (the
    categorized bound underestimates ``D_tw``), so the backend is
    exact.  The categorizer and tree are rebuilt lazily after
    mutations, since category boundaries depend on the global value
    range.
    """

    name = "suffixtree"

    def __init__(
        self,
        *,
        page_size: int = 1024,
        n_categories: int = 100,
        strategy: str = "equal-width",
    ) -> None:
        super().__init__(page_size=page_size)
        self._n_categories = n_categories
        self._strategy = strategy
        self._values: dict[int, np.ndarray] = {}
        self._categorizer: Categorizer | None = None
        self._built: GeneralizedSuffixTree | None = None
        self._position_ids: list[int] = []

    def __len__(self) -> int:
        return len(self._values)

    @property
    def n_categories(self) -> int:
        """Number of categorization intervals."""
        return self._n_categories

    @property
    def tree(self) -> GeneralizedSuffixTree:
        """The built suffix tree over the current contents."""
        self._ensure_built()
        if self._built is None:
            raise ValidationError("suffix tree backend holds no sequences")
        return self._built

    @property
    def categorizer(self) -> Categorizer:
        """The fitted categorizer over the current contents."""
        self._ensure_built()
        if self._categorizer is None:
            raise ValidationError("suffix tree backend holds no sequences")
        return self._categorizer

    @property
    def position_ids(self) -> list[int]:
        """Sequence ids by suffix-tree position index."""
        self._ensure_built()
        return list(self._position_ids)

    def _ensure_built(self) -> None:
        if self._built is not None or not self._values:
            return
        categorizer = Categorizer(
            self._n_categories, strategy=self._strategy
        ).fit(self._values.values())
        self._position_ids = list(self._values.keys())
        categorized = [
            categorizer.transform(values) for values in self._values.values()
        ]
        self._built = GeneralizedSuffixTree(categorized)
        self._categorizer = categorizer

    def insert(self, seq_id: int, values: SequenceLike) -> None:
        # A copy of its own: the caller may still write to its array.
        self._values[seq_id] = np.array(values, dtype=float)
        self._built = None

    def delete(self, seq_id: int, values: SequenceLike) -> None:
        if seq_id not in self._values:
            raise EntryNotFoundError(f"record {seq_id} not in index")
        del self._values[seq_id]
        self._built = None

    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        if not self._values:
            return []
        self._ensure_built()
        assert self._built is not None and self._categorizer is not None
        traversal = WarpingTraversal(
            self._built, self._categorizer, stats=self._access
        )
        query = np.asarray(values, dtype=float)
        positions = traversal.whole_match_candidates(query, epsilon)
        return [self._position_ids[position] for position in positions]

    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        pairs = [
            (seq_id, _feature_point(stored))
            for seq_id, stored in self._values.items()
        ]
        return _knn_from_features(pairs, values)

    def node_stats(self) -> IndexNodeStats:
        if not self._values:
            return IndexNodeStats(nodes=0, height=0, size_in_bytes=0)
        self._ensure_built()
        assert self._built is not None
        nodes = self._built.node_count()
        return IndexNodeStats(
            nodes=nodes,
            height=0,
            size_in_bytes=nodes * _SUFFIX_NODE_BYTES,
        )


class FastMapBackend(IndexBackend):
    """FastMap embedding + STR-packed image R-tree (``exact = False``).

    ``D_tw`` is not a metric, so the embedding is not contractive and a
    qualifying sequence's image can land outside the query ball: range
    searches may **falsely dismiss**.  Kept behind the protocol so the
    deficiency is measurable; :meth:`knn_iter` deliberately falls back
    to true feature lower bounds so kNN remains exact even here.
    """

    name = "fastmap"
    exact = False

    def __init__(
        self, *, page_size: int = 1024, k: int = 4, seed: int = 0
    ) -> None:
        super().__init__(page_size=page_size)
        self._k = k
        self._seed = seed
        self._values: dict[int, np.ndarray] = {}
        self._fastmap: FastMap | None = None
        self._built: RTree | None = None

    def __len__(self) -> int:
        return len(self._values)

    @property
    def k(self) -> int:
        """Embedding dimensionality."""
        return self._k

    @property
    def tree(self) -> RTree:
        """The image-space R-tree over the current contents."""
        self._ensure_built()
        if self._built is None:
            raise ValidationError("FastMap backend holds no sequences")
        return self._built

    def _ensure_built(self) -> None:
        # FastMap needs >= 2 objects to choose pivots; below that the
        # backend stays unbuilt and range_search degenerates to "all".
        if self._built is not None or len(self._values) < 2:
            return
        arrays = list(self._values.values())
        fastmap = FastMap(
            lambda a, b: dtw_max(a, b), self._k, seed=self._seed
        )
        coords = fastmap.fit(arrays)
        loader = STRBulkLoader(self._k, page_size=self._page_size)
        for point, seq_id in zip(coords, self._values.keys()):
            loader.add(tuple(float(v) for v in point), seq_id)
        self._built = loader.build()
        self._built.stats = self._access
        self._fastmap = fastmap

    def insert(self, seq_id: int, values: SequenceLike) -> None:
        # A copy of its own: the caller may still write to its array.
        self._values[seq_id] = np.array(values, dtype=float)
        self._built = None

    def delete(self, seq_id: int, values: SequenceLike) -> None:
        if seq_id not in self._values:
            raise EntryNotFoundError(f"record {seq_id} not in index")
        del self._values[seq_id]
        self._built = None

    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        if not self._values:
            return []
        self._ensure_built()
        if self._built is None or self._fastmap is None:
            return sorted(self._values)
        point = self._fastmap.project(np.asarray(values, dtype=float))
        rect = Rect.from_intervals(
            (float(c) - epsilon, float(c) + epsilon) for c in point
        )
        return self._built.range_search(rect)

    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        pairs = [
            (seq_id, _feature_point(stored))
            for seq_id, stored in self._values.items()
        ]
        return _knn_from_features(pairs, values)

    def node_stats(self) -> IndexNodeStats:
        self._ensure_built()
        if self._built is None:
            return IndexNodeStats(nodes=0, height=0, size_in_bytes=0)
        return IndexNodeStats(
            nodes=self._built.node_count(),
            height=self._built.height,
            size_in_bytes=self._built.size_in_bytes(),
        )


class LinearBackend(IndexBackend):
    """No index at all: a brute-force sweep over stored feature points.

    The fallback (and the baseline any real index must beat): a range
    search compares every stored feature against the query feature with
    the same inclusive ``D_tw-lb`` cutoff the R-tree rectangle encodes,
    so the candidate set is identical to the R-tree family's.  I/O is
    charged as a sequential sweep of packed feature entries.
    """

    name = "linear"

    def __init__(self, *, page_size: int = 1024) -> None:
        super().__init__(page_size=page_size)
        self._features: dict[int, tuple[float, ...]] = {}

    def __len__(self) -> int:
        return len(self._features)

    def _charge_sweep(self) -> None:
        per_page = max(1, self._page_size // _LINEAR_ENTRY_BYTES)
        pages = -(-len(self._features) // per_page)
        for _ in range(pages):
            self._access.record_node(is_leaf=True, entries=per_page)

    def insert(self, seq_id: int, values: SequenceLike) -> None:
        self._features[seq_id] = _feature_point(values)

    def delete(self, seq_id: int, values: SequenceLike) -> None:
        if seq_id not in self._features:
            raise EntryNotFoundError(f"record {seq_id} not in index")
        del self._features[seq_id]

    def range_search(self, values: SequenceLike, epsilon: float) -> list[int]:
        self._charge_sweep()
        if not self._features:
            return []
        ids = list(self._features.keys())
        feats = np.array([self._features[i] for i in ids], dtype=float)
        q = np.asarray(_feature_point(values), dtype=float)
        cutoff = epsilon + filter_margin(q, epsilon)
        mask = np.all(np.abs(feats - q) <= cutoff, axis=1)
        return [seq_id for seq_id, keep in zip(ids, mask) if keep]

    def knn_iter(self, values: SequenceLike) -> Iterator[tuple[float, int]]:
        self._charge_sweep()
        return _knn_from_features(self._features.items(), values)

    def node_stats(self) -> IndexNodeStats:
        size = len(self._features) * _LINEAR_ENTRY_BYTES
        per_page = max(1, self._page_size // _LINEAR_ENTRY_BYTES)
        pages = -(-len(self._features) // per_page)
        return IndexNodeStats(nodes=pages, height=1, size_in_bytes=size)

    def save(self, path: str | Path) -> bool:
        payload = {
            str(seq_id): list(point)
            for seq_id, point in self._features.items()
        }
        Path(path).write_text(json.dumps(payload))
        return True

    @classmethod
    def load(
        cls, path: str | Path, *, page_size: int = 1024
    ) -> "LinearBackend":
        backend = cls(page_size=page_size)
        raw = json.loads(Path(path).read_text())
        backend._features = {
            int(seq_id): tuple(float(v) for v in point)
            for seq_id, point in raw.items()
        }
        return backend


#: Registry of every available backend, keyed by name.
BACKENDS: dict[str, type[IndexBackend]] = {
    RTreeBackend.name: RTreeBackend,
    RStarBackend.name: RStarBackend,
    RPlusBackend.name: RPlusBackend,
    XTreeBackend.name: XTreeBackend,
    STRBulkBackend.name: STRBulkBackend,
    SuffixTreeBackend.name: SuffixTreeBackend,
    FastMapBackend.name: FastMapBackend,
    LinearBackend.name: LinearBackend,
}

#: Every registered backend name, registration order.
BACKEND_NAMES: tuple[str, ...] = tuple(BACKENDS)

#: Backends whose candidate sets provably contain every true answer.
EXACT_BACKEND_NAMES: tuple[str, ...] = tuple(
    name for name, backend in BACKENDS.items() if backend.exact
)


def make_backend(
    name: str, *, page_size: int = 1024, **options: object
) -> IndexBackend:
    """Construct a registered backend by name.

    Extra keyword *options* are forwarded to the backend constructor
    (e.g. ``split=`` for ``rtree``, ``n_categories=`` for
    ``suffixtree``, ``k=``/``seed=`` for ``fastmap``).
    """
    if name not in BACKENDS:
        raise ValidationError(
            f"unknown index backend {name!r}; available: {BACKEND_NAMES}"
        )
    return BACKENDS[name](page_size=page_size, **options)  # type: ignore[arg-type]
