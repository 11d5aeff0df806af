"""The benchmark's workloads: fixed data sets and seeded closed-loop op streams.

Each workload's data set (and the query that ends its set-up) is fixed
by the workload, like a standard benchmark data set; the ``--seed``
argument selects the operation stream (``SeedSequence([seed, 1])``).
Queries follow the paper's section 5.1 generator: a stored sequence
perturbed element-wise by ``U[-std/2, +std/2]``.

The cost of a query depends mostly on how crowded its base sequence's
neighbourhood is, so a run of a few hundred uniformly drawn queries
would measure the seed as much as the program.  Bases are therefore
drawn by stratified sampling: the data set is split into ``strata``
equal groups ordered by neighbour count, and every ``strata`` queries
of one kind and parameter (a range at one epsilon, say) draw one base
from each group, in a random order.
Every base still has the same chance of being drawn.  Op kinds follow
a fixed cycle, so every run issues the same mix in the same order.

Writes insert sequences from a separate pool and delete only sequences
the stream inserted, so the queried data set stays the same while every
write still invalidates the cascade's feature store.  Ids are
predictable (bulk load assigns ``0..n-1``, every insert the next id),
so the stream names delete targets without asking the database.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.data import perturb_sequence, random_walk_dataset, synthetic_sp500


@dataclass(frozen=True)
class Op:
    """One client request.  ``kind`` is range, knn, batch, insert or delete."""

    kind: str
    query: np.ndarray | None = None
    epsilon: float = 0.0
    k: int = 0
    queries: tuple[np.ndarray, ...] = ()
    target: int = -1

    @property
    def op_class(self) -> str:
        """Latency class: range, knn, batch or write."""
        return "write" if self.kind in ("insert", "delete") else self.kind


@dataclass(frozen=True)
class Workload:
    """A data set plus a cycle of operations over it.

    ``cycle`` rows are ``(kind, parameter)`` where the parameter is
    epsilon for range/batch and k for knn; the stream repeats them in
    order.  ``setup_s`` is the median of ``setups`` set-ups per run;
    the quick set-ups of the small data sets take many.  ``warmup_ops`` operations
    run untimed after the last set-up.  The traced run measures
    ``trace_rate`` operations per second of the run length, a fixed
    count so that its work counters repeat exactly.
    """

    name: str
    why: str
    make_data: Callable[[], tuple[list[np.ndarray], list[np.ndarray]]]
    cycle: tuple[tuple[str, float], ...]
    shards: int = 1
    strata: int = 16
    setups: int = 31
    warmup_ops: int = 3
    trace_rate: float = 7.0
    batch_size: int = 8

    def setup_query(self, data: list[np.ndarray]) -> Op:
        """The first query of every set-up (it builds the cascade's store)."""
        rng = np.random.default_rng(DATA_SEED)
        epsilon = next(param for kind, param in self.cycle if kind == "range")
        base = data[int(rng.integers(len(data)))]
        return Op("range", query=perturb_sequence(base, rng=rng).values, epsilon=epsilon)

    def ops(self, seed: int, data: list[np.ndarray], pool: list[np.ndarray]) -> Iterator[Op]:
        """The endless, deterministic operation stream for *seed*."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        strata = self._strata(data)
        pending: dict[tuple[str, float], list[int]] = {row: [] for row in self.cycle}
        inserted: list[int] = []
        next_id = len(data)

        def query(row: tuple[str, float]) -> np.ndarray:
            if not pending[row]:
                pending[row].extend(int(i) for i in rng.permutation(len(strata)))
            members = strata[pending[row].pop()]
            base = data[int(members[rng.integers(len(members))])]
            return perturb_sequence(base, rng=rng).values

        for row in itertools.cycle(self.cycle):
            kind, param = row
            if kind == "range":
                yield Op("range", query=query(row), epsilon=param)
            elif kind == "knn":
                yield Op("knn", query=query(row), k=int(param))
            elif kind == "batch":
                batch = tuple(query(row) for _ in range(self.batch_size))
                yield Op("batch", queries=batch, epsilon=param)
            elif kind == "insert" or not inserted:
                new = pool[(next_id - len(data)) % len(pool)]
                inserted.append(next_id)
                next_id += 1
                yield Op("insert", query=new)
            else:
                yield Op("delete", target=inserted.pop(int(rng.integers(len(inserted)))))

    def _strata(self, data: list[np.ndarray]) -> list[np.ndarray]:
        """Data rows in ``strata`` equal groups of rising neighbour count.

        A row's neighbours are the rows within the largest range
        epsilon of it under the LB_Kim feature distance.
        """
        rows = np.arange(len(data))
        if self.strata == 1:
            return [rows]
        epsilon = max(param for kind, param in self.cycle if kind == "range")
        features = np.array([(v[0], v[-1], v.max(), v.min()) for v in data])
        counts = np.concatenate(
            [
                (np.abs(features[lo : lo + 32, None, :] - features[None, :, :]).max(axis=2) <= epsilon).sum(axis=1)
                for lo in range(0, len(data), 32)
            ]
        )
        return np.array_split(rows[np.argsort(counts, kind="stable")], self.strata)


#: Seed of every workload's data set and set-up query.
DATA_SEED = 20010402


def _random_walks(n: int, length: int) -> Callable[[], tuple[list[np.ndarray], list[np.ndarray]]]:
    def make() -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [s.values for s in random_walk_dataset(n, length, seed=DATA_SEED)], []

    return make


def _stocks(n: int, length: int, pool: int) -> Callable[[], tuple[list[np.ndarray], list[np.ndarray]]]:
    def make() -> tuple[list[np.ndarray], list[np.ndarray]]:
        seqs = [s.values for s in synthetic_sp500(n + pool, length, seed=DATA_SEED).sequences]
        return seqs[:n], seqs[n:]

    return make


_R, _WIDE, _KNN, _BATCH = ("range", 0.1), ("range", 1.0), ("knn", 5), ("batch", 0.3)
_INSERT, _DELETE = ("insert", 0), ("delete", 0)

#: 40 ops: 21 ranges at eps 0.1, 4 at eps 1.0, 6 kNN, 3 batches, 3
#: inserts, 3 deletes.  Every write is followed by an eps-0.1 range,
#: which rebuilds the feature store, so a fixed 6 of every 25 ranges
#: pay the rebuild: ``range_p90_ms`` lies inside the rebuilds and
#: ``range_p50_ms`` inside the cheap ranges, away from either edge.
_MIXED_CYCLE = (
    *(_INSERT, _R, _R, _KNN, _WIDE, _R, _BATCH, _R, _DELETE, _R, _R, _KNN, _R) * 3,
    _WIDE,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="selective",
            why=(
                "20k random walks of length 128, range eps=0.05 (~0.4 candidates): "
                "index probe and fixed per-query costs such as the store stale check dominate; DTW idles"
            ),
            make_data=_random_walks(20_000, 128),
            cycle=(("range", 0.05),),
            strata=1,
            setups=5,
            warmup_ops=40,
            trace_rate=200.0,
        ),
        Workload(
            name="verify_heavy",
            why=(
                "500 random walks of length 64, range eps=0.3 (~9 candidates, ~7 answers): "
                "over 90% of a query is exact L-inf DTW verification"
            ),
            make_data=_random_walks(500, 64),
            cycle=(("range", 0.3),),
        ),
        Workload(
            name="mixed",
            why=(
                "3k S&P-500 stand-ins of varying length: ranges at eps 0.1 and 1.0, kNN k=5, batches of 8 at 0.3, "
                "15% inserts/deletes; only workload with writes, kNN and batches"
            ),
            make_data=_stocks(3_000, 64, 1_000),
            cycle=_MIXED_CYCLE,
            setups=19,
            warmup_ops=10,
            trace_rate=10.0,
        ),
        Workload(
            name="sharded",
            why=(
                "verify_heavy's data and queries on 2 shards with the thread executor: "
                "only workload where fan-out, pool waiting and merge do work"
            ),
            make_data=_random_walks(500, 64),
            cycle=(("range", 0.3),),
            shards=2,
            trace_rate=6.0,
        ),
    )
}
