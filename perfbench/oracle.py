"""Brute-force correctness oracle, independent of the program's search path.

The model keeps every live sequence in a plain dict and applies the same
writes as the database.  A range query filters all live sequences with
the paper's LB_Kim features (first, last, greatest, smallest) and checks
the survivors with the full-matrix :func:`~repro.distance.dtw.dtw_max_matrix`,
a different code path from the reachability verifier the engine uses.
Every read is checked with the default kernel's matrix fill; an evenly
spaced sample is checked under the per-cell ``reference`` kernel instead,
so a fault in the vectorized fill cannot hide either.  LB_Kim never exceeds the
Definition-2 distance even in floating point (each of its four terms is
a rounded difference the warping path itself must pay), so the filter
needs no safety margin.  kNN walks the sequences in ascending LB_Kim
order and stops once the bound passes the k-th best distance.

Answers compare as ``(id, distance)`` lists, distances bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

import numpy as np

from repro.distance.dtw import dtw_max_matrix
from repro.distance.kernels.registry import use_kernel

from workloads import Op

Result = list[tuple[int, float]]


def _features(values: np.ndarray) -> tuple[float, float, float, float]:
    return (float(values[0]), float(values[-1]), float(values.max()), float(values.min()))


class BruteForceModel:
    """Live sequences by id, with a lazily rebuilt feature matrix."""

    def __init__(self, data: list[np.ndarray]) -> None:
        self.values = dict(enumerate(data))
        self.next_id = len(data)
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    def insert(self, values: np.ndarray) -> int:
        seq_id = self.next_id
        self.values[seq_id] = values
        self.next_id += 1
        self._index = None
        return seq_id

    def delete(self, seq_id: int) -> None:
        del self.values[seq_id]
        self._index = None

    def _lower_bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            ids = np.fromiter(self.values, dtype=np.int64, count=len(self.values))
            # One contiguous row per feature, so the bound is 4 row maxima.
            features = np.array([_features(self.values[int(i)]) for i in ids]).T.copy()
            self._index = ids, features
        ids, features = self._index
        return ids, np.abs(features - np.array(_features(query))[:, None]).max(axis=0)

    def _distance(self, seq_id: int, query: np.ndarray) -> float:
        return dtw_max_matrix(self.values[seq_id], query).distance

    def range(self, query: np.ndarray, epsilon: float) -> Result:
        ids, bounds = self._lower_bounds(query)
        found = []
        for seq_id in ids[bounds <= epsilon]:
            distance = self._distance(int(seq_id), query)
            if distance <= epsilon:
                found.append((distance, int(seq_id)))
        return [(seq_id, distance) for distance, seq_id in sorted(found)]

    def knn(self, query: np.ndarray, k: int) -> Result:
        ids, bounds = self._lower_bounds(query)
        best: list[tuple[float, int]] = []
        for row in np.lexsort((ids, bounds)):
            if len(best) >= k and bounds[row] > best[k - 1][0]:
                break
            best.append((self._distance(int(ids[row]), query), int(ids[row])))
            best.sort()
            del best[k:]
        return [(seq_id, distance) for distance, seq_id in best]


def _stride(count: int, cap: int) -> int:
    return max(1, -(-count // cap))


def replay(
    data: list[np.ndarray],
    log: list[tuple[Op, Any, str | None]],
    caps: dict[str, int],
) -> tuple[int, list[str], dict[str, int]]:
    """Check every op of a run's log against the model.

    Writes are applied to the model and inserts must return the model's
    next id.  Per read class, an evenly spaced sample of at most
    ``caps[op_class]`` ops is checked under the reference kernel.
    Returns ``(failed ops, first messages, reads checked under the
    reference kernel per class)``; an op that raised during the run
    counts as failed.
    """
    model = BruteForceModel(data)
    totals: dict[str, int] = {}
    for op, _, _ in log:
        totals[op.op_class] = totals.get(op.op_class, 0) + 1
    seen = {name: 0 for name in totals}
    on_reference = {name: 0 for name in totals if name != "write"}
    failed = 0
    messages: list[str] = []
    for index, (op, got, error) in enumerate(log):
        position = seen[op.op_class]
        seen[op.op_class] += 1
        expected: Any = None
        if error is not None:
            pass  # a failed write is not applied to the model either
        elif op.kind == "insert":
            expected = model.insert(op.query)
        elif op.kind == "delete":
            model.delete(op.target)
        else:
            sampled = position % _stride(totals[op.op_class], caps[op.op_class]) == 0
            on_reference[op.op_class] += sampled
            with use_kernel("reference") if sampled else nullcontext():
                if op.kind == "range":
                    expected = model.range(op.query, op.epsilon)
                elif op.kind == "knn":
                    expected = model.knn(op.query, op.k)
                else:
                    expected = [model.range(q, op.epsilon) for q in op.queries]
        if error is not None or got != expected:
            failed += 1
            if len(messages) < 5:
                detail = error or f"got {_show(got)}, expected {_show(expected)}"
                messages.append(f"op {index} ({op.kind}): {detail}")
    return failed, messages, on_reference


def _show(value: Any) -> str:
    text = repr(value)
    return text if len(text) < 300 else text[:300] + "..."
