"""End-to-end benchmark of ``TimeWarpingDatabase`` on the default configuration.

Usage (from the repository root)::

    python3 perfbench/run.py --workload selective --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 1

Each workload is one closed-loop client in one process: it sends the
next operation only after the previous one returned (see
``workloads.py``; ``predictions.json`` records which layer should move
which end-to-end metric on which workload).  ``--trace 0``
measures the end-to-end metrics with tracing off: the median of several
set-ups (``bulk_load`` plus the first query, which builds the cascade's
feature store), then ``--seconds`` of operations on the last set-up,
extended until at least 100 range ops completed.  A fixed reference
kernel is timed between operations and around every set-up, and the
gated times are scaled to reference host speed (``hostspeed.py``), so
that a run that lands in a slow spell of the shared host does not read
as a slower program; the raw times are printed beside them.
``--trace 1`` builds two identical databases and sends a fixed number
of operations from the seeded stream to both, one untraced and one with
spans around every layer boundary (see ``tracer.py``); it reports
per-layer self time and work-counter deltas over those operations, and
the traced set-up's bulk load and store build apart.

Afterwards, untimed, the op log is replayed against a brute-force model
(``oracle.py``); a wrong answer or an exception counts as a failed op.
The work counters must repeat exactly: across the set-ups of a run,
between the traced and untraced databases, and against earlier runs of
the same code and seed (recorded under ``perfbench/out``) after the
warm-up and after the traced operations.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Environment knobs that would change what is measured.
PINNED_ENV = ("REPRO_EXECUTOR", "REPRO_STORE", "REPRO_DTW_KERNEL")

#: Most reads per class the oracle checks under the reference kernel.
ORACLE_CAPS = {"range": 60, "knn": 10, "batch": 10}

#: A ``*_p90_ms`` metric needs this many samples (ten beyond the p90).
MIN_P90_SAMPLES = 100

#: Ops per block in the traced run: each block runs untraced, then traced.
TRACE_BLOCK = 8

#: Host speed samples taken right before and right after every set-up.
SETUP_SPEED_SAMPLES = 3

#: Work counters that must repeat exactly for one seed.
EXACT_COUNTERS = ("index.", "cascade.", "dtw.cells", "storage.", "engine.")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "range_p50_ms": "ms",
    "range_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (the ``--trace 1`` result): sums over the traced
#: operations, except ``index.bulk_load.self_s`` and ``setup.*``, which
#: cover the traced set-up (``bulk_load`` plus the first query).
PER_LAYER = {
    "index.range_search.self_s": "s",
    "index.bulk_load.self_s": "s",
    "index.node_reads": "count",
    "index.candidates": "count",
    "index.precision": "ratio",
    "cascade.filter.self_s": "s",
    "cascade.stale_check.self_s": "s",
    "cascade.rows_for.self_s": "s",
    "cascade.store_build.self_s": "s",
    "cascade.store_builds": "count",
    "setup.cascade.store_build.self_s": "s",
    "dtw.verify.self_s": "s",
    "dtw.calls": "count",
    "dtw.cells": "count",
    "dtw.early_abandons": "count",
    "dtw.accept_ratio": "ratio",
    "storage.fetch.self_s": "s",
    "storage.write.self_s": "s",
    "storage.scan.self_s": "s",
    "storage.ids.self_s": "s",
    "storage.random_pages": "count",
    "storage.fetches": "count",
    "engine.self_s": "s",
    "sharding.self_s": "s",
    "exec.run.self_s": "s",
    "obs.self_s": "s",
    "trace.overhead_frac": "ratio",
    "unaccounted_s": "s",
}

#: Reported in the tables and result files only: zero or undefined on
#: the workloads that never issue the call.
LAYER_EXTRAS = {
    "index.knn_iter.self_s": "s",
    "index.write.self_s": "s",
    "cascade.run_many.self_s": "s",
    "cascade.lb_yi.pruned": "count",
    "cascade.lb_kim.pruned": "count",
    "cascade.prune_ratio": "ratio",
    "setup.storage.self_s": "s",
}
E2E_EXTRAS = {
    "knn_p50_ms": "ms",
    "knn_p90_ms": "ms",
    "batch_p50_ms": "ms",
    "write_p50_ms": "ms",
    "error_rate": "ratio",
    "raw.setup_s": "s",
    "raw.ops_per_s": "1/s",
    "raw.range_p50_ms": "ms",
    "raw.range_p90_ms": "ms",
    "host.kernel_ms": "ms",
}


def load_program() -> Any:
    """Pin the default configuration, then import the program from ``src``."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    return repro


# -- running operations ---------------------------------------------------------


def execute(db: Any, op: Any) -> Any:
    """Issue *op*; return its answer as plain ``(id, distance)`` data."""
    if op.kind == "range":
        return [(m.seq_id, m.distance) for m in db.search(op.query, op.epsilon)]
    if op.kind == "knn":
        return [(m.seq_id, m.distance) for m in db.knn(op.query, op.k)]
    if op.kind == "batch":
        return [[(m.seq_id, m.distance) for m in found] for found in db.search_many(op.queries, op.epsilon)]
    if op.kind == "insert":
        return db.insert(op.query)
    db.delete(op.target)
    return None


def run_ops(
    db: Any,
    ops: Iterator[Any] | Iterable[Any],
    log: list[tuple[Any, Any, str | None]],
    *,
    seconds: float | None = None,
    min_ranges: int = 0,
    count: int | None = None,
    tracer: Any = None,
    speed: HostSpeed | None = None,
) -> tuple[list[tuple[str, float, float]], float]:
    """Closed loop: run *ops* until *count* ran, or *seconds* passed and at
    least *min_ranges* range ops completed (or until *ops* end).

    Appends ``(op, answer, error)`` to *log*; returns per-op
    ``(class, start, seconds)`` latencies and the loop's wall time.
    With *speed*, samples the host's speed between operations.
    """
    ops = iter(ops)
    latencies: list[tuple[str, float, float]] = []
    ranges = 0
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    while (time.perf_counter() < deadline or ranges < min_ranges) and (count is None or len(latencies) < count):
        if speed is not None:
            speed.tick()
        op = next(ops, None)
        if op is None:
            break
        error = None
        t0 = time.perf_counter()
        try:
            answer = execute(db, op) if tracer is None else tracer.operation(execute, db, op)
        except Exception:  # any failure is a failed op, never a crash
            answer, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        latencies.append((op.op_class, t0, time.perf_counter() - t0))
        log.append((op, answer, error))
        ranges += op.kind == "range"
    return latencies, time.perf_counter() - start


def set_up(repro: Any, workload: Any, data: list[Any], log: list[Any], tracer: Any = None) -> tuple[Any, float]:
    """Build a database: ``bulk_load`` plus the first query.  Returns it and the seconds taken."""
    first = workload.setup_query(data)
    t0 = time.perf_counter()
    db = repro.TimeWarpingDatabase(shards=workload.shards)
    if tracer is None:
        db.bulk_load(data)
        run_ops(db, [first], log)
    else:
        with tracer.active(db):
            tracer.operation(db.bulk_load, data)
            run_ops(db, [first], log, tracer=tracer)
    return db, time.perf_counter() - t0


def exact_counters(db: Any) -> dict[str, float]:
    snapshot = db.metrics_snapshot()
    return {name: value for name, value in sorted(snapshot.counters.items()) if name.startswith(EXACT_COUNTERS)}


def fingerprint(counters: dict[str, float]) -> str:
    text = json.dumps({k: float(v).hex() for k, v in counters.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile_ms(latencies: list[tuple[str, float, float]], op_class: str, q: float) -> float:
    return float(np.percentile([s for c, _, s in latencies if c == op_class], q)) * 1e3


def check_history(key: str, mark: str) -> bool:
    """Compare *mark* with the one an earlier run of the same code and *key* recorded."""
    code = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        code.update(path.read_bytes())
    path = OUT / f"counters-{key}-{code.hexdigest()[:12]}.txt"
    if path.exists():
        return path.read_text().strip() == mark
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(mark + "\n")
    return True


# -- the two run modes -----------------------------------------------------------


def end_to_end(repro: Any, workload: Any, seed: int, seconds: float) -> dict[str, Any]:
    """Median set-up time, then *seconds* of closed-loop operations.

    Every time is measured raw and scaled to reference host speed (see
    ``hostspeed.py``); the gated metrics are the scaled ones.
    """
    from oracle import replay

    data, pool = workload.make_data()
    speed = HostSpeed()
    setup_times: list[float] = []
    setup_samples: list[tuple[float, float]] = []
    marks: list[str] = []
    spare_logs: list[list[tuple[Any, Any, str | None]]] = []

    def timed_set_up(log: list[tuple[Any, Any, str | None]]) -> tuple[Any, float, float]:
        """Set up; returns the database and its raw and scaled set-up time."""
        speed.sample(SETUP_SPEED_SAMPLES)
        db, elapsed = set_up(repro, workload, data, log)
        end = time.perf_counter()
        speed.sample(SETUP_SPEED_SAMPLES)
        setup_times.append(elapsed)
        marks.append(fingerprint(exact_counters(db)))
        return db, elapsed, elapsed * speed.scale(end - elapsed, end)

    def sample_set_ups(count: int) -> None:
        for _ in range(count):
            spare_logs.append([])
            spare, raw, scaled = timed_set_up(spare_logs[-1])
            spare.close()
            del spare
            gc.collect()
            setup_samples.append((raw, scaled))

    # Host speed drifts over seconds to minutes, so half the samples run
    # after the measured phase: their median spans the run.
    sample_set_ups(workload.setups // 2)
    log: list[tuple[Any, Any, str | None]] = []
    db, *_ = timed_set_up(log)
    stream = workload.ops(seed, data, pool)
    run_ops(db, stream, log, count=workload.warmup_ops)
    warm_mark = fingerprint(exact_counters(db))
    measured_from = len(log)
    gc.collect()
    speed.sample()
    latencies, wall = run_ops(
        db, stream, log, seconds=seconds, min_ranges=MIN_P90_SAMPLES, speed=speed
    )
    speed.sample()
    scaled = [(cls, t0, secs * speed.scale(t0, t0 + secs)) for cls, t0, secs in latencies]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    config = describe(db)
    db.close()
    del db
    gc.collect()
    sample_set_ups(workload.setups - workload.setups // 2)
    failed, messages, checked = replay(data, log, ORACLE_CAPS)
    # Every set-up's first query must answer as the oracle-checked one did.
    failed += sum(spare[0][1:] != log[0][1:] for spare in spare_logs)
    attempted = len(log) + len(spare_logs)
    classes = {cls for cls, _, _ in latencies}
    metrics = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        # Closed loop, one client: throughput is the inverse of the mean op time.
        "ops_per_s": len(scaled) / sum(s for _, _, s in scaled),
        "range_p50_ms": percentile_ms(scaled, "range", 50),
        "range_p90_ms": percentile_ms(scaled, "range", 90),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {cls: sum(1 for c, _, _ in latencies if c == cls) for cls in sorted(classes)}
    extras = {
        name: percentile_ms(scaled, name.split("_")[0], q)
        for name, q in (("knn_p50_ms", 50), ("knn_p90_ms", 90), ("batch_p50_ms", 50), ("write_p50_ms", 50))
        if samples.get(name.split("_")[0], 0) >= (MIN_P90_SAMPLES if q == 90 else 1)
    }
    extras["error_rate"] = failed / attempted
    extras.update(
        {
            "raw.setup_s": statistics.median(r for r, _ in setup_samples),
            "raw.ops_per_s": len(latencies) / wall,
            "raw.range_p50_ms": percentile_ms(latencies, "range", 50),
            "raw.range_p90_ms": percentile_ms(latencies, "range", 90),
            "host.kernel_ms": speed.kernel_ms(),
        }
    )
    return {
        "metrics": metrics,
        "extras": extras,
        "units": {**END_TO_END, **E2E_EXTRAS},
        "samples": samples,
        "setup_times_s": setup_times,
        "attempted": attempted,
        "measured_ops": len(log) - measured_from,
        "failed": failed,
        "messages": messages,
        "oracle_checked": checked,
        "marks": marks,
        "history": {"warm": warm_mark},
        "config": config,
    }


def traced(repro: Any, workload: Any, seed: int, seconds: float) -> dict[str, Any]:
    """Two identical databases take the same operations, one traced.

    After the set-up and the warm-up, a fixed number of operations from
    the seeded stream (``workload.trace_rate`` per second of *seconds*)
    run in blocks of :data:`TRACE_BLOCK`, each block first untraced,
    then traced (the patches are not swapped around every call).  The
    per-layer figures are sums over these operations alone; the traced
    set-up is reported apart as ``setup.*``.  The tracing overhead is
    the median over operations of traced ÷ untraced time, so drifts in
    machine speed largely cancel.  The two databases must end with
    identical answers and work counters.
    """
    from oracle import replay
    from tracer import Tracer

    data, pool = workload.make_data()
    stream = workload.ops(seed, data, pool)
    tracer = Tracer()
    log_u: list[tuple[Any, Any, str | None]] = []
    log: list[tuple[Any, Any, str | None]] = []
    plain_db, _ = set_up(repro, workload, data, log_u)
    db, _ = set_up(repro, workload, data, log, tracer)
    setup_ops = tracer.op_id

    def traced_block(ops: list[Any]) -> list[tuple[str, float]]:
        with tracer.active(db):
            return run_ops(db, ops, log, tracer=tracer)[0]

    warmup = list(itertools.islice(stream, workload.warmup_ops))
    run_ops(plain_db, warmup, log_u)
    traced_block(warmup)
    marks = [fingerprint(exact_counters(plain_db)), fingerprint(exact_counters(db))]
    measured_from, log_from, accepted_from = tracer.op_id, len(log), tracer.accepted
    before = dict(db.metrics_snapshot().counters)
    count = max(1, round(workload.trace_rate * seconds))
    plain: list[tuple[str, float, float]] = []
    spanned: list[tuple[str, float, float]] = []
    while len(spanned) < count:
        block = list(itertools.islice(stream, min(TRACE_BLOCK, count - len(spanned))))
        plain += run_ops(plain_db, block, log_u)[0]
        spanned += traced_block(block)
    after = db.metrics_snapshot().counters
    counters, plain_counters = exact_counters(db), exact_counters(plain_db)
    config = describe(db)
    db.close()
    plain_db.close()
    same_answers = [a for _, a, _ in log] == [a for _, a, _ in log_u]
    failed, messages, checked = replay(data, log, ORACLE_CAPS)
    if not same_answers:
        messages.append("traced and untraced runs answered differently")
    self_s, calls, root_s = tracer.layer_times(first_op=measured_from)
    setup_s = tracer.layer_times(last_op=setup_ops)[0]
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    def c(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    backend = config["backend"]
    candidates = c(f"cascade.{backend}.out")
    # Only range ops probe the index; batches scan the LB_Yi tier.
    range_answers = sum(len(a) for op, a, e in log[log_from:] if op.kind == "range" and e is None)
    verify_calls = calls.get("dtw.verify", 0)
    tier_in = c("cascade.lb_yi.in")
    layers: dict[str, float] = {
        name: self_s.get(name[: -len(".self_s")], 0.0)
        for name in list(PER_LAYER) + list(LAYER_EXTRAS)
        if name.endswith(".self_s") and not name.startswith(("setup.", "index.bulk_load"))
    }
    layers.update(
        {
            "index.bulk_load.self_s": setup_s.get("index.bulk_load", 0.0),
            "setup.cascade.store_build.self_s": setup_s.get("cascade.store_build", 0.0),
            "setup.storage.self_s": setup_s.get("storage.write", 0.0) + setup_s.get("storage.scan", 0.0),
            "index.node_reads": c(f"index.{backend}.node_reads"),
            "index.candidates": candidates,
            "index.precision": range_answers / candidates if candidates else 0.0,
            "cascade.store_builds": calls.get("cascade.store_build", 0),
            "cascade.lb_yi.pruned": c("cascade.lb_yi.pruned"),
            "cascade.lb_kim.pruned": c("cascade.lb_kim.pruned"),
            "cascade.prune_ratio": (tier_in - c("cascade.lb_kim.out")) / tier_in if tier_in else 0.0,
            "dtw.calls": verify_calls,
            "dtw.cells": c("dtw.cells"),
            "dtw.early_abandons": c("dtw.early_abandons"),
            "dtw.accept_ratio": (tracer.accepted - accepted_from) / verify_calls if verify_calls else 0.0,
            "storage.random_pages": c("storage.random_pages"),
            "storage.fetches": c("storage.fetches"),
            "trace.overhead_frac": statistics.median(t / u for (_, _, t), (_, _, u) in zip(spanned, plain)) - 1,
            "unaccounted_s": root_s - sum(self_s.values()),
        }
    )
    return {
        "metrics": {name: layers[name] for name in PER_LAYER},
        "extras": {name: layers[name] for name in LAYER_EXTRAS},
        "units": {**PER_LAYER, **LAYER_EXTRAS},
        "attempted": len(log),
        "measured_ops": len(spanned),
        "failed": failed + (0 if same_answers else 1),
        "messages": messages,
        "oracle_checked": checked,
        "marks": marks,
        "counters_repeat": counters == plain_counters,
        # With a fixed op count the measured phase's counters repeat too.
        "history": {"warm": marks[0], f"trace{count}": fingerprint(counters)},
        "spans": len(tracer.spans),
        "config": config,
    }


def describe(db: Any) -> dict[str, Any]:
    """The resolved configuration and the host it ran on."""
    from repro.distance.kernels.registry import active_kernel

    return {
        "backend": db.backend_name,
        "executor": db.executor_name,
        "store": db.store_name,
        "kernel": active_kernel().name,
        "shards": db.n_shards,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- output ------------------------------------------------------------------------


def report(name: str, seed: int, trace: int, result: dict[str, Any]) -> dict[str, Any]:
    marks = result["marks"]
    repeat = len(set(marks)) == 1 and result.get("counters_repeat", True)
    history = all(check_history(f"{name}-seed{seed}-{key}", mark) for key, mark in result["history"].items())
    deterministic = repeat and history
    units = result["units"]
    print(f"== {name} (seed {seed}, trace {trace}) " + " ".join(f"{k}={v}" for k, v in result["config"].items()))
    for metric, value in {**result["metrics"], **result["extras"]}.items():
        print(f"  {metric:<34} {value:>16.6g} {units[metric]}")
    print(
        f"  ops {result['attempted']} (measured {result['measured_ops']}), failed {result['failed']}, "
        f"reads on the reference kernel {result['oracle_checked']}"
        + (f", samples {result['samples']}" if "samples" in result else "")
    )
    print(f"  work counters repeat: within run {'yes' if repeat else 'NO'}, against earlier runs {'yes' if history else 'NO'}")
    for message in result["messages"]:
        print(f"  wrong: {message}")
    if not deterministic:
        print(f"warning: work counters differ for seed {seed}: {marks} {result['history']}", file=sys.stderr)
    summary = {
        "correct": result["failed"] == 0 and deterministic,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": units[metric]} for metric in result["metrics"]
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**result, "deterministic": deterministic, "summary": summary}, indent=1, default=str)
    )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    repro = load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                return child.returncode or 1
            results[name] = json.loads(lines[-1])
        print(json.dumps({"workloads": results}))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    result = run(repro, workload, args.seed, args.seconds)
    print(json.dumps(report(workload.name, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
