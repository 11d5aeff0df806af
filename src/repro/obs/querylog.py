"""Structured per-query JSONL log — the serving-layer accounting record.

Every query the engine answers can emit one :class:`QueryRecord`: a
schema-versioned, JSON-serializable account of what was asked (epsilon
/ k, backend, executor, store, shard count), what the cascade did
(per-tier candidate counts, the full counter charge set) and what it
cost (a wall-seconds latency breakdown read from the per-query timing
histograms).  Records stream to a :class:`QueryLogWriter` — a
size-rotated JSONL sink with an optional slow-query threshold — and
load back through :func:`load_querylog`, which validates each line the
way the bench loader validates ``BENCH_*.json`` documents and raises
:class:`~repro.exceptions.QueryLogSchemaError` on malformed input.

The writer is ambient, like the metrics registry and the tracer: code
calls :func:`record_query` and when no writer is active the call is a
context-variable read and a ``None`` check.  Shard executors suppress
the ambient writer in workers (alongside the ambient registry), so a
sharded query emits exactly one record — at the router.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from ..exceptions import QueryLogSchemaError, ValidationError
from .metrics import MetricsSnapshot

__all__ = [
    "SCHEMA_VERSION",
    "QueryRecord",
    "QueryLogWriter",
    "load_querylog",
    "latency_breakdown",
    "record_query",
    "active_querylog",
    "use_querylog",
]

#: Version stamped into every record; bump on incompatible field changes.
SCHEMA_VERSION = 1

#: Default rotation threshold (bytes) for :class:`QueryLogWriter`.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

_QUERY_SEQ = itertools.count()


@dataclass(frozen=True)
class QueryRecord:
    """One query's structured accounting record (JSONL line).

    Every field is a schema commitment: ``tests/obs/test_querylog.py``
    round-trips each one through :class:`QueryLogWriter` and
    :func:`load_querylog`.
    """

    schema_version: int
    query_id: str
    timestamp: float
    kind: str
    epsilon: float | None
    k: int | None
    backend: str
    executor: str
    store: str
    shards: int
    n_queries: int
    stages: tuple[dict[str, object], ...]
    charges: dict[str, float]
    latency: dict[str, float]
    result_count: int

    @property
    def total_seconds(self) -> float:
        """End-to-end wall seconds (0.0 when the breakdown is empty)."""
        return self.latency.get("total_seconds", 0.0)

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready plain-dict view (stages become lists)."""
        payload = asdict(self)
        payload["stages"] = [dict(stage) for stage in self.stages]
        return payload


#: Field names a valid record must carry, derived from the dataclass.
REQUIRED_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(QueryRecord))


class QueryLogWriter:
    """Append-only JSONL sink with size rotation and a slow-query filter.

    Parameters
    ----------
    path:
        The live log file; rotated generations get ``.1``, ``.2``, …
        suffixes (``.1`` is the most recent).
    max_bytes:
        Rotate before a write that would push the live file past this
        size.  ``None`` disables rotation.
    backups:
        Rotated generations to keep; older ones are deleted.
    slow_threshold_seconds:
        When set, only records whose end-to-end latency reaches the
        threshold are written — the slow-query log discipline.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        backups: int = 3,
        slow_threshold_seconds: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValidationError(f"max_bytes must be positive, got {max_bytes}")
        if backups < 0:
            raise ValidationError(f"backups must be >= 0, got {backups}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self.slow_threshold_seconds = slow_threshold_seconds
        self._lock = threading.Lock()
        self._written = 0
        self._skipped = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def written(self) -> int:
        """Records written since this writer was created."""
        return self._written

    @property
    def skipped(self) -> int:
        """Records dropped by the slow-query threshold."""
        return self._skipped

    def write(self, record: QueryRecord) -> bool:
        """Append *record*; returns False when the slow filter drops it."""
        threshold = self.slow_threshold_seconds
        if threshold is not None and record.total_seconds < threshold:
            with self._lock:
                self._skipped += 1
            return False
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            self._maybe_rotate(len(data))
            with self.path.open("ab") as sink:
                sink.write(data)
            self._written += 1
        return True

    def _maybe_rotate(self, incoming: int) -> None:
        if self.max_bytes is None:
            return
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0 or size + incoming <= self.max_bytes:
            return
        oldest = self.path.with_name(self.path.name + f".{self.backups}")
        oldest.unlink(missing_ok=True)
        for generation in range(self.backups - 1, 0, -1):
            source = self.path.with_name(self.path.name + f".{generation}")
            if source.exists():
                source.rename(
                    self.path.with_name(self.path.name + f".{generation + 1}")
                )
        if self.backups > 0:
            self.path.rename(self.path.with_name(self.path.name + ".1"))
        else:
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def __repr__(self) -> str:
        return (
            f"QueryLogWriter({str(self.path)!r}, written={self._written}, "
            f"skipped={self._skipped})"
        )


def _validate_payload(payload: object, where: str) -> dict[str, object]:
    if not isinstance(payload, dict):
        raise QueryLogSchemaError(f"{where}: record is not a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise QueryLogSchemaError(
            f"{where}: unsupported schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    missing = [name for name in REQUIRED_FIELDS if name not in payload]
    if missing:
        raise QueryLogSchemaError(
            f"{where}: record is missing field(s) {', '.join(sorted(missing))}"
        )
    return payload


def _record_from_payload(payload: dict[str, object]) -> QueryRecord:
    known = {name: payload[name] for name in REQUIRED_FIELDS}
    stages = known["stages"]
    if not isinstance(stages, (list, tuple)):
        raise QueryLogSchemaError("record field 'stages' must be a list")
    known["stages"] = tuple(dict(stage) for stage in stages)
    return QueryRecord(**known)  # type: ignore[arg-type]


def load_querylog(
    path: str | os.PathLike[str], *, strict: bool = True
) -> list[QueryRecord]:
    """Load and validate a JSONL query log.

    With ``strict=True`` (the default) any unparsable or schema-invalid
    line raises :class:`~repro.exceptions.QueryLogSchemaError` naming
    the offending line; with ``strict=False`` bad lines are skipped and
    every valid record is returned — the post-crash recovery mode.
    """
    records: list[QueryRecord] = []
    with Path(path).open("r", encoding="utf-8") as source:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            where = f"{os.fspath(path)}:{lineno}"
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise QueryLogSchemaError(
                        f"{where}: invalid JSON ({error.msg})"
                    ) from error
                continue
            try:
                records.append(
                    _record_from_payload(_validate_payload(payload, where))
                )
            except QueryLogSchemaError:
                if strict:
                    raise
    return records


def latency_breakdown(snapshot: MetricsSnapshot) -> dict[str, float]:
    """Wall-seconds totals of every timing histogram in *snapshot*.

    Timing histograms carry ``seconds`` in their dotted name by
    convention; their totals are the per-phase latency breakdown a
    record ships.
    """
    return {
        name: summary.total
        for name, summary in sorted(snapshot.histograms.items())
        if "seconds" in name.split(".")
    }


# ----------------------------------------------------------------------
# Ambient writer (contextvars)
# ----------------------------------------------------------------------

_ACTIVE: ContextVar[QueryLogWriter | None] = ContextVar(
    "repro_obs_querylog", default=None
)


def active_querylog() -> QueryLogWriter | None:
    """The writer records currently flow to (None = logging off)."""
    return _ACTIVE.get()


@contextmanager
def use_querylog(writer: QueryLogWriter | None) -> Iterator[QueryLogWriter | None]:
    """Make *writer* the ambient query-record sink for the with-block."""
    token = _ACTIVE.set(writer)
    try:
        yield writer
    finally:
        _ACTIVE.reset(token)


def record_query(
    *,
    kind: str,
    backend: str,
    executor: str,
    store: str,
    shards: int,
    stages: Sequence[tuple[str, int, int]],
    snapshot: MetricsSnapshot,
    result_count: int,
    total_metric: str,
    epsilon: float | None = None,
    k: int | None = None,
    n_queries: int = 1,
) -> QueryRecord | None:
    """Build one :class:`QueryRecord` and emit it on the ambient writer.

    The query-pipeline entry point: when no writer is active this is a
    context-variable read and a ``None`` check — nothing is built.
    *stages* are ``(name, n_in, n_out)`` triples from the cascade
    stats; *total_metric* names the end-to-end timing histogram whose
    total becomes ``latency["total_seconds"]``.
    """
    writer = _ACTIVE.get()
    if writer is None:
        return None
    latency = latency_breakdown(snapshot)
    total = snapshot.histograms.get(total_metric)
    latency["total_seconds"] = total.total if total is not None else 0.0
    record = QueryRecord(
        schema_version=SCHEMA_VERSION,
        query_id=f"q{next(_QUERY_SEQ):08d}-{os.getpid()}",
        timestamp=time.time(),
        kind=kind,
        epsilon=epsilon,
        k=k,
        backend=backend,
        executor=executor,
        store=store,
        shards=shards,
        n_queries=n_queries,
        stages=tuple(
            {"name": name, "n_in": n_in, "n_out": n_out}
            for name, n_in, n_out in stages
        ),
        charges=dict(snapshot.counters),
        latency=latency,
        result_count=result_count,
    )
    writer.write(record)
    return record
