"""The structured query log: record schema, writer rotation, loader
validation, and single-emission integration across the executors.

The record is a persisted, schema-versioned format, so every field of
:class:`QueryRecord` is a schema commitment: ``FIELD_SAMPLES`` must hold
a non-default value for each field ``dataclasses.fields`` reports, and
each one must survive a write/load round trip unchanged.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.engine import TimeWarpingDatabase
from repro.core.query_engine import QueryEngine
from repro.exceptions import QueryLogSchemaError, ValidationError
from repro.exec import available_executors
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import (
    REQUIRED_FIELDS,
    SCHEMA_VERSION,
    QueryLogWriter,
    QueryRecord,
    active_querylog,
    latency_breakdown,
    load_querylog,
    record_query,
    use_querylog,
)
from repro.storage.database import SequenceDatabase

#: A non-default value for every :class:`QueryRecord` field.
FIELD_SAMPLES: dict[str, object] = {
    "schema_version": SCHEMA_VERSION,
    "query_id": "q00000042-7",
    "timestamp": 1712345678.25,
    "kind": "knn",
    "epsilon": 0.75,
    "k": 5,
    "backend": "rstar",
    "executor": "thread",
    "store": "mmap",
    "shards": 3,
    "n_queries": 4,
    "stages": ({"name": "lb_kim", "n_in": 40, "n_out": 9},),
    "charges": {"dtw.cells": 512.0, "index.node_reads": 7.0},
    "latency": {"total_seconds": 0.5, "cascade.lb_kim.seconds": 0.125},
    "result_count": 5,
}


def _record(**overrides: object) -> QueryRecord:
    payload: dict[str, object] = dict(
        schema_version=SCHEMA_VERSION,
        query_id="q00000000-1",
        timestamp=123.0,
        kind="range",
        epsilon=1.5,
        k=None,
        backend="rtree",
        executor="inline",
        store="heap",
        shards=1,
        n_queries=1,
        stages=({"name": "rtree", "n_in": 10, "n_out": 3},),
        charges={"dtw.cells": 120.0},
        latency={"total_seconds": 0.25, "dtw.verify.seconds": 0.1},
        result_count=2,
    )
    payload.update(overrides)
    return QueryRecord(**payload)  # type: ignore[arg-type]


def _workload(n: int = 24, seed: int = 5) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=int(rng.integers(8, 20))).cumsum() for _ in range(n)
    ]


class TestRecord:
    def test_every_field_round_trips(self, tmp_path) -> None:
        """Each field, set to a non-default value, survives write + load."""
        record_fields = dataclasses.fields(QueryRecord)
        missing = {f.name for f in record_fields} - set(FIELD_SAMPLES)
        assert not missing, f"QueryRecord fields without a sample: {missing}"
        for field in record_fields:
            if field.default is not dataclasses.MISSING:
                assert FIELD_SAMPLES[field.name] != field.default, field.name
        record = QueryRecord(**FIELD_SAMPLES)  # type: ignore[arg-type]
        path = tmp_path / "queries.jsonl"
        with QueryLogWriter(path) as writer:
            assert writer.write(record)
        (loaded,) = load_querylog(path)
        for field in record_fields:
            assert getattr(loaded, field.name) == getattr(record, field.name), (
                field.name
            )

    def test_to_dict_is_json_ready(self) -> None:
        payload = _record().to_dict()
        assert set(payload) == set(REQUIRED_FIELDS)
        # stages must serialize as plain lists of dicts
        restored = json.loads(json.dumps(payload))
        assert restored["stages"] == [{"name": "rtree", "n_in": 10, "n_out": 3}]
        assert restored["schema_version"] == SCHEMA_VERSION

    def test_total_seconds_property(self) -> None:
        assert _record().total_seconds == 0.25
        assert _record(latency={}).total_seconds == 0.0


class TestWriterAndLoader:
    def test_round_trip(self, tmp_path) -> None:
        path = tmp_path / "queries.jsonl"
        written = [_record(query_id=f"q{i}", result_count=i) for i in range(3)]
        with QueryLogWriter(path) as writer:
            for record in written:
                assert writer.write(record)
        assert writer.written == 3
        loaded = load_querylog(path)
        assert loaded == written

    def test_rotation_keeps_backup_generations(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(path, max_bytes=1, backups=2)
        for i in range(4):
            writer.write(_record(query_id=f"q{i}"))
        # Every write rotated the previous one: live holds q3, .1 holds
        # q2, .2 holds q1, and q0's generation was deleted.
        assert [r.query_id for r in load_querylog(path)] == ["q3"]
        assert [
            r.query_id for r in load_querylog(tmp_path / "q.jsonl.1")
        ] == ["q2"]
        assert [
            r.query_id for r in load_querylog(tmp_path / "q.jsonl.2")
        ] == ["q1"]
        assert not (tmp_path / "q.jsonl.3").exists()

    def test_rotation_with_zero_backups_truncates(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(path, max_bytes=1, backups=0)
        writer.write(_record(query_id="a"))
        writer.write(_record(query_id="b"))
        assert [r.query_id for r in load_querylog(path)] == ["b"]
        assert not (tmp_path / "q.jsonl.1").exists()

    def test_no_rotation_when_disabled(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(path, max_bytes=None)
        for i in range(5):
            writer.write(_record(query_id=f"q{i}"))
        assert len(load_querylog(path)) == 5
        assert not (tmp_path / "q.jsonl.1").exists()

    def test_slow_query_threshold_filters(self, tmp_path) -> None:
        path = tmp_path / "slow.jsonl"
        writer = QueryLogWriter(path, slow_threshold_seconds=0.2)
        fast = _record(latency={"total_seconds": 0.01})
        slow = _record(latency={"total_seconds": 0.5}, query_id="slow")
        assert not writer.write(fast)
        assert writer.write(slow)
        assert writer.written == 1 and writer.skipped == 1
        assert [r.query_id for r in load_querylog(path)] == ["slow"]

    def test_writer_parameter_validation(self, tmp_path) -> None:
        with pytest.raises(ValidationError, match="max_bytes"):
            QueryLogWriter(tmp_path / "q", max_bytes=0)
        with pytest.raises(ValidationError, match="backups"):
            QueryLogWriter(tmp_path / "q", backups=-1)

    def test_corrupt_line_raises_strict_names_line(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(path)
        writer.write(_record(query_id="ok1"))
        writer.write(_record(query_id="ok2"))
        with path.open("a") as sink:
            sink.write("{truncated crash artifact\n")
        with pytest.raises(QueryLogSchemaError, match=r"q\.jsonl:3.*JSON"):
            load_querylog(path)

    def test_corrupt_line_skipped_lenient(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(path)
        writer.write(_record(query_id="ok1"))
        with path.open("a") as sink:
            sink.write("not json at all\n")
        writer.write(_record(query_id="ok2"))
        loaded = load_querylog(path, strict=False)
        assert [r.query_id for r in loaded] == ["ok1", "ok2"]

    def test_schema_version_mismatch_rejected(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        payload = _record().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(QueryLogSchemaError, match="schema_version"):
            load_querylog(path)
        assert load_querylog(path, strict=False) == []

    def test_missing_field_rejected(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        payload = _record().to_dict()
        del payload["result_count"]
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(QueryLogSchemaError, match="result_count"):
            load_querylog(path)

    def test_blank_lines_ignored(self, tmp_path) -> None:
        path = tmp_path / "q.jsonl"
        record = _record()
        path.write_text(
            "\n" + json.dumps(record.to_dict()) + "\n\n"
        )
        assert load_querylog(path) == [record]


class TestLatencyBreakdown:
    def test_only_timing_histograms_included(self) -> None:
        registry = MetricsRegistry()
        registry.observe("dtw.abandon_depth", 4.0)
        with registry.timer("engine.search.seconds"):
            pass
        breakdown = latency_breakdown(registry.snapshot())
        assert set(breakdown) == {"engine.search.seconds"}
        assert breakdown["engine.search.seconds"] >= 0.0


class TestAmbientRecording:
    def test_default_is_none(self) -> None:
        assert active_querylog() is None

    def test_record_query_noop_without_writer(self) -> None:
        assert (
            record_query(
                kind="range",
                backend="rtree",
                executor="inline",
                store="heap",
                shards=1,
                stages=[],
                snapshot=MetricsRegistry().snapshot(),
                result_count=0,
                total_metric="engine.search.seconds",
            )
            is None
        )

    def test_record_query_emits_on_active_writer(self, tmp_path) -> None:
        registry = MetricsRegistry()
        registry.count("dtw.cells", 99)
        with registry.timer("engine.search.seconds"):
            pass
        writer = QueryLogWriter(tmp_path / "q.jsonl")
        with use_querylog(writer):
            assert active_querylog() is writer
            record = record_query(
                kind="range",
                epsilon=2.0,
                backend="rtree",
                executor="inline",
                store="heap",
                shards=1,
                stages=[("rtree", 10, 4)],
                snapshot=registry.snapshot(),
                result_count=3,
                total_metric="engine.search.seconds",
            )
        assert active_querylog() is None
        assert record is not None
        assert record.charges["dtw.cells"] == 99
        assert record.latency["total_seconds"] > 0.0
        assert record.stages == ({"name": "rtree", "n_in": 10, "n_out": 4},)
        (loaded,) = load_querylog(tmp_path / "q.jsonl")
        assert loaded == record

    def test_use_querylog_none_suppresses(self, tmp_path) -> None:
        writer = QueryLogWriter(tmp_path / "q.jsonl")
        with use_querylog(writer), use_querylog(None):
            assert active_querylog() is None


class TestPipelineEmission:
    """One record per query, at the right layer, for every executor."""

    def test_bare_engine_emits_inline_record(self, tmp_path) -> None:
        arrays = _workload()
        engine = QueryEngine(SequenceDatabase(), backend="rtree")
        engine.bulk_insert(arrays)
        writer = QueryLogWriter(tmp_path / "q.jsonl")
        with use_querylog(writer):
            matches = engine.search(arrays[0], 1.5)
        (record,) = load_querylog(tmp_path / "q.jsonl")
        assert record.kind == "range"
        assert record.executor == "inline"
        assert record.epsilon == 1.5 and record.k is None
        assert record.backend == "rtree" and record.store == "heap"
        assert record.shards == 1 and record.n_queries == 1
        assert record.result_count == len(matches)
        assert record.charges["dtw.cells"] > 0
        assert record.total_seconds > 0.0
        assert [stage["name"] for stage in record.stages][0] == "rtree"

    @pytest.mark.parametrize("executor", sorted(available_executors()))
    def test_sharded_query_emits_exactly_one_record(
        self, tmp_path, executor
    ) -> None:
        arrays = _workload()
        writer = QueryLogWriter(tmp_path / f"{executor}.jsonl")
        with TimeWarpingDatabase(
            backend="rtree", shards=3, executor=executor
        ) as db:
            for values in arrays:
                db.insert(values)
            with use_querylog(writer):
                db.search(arrays[0], 1.5)
                db.knn(arrays[1], 3)
        records = load_querylog(tmp_path / f"{executor}.jsonl")
        assert [r.kind for r in records] == ["range", "knn"]
        for record in records:
            assert record.executor == executor
            assert record.shards == 3
            assert record.store == "heap"
        assert records[0].epsilon == 1.5
        assert records[1].k == 3 and records[1].epsilon is None

    def test_batch_record_counts_queries(self, tmp_path) -> None:
        arrays = _workload()
        writer = QueryLogWriter(tmp_path / "batch.jsonl")
        with TimeWarpingDatabase(backend="rtree", shards=2) as db:
            for values in arrays:
                db.insert(values)
            with use_querylog(writer):
                results = db.search_many(arrays[:4], 1.2)
        (record,) = load_querylog(tmp_path / "batch.jsonl")
        assert record.kind == "range_batch"
        assert record.n_queries == 4
        assert record.result_count == sum(len(r) for r in results)
        assert record.timestamp > 0.0
        assert record.query_id
