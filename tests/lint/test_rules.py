"""Positive/negative fixture pairs for every rule in the pack.

Each rule class is imported by name (they are public API of
``repro.lint.rules``) and exercised through the full engine against a
tiny on-disk project, never by calling visitor internals directly.
"""

from __future__ import annotations

from repro.lint import ALL_RULES, RULES_BY_CODE
from repro.lint.rules import (
    BenchSeedRule,
    ChargeAccountingRule,
    DeadExportRule,
    DeterminismRule,
    ExceptionContractRule,
    ExceptionDomainRule,
    HotLoopAllocationRule,
    LockDisciplineRule,
    MetricNameRule,
    SpawnSafetyRule,
)

from .conftest import by_rule, codes


class TestRulePack:
    def test_all_rules_are_registered_by_code(self) -> None:
        assert [rule.code for rule in ALL_RULES] == [
            "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL010", "RL013", "RL014", "RL015",
        ]
        assert RULES_BY_CODE["RL003"] is DeterminismRule
        assert RULES_BY_CODE["RL004"] is ExceptionDomainRule
        assert RULES_BY_CODE["RL005"] is MetricNameRule
        assert RULES_BY_CODE["RL006"] is HotLoopAllocationRule
        assert RULES_BY_CODE["RL007"] is DeadExportRule
        assert RULES_BY_CODE["RL008"] is BenchSeedRule
        assert RULES_BY_CODE["RL010"] is SpawnSafetyRule
        assert RULES_BY_CODE["RL013"] is LockDisciplineRule
        assert RULES_BY_CODE["RL014"] is ChargeAccountingRule
        assert RULES_BY_CODE["RL015"] is ExceptionContractRule

    def test_every_rule_declares_title_and_rationale(self) -> None:
        for rule in ALL_RULES:
            assert rule.title and rule.rationale


class TestRL003Determinism:
    def test_wall_clock_call_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                import time

                def stamp():
                    return time.time()
                """
            },
            rules=["RL003"],
        )
        assert codes(report) == ["RL003"]

    def test_unseeded_default_rng_and_none_default_are_flagged(
        self, lint_project
    ) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                import numpy as np

                def sample(rng=None):
                    return np.random.default_rng(rng).normal()
                """
            },
            rules=["RL003"],
        )
        assert codes(report) == ["RL003", "RL003"]

    def test_seeded_rng_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                import numpy as np

                def sample(seed=0):
                    return np.random.default_rng(seed).normal()
                """
            },
            rules=["RL003"],
        )
        assert codes(report) == []

    def test_perf_modules_may_use_timers(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/perf/timing.py": """\
                import time

                def now():
                    return time.perf_counter()
                """
            },
            rules=["RL003"],
        )
        assert codes(report) == []


class TestRL004ExceptionDomain:
    def test_bare_builtin_raise_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    if x < 0:
                        raise ValueError("negative")
                    return x
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == ["RL004"]

    def test_domain_exception_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                from pkg.errors import ValidationError

                def f(x):
                    if x < 0:
                        raise ValidationError("negative")
                    return x
                """,
                "src/pkg/errors.py": """\
                class ValidationError(Exception):
                    pass
                """,
            },
            rules=["RL004"],
        )
        assert codes(report) == []

    def test_bare_reraise_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    try:
                        return 1 / x
                    except ZeroDivisionError:
                        raise
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == []


class TestRL005MetricNames:
    def test_flat_name_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def charge(registry):
                    registry.count("queries")
                """
            },
            rules=["RL005"],
        )
        assert codes(report) == ["RL005"]

    def test_dotted_name_and_fstring_skeleton_pass(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def charge(registry, tier):
                    registry.count("cascade.dtw.in")
                    registry.count(f"cascade.{tier}.pruned")
                """
            },
            rules=["RL005"],
        )
        assert codes(report) == []

    def test_str_count_is_not_a_metric_call(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def tally(text):
                    return text.count("queries")
                """
            },
            rules=["RL005"],
        )
        assert codes(report) == []


class TestRL006HotLoops:
    def test_allocation_in_per_cell_loop_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/core/cascade.py": """\
                import numpy as np

                def kernel(n):
                    total = 0.0
                    for i in range(n):
                        for j in range(n):
                            buf = np.zeros(4)
                            total += buf[0] + [k for k in range(j)][-1]
                    return total
                """
            },
            rules=["RL006"],
        )
        assert codes(report) == ["RL006", "RL006"]

    def test_hoisted_buffer_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/core/cascade.py": """\
                import numpy as np

                def kernel(n):
                    buf = np.zeros(4)
                    total = 0.0
                    for i in range(n):
                        for j in range(n):
                            buf[:] = 0.0
                            total += buf[0]
                    return total
                """
            },
            rules=["RL006"],
        )
        assert codes(report) == []

    def test_non_hot_modules_are_out_of_scope(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/eval/report.py": """\
                def tables(rows):
                    out = []
                    for group in rows:
                        for row in group:
                            out.append([cell for cell in row])
                    return out
                """
            },
            rules=["RL006"],
        )
        assert codes(report) == []


class TestRL007DeadExports:
    def test_unreferenced_export_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                __all__ = ["used", "dead"]

                used = 1
                dead = 2
                """,
                "src/pkg/consumer.py": """\
                from pkg.mod import used

                print(used)
                """,
            },
            rules=["RL007"],
        )
        assert len(by_rule(report, "RL007")) == 1
        assert "'dead'" in by_rule(report, "RL007")[0]

    def test_doc_reference_counts_as_alive(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                __all__ = ["documented"]

                documented = 1
                """,
                "docs/guide.md": "Use `documented` for everything.\n",
            },
            rules=["RL007"],
        )
        assert codes(report) == []


class TestRL008BenchSeeds:
    def test_unseeded_workload_spec_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/perf/workloads.py": """\
                from pkg.spec import DatasetSpec

                SPECS = [DatasetSpec(kind="walk", n=10, length=32)]
                """
            },
            rules=["RL008"],
        )
        assert codes(report) == ["RL008"]

    def test_seeded_workload_spec_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/perf/workloads.py": """\
                from pkg.spec import DatasetSpec

                SPECS = [DatasetSpec(kind="walk", n=10, length=32, seed=7)]
                """
            },
            rules=["RL008"],
        )
        assert codes(report) == []

    def test_other_modules_are_out_of_scope(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/perf/runner.py": """\
                from pkg.spec import DatasetSpec

                def ad_hoc():
                    return DatasetSpec(kind="walk", n=1, length=8)
                """
            },
            rules=["RL008"],
        )
        assert codes(report) == []


class TestRL010SpawnSafety:
    WORKER_WIRING = """\
    import multiprocessing

    _CACHE = {}

    def _worker_main(conn):
        _CACHE["pid"] = conn
        conn.send("ok")

    def start():
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_worker_main, args=(None,))
        proc.start()
    """

    def test_worker_touching_module_dict_is_flagged(
        self, lint_project
    ) -> None:
        report = lint_project(
            {"src/pkg/workers.py": self.WORKER_WIRING}, rules=["RL010"]
        )
        assert codes(report) == ["RL010"]
        assert "_CACHE" in by_rule(report, "RL010")[0]

    def test_transitively_called_helper_is_flagged(
        self, lint_project
    ) -> None:
        report = lint_project(
            {
                "src/pkg/workers.py": """\
                import multiprocessing

                _SEEN = []

                def _record(item):
                    _SEEN.append(item)

                def _worker_main(conn):
                    _record(conn)

                def start():
                    p = multiprocessing.Process(
                        target=_worker_main, args=(None,)
                    )
                    p.start()
                """
            },
            rules=["RL010"],
        )
        assert codes(report) == ["RL010"]
        assert "'_record'" in by_rule(report, "RL010")[0]

    def test_state_passed_as_argument_passes(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/workers.py": """\
                import multiprocessing

                _CACHE = {}

                def _worker_main(conn, cache):
                    cache["pid"] = conn

                def start():
                    p = multiprocessing.Process(
                        target=_worker_main, args=(None, dict(_CACHE))
                    )
                    p.start()
                """
            },
            rules=["RL010"],
        )
        assert codes(report) == []

    def test_local_shadow_is_not_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/workers.py": """\
                import multiprocessing

                results = []

                def _worker_main(conn):
                    results = []
                    results.append(conn)

                def start():
                    p = multiprocessing.Process(target=_worker_main)
                    p.start()
                """
            },
            rules=["RL010"],
        )
        assert codes(report) == []

    def test_global_declaration_is_flagged(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/workers.py": """\
                import multiprocessing

                _STATE = {}

                def _worker_main():
                    global _STATE
                    _STATE = {}

                def start():
                    p = multiprocessing.Process(target=_worker_main)
                    p.start()
                """
            },
            rules=["RL010"],
        )
        assert "RL010" in codes(report)

    def test_non_worker_functions_are_out_of_scope(
        self, lint_project
    ) -> None:
        report = lint_project(
            {
                "src/pkg/registry.py": """\
                HANDLERS = {}

                def register(name, fn):
                    HANDLERS[name] = fn
                """
            },
            rules=["RL010"],
        )
        assert codes(report) == []

    def test_immutable_module_constants_pass(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/workers.py": """\
                import multiprocessing

                TIMEOUT = 5.0
                NAMES = ("a", "b")

                def _worker_main(conn):
                    conn.send((TIMEOUT, NAMES))

                def start():
                    p = multiprocessing.Process(target=_worker_main)
                    p.start()
                """
            },
            rules=["RL010"],
        )
        assert codes(report) == []


