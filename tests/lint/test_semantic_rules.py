"""Whole-program rules RL013-RL015 against cross-module fixtures.

Most positive cases here fire only because *another* module exists —
the entry point, the facade, or the consumer lives in a different file
than the violation — proving each rule genuinely closes over the call
graph rather than re-checking single files.  Each positive case is
paired with negatives showing the sanctioned escape hatches (locks,
thread-locals, per-query construction, test references, domain
exceptions) silence it.
"""

from __future__ import annotations

import pytest

from .conftest import by_rule, codes


class TestLockDiscipline:
    """RL013: concurrent-closure writes need locks or per-query state."""

    _ENGINE = """\
        from .cascade import Cascade

        class QueryEngine:
            def __init__(self):
                self._cascade = Cascade()

            def search(self, q):
                return self._cascade.run(q)
        """

    def test_cross_module_unguarded_write_fires(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/engine.py": self._ENGINE,
                "src/pkg/cascade.py": """\
                    class Cascade:
                        def __init__(self):
                            self._hits = 0

                        def run(self, q):
                            self._hits += 1
                            return q
                    """,
            },
            rules=["RL013"],
        )
        assert codes(report) == ["RL013"]
        (violation,) = report.violations
        assert violation.path == "src/pkg/cascade.py"
        assert "self._hits" in violation.message
        assert "query" in violation.message

    def test_write_without_concurrent_entry_is_clean(self, lint_project) -> None:
        # The same Cascade, but no QueryEngine reaches it: nothing runs
        # the write concurrently, so the whole-program view stays quiet.
        report = lint_project(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/cascade.py": """\
                    class Cascade:
                        def __init__(self):
                            self._hits = 0

                        def run(self, q):
                            self._hits += 1
                            return q
                    """,
            },
            rules=["RL013"],
        )
        assert codes(report) == []

    def test_lock_inherited_from_base_in_other_module(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/engine.py": self._ENGINE,
                "src/pkg/locked.py": """\
                    import threading

                    class Guarded:
                        def __init__(self):
                            self._lock = threading.Lock()
                    """,
                "src/pkg/cascade.py": """\
                    from .locked import Guarded

                    class Cascade(Guarded):
                        def __init__(self):
                            super().__init__()
                            self._hits = 0

                        def run(self, q):
                            with self._lock:
                                self._hits += 1
                            return q
                    """,
            },
            rules=["RL013"],
        )
        assert codes(report) == []

    def test_per_query_local_instance_is_exempt(self, lint_project) -> None:
        # Cascade is built inside search itself: one fresh instance per
        # query, so its attribute writes cannot race.
        report = lint_project(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/engine.py": """\
                    from .cascade import Cascade

                    class QueryEngine:
                        def search(self, q):
                            return Cascade().run(q)
                    """,
                "src/pkg/cascade.py": """\
                    class Cascade:
                        def __init__(self):
                            self._hits = 0

                        def run(self, q):
                            self._hits += 1
                            return q
                    """,
            },
            rules=["RL013"],
        )
        assert codes(report) == []

    def test_global_write_in_worker_target_fires(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/__init__.py": "",
                "src/pkg/workers.py": """\
                    import multiprocessing as mp

                    _SPINS = 0

                    def _loop(conn):
                        global _SPINS
                        _SPINS += 1
                        return conn

                    def spawn(conn):
                        return mp.Process(target=_loop, args=(conn,))
                    """,
            },
            rules=["RL013"],
        )
        (message,) = by_rule(report, "RL013")
        assert "module global '_SPINS'" in message
        assert "worker" in message

    @pytest.mark.parametrize(
        ("source", "flagged"),
        [
            pytest.param(
                """\
                class QueryEngine:
                    def __init__(self):
                        self._cache = None

                    def search(self, q):
                        self._cache = q
                        return self._cache
                """,
                "QueryEngine.search writes shared attribute 'self._cache'",
                id="unguarded-write",
            ),
            pytest.param(
                """\
                class QueryEngine:
                    def __init__(self):
                        self._hits = 0

                    def search(self, q):
                        self._bump()
                        return q

                    def _bump(self):
                        self._hits += 1
                """,
                "QueryEngine._bump writes shared attribute 'self._hits'",
                id="helper-reached-from-search",
            ),
            pytest.param(
                """\
                import threading

                class QueryEngine:
                    def __init__(self):
                        self._cache = None
                        self._lock = threading.Lock()

                    def search(self, q):
                        with self._lock:
                            self._cache = q
                        return self._cache
                """,
                None,
                id="lock-guarded-write",
            ),
            pytest.param(
                """\
                import threading

                class ShardedDatabase:
                    def __init__(self):
                        self._last = threading.local()

                    def knn(self, q, k):
                        self._last.result = (q, k)
                        return self._last.result
                """,
                None,
                id="thread-local-write",
            ),
        ],
    )
    def test_single_class_query_path(
        self, lint_project, source: str, flagged: str | None
    ) -> None:
        # Entry point and write share one class, linked only through
        # ``self.method()`` edges.
        report = lint_project({"src/pkg/engine.py": source}, rules=["RL013"])
        if flagged is None:
            assert codes(report) == []
        else:
            assert codes(report) == ["RL013"]
            assert by_rule(report, "RL013")[0].startswith(flagged)


class TestChargeAccounting:
    """RL014: every charged metric resolves to an accounting artifact."""

    def test_unaccounted_charge_fires(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/m.py": """\
                    def charge(registry):
                        registry.count("engine.phantom_counter")
                    """,
            },
            rules=["RL014"],
        )
        (message,) = by_rule(report, "RL014")
        assert "'engine.phantom_counter'" in message

    def test_test_reference_accounts_the_charge(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/m.py": """\
                    def charge(registry):
                        registry.count("engine.phantom_counter")
                    """,
                "tests/test_m.py": (
                    "EXPECTED = ['engine.phantom_counter']\n"
                ),
            },
            rules=["RL014"],
        )
        assert codes(report) == []

    def test_fstring_charge_matches_by_skeleton(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/m.py": """\
                    def charge(registry, name):
                        registry.count(f"index.{name}.reads")
                    """,
                "tests/test_m.py": "EXPECTED = ['index.rtree.reads']\n",
            },
            rules=["RL014"],
        )
        assert codes(report) == []

    def test_unmatched_fstring_skeleton_fires(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/m.py": """\
                    def charge(registry, name):
                        registry.count(f"index.{name}.reads")
                    """,
                "tests/test_m.py": "EXPECTED = ['index.rtree.writes']\n",
            },
            rules=["RL014"],
        )
        (message,) = by_rule(report, "RL014")
        assert "index.{...}.reads" in message

    def test_seconds_convention_is_exempt(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/m.py": """\
                    def charge(registry, elapsed):
                        registry.count("engine.warm.seconds", elapsed)
                    """,
            },
            rules=["RL014"],
        )
        assert codes(report) == []


class TestExceptionContract:
    """RL015: the facade's transitive raise-set is ReproError-only."""

    _FACADE = {
        "src/repro/__init__.py": """\
            from .api import api_fn

            __all__ = ["api_fn"]
            """,
        "src/repro/api.py": """\
            from .helpers import check

            def api_fn(x):
                return check(x)
            """,
    }

    def test_transitive_builtin_raise_fires(self, lint_project) -> None:
        report = lint_project(
            {
                **self._FACADE,
                "src/repro/helpers.py": """\
                    def check(x):
                        if x < 0:
                            raise ValueError(x)
                        return x
                    """,
            },
            rules=["RL015"],
        )
        assert codes(report) == ["RL015"]
        (violation,) = report.violations
        assert violation.path == "src/repro/helpers.py"
        assert "raises builtin ValueError" in violation.message

    def test_off_hierarchy_project_class_fires(self, lint_project) -> None:
        report = lint_project(
            {
                **self._FACADE,
                "src/repro/oops.py": """\
                    class Oops(Exception):
                        pass
                    """,
                "src/repro/helpers.py": """\
                    from .oops import Oops

                    def check(x):
                        if x < 0:
                            raise Oops(x)
                        return x
                    """,
            },
            rules=["RL015"],
        )
        (message,) = by_rule(report, "RL015")
        assert "Oops" in message
        assert "outside the ReproError hierarchy" in message

    def test_domain_subclass_is_clean(self, lint_project) -> None:
        report = lint_project(
            {
                **self._FACADE,
                "src/repro/exceptions.py": """\
                    class ReproError(Exception):
                        pass

                    class BadInput(ReproError):
                        pass
                    """,
                "src/repro/helpers.py": """\
                    from .exceptions import BadInput

                    def check(x):
                        if x < 0:
                            raise BadInput(x)
                        return x
                    """,
            },
            rules=["RL015"],
        )
        assert codes(report) == []

    def test_raise_outside_facade_closure_is_ignored(self, lint_project) -> None:
        report = lint_project(
            {
                **self._FACADE,
                "src/repro/helpers.py": """\
                    def check(x):
                        return x

                    def _internal_probe(x):
                        raise ValueError(x)
                    """,
            },
            rules=["RL015"],
        )
        assert codes(report) == []
