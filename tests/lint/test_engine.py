"""Engine semantics: suppressions, parse errors, reporters, and the CLI.

Ends with the self-check the whole PR hangs on: ``repro lint src/repro``
over the shipped tree exits 0 — the analyzer's own invariants hold for
the package that defines them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.exceptions import ValidationError
from repro.lint import (
    LintReport,
    StaleSuppression,
    apply_suppressions,
    prune_suppressions,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import PARSE_ERROR_CODE

from .conftest import codes

REPO_ROOT = Path(__file__).resolve().parents[2]

_BARE_RAISE = """\
def f(x):
    raise ValueError(x)
"""


class TestSuppressions:
    def test_inline_suppression_moves_finding_to_suppressed(
        self, lint_project
    ) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    raise ValueError(x)  # repro-lint: disable=RL004
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == []
        assert [v.rule for v in report.suppressed] == ["RL004"]
        assert report.exit_code == 0

    def test_suppression_only_covers_its_own_line(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    # repro-lint: disable=RL004
                    raise ValueError(x)
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == ["RL004"]

    def test_suppression_is_per_rule(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    raise ValueError(x)  # repro-lint: disable=RL003
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == ["RL004"]

    def test_disable_file_waives_the_whole_module(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                # repro-lint: disable-file=RL004

                def f(x):
                    raise ValueError(x)

                def g(x):
                    raise TypeError(x)
                """
            },
            rules=["RL004"],
        )
        assert codes(report) == []
        assert len(report.suppressed) == 2

    def test_disable_all_waives_every_rule(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                import time

                def f(x):
                    return time.time() or x  # repro-lint: disable=all
                """
            },
            rules=["RL003"],
        )
        assert codes(report) == []
        assert len(report.suppressed) == 1


class TestEngineBehaviour:
    def test_unparseable_file_yields_rl000(self, lint_project) -> None:
        report = lint_project({"src/pkg/broken.py": "def f(:\n"})
        assert codes(report) == [PARSE_ERROR_CODE]
        assert report.files_checked == 1
        assert report.exit_code == 1

    def test_empty_path_list_is_rejected(self) -> None:
        with pytest.raises(ValidationError):
            run_lint([])

    def test_missing_path_is_rejected(self, tmp_path) -> None:
        with pytest.raises(ValidationError):
            run_lint([tmp_path / "nope"])

    def test_unknown_rule_is_rejected(self, lint_project) -> None:
        with pytest.raises(ValidationError, match="unknown lint rule"):
            lint_project({"src/pkg/mod.py": "x = 1\n"}, rules=["RL999"])

    def test_report_json_shape(self, lint_project) -> None:
        report = lint_project({"src/pkg/mod.py": _BARE_RAISE}, rules=["RL004"])
        doc = json.loads(report.to_json())
        assert doc["summary"] == {"violations": 1, "suppressed": 0, "stale": 0}
        assert doc["rules"] == ["RL004"]
        (entry,) = doc["violations"]
        assert entry["rule"] == "RL004"
        assert entry["path"] == "src/pkg/mod.py"
        assert entry["line"] == 2

    def test_report_render_table(self, lint_project) -> None:
        report = lint_project({"src/pkg/mod.py": _BARE_RAISE}, rules=["RL004"])
        text = report.render()
        assert "rule" in text and "location" in text
        assert "src/pkg/mod.py:2:" in text
        assert "1 violation(s)" in text

    def test_clean_run_reports_zero(self, lint_project) -> None:
        report = lint_project({"src/pkg/mod.py": "x = 1\n"})
        assert isinstance(report, LintReport)
        assert report.exit_code == 0
        assert "0 violation(s)" in report.render()


class TestApplySuppressions:
    def test_round_trip_silences_the_finding(self, lint_project) -> None:
        report = lint_project({"src/pkg/mod.py": _BARE_RAISE}, rules=["RL004"])
        assert report.exit_code == 1
        changed = apply_suppressions(report)
        assert [p.name for p in changed] == ["mod.py"]
        text = (report.root / "src/pkg/mod.py").read_text()
        assert "# repro-lint: disable=RL004" in text
        again = run_lint([report.root / "src"], rules=["RL004"], root=report.root)
        assert again.exit_code == 0
        assert [v.rule for v in again.suppressed] == ["RL004"]

    def test_existing_waiver_comment_gains_the_new_code(
        self, lint_project
    ) -> None:
        source = """\
        def f(x):
            raise ValueError(x)  # repro-lint: disable=RL003 -- perf probe
        """
        report = lint_project({"src/pkg/mod.py": source}, rules=["RL004"])
        assert report.exit_code == 1
        changed = apply_suppressions(report)
        assert [p.name for p in changed] == ["mod.py"]
        text = (report.root / "src/pkg/mod.py").read_text()
        # Codes are merged into the one existing comment — deduped,
        # sorted — with the justification tail preserved.
        assert "# repro-lint: disable=RL003,RL004 -- perf probe" in text
        assert text.count("repro-lint") == 1
        again = run_lint(
            [report.root / "src"], rules=["RL004"], root=report.root
        )
        assert again.exit_code == 0
        assert [v.rule for v in again.suppressed] == ["RL004"]


class TestStaleSuppressions:
    def test_stale_line_waiver_is_reported(self, lint_project) -> None:
        report = lint_project(
            {"src/pkg/mod.py": "X = 1  # repro-lint: disable=RL004\n"},
            rules=["RL004"],
        )
        assert codes(report) == []
        (stale,) = report.stale
        assert stale == StaleSuppression("src/pkg/mod.py", 1, "RL004", "line")
        doc = json.loads(report.to_json())
        assert doc["summary"]["stale"] == 1
        assert doc["stale"] == [
            {
                "path": "src/pkg/mod.py",
                "line": 1,
                "rule": "RL004",
                "scope": "line",
            }
        ]
        assert "1 stale waiver(s)" in report.render()

    def test_live_waiver_is_not_stale(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": """\
                def f(x):
                    raise ValueError(x)  # repro-lint: disable=RL004
                """
            },
            rules=["RL004"],
        )
        assert report.stale == []

    def test_stale_file_waiver_is_reported(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": (
                    "# repro-lint: disable-file=RL004\nX = 1\n"
                )
            },
            rules=["RL004"],
        )
        (stale,) = report.stale
        assert stale.scope == "file"
        assert (stale.rule, stale.line) == ("RL004", 1)

    def test_unexecuted_rule_code_is_never_stale(self, lint_project) -> None:
        # RL013 did not run, so its waiver cannot be judged stale.
        report = lint_project(
            {"src/pkg/mod.py": "X = 1  # repro-lint: disable=RL013\n"},
            rules=["RL004"],
        )
        assert report.stale == []

    @pytest.mark.parametrize("rules", [None, ["RL004"], ["RL013"]])
    def test_unknown_rule_code_is_always_stale(
        self, lint_project, rules
    ) -> None:
        # No rule in the pack has these codes (RL009 is retired, RL099
        # never existed), so no --rules selection can make them live.
        report = lint_project(
            {
                "src/pkg/mod.py": (
                    "# repro-lint: disable-file=RL009\n"
                    "X = 1  # repro-lint: disable=RL099\n"
                )
            },
            rules=rules,
        )
        assert report.stale == [
            StaleSuppression("src/pkg/mod.py", 1, "RL009", "file"),
            StaleSuppression("src/pkg/mod.py", 2, "RL099", "line"),
        ]


class TestPruneSuppressions:
    def test_stale_comment_is_removed(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": (
                    "X = 1  # repro-lint: disable=RL004 -- old reason\n"
                )
            },
            rules=["RL004"],
        )
        changed = prune_suppressions(report)
        assert [p.name for p in changed] == ["mod.py"]
        assert (report.root / "src/pkg/mod.py").read_text() == "X = 1\n"

    def test_live_code_survives_partial_prune(self, lint_project) -> None:
        source = """\
        def f(x):
            raise ValueError(x)  # repro-lint: disable=RL003,RL004
        """
        report = lint_project(
            {"src/pkg/mod.py": source}, rules=["RL003", "RL004"]
        )
        assert [s.rule for s in report.stale] == ["RL003"]
        prune_suppressions(report)
        text = (report.root / "src/pkg/mod.py").read_text()
        assert "# repro-lint: disable=RL004" in text
        assert "RL003" not in text

    def test_whole_line_directive_is_deleted(self, lint_project) -> None:
        report = lint_project(
            {
                "src/pkg/mod.py": (
                    "# repro-lint: disable-file=RL004\nX = 1\n"
                )
            },
            rules=["RL004"],
        )
        prune_suppressions(report)
        assert (report.root / "src/pkg/mod.py").read_text() == "X = 1\n"

    def test_prune_then_relint_reports_nothing_stale(self, lint_project) -> None:
        report = lint_project(
            {"src/pkg/mod.py": "X = 1  # repro-lint: disable=RL004\n"},
            rules=["RL004"],
        )
        prune_suppressions(report)
        again = run_lint(
            [report.root / "src"], rules=["RL004"], root=report.root
        )
        assert again.stale == []
        assert again.exit_code == 0

    def test_unknown_code_is_pruned_beside_a_live_one(
        self, lint_project
    ) -> None:
        source = """\
        def f(x):
            raise ValueError(x)  # repro-lint: disable=RL004,RL999
        """
        report = lint_project({"src/pkg/mod.py": source})
        assert [s.rule for s in report.stale] == ["RL999"]
        prune_suppressions(report)
        text = (report.root / "src/pkg/mod.py").read_text()
        assert "# repro-lint: disable=RL004\n" in text
        again = run_lint([report.root / "src"], root=report.root)
        assert again.stale == []
        assert again.exit_code == 0


class TestDeterminism:
    _FILES = {
        "src/pkg/__init__.py": "",
        "src/pkg/engine.py": """\
        from .cascade import Cascade

        class QueryEngine:
            def __init__(self):
                self._cascade = Cascade()

            def search(self, q):
                return self._cascade.run(q)
        """,
        "src/pkg/cascade.py": """\
        class Cascade:
            def __init__(self):
                self._hits = 0

            def run(self, q):
                self._hits += 1
                raise ValueError(q)
        """,
    }

    def test_two_runs_emit_identical_json_bytes(self, lint_project) -> None:
        first = lint_project(self._FILES)
        second = lint_project(self._FILES)
        assert first.violations  # semantic + per-file findings present
        assert first.to_json() == second.to_json()

    def test_report_is_independent_of_path_order(self, lint_project) -> None:
        report = lint_project(self._FILES)
        root = report.root
        paths = [
            root / "src/pkg/cascade.py",
            root / "src/pkg/engine.py",
            root / "src/pkg/__init__.py",
        ]
        forward = run_lint(paths, root=root)
        reverse = run_lint(list(reversed(paths)), root=root)
        assert forward.to_json() == reverse.to_json()


class TestCli:
    def _project(self, tmp_path: Path, source: str) -> Path:
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "fx"\n')
        mod = tmp_path / "src" / "pkg" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(source)
        return tmp_path

    def test_violation_exits_nonzero_with_table(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, _BARE_RAISE)
        code = repro_main(
            ["lint", str(root / "src"), "--rules", "RL004"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RL004" in out and "1 violation(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, "x = 1\n")
        code = repro_main(["lint", str(root / "src")])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_json_format_emits_artifact(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, _BARE_RAISE)
        code = repro_main(
            ["lint", str(root / "src"), "--rules", "RL004", "--format", "json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["violations"] == 1

    def test_unknown_rule_is_a_clean_cli_error(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, "x = 1\n")
        code = repro_main(["lint", str(root / "src"), "--rules", "RL999"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "unknown lint rule" in captured.err

    def test_fix_suppressions_flag(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, _BARE_RAISE)
        code = repro_main(
            ["lint", str(root / "src"), "--rules", "RL004", "--fix-suppressions"]
        )
        assert code == 0
        assert "added suppressions for 1 violation(s)" in capsys.readouterr().out
        assert "disable=RL004" in (root / "src" / "pkg" / "mod.py").read_text()

    def test_prune_suppressions_flag(self, tmp_path, capsys) -> None:
        root = self._project(
            tmp_path, "X = 1  # repro-lint: disable=RL004\n"
        )
        code = repro_main(
            [
                "lint",
                str(root / "src"),
                "--rules",
                "RL004",
                "--prune-suppressions",
            ]
        )
        assert code == 0
        assert "removed 1 stale waiver(s)" in capsys.readouterr().out
        text = (root / "src" / "pkg" / "mod.py").read_text()
        assert "repro-lint" not in text

    def test_graph_flag_writes_json_artifact(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, "def f():\n    return 1\n")
        out = tmp_path / "graph.json"
        code = repro_main(
            [
                "lint",
                str(root / "src"),
                "--rules",
                "RL007",
                "--graph",
                str(out),
            ]
        )
        assert code == 0
        assert f"wrote call graph to {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert any(node["key"] == "pkg.mod:f" for node in doc["nodes"])

    def test_graph_flag_writes_dot_by_extension(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, "def f():\n    return 1\n")
        out = tmp_path / "graph.dot"
        code = repro_main(
            ["lint", str(root / "src"), "--rules", "RL007", "--graph", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("digraph callgraph {")

    def test_standalone_entry_point_delegates(self, tmp_path, capsys) -> None:
        root = self._project(tmp_path, _BARE_RAISE)
        code = lint_main([str(root / "src"), "--rules", "RL004"])
        assert code == 1
        assert "RL004" in capsys.readouterr().out


class TestShippedTree:
    def test_repro_lint_src_is_clean(self, capsys) -> None:
        """The analyzer's own package tree passes its own rule pack."""
        code = repro_main(
            [
                "lint",
                str(REPO_ROOT / "src"),
                "--project-root",
                str(REPO_ROOT),
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc["violations"]
        assert doc["summary"]["violations"] == 0
        assert doc["rules"] == [
            "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL010", "RL013", "RL014", "RL015",
        ]
        assert doc["summary"]["stale"] == 0
        assert doc["files_checked"] > 50
