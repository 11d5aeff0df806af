"""Fixture helpers for the static-analyzer suite.

Each test builds a tiny throwaway project (a ``pyproject.toml`` plus a
handful of source files) under ``tmp_path`` and runs the real engine
over it, so every rule is exercised against genuine files on disk —
the same code path the CLI takes.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintReport, run_lint


@pytest.fixture
def lint_project(tmp_path):
    """``lint_project(files, rules=...)`` -> LintReport over a tmp tree."""

    def run(
        files: dict[str, str],
        rules: list[str] | None = None,
    ) -> LintReport:
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "fx"\n')
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        return run_lint([tmp_path / "src"], rules=rules, root=tmp_path)

    run.root = tmp_path  # type: ignore[attr-defined]
    return run


@pytest.fixture
def graph_project(tmp_path):
    """``graph_project(files)`` -> SemanticGraph over a tmp tree.

    Runs the real engine with ``want_graph=True`` (restricted to one
    cheap rule) so the graph is built exactly the way ``--graph`` and
    the semantic rules see it.
    """

    def build(files: dict[str, str]):
        (tmp_path / "pyproject.toml").write_text('[project]\nname = "fx"\n')
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        report = run_lint(
            [tmp_path / "src"],
            rules=["RL007"],
            root=tmp_path,
            want_graph=True,
        )
        assert report.graph is not None
        return report.graph

    build.root = tmp_path  # type: ignore[attr-defined]
    return build


def codes(report: LintReport) -> list[str]:
    return [violation.rule for violation in report.violations]


def by_rule(report: LintReport, rule: str) -> list[str]:
    return [v.message for v in report.violations if v.rule == rule]
