"""The ``python -m repro lint`` front end: exit codes, formats,
baseline flow, and one injected violation per rule (the acceptance
contract: every rule can fail a run through the real CLI)."""

import json
import textwrap

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.cli import main as lint_main

# A pyproject override making the temp tree behave like the real one:
# no determinism allowlist, every module hot for the slots rule. This
# also exercises the [tool.simlint] loading path end to end.
PYPROJECT = """
    [tool.simlint]
    determinism-allow = []
    slots-modules = ["*.py"]
    api-types-modules = ["mod.py"]
    api-construction-allow = []
"""

INJECTED = {
    "api-stability": """
        from dataclasses import dataclass

        API_SCHEMA = 1

        @dataclass
        class LooseRequest:
            value: int = 0
        """,
    "determinism": """
        import time

        def stamp():
            return time.time()
        """,
    "hot-path-purity": """
        def gather_fast(xs):
            return [x + 1 for x in xs]
        """,
    "scheme-registry": """
        class DRAMCacheBase:
            pass

        class OrphanCache(DRAMCacheBase):
            def _access_fast(self, address, now, is_write):
                self._hit = True
                return now

        def register_scheme(name, builder):
            pass

        register_scheme("other", lambda ctx: DRAMCacheBase())
        """,
    "stats-protocol": """
        class Stats:
            def to_dict(self):
                return {"hits": 1, "hits": 2}
        """,
    "slots": """
        class Block:
            def __init__(self):
                self.tag = 0
        """,
}

CLEAN = """
    def add_fast(a, b):
        return a + b
"""


@pytest.fixture
def repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(PYPROJECT))

    def write(source, name="mod.py"):
        (tmp_path / name).write_text(textwrap.dedent(source))
        return tmp_path

    return write


@pytest.mark.parametrize("rule", sorted(INJECTED))
def test_injected_violation_fails_each_rule(repo, rule, capsys):
    root = repo(INJECTED[rule])
    assert lint_main([str(root), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert f" {rule}: " in out


def test_clean_tree_exits_zero(repo, capsys):
    root = repo(CLEAN)
    assert lint_main([str(root), "--no-baseline"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_repro_lint_subcommand_dispatches(repo, capsys):
    root = repo(INJECTED["determinism"])
    assert repro_main(["lint", str(root), "--no-baseline"]) == 1
    assert "determinism" in capsys.readouterr().out


def test_rule_selection_limits_the_run(repo):
    root = repo(INJECTED["determinism"])
    assert lint_main([str(root), "--rules", "slots", "--no-baseline"]) == 0
    assert lint_main([str(root), "--rules", "determinism", "--no-baseline"]) == 1


def test_unknown_rule_is_a_usage_error(repo, capsys):
    root = repo(CLEAN)
    assert lint_main([str(root), "--rules", "nope"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "ghost")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_all_six(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in INJECTED:
        assert rule in out


def test_json_format_reports_summary(repo, capsys):
    root = repo(INJECTED["determinism"])
    assert lint_main([str(root), "--format", "json", "--no-baseline"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["new"] == 1
    assert document["violations"][0]["rule"] == "determinism"


class TestBaselineFlow:
    def test_update_then_tolerate_then_stale(self, repo, capsys):
        root = repo(INJECTED["determinism"])
        baseline = root / "simlint-baseline.json"

        # 1. findings fail the gate.
        assert lint_main([str(root)]) == 1
        # 2. adopt them into the baseline; the gate goes green.
        assert lint_main([str(root), "--update-baseline"]) == 0
        assert baseline.is_file()
        assert lint_main([str(root)]) == 0
        assert "[baselined]" in capsys.readouterr().out
        # 3. a second, new finding still fails.
        repo(INJECTED["determinism"] + "\n\ndef other():\n    return time.time_ns()\n")
        assert lint_main([str(root)]) == 1
        # 4. fixing the code leaves the entry stale (and the gate green).
        repo(CLEAN)
        assert lint_main([str(root)]) == 0
        assert "stale baseline" in capsys.readouterr().out

    def test_malformed_baseline_is_a_usage_error(self, repo, capsys):
        root = repo(CLEAN)
        (root / "simlint-baseline.json").write_text("[]")
        assert lint_main([str(root)]) == 2
        assert "baseline" in capsys.readouterr().err
