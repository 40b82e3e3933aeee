"""The ``python -m repro lint`` front end: exit codes, formats, and one
injected violation per rule (the acceptance contract: every rule can
fail a run through the real CLI)."""

import json
import textwrap

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import all_rules

# rule -> (file, source). Each file sits where the rule's default scope
# globs reach (api/types.py, server/*, dram/*.py) and violates only the
# rule it is keyed under.
INJECTED = {
    "api-stability": ("api/types.py", """
        from dataclasses import dataclass

        API_SCHEMA = 1

        @dataclass
        class LooseRequest:
            value: int = 0
        """),
    "async-safety": ("server/daemon.py", """
        import time

        async def handle(request):
            time.sleep(0.05)
            return request
        """),
    "determinism": ("mod.py", """
        import time

        def stamp():
            return time.time()
        """),
    "determinism-flow": ("mod.py", """
        class Stats:
            def to_dict(self):
                return {"ident": id(self) % 7}
        """),
    "fork-safety": ("mod.py", """
        from repro.harness.parallel import run_grid

        LOG = open("grid.log", "a")

        def worker(cell):
            LOG.write(str(cell))
            return cell

        def campaign(cells):
            return run_grid(worker, cells)
        """),
    "hot-path-purity": ("mod.py", """
        def gather_fast(xs):
            return [x + 1 for x in xs]
        """),
    "scheme-registry": ("mod.py", """
        class DRAMCacheBase:
            pass

        class OrphanCache(DRAMCacheBase):
            def _access_fast(self, address, now, is_write):
                self._hit = True
                return now

        def register_scheme(name, builder):
            pass

        register_scheme("other", lambda ctx: DRAMCacheBase())
        """),
    "stats-protocol": ("mod.py", """
        class Stats:
            def to_dict(self):
                return {"hits": 1, "hits": 2}
        """),
    "slots": ("dram/block.py", """
        class Block:
            def __init__(self):
                self.tag = 0
        """),
}
TIMED = INJECTED["determinism"][1]

CLEAN = """
    def add_fast(a, b):
        return a + b
"""


@pytest.fixture
def repo(tmp_path):
    # The lint root is the nearest directory holding a pyproject.toml,
    # so fixture paths stay relative to tmp_path.
    (tmp_path / "pyproject.toml").write_text("")

    def write(source, name="mod.py"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return tmp_path

    return write


def test_every_rule_has_an_injected_violation():
    assert sorted(INJECTED) == sorted(all_rules())


@pytest.mark.parametrize("rule", sorted(INJECTED))
def test_injected_violation_fails_each_rule(repo, rule, capsys):
    name, source = INJECTED[rule]
    root = repo(source, name)
    assert lint_main([str(root)]) == 1
    findings = capsys.readouterr().out.splitlines()[:-1]  # drop the summary
    assert findings
    assert all(f" {rule}: " in line for line in findings)


def test_clean_tree_exits_zero(repo, capsys):
    root = repo(CLEAN)
    assert lint_main([str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_repro_lint_subcommand_dispatches(repo, capsys):
    root = repo(TIMED)
    assert repro_main(["lint", str(root)]) == 1
    assert "determinism" in capsys.readouterr().out


def test_rule_selection_limits_the_run(repo):
    root = repo(TIMED)
    assert lint_main([str(root), "--rules", "slots"]) == 0
    assert lint_main([str(root), "--rules", "determinism"]) == 1


def test_unknown_rule_is_a_usage_error(repo, capsys):
    root = repo(CLEAN)
    assert lint_main([str(root), "--rules", "nope"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "ghost")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_registered_rule(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == set(all_rules())


def test_json_format_reports_summary(repo, capsys):
    root = repo(TIMED)
    assert lint_main([str(root), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["findings"] == 1
    assert document["violations"][0]["rule"] == "determinism"
