"""``--explain`` docs are executable: every rule's example pair is linted.

Each registered rule ships a ``rationale`` and an ``example_bad`` /
``example_good`` source pair shown by ``python -m repro lint --explain
<rule>``. Documentation drifts unless enforced, so this module lints
every pair under a maximally-strict config: the bad example must
trigger the rule it documents and the good example must not.
"""

from dataclasses import replace

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.rules import all_rules
from tests.analysis.conftest import STRICT

# Widen every scope gate so examples fire regardless of filename.
EXPLAIN = replace(
    STRICT,
    async_scope=("*.py",),
    api_types_modules=("*.py",),
    api_construction_allow=("*.py",),
)

RULE_NAMES = sorted(all_rules())


@pytest.mark.parametrize("name", RULE_NAMES)
def test_rule_documents_itself(name):
    rule = all_rules([name])[name]
    assert rule.rationale, f"{name} has no rationale"
    assert rule.example_bad, f"{name} has no violating example"
    assert rule.example_good, f"{name} has no clean example"


@pytest.mark.parametrize("name", RULE_NAMES)
def test_bad_example_triggers_its_rule(lint, name):
    rule = all_rules([name])[name]
    result = lint(rule.example_bad, rules=[name], config=EXPLAIN)
    hits = [v for v in result.violations if v.rule == name]
    assert hits, f"example_bad for {name} produced no {name} finding"


@pytest.mark.parametrize("name", RULE_NAMES)
def test_good_example_stays_clean(lint, name):
    rule = all_rules([name])[name]
    result = lint(rule.example_good, rules=[name], config=EXPLAIN)
    hits = [v for v in result.violations if v.rule == name]
    assert not hits, f"example_good for {name} fired: {hits[0].message}"


class TestCli:
    def test_explain_prints_rationale_and_examples(self, capsys):
        assert lint_main(["--explain", "async-safety"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("async-safety: ")
        assert "violating example:" in out
        assert "clean example:" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--explain", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err
