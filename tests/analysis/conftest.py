"""Shared simlint test helpers: lint a source snippet in isolation."""

import textwrap

import pytest

from repro.analysis.engine import LintConfig, run_lint
from repro.analysis.rules import all_rules

# Strict configuration for fixtures: no determinism allowlist, every
# module counts as hot for the slots rule. Tests select the rule under
# test explicitly so the strictness never cross-contaminates.
STRICT = LintConfig(determinism_allow=(), slots_modules=("*.py",))


@pytest.fixture
def lint(tmp_path):
    """lint(source, rules=[...]) -> LintResult over a temp module.

    ``extra`` adds sibling modules (for cross-file project rules);
    ``config`` overrides the strict default.
    """

    def write(name, text):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    def run(source, *, rules, filename="mod.py", config=STRICT, extra=None):
        write(filename, source)
        for name, text in (extra or {}).items():
            write(name, text)
        return run_lint(
            [tmp_path], config=config, root=tmp_path, rules=all_rules(rules)
        )

    return run
