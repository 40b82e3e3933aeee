"""Meta-test: simlint holds on the committed tree itself.

This is the gate the CI lint job enforces; keeping it in the tier-1
suite means a violation (or a stale baseline) fails fast locally too.
"""

import json
from pathlib import Path

import repro
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
from repro.analysis.engine import find_repo_root, run_lint

PACKAGE = Path(repro.__file__).resolve().parent


def test_committed_tree_is_clean(capsys):
    assert lint_main([str(PACKAGE), "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_all_nine_rules_ran():
    root = find_repo_root(PACKAGE)
    result = run_lint([PACKAGE], config=load_config(root), root=root)
    assert result.ok
    assert set(result.rules_run) == {
        "api-stability",
        "async-safety",
        "determinism",
        "determinism-flow",
        "fork-safety",
        "hot-path-purity",
        "scheme-registry",
        "stats-protocol",
        "slots",
    }
    assert result.files_scanned > 50  # the whole package, not a corner


def test_committed_baseline_is_empty():
    baseline = find_repo_root(PACKAGE) / "simlint-baseline.json"
    document = json.loads(baseline.read_text())
    assert document == {"version": 1, "entries": []}
