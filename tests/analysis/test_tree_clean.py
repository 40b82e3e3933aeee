"""Meta-test: simlint holds on the committed tree itself.

This is the gate the CI lint job enforces; keeping it in the tier-1
suite means a violation fails fast locally too.
"""

from pathlib import Path

import repro
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import find_repo_root, run_lint

PACKAGE = Path(repro.__file__).resolve().parent


def test_committed_tree_is_clean(capsys):
    assert lint_main([str(PACKAGE)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_all_nine_rules_ran():
    result = run_lint([PACKAGE], root=find_repo_root(PACKAGE))
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

