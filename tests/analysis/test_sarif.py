"""SARIF 2.1.0 output: structure, fingerprints, and the validator gate."""

import importlib.util
import json
import textwrap
from pathlib import Path

import repro
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import LintResult, find_repo_root
from repro.analysis.model import Violation
from repro.analysis.reporting import render_sarif

_ROOT = find_repo_root(Path(repro.__file__).resolve().parent)
_spec = importlib.util.spec_from_file_location(
    "sarif_check", _ROOT / "scripts" / "sarif_check.py"
)
sarif_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and sarif_check)


def make_violation(rule="determinism", path="src/mod.py", line=3):
    return Violation(
        rule=rule, path=path, line=line, col=4,
        message="time.time reads the wall clock",
        snippet="return time.time()",
    )


def render(violations):
    result = LintResult(
        violations=list(violations),
        files_scanned=1,
        rules_run=("determinism", "slots"),
    )
    return json.loads(render_sarif(result))


class TestDocumentShape:
    def test_validator_accepts_a_run_with_findings(self):
        document = render([make_violation()])
        assert sarif_check.validate(document) == []

    def test_validator_accepts_an_empty_run(self):
        document = render([])
        assert sarif_check.validate(document) == []
        assert document["runs"][0]["results"] == []

    def test_rule_catalog_and_rule_index_agree(self):
        document = render([make_violation()])
        run = document["runs"][0]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        result = run["results"][0]
        assert ids[result["ruleIndex"]] == result["ruleId"] == "determinism"
        # registry rationale rides along for code-scanning display
        by_id = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert "fullDescription" in by_id["determinism"]

    def test_location_is_one_based_and_relative(self):
        document = render([make_violation(line=3)])
        location = document["runs"][0]["results"][0]["locations"][0]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] == 5  # col 4, SARIF columns are 1-based
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert not uri.startswith("/")

    def test_fingerprint_matches_baseline_identity(self):
        violation = make_violation()
        document = render([violation])
        prints = document["runs"][0]["results"][0]["partialFingerprints"]
        assert prints["simlintFingerprint/v1"] == violation.fingerprint()


class TestValidatorRejects:
    def test_wrong_version(self):
        document = render([])
        document["version"] = "2.0.0"
        assert any("version" in e for e in sarif_check.validate(document))

    def test_unknown_rule_id(self):
        document = render([make_violation()])
        document["runs"][0]["results"][0]["ruleId"] = "ghost"
        assert any("ruleId" in e for e in sarif_check.validate(document))

    def test_zero_based_region(self):
        document = render([make_violation()])
        region = document["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        region["startLine"] = 0
        assert any("startLine" in e for e in sarif_check.validate(document))

    def test_absolute_uri(self):
        document = render([make_violation()])
        artifact = document["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["artifactLocation"]
        artifact["uri"] = "/abs/mod.py"
        assert any("uri" in e for e in sarif_check.validate(document))


class TestCliIntegration:
    def test_format_sarif_end_to_end(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(textwrap.dedent("""
            import time

            def stamp():
                return time.time()
        """))
        assert lint_main([str(tmp_path), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert sarif_check.validate(document) == []
        assert document["runs"][0]["results"][0]["ruleId"] == "determinism"

    def test_validator_script_cli(self, tmp_path):
        good = tmp_path / "good.sarif"
        good.write_text(json.dumps(render([make_violation()])))
        assert sarif_check.main(["sarif_check", str(good)]) == 0
        bad = tmp_path / "bad.sarif"
        bad.write_text("{}")
        assert sarif_check.main(["sarif_check", str(bad)]) == 1
        assert sarif_check.main(["sarif_check"]) == 2
