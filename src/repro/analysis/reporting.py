"""simlint reporters: human text, machine JSON, and SARIF 2.1.0.

Text lines follow the compiler convention
``path:line:col: rule: message`` so editors and CI annotations pick
them up unmodified; the JSON document carries the same findings plus
the run summary for tooling; the SARIF document feeds GitHub code
scanning (``github/codeql-action/upload-sarif``) so findings annotate
pull requests inline.
"""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult
from repro.analysis.model import Violation

__all__ = ["render_json", "render_sarif", "render_text"]


def render_text(result: LintResult) -> str:
    lines = [violation.render() for violation in result.violations]
    summary = (
        f"simlint: {result.files_scanned} file(s), "
        f"{len(result.rules_run)} rule(s): "
        f"{len(result.violations)} finding(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed inline"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    document = {
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
                "snippet": violation.snippet,
            }
            for violation in result.violations
        ],
        "summary": {
            "files_scanned": result.files_scanned,
            "rules_run": list(result.rules_run),
            "findings": len(result.violations),
            "suppressed_inline": result.suppressed,
        },
    }
    return json.dumps(document, indent=2)


_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(result: LintResult) -> str:
    """One SARIF 2.1.0 run.

    The rule catalog (descriptions + rationale from the registry) rides
    in ``tool.driver.rules``; each result references it by index and
    carries the simlint content fingerprint under
    ``partialFingerprints`` so code scanning tracks findings across
    line renumbering.
    """
    from repro.analysis.rules import all_rules

    registered = all_rules()
    catalog: list[str] = sorted(
        set(result.rules_run) | {v.rule for v in result.violations}
    )
    index = {name: i for i, name in enumerate(catalog)}
    driver_rules = []
    for name in catalog:
        rule = registered.get(name)
        entry: dict = {
            "id": name,
            "shortDescription": {
                "text": rule.description if rule else name
            },
            "defaultConfiguration": {"level": "error"},
        }
        if rule is not None and rule.rationale:
            entry["fullDescription"] = {"text": rule.rationale}
        driver_rules.append(entry)

    def sarif_result(violation: Violation) -> dict:
        return {
            "ruleId": violation.rule,
            "ruleIndex": index[violation.rule],
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {
                "simlintFingerprint/v1": violation.fingerprint()
            },
        }

    document = {
        "$schema": _SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "version": "2.0.0",
                        "rules": driver_rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "originalUriBaseIds": {
                    "SRCROOT": {"description": {"text": "repository root"}}
                },
                "results": [sarif_result(v) for v in result.violations],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
