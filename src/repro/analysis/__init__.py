"""``repro.analysis`` — simlint, the project's AST-level invariant checker.

The test suite can only spot-check the reproduction's core invariants
at runtime (golden byte-identity, deterministic resume, allocation-free
kernels); simlint enforces the *structural* side of the same contracts
statically, before any workload runs. See ``docs/static-analysis.md``
for the rule catalog, the suppression syntax and how to add a rule.

Public surface:

* :func:`repro.analysis.engine.run_lint` — programmatic entry point;
* :mod:`repro.analysis.rules` — the rule registry (``register_rule``);
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` front end.
"""

from repro.analysis.engine import LintConfig, LintResult, run_lint
from repro.analysis.model import Violation

__all__ = [
    "LintConfig",
    "LintResult",
    "Violation",
    "run_lint",
]
