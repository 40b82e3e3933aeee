"""Rule ``determinism-flow`` — entropy must not *reach* exported results.

The syntactic ``determinism`` rule bans ambient-entropy reads outright
in sim-core modules. This rule covers what that one cannot see: a
wall-clock or hash-seed value picked up legitimately (or smuggled
through a helper) that **flows** into something the repo treats as a
replayable artifact — a stats export, a wire encoding, a checkpoint
result payload. It runs the interprocedural taint engine of
:mod:`repro.analysis.flow` over the whole project:

* **sources** — wall clock (``time.time``/``datetime.now``/...), OS
  entropy (``os.urandom``, ``uuid*``), process-unstable identity
  (``id()``, builtin ``hash()``, ``os.getpid``), environment reads,
  and set-iteration order;
* **sinks** — the return values of ``to_dict``/``stats_snapshot``
  methods, arguments to ``flatten_stats``/``export_json``/
  ``export_csv``/``append_mean_row``, the wire codec entry points
  (``to_wire``/``encode_line``/``dumps_strict``), and the ``result=``
  payload of a checkpoint ``append``;
* **sanitizers** — the ``determinism_allow`` module globs (obs,
  analysis, checkpoint bookkeeping): values returned *from* those
  modules are trusted, and flows whose sink lives there are exempt;
  ``sorted()`` neutralizes iteration-order taint.

Timing metadata that is *meant* to be environmental (``wall_s`` on a
checkpoint row, tracer spans) is either outside the sink argument set
or inside sanitizer modules, so it does not trip the rule.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.flow import SinkSpec, TaintAnalysis
from repro.analysis.model import ProjectModel, Violation
from repro.analysis.rules import Rule, register_rule

SINKS: list[SinkSpec] = [
    SinkSpec(
        kind="stats-export",
        resolved=frozenset({
            "repro.harness.export.flatten_stats",
            "repro.harness.export.export_json",
            "repro.harness.export.export_csv",
            "repro.harness.reporting.append_mean_row",
        }),
        return_of=frozenset({"to_dict", "stats_snapshot"}),
    ),
    SinkSpec(
        kind="wire-encode",
        resolved=frozenset({
            "repro.api.wire.to_wire",
            "repro.api.wire.encode_line",
            "repro.api.wire.dumps_strict",
        }),
    ),
    SinkSpec(
        kind="checkpoint-write",
        tails=frozenset({"append"}),
        require_kwargs=frozenset({"result"}),
        kwargs_only=frozenset({"result"}),
    ),
]

_KIND_HINTS = {
    "wallclock": "wall-clock reads replay differently on every run",
    "entropy": "OS entropy is unseedable",
    "hash-seed": "builtin hash() varies with PYTHONHASHSEED",
    "object-address": "id() varies with allocator layout",
    "process-id": "PIDs differ across runs",
    "environment": "environment contents differ across hosts",
    "set-order": "set iteration order depends on the hash seed",
}


@register_rule
class DeterminismFlowRule(Rule):
    name = "determinism-flow"
    description = (
        "ambient entropy (wall clock, hash seed, set order, env) must "
        "not flow into stats exports, wire encodings or checkpoints"
    )
    rationale = (
        "Golden-stats byte identity and checkpoint-resume exactness "
        "require every exported number to be a pure function of config "
        "+ seed. The syntactic determinism rule bans entropy reads in "
        "core modules; this flow rule catches the leak the ban cannot "
        "see — entropy read legitimately (or in an allowlisted module) "
        "that travels through helpers into a to_dict/stats/wire/"
        "checkpoint sink. sorted() launders iteration-order taint; "
        "returns from determinism_allow modules are trusted."
    )
    example_bad = """\
import time

def stamp():
    return time.time()

class Stats:
    def to_dict(self):
        return {"t": stamp()}  # wall clock flows into the export
"""
    example_good = """\
class Stats:
    def __init__(self, accesses):
        self.accesses = accesses

    def to_dict(self):
        return {"accesses": self.accesses}
"""

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        analysis = TaintAnalysis(project.graph, SINKS,
                                 project.config.determinism_allow)
        for finding in analysis.findings():
            hints = "; ".join(
                _KIND_HINTS.get(kind, kind) for kind in finding.kinds
            )
            kinds = ", ".join(finding.kinds)
            message = (
                f"{kinds} taint reaches {finding.sink_kind} sink via "
                f"{finding.via} ({hints}); derive the value from config + "
                "seed, or sanitize through an allowlisted obs/analysis "
                "helper"
            )
            yield project.violation(self.name, finding.rel, finding.lineno,
                                    message)
