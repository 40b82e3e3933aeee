"""Rule ``determinism`` — the sim core may not read ambient state.

Checkpoint/resume replay (PR 3) and the golden byte-identity suite
(PR 4) both rely on simulation results being a pure function of the
configuration and the seed. This rule statically bans, outside the
allowlisted observability/harness modules:

* wall-clock reads: ``time.time``/``time_ns``/``strftime`` with an
  implicit "now", ``datetime.now``/``utcnow``/``today``;
* ambient entropy: module-level ``random.*`` functions, zero-argument
  ``random.Random()`` / ``numpy.random.default_rng()``, the legacy
  ``numpy.random`` global-state API, and the builtin ``hash()`` —
  randomized per process for str/bytes (``PYTHONHASHSEED``), so any
  sampling or bucketing decision derived from it (e.g. the MRC ghost
  pass of :mod:`repro.mrc.engine`) would not replay;
* environment-dependent iteration order: looping directly over
  ``os.environ``, an unsorted ``os.listdir``/``os.scandir``/
  ``glob.glob``, or a set expression.

Names are resolved through the module's import table, exactly as the
flow rules resolve them (:func:`repro.analysis.flow.resolve_with_imports`),
so ``from random import randrange`` and ``import numpy.random as npr``
reach the same banned dotted names as ``random.randrange`` and
``numpy.random``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.flow import attr_chain, resolve_with_imports
from repro.analysis.model import ProjectModel, SourceFile, Violation, matches_any
from repro.analysis.rules import Rule, register_rule

_TIME = (
    "reads the wall clock; sim-core results must be a pure function of "
    "config + seed"
)
_DATETIME = (
    "reads the wall clock; pass explicit timestamps through the config "
    "instead"
)

#: Banned call targets, by dotted name after the module's imports are
#: applied (:func:`repro.analysis.flow.resolve_with_imports`).
_BANNED: dict[str, str] = {
    "hash": (
        "builtin hash() is randomized per process for str/bytes "
        "(PYTHONHASHSEED); derive sampling and bucketing from a seeded "
        "hash instead (see repro.mrc.engine.sample_addresses)"
    ),
    **{
        f"time.{attr}": f"time.{attr} {_TIME}"
        for attr in ("time", "time_ns", "localtime", "gmtime", "ctime",
                     "strftime")
    },
    **{
        name: f"datetime {name.rpartition('.')[2]}() {_DATETIME}"
        for name in (
            "datetime.now", "datetime.utcnow", "datetime.today",
            "datetime.datetime.now", "datetime.datetime.utcnow",
            "datetime.datetime.today", "datetime.date.today",
        )
    },
}

#: Modules whose functions draw from a hidden global RNG: the members
#: that build an explicit generator instead, and what to use.
_GLOBAL_RNG: dict[str, tuple[frozenset[str], str]] = {
    "random": (
        frozenset({"Random"}),
        "uses the global unseeded RNG; use a seeded random.Random instance",
    ),
    "numpy.random": (
        frozenset({
            "default_rng", "Generator", "SeedSequence", "BitGenerator",
            "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
        }),
        "mutates/reads numpy's global RNG state; use "
        "numpy.random.default_rng(seed)",
    ),
}

#: Generator constructors that draw their seed from the OS when called
#: without one.
_UNSEEDED: dict[str, str] = {
    "random.Random": "pass an explicit seed",
    "numpy.random.default_rng": "pass an explicit seed or SeedSequence",
}

_UNORDERED_LISTING = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}


def _call_message(name: str, node: ast.Call) -> str | None:
    """Why calling the resolved ``name`` reads ambient state, if it does."""
    if name in _UNSEEDED:
        if node.args or node.keywords:
            return None
        return f"{name}() without a seed draws from the OS; {_UNSEEDED[name]}"
    if name == "time.strftime" and len(node.args) >= 2:
        return None  # an explicit struct_time, not an implicit "now"
    if name in _BANNED:
        return _BANNED[name]
    for module, (seeded, why) in _GLOBAL_RNG.items():
        if name.startswith(module + "."):
            member = name[len(module) + 1:].split(".")[0]
            if member in seeded:
                return None
            imported = "from-imported " if isinstance(node.func, ast.Name) else ""
            return f"{imported}{module}.{member} {why}"
    return None


@register_rule
class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "sim core must not read wall clock, ambient entropy or "
        "environment-ordered iterables"
    )
    rationale = (
        "Checkpoint/resume replay and the golden byte-identity suite "
        "rely on simulation results being a pure function of config + "
        "seed. A wall-clock read, the global unseeded RNG, a "
        "PYTHONHASHSEED-randomized hash(), or set/filesystem iteration "
        "order smuggles ambient state into results that then fail to "
        "replay bit-identically. This rule bans the syntactic forms; "
        "its companion determinism-flow traces where such values "
        "travel."
    )
    example_bad = """\
import time

def sample_latency(events):
    return time.time() - events[-1]
"""
    example_good = """\
def sample_latency(events, now):
    return now - events[-1]
"""

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        allow = project.config.determinism_allow
        for source, facts in zip(project.files, project.facts):
            if matches_any(source, allow):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Call):
                    chain = attr_chain(node.func) or ()
                    name = resolve_with_imports(facts.imports, chain)
                    message = _call_message(name, node) if name else None
                    if message:
                        yield source.violation(self.name, node, message)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    yield from self._check_iteration(source, facts.imports, node)

    def _check_iteration(
        self, source: SourceFile, imports: dict[str, str],
        node: ast.For | ast.AsyncFor,
    ) -> Iterator[Violation]:
        iter_expr = node.iter
        chain = attr_chain(iter_expr)
        if isinstance(iter_expr, ast.Call):
            call_chain = attr_chain(iter_expr.func) or ()
            name = resolve_with_imports(imports, call_chain)
            if name in _UNORDERED_LISTING:
                yield source.violation(
                    self.name, node,
                    f"iterating unsorted {name}() is filesystem-order "
                    "dependent; wrap it in sorted()",
                )
                return
            # for k in os.environ.keys()/values()/items()
            if call_chain and call_chain[-1] in ("keys", "values", "items"):
                chain = call_chain[:-1]
        name = resolve_with_imports(imports, chain or ())
        if name == "os.environ" or (name or "").startswith("os.environ."):
            yield source.violation(
                self.name, node,
                "iterating os.environ is environment-dependent; sort or "
                "select explicit keys",
            )
            return
        if isinstance(iter_expr, ast.Set) or (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id in ("set", "frozenset")
        ):
            yield source.violation(
                self.name, node,
                "iterating a set has hash-seed-dependent order for str keys; "
                "iterate a sorted() or list form instead",
            )
