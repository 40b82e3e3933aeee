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
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation
from repro.analysis.rules import Rule, register_rule

_WALLCLOCK_TIME_ATTRS = {"time", "time_ns", "localtime", "gmtime", "ctime"}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
# numpy.random members that are seeded-generator constructors, not the
# legacy global-state API.
_NUMPY_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}
_RANDOM_MODULE_OK = {"Random"}
_UNORDERED_LISTING = {("os", "listdir"), ("os", "scandir"),
                      ("glob", "glob"), ("glob", "iglob")}


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
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

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        if any(source.matches(glob) for glob in project.config.determinism_allow):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(source, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(source, node)

    # -- calls ---------------------------------------------------------
    def _check_call(
        self, source: SourceFile, node: ast.Call
    ) -> Iterator[Violation]:
        imports = source.imports
        func = node.func
        if isinstance(func, ast.Name):
            origin = imports.member_origin(func.id)
            if origin is None:
                if func.id == "hash":
                    yield source.violation(
                        self.name, node,
                        "builtin hash() is randomized per process for "
                        "str/bytes (PYTHONHASHSEED); derive sampling and "
                        "bucketing from a seeded hash instead (see "
                        "repro.mrc.engine.sample_addresses)",
                    )
                return
            module, original = origin
            if module == "random" and original not in _RANDOM_MODULE_OK:
                yield source.violation(
                    self.name, node,
                    f"from-imported random.{original} uses the global "
                    "unseeded RNG; use a seeded random.Random instance",
                )
            elif module == "time" and original in _WALLCLOCK_TIME_ATTRS:
                yield source.violation(
                    self.name, node,
                    f"time.{original} reads the wall clock; sim-core results "
                    "must be a pure function of config + seed",
                )
            elif module == "datetime" and original in ("datetime", "date"):
                pass  # constructor with explicit fields is fine
            return
        chain = _attr_chain(func)
        if not chain:
            return
        head, attrs = chain[0], chain[1:]
        if not attrs:
            return
        # time.* wall clock (incl. strftime's implicit localtime()).
        if imports.resolves_to_module(head, "time"):
            attr = attrs[0]
            if attr in _WALLCLOCK_TIME_ATTRS or (
                attr == "strftime" and len(node.args) < 2
            ):
                yield source.violation(
                    self.name, node,
                    f"time.{attr} reads the wall clock; sim-core results "
                    "must be a pure function of config + seed",
                )
            return
        # datetime.now / datetime.datetime.now / date.today ...
        tail = attrs[-1]
        if tail in _WALLCLOCK_DATETIME_ATTRS:
            root_is_datetime = imports.resolves_to_module(head, "datetime")
            origin = imports.member_origin(head)
            member_is_datetime = origin is not None and origin[0] == "datetime"
            if root_is_datetime or member_is_datetime:
                yield source.violation(
                    self.name, node,
                    f"datetime {tail}() reads the wall clock; pass explicit "
                    "timestamps through the config instead",
                )
                return
        # random.<fn> on the module's hidden global RNG.
        if imports.resolves_to_module(head, "random"):
            attr = attrs[0]
            if attr not in _RANDOM_MODULE_OK:
                yield source.violation(
                    self.name, node,
                    f"random.{attr} uses the global unseeded RNG; use a "
                    "seeded random.Random instance",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                yield source.violation(
                    self.name, node,
                    "random.Random() without a seed draws from the OS; "
                    "pass an explicit seed",
                )
            return
        # numpy.random.* global state / unseeded default_rng().
        if (
            imports.resolves_to_module(head, "numpy")
            and len(attrs) >= 2
            and attrs[0] == "random"
        ):
            attr = attrs[1]
            if attr not in _NUMPY_RANDOM_OK:
                yield source.violation(
                    self.name, node,
                    f"numpy.random.{attr} mutates/reads numpy's global RNG "
                    "state; use numpy.random.default_rng(seed)",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                yield source.violation(
                    self.name, node,
                    "numpy.random.default_rng() without a seed draws from "
                    "the OS; pass an explicit seed or SeedSequence",
                )

    # -- iteration order -----------------------------------------------
    def _check_iteration(
        self, source: SourceFile, node: ast.For | ast.AsyncFor
    ) -> Iterator[Violation]:
        imports = source.imports
        iter_expr = node.iter
        chain = _attr_chain(iter_expr)
        # for k in os.environ / os.environ.keys()/values()/items()
        if isinstance(iter_expr, ast.Call):
            call_chain = _attr_chain(iter_expr.func)
            if call_chain and call_chain[-1] in ("keys", "values", "items"):
                chain = call_chain[:-1]
            if call_chain and len(call_chain) == 2:
                for module, attr in _UNORDERED_LISTING:
                    if call_chain[1] == attr and imports.resolves_to_module(
                        call_chain[0], module
                    ):
                        yield source.violation(
                            self.name, node,
                            f"iterating unsorted {module}.{attr}() is "
                            "filesystem-order dependent; wrap it in sorted()",
                        )
                        return
        if (
            chain
            and len(chain) >= 2
            and imports.resolves_to_module(chain[0], "os")
            and chain[1] == "environ"
        ):
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
