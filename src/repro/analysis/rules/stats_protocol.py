"""Rule ``stats-protocol`` — ``to_dict`` keys stay flat and literal.

Every result object (``DriveResult``, ``SystemStats``,
``EnergyBreakdown``, manifests, cache snapshots) exports through one
protocol: ``to_dict()``/``stats_snapshot()`` dictionaries that
``export.flatten_stats`` folds into a single dotted namespace consumed
by the CSV/JSON exporters, the tracer and the metrics registry. A
computed key or an intra-method collision silently drops or shadows a
column in every artifact downstream. Inside any ``to_dict`` or
``stats_snapshot`` method this rule requires:

* dict-display keys and string-subscript assignments are string
  literals (dynamic keys are allowed only as f-strings with a literal
  dotted namespace prefix, e.g. ``f"dram_cache.{key}"``, or via
  ``**``/``.update(...)`` merges of other protocol objects);
* no duplicate literal key within the method;
* literal keys are non-empty and contain no whitespace, so the
  flattened dotted namespace stays addressable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation
from repro.analysis.rules import Rule, register_rule

_METHODS = ("to_dict", "stats_snapshot")


def _is_namespaced_fstring(node: ast.expr) -> bool:
    """f-string whose first chunk is a literal prefix ending in '.'."""
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return False
    first = node.values[0]
    return (
        isinstance(first, ast.Constant)
        and isinstance(first.value, str)
        and first.value.endswith(".")
        and first.value != "."
    )


@register_rule
class StatsProtocolRule(Rule):
    name = "stats-protocol"
    description = (
        "to_dict/stats_snapshot must emit literal, collision-free, "
        "flatten_stats-safe keys"
    )
    rationale = (
        "Every result object exports through to_dict()/stats_snapshot() "
        "dictionaries that flatten_stats folds into one dotted "
        "namespace consumed by the CSV/JSON exporters, the tracer and "
        "the metrics registry. A computed key or an intra-method "
        "collision silently drops or shadows a column in every "
        "downstream artifact."
    )
    example_bad = """\
class BankStats:
    def to_dict(self):
        return {"bank.reads": self.reads, "bank.reads": self.writes}
"""
    example_good = """\
class BankStats:
    def to_dict(self):
        return {"bank.reads": self.reads, "bank.writes": self.writes}
"""

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _METHODS
            ):
                yield from self._check_method(source, node)

    def _check_method(
        self, source: SourceFile, func: ast.FunctionDef
    ) -> Iterator[Violation]:
        seen: dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:  # **merge inside a display
                        continue
                    yield from self._check_key(source, func, key, seen)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        yield from self._check_key(
                            source, func, target.slice, seen
                        )

    def _check_key(
        self,
        source: SourceFile,
        func: ast.FunctionDef,
        key: ast.expr,
        seen: dict[str, int],
    ) -> Iterator[Violation]:
        where = f"{func.name}()"
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            value = key.value
            if not value or any(ch.isspace() for ch in value):
                yield source.violation(
                    self.name, key,
                    f"{where} key {value!r} is not flatten_stats-safe "
                    "(empty or contains whitespace)",
                )
                return
            if value in seen:
                yield source.violation(
                    self.name, key,
                    f"{where} emits duplicate key {value!r} (first at line "
                    f"{seen[value]}); the later value silently shadows the "
                    "earlier one in every export",
                )
            else:
                seen[value] = key.lineno
            return
        if isinstance(key, ast.Constant):
            return  # non-string constant (int index etc.): not a stat key
        if _is_namespaced_fstring(key):
            return  # literal dotted namespace merge, e.g. f"dram_cache.{k}"
        rendered = ast.unparse(key)
        yield source.violation(
            self.name, key,
            f"{where} uses computed key {rendered!r}; protocol keys must "
            "be string literals (or f-strings with a literal dotted "
            "namespace prefix) so consumers can rely on them",
        )
