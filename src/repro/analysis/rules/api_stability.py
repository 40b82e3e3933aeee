"""Rule ``api-stability`` — the ``repro.api`` wire surface stays stable.

The typed facade is a compatibility contract: clients on other machines
decode these dataclasses from the wire, and the CLI/server byte-identity
guarantee (``docs/service.md``) depends on requests being immutable and
versioned. Within the configured api-types modules this rule requires,
for every class:

* it is a ``@dataclass(frozen=True, slots=True)`` — a request that can
  be mutated after validation, or that grows ad-hoc attributes, breaks
  the "value accepted is the value executed" invariant;
* it declares a ``schema`` field defaulting to the module's
  ``API_SCHEMA`` constant, so every instance is version-stamped and
  decoders can reject skew.

Everywhere else in the package (outside the ``api_construction_allow``
globs) the wire types must not be constructed directly: the facade
constructors/factories are the single place defaulting and validation
happen, so a bare ``SimRequest(...)`` elsewhere is a validation bypass
waiting to drift. (Tests are not linted and construct freely.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.model import (
    ClassInfo, ProjectModel, SourceFile, Violation, matches_any,
)
from repro.analysis.rules import Rule, register_rule

_SCHEMA_CONST = "API_SCHEMA"


def _dataclass_flags(info: ClassInfo) -> tuple[bool, bool]:
    """(frozen, slots) as written in the @dataclass decorator."""
    frozen = slots = False
    for deco in info.node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = deco.func
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if isinstance(kw.value, ast.Constant):
                if kw.arg == "frozen":
                    frozen = bool(kw.value.value)
                elif kw.arg == "slots":
                    slots = bool(kw.value.value)
    return frozen, slots


def _has_schema_field(info: ClassInfo) -> bool:
    """``schema: int = API_SCHEMA`` present in the class body?"""
    for item in info.node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id == "schema"
            and isinstance(item.value, ast.Name)
            and item.value.id == _SCHEMA_CONST
        ):
            return True
    return False


def _called_name(node: ast.Call) -> str | None:
    """Simple (last-attribute) name of a call target."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class ApiStabilityRule(Rule):
    name = "api-stability"
    description = (
        "api wire types must be frozen, slotted and schema-versioned, "
        "and constructed only via the repro.api facade"
    )
    rationale = (
        "Clients on other machines decode the repro.api dataclasses "
        "from the wire; the byte-identity guarantee depends on requests "
        "being immutable and version-stamped. A mutable wire type "
        "breaks 'the value accepted is the value executed', a missing "
        "schema field makes version skew undetectable, and direct "
        "construction outside the facade bypasses defaulting and "
        "validation."
    )
    example_bad = """\
from dataclasses import dataclass

API_SCHEMA = 1

@dataclass
class SimRequest:
    seed: int = 0
"""
    example_good = """\
from dataclasses import dataclass

API_SCHEMA = 1

@dataclass(frozen=True, slots=True)
class SimRequest:
    seed: int = 0
    schema: int = API_SCHEMA
"""

    def _api_type_names(self, project: ProjectModel) -> set[str]:
        """Every dataclass defined in the configured api-types modules."""
        return {
            info.name
            for info in project.classes
            if info.is_dataclass
            and matches_any(info.source, project.config.api_types_modules)
        }

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        config = project.config
        if matches_any(source, config.api_types_modules):
            yield from self._check_type_definitions(source, project)
            return
        if matches_any(source, config.api_construction_allow):
            return
        yield from self._check_construction(source, project)

    # ------------------------------------------------------------------
    def _check_type_definitions(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        for info in project.classes:
            if info.source is not source:
                continue
            if not info.is_dataclass:
                yield source.violation(
                    self.name, info.node,
                    f"api type {info.name} must be a frozen dataclass "
                    "(plain classes have no stable wire shape)",
                )
                continue
            frozen, slots = _dataclass_flags(info)
            if not frozen or not slots:
                yield source.violation(
                    self.name, info.node,
                    f"api type {info.name} must declare "
                    "@dataclass(frozen=True, slots=True)",
                )
            if not _has_schema_field(info):
                yield source.violation(
                    self.name, info.node,
                    f"api type {info.name} must carry a "
                    f"'schema: int = {_SCHEMA_CONST}' field so decoders "
                    "can reject version skew",
                )

    def _check_construction(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        api_types = self._api_type_names(project)
        if not api_types:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in api_types:
                yield source.violation(
                    self.name, node,
                    f"construct {name} through the repro.api facade "
                    "(repro.api.facade / its factories), not directly — "
                    "direct construction bypasses validation",
                )
