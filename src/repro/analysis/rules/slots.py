"""Rule ``slots`` — record classes in hot modules declare ``__slots__``.

The drive loop materializes millions of per-record/per-block objects
(trace records, cache blocks, locator entries, bank access outcomes);
PR 1/PR 4 slotted them for footprint and attribute-lookup speed. A new
field added without slots silently reintroduces a per-instance
``__dict__`` — no test fails, throughput and memory just quietly
regress. Within the configured hot-path modules this rule requires:

* every ``@dataclass`` uses ``slots=True``;
* every plain class declares ``__slots__``;

except classes that are exempt by construction: ``Enum``/exception
types, and anything rooted in a dict-based ABC hierarchy (e.g. the
scheme organizations over ``DRAMCacheBase``, whose instances are
one-per-cell orchestrators, not per-record data).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation, matches_any
from repro.analysis.rules import Rule, register_rule

_EXEMPT_BASES = {
    "ABC", "Protocol", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "Exception", "BaseException", "ValueError", "RuntimeError", "TypeError",
    "KeyError", "OSError",
}


@register_rule
class SlotsRule(Rule):
    name = "slots"
    description = (
        "hot-path record classes must declare __slots__ "
        "(dataclasses: slots=True)"
    )
    rationale = (
        "The drive loop materializes millions of per-record objects "
        "(trace records, cache blocks, locator entries). A class "
        "without __slots__ carries a per-instance __dict__ — no test "
        "fails, footprint and attribute-lookup speed just quietly "
        "regress. Enum/exception/ABC-rooted classes are exempt by "
        "construction."
    )
    example_bad = """\
class TraceRecord:
    def __init__(self, address, is_write):
        self.address = address
        self.is_write = is_write
"""
    example_good = """\
class TraceRecord:
    __slots__ = ("address", "is_write")

    def __init__(self, address, is_write):
        self.address = address
        self.is_write = is_write
"""

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        if not matches_any(source, project.config.slots_modules):
            return
        for info in project.classes:
            if info.source is not source:
                continue
            if set(info.bases) & _EXEMPT_BASES:
                continue
            if project.has_ancestor_base(info, _EXEMPT_BASES):
                continue
            if info.is_dataclass:
                if not info.dataclass_slots:
                    yield source.violation(
                        self.name, info.node,
                        f"dataclass {info.name} in a hot-path module must "
                        "declare @dataclass(slots=True)",
                    )
            elif not info.has_slots_attr:
                yield source.violation(
                    self.name, info.node,
                    f"class {info.name} in a hot-path module must declare "
                    "__slots__ (or be exempted with a justification)",
                )
