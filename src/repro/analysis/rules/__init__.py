"""simlint rule registry.

A rule is a class with a unique ``name``, a one-line ``description``
and two generator hooks:

* ``check_file(source, project)`` — per-module findings;
* ``check_project(project)`` — cross-file findings (hierarchy,
  registry completeness, ...).

Register with the :func:`register_rule` class decorator; the engine
instantiates each rule once per run. Rule modules are imported here so
``all_rules()`` is complete after ``import repro.analysis.rules``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation

__all__ = ["Rule", "all_rules", "register_rule"]


class Rule:
    """Base class: override one or both check hooks.

    ``rationale`` plus the ``example_bad``/``example_good`` pair back
    ``python -m repro lint --explain <rule>``; the pair is validated by
    tests/analysis/test_explain.py (bad must trigger the rule, good
    must not).
    """

    name: str = ""
    description: str = ""
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        return iter(())


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} must set a name")
    if cls.name in _RULES:
        raise ValueError(f"rule {cls.name!r} already registered")
    _RULES[cls.name] = cls
    return cls


def all_rules(select: Iterable[str] = ()) -> dict[str, Rule]:
    """Instantiate registered rules (optionally a named subset)."""
    wanted = list(select)
    unknown = [name for name in wanted if name not in _RULES]
    if unknown:
        raise KeyError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(_RULES))}"
        )
    names = wanted or list(_RULES)
    return {name: _RULES[name]() for name in names}


# Import rule modules for their registration side effects.
from repro.analysis.rules import (  # noqa: E402, F401
    api_stability,
    async_safety,
    determinism,
    determinism_flow,
    fork_safety,
    hotpath,
    scheme_registry,
    slots,
    stats_protocol,
)
