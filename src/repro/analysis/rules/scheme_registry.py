"""Rule ``scheme-registry`` — every cache organization is reachable.

The scheme registry (PR 2) replaced the ``build_cache`` if/elif chain;
since then the CLI, grids and perfbench all resolve schemes by name.
A concrete ``DRAMCacheBase`` subclass that never reaches
``register_scheme`` is dead weight the harness silently cannot
evaluate — and one that skips the ``_access_fast``/``self._hit``
contract breaks the accounting shell for every caller. This rule
checks, project-wide:

* every concrete subclass of the configured scheme base (a class that
  overrides ``_access_fast``) is instantiated somewhere in a module
  that calls ``register_scheme`` (directly in a lambda or inside a
  builder helper);
* the override takes the contract signature
  ``(self, address, now, is_write)``;
* the class assigns the ``self._hit`` scratch attribute somewhere, so
  the base accounting shell never reads a stale outcome.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.model import ProjectModel, Violation
from repro.analysis.rules import Rule, register_rule

_CONTRACT_ARGS = ("self", "address", "now", "is_write")


@register_rule
class SchemeRegistryRule(Rule):
    name = "scheme-registry"
    description = (
        "concrete DRAMCacheBase subclasses must be registered via "
        "register_scheme and honour the _access_fast/_hit contract"
    )
    rationale = (
        "The CLI, grids and perfbench resolve cache organizations by "
        "name through the scheme registry. A concrete subclass that "
        "never reaches register_scheme is dead weight the harness "
        "cannot evaluate; one that deviates from the _access_fast "
        "signature or never assigns the self._hit scratch attribute "
        "breaks the accounting shell for every caller."
    )
    example_bad = """\
class SneakyCache(DRAMCacheBase):
    def _access_fast(self, address):
        return address in self.lines
"""
    example_good = """\
class DirectCache(DRAMCacheBase):
    def _access_fast(self, address, now, is_write):
        self._hit = address in self.lines
        return 1 if self._hit else 40
"""

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        base = project.config.scheme_base
        if not base:
            return
        have_registry = bool(project.registry_files)
        for info in project.classes:
            if not project.is_subclass_of(info, base):
                continue
            hook = info.methods.get("_access_fast")
            if hook is None:
                continue  # abstract/intermediate organization
            source = info.source
            if have_registry and info.name not in project.registry_instantiated:
                yield source.violation(
                    self.name, info.node,
                    f"{info.name} is a concrete {base} subclass but is never "
                    "instantiated in a register_scheme module; register it "
                    "so the CLI and grids can reach it",
                )
            args = tuple(arg.arg for arg in hook.args.args)
            if args != _CONTRACT_ARGS:
                yield source.violation(
                    self.name, hook,
                    f"{info.name}._access_fast signature {args} deviates "
                    f"from the contract {_CONTRACT_ARGS}",
                )
            if not info.assigns_self_attr("_hit"):
                yield source.violation(
                    self.name, info.node,
                    f"{info.name} never assigns self._hit; the accounting "
                    "shell would record a stale hit/miss outcome",
                )
