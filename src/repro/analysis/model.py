"""Data model shared by the simlint engine and its rules.

Three layers:

* :class:`Violation` — one finding, with a content fingerprint that
  survives line renumbering (SARIF consumers track findings by it);
* :class:`SourceFile` — a parsed module: source text, AST and per-line
  ``# simlint: off=<rule>`` suppressions (imports are resolved by
  :mod:`repro.analysis.flow`);
* :class:`ProjectModel` — the cross-file view that the project-level
  rules query: the class hierarchy, dataclass inventory and
  scheme-registry instantiations, the flow layer's facts and call
  graph, and :meth:`ProjectModel.violation` to anchor a finding at a
  file and line.

:func:`matches_any` tests a module against config globs and
:func:`simple_base_name` reads a class base's name; the flow layer uses
both.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = [
    "ClassInfo",
    "ProjectModel",
    "SourceFile",
    "Violation",
    "matches_any",
    "simple_base_name",
]

#: Per-line suppression: ``# simlint: off`` (all rules) or
#: ``# simlint: off=rule-a,rule-b``. Anything after ``--`` on the same
#: comment is a free-form justification and is ignored by the matcher.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*off(?:=(?P<rules>[A-Za-z0-9_,\- ]+?))?\s*(?:--|$)"
)


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: where, which rule, and why."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    snippet: str = ""  # stripped source line, for reports + fingerprints

    def fingerprint(self) -> str:
        """Line-number-independent identity (SARIF ``partialFingerprints``).

        Built from the rule, the file and the offending source line (not
        the line *number*), so pure renumbering keeps a finding's
        identity. Identical lines in one file share a fingerprint.
        """
        return f"{self.rule}|{self.path}|{self.snippet}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class SourceFile:
    """A parsed module plus everything rules need to inspect it."""

    __slots__ = ("path", "rel", "pkgrel", "text", "lines", "tree",
                 "suppressions")

    def __init__(self, path: Path, rel: str, text: str, tree: ast.AST) -> None:
        self.path = path
        self.rel = rel
        self.pkgrel = _package_relative(rel)
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.suppressions = _parse_suppressions(self.lines)

    def is_suppressed(self, rule: str, line: int) -> bool:
        active = self.suppressions.get(line)
        return bool(active) and ("*" in active or rule in active)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(
        self, rule: str, node: ast.AST | int, message: str, *, col: int | None = None
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node`` (or a line)."""
        if isinstance(node, int):
            line, column = node, 0
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        return Violation(
            rule=rule,
            path=self.rel,
            line=line,
            col=col if col is not None else column,
            message=message,
            snippet=self.snippet(line),
        )


def matches_any(module, globs: tuple[str, ...]) -> bool:
    """Does a module (anything with ``rel`` and ``pkgrel``) match a glob?

    Each glob is tried against the repo-relative and the
    package-relative path.
    """
    return any(fnmatch(module.rel, g) or fnmatch(module.pkgrel, g) for g in globs)


def _package_relative(rel: str) -> str:
    """The path below the ``repro`` package, when there is one.

    ``src/repro/dram/bank.py`` -> ``dram/bank.py``; paths outside the
    package (tests, fixtures) fall back to the repo-relative path, so
    config globs can address either layout.
    """
    parts = rel.split("/")
    if "repro" in parts:
        below = parts[parts.index("repro") + 1:]
        if below:
            return "/".join(below)
    return rel


def _parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    for number, line in enumerate(lines, start=1):
        if "simlint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        raw = match.group("rules")
        if raw is None:
            table[number] = {"*"}
        else:
            table[number] = {part.strip() for part in raw.split(",") if part.strip()}
    return table


@dataclass
class ClassInfo:
    """One class definition, as rules see it."""

    name: str
    source: SourceFile
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # simple (last-attr) names
    is_dataclass: bool = False
    dataclass_slots: bool = False
    has_slots_attr: bool = False

    @property
    def methods(self) -> dict[str, ast.FunctionDef]:
        return {
            item.name: item
            for item in self.node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def assigns_self_attr(self, attr: str) -> bool:
        """Is ``self.<attr>`` assigned anywhere in the class body?"""
        for node in ast.walk(self.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == attr
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
        return False


def simple_base_name(base: ast.expr) -> str | None:
    """``Base``, ``mod.Base`` and ``Base[T]`` all name ``Base``."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Subscript):  # Generic[...] style
        return simple_base_name(base.value)
    return None


def classify_class(source: SourceFile, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(name=node.name, source=source, node=node)
    info.bases = [
        name for name in (simple_base_name(b) for b in node.bases) if name
    ]
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if simple_base_name(target) == "dataclass":
            info.is_dataclass = True
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                        info.dataclass_slots = bool(kw.value.value)
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    info.has_slots_attr = True
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == "__slots__":
                info.has_slots_attr = True
    return info


class ProjectModel:
    """Cross-file facts: class hierarchy, dataclasses, registry calls.

    The flow layer (:mod:`repro.analysis.flow`) hangs off this model
    lazily: ``facts`` extracts the per-module dataflow skeletons and
    ``graph`` builds the project call graph once, so the flow rules
    share both.
    """

    def __init__(self, files: list[SourceFile], config) -> None:
        self.files = files
        self.config = config
        self._by_rel = {source.rel: source for source in files}
        self._facts: list | None = None
        self._graph = None
        self.classes: list[ClassInfo] = []
        self._by_name: dict[str, list[ClassInfo]] = {}
        for source in files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    info = classify_class(source, node)
                    self.classes.append(info)
                    self._by_name.setdefault(info.name, []).append(info)
        self.dataclass_names = {c.name for c in self.classes if c.is_dataclass}
        self.registry_files = [
            source
            for source in files
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register_scheme"
                for node in ast.walk(source.tree)
            )
        ]
        self.registry_instantiated: set[str] = set()
        for source in self.registry_files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    self.registry_instantiated.add(node.func.id)

    def violation(self, rule: str, rel: str, line: int,
                  message: str) -> Violation:
        """A finding at ``line`` of the project file ``rel``."""
        return self._by_rel[rel].violation(rule, line, message)

    @property
    def facts(self) -> list:
        if self._facts is None:
            from repro.analysis.flow import extract_facts

            self._facts = [
                extract_facts(source.tree, source.rel, source.pkgrel)
                for source in self.files
            ]
        return self._facts

    @property
    def graph(self):
        if self._graph is None:
            from repro.analysis.flow import CallGraph

            self._graph = CallGraph(self.facts)
        return self._graph

    def lookup(self, name: str) -> list[ClassInfo]:
        return self._by_name.get(name, [])

    def is_subclass_of(self, info: ClassInfo, root: str) -> bool:
        """Does ``info``'s base chain (by simple name) reach ``root``?"""
        seen: set[str] = set()
        frontier = list(info.bases)
        while frontier:
            base = frontier.pop()
            if base == root:
                return True
            if base in seen:
                continue
            seen.add(base)
            for parent in self.lookup(base):
                frontier.extend(parent.bases)
        return False

    def has_ancestor_base(self, info: ClassInfo, names: set[str]) -> bool:
        """True when any (transitive) base carries one of ``names``."""
        return any(self.is_subclass_of(info, name) for name in names)
