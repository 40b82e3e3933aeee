"""Rule ``hot-path-purity`` — ``*_fast`` functions stay allocation-lean.

The PR 4 timing kernel's throughput rests on the ``*_fast`` entry
points never hitting the allocator: the drive loop calls them hundreds
of thousands of times per cell, and one comprehension or closure per
access erases the batching win and reintroduces gc pauses (repobench's
traced run reports them as ``gc.gen0_per_krec``). Inside any function
whose name matches ``*_fast`` this rule bans:

* closures: ``lambda`` and nested ``def``;
* comprehensions and generator expressions (each allocates a fresh
  object per evaluation, plus a function object on CPython <= 3.11 and
  a frame for generators);
* ``**kwargs`` call expansion (allocates a dict per call);
* instantiating any project ``@dataclass`` (record objects belong on
  the rich wrapper path, plain ints on the fast path).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.model import ProjectModel, SourceFile, Violation
from repro.analysis.rules import Rule, register_rule

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register_rule
class HotPathPurityRule(Rule):
    name = "hot-path-purity"
    description = (
        "*_fast functions may not allocate closures, comprehensions, "
        "dataclasses or **kwargs calls"
    )
    rationale = (
        "The drive loop calls *_fast entry points hundreds of "
        "thousands of times per grid cell. One comprehension, lambda, "
        "**kwargs dict or dataclass instantiation per call erases the "
        "batching win and reintroduces gc pauses — a regression no "
        "functional test catches, only throughput numbers."
    )
    example_bad = """\
def probe_fast(tags, tag):
    return [t for t in tags if t == tag]
"""
    example_good = """\
def probe_fast(tags, tag):
    for t in tags:
        if t == tag:
            return t
    return None
"""

    def check_file(
        self, source: SourceFile, project: ProjectModel
    ) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.endswith("_fast"):
                yield from self._check_function(source, project, node)

    def _check_function(
        self,
        source: SourceFile,
        project: ProjectModel,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        label = func.name
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield source.violation(
                    self.name, node,
                    f"{label} defines nested function {node.name!r}: closure "
                    "allocation on the hot path",
                )
                continue  # findings inside it would be double counted
            if isinstance(node, ast.Lambda):
                yield source.violation(
                    self.name, node,
                    f"{label} allocates a lambda closure on the hot path",
                )
                continue
            if isinstance(node, _COMPREHENSIONS):
                kind = type(node).__name__
                yield source.violation(
                    self.name, node,
                    f"{label} allocates a {kind} per call; hoist it, or "
                    "get the answer without building a collection "
                    "(min/max with a key, list.index, in)",
                )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is None:
                        yield source.violation(
                            self.name, node,
                            f"{label} calls with **kwargs expansion "
                            "(allocates a dict per call)",
                        )
                        break
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in project.dataclass_names
                ):
                    yield source.violation(
                        self.name, node,
                        f"{label} instantiates dataclass {node.func.id!r}; "
                        "hot paths return plain ints, rich records belong "
                        "to the wrapper path",
                    )
            stack.extend(ast.iter_child_nodes(node))
