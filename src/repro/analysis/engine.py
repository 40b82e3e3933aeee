"""simlint engine: discover files, build the project model, run rules.

The engine is deliberately self-contained (stdlib ``ast`` only): it
walks the requested paths, parses every module once, builds the
cross-file :class:`ProjectModel`, runs each rule's file and project
hooks, filters per-line suppressions, and returns an ordered
:class:`LintResult`. Syntax errors and files that cannot be read or
decoded surface as ``syntax`` findings rather than crashing the run,
so one broken file cannot hide the rest of the report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.model import ProjectModel, SourceFile, Violation
from repro.analysis.rules import Rule, all_rules

__all__ = ["LintResult", "discover_files", "find_repo_root", "run_lint"]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    violations: list[Violation] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor carrying pyproject.toml / .git (else ``start``)."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file() or (candidate / ".git").exists():
            return candidate
    return start


def discover_files(paths: list[Path], config: LintConfig) -> list[Path]:
    """All .py files under ``paths``, minus excluded globs, sorted."""
    found: set[Path] = set()
    for path in paths:
        path = path.resolve()
        if path.is_file() and path.suffix == ".py":
            found.add(path)
            continue
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                found.add(candidate)
    def excluded(path: Path) -> bool:
        posix = path.as_posix()
        return any(fnmatch(posix, glob) for glob in config.exclude)

    return sorted(p for p in found if not excluded(p))


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _load(path: Path, rel: str) -> SourceFile | Violation:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Violation("syntax", rel, 1, 0, f"unreadable file: {exc}")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Violation(
            "syntax", rel, exc.lineno or 1, (exc.offset or 1) - 1,
            f"syntax error: {exc.msg}",
        )
    return SourceFile(path, rel, text, tree)


def run_lint(
    paths: list[Path],
    *,
    config: LintConfig | None = None,
    root: Path | None = None,
    rules: dict[str, Rule] | None = None,
) -> LintResult:
    """Run the rule set over ``paths``; violations come back sorted."""
    config = config or LintConfig()
    root = (root or find_repo_root(paths[0] if paths else Path.cwd())).resolve()
    active = rules if rules is not None else all_rules(config.select)

    sources: list[SourceFile] = []
    violations: list[Violation] = []
    for path in discover_files(paths, config):
        loaded = _load(path, _relative(path, root))
        if isinstance(loaded, Violation):
            violations.append(loaded)
        else:
            sources.append(loaded)

    project = ProjectModel(sources, config)
    by_rel = {source.rel: source for source in sources}
    raw: list[Violation] = []
    for rule in active.values():
        for source in sources:
            raw.extend(rule.check_file(source, project))
        raw.extend(rule.check_project(project))

    suppressed = 0
    for violation in raw:
        source = by_rel.get(violation.path)
        if source is not None and source.is_suppressed(violation.rule, violation.line):
            suppressed += 1
            continue
        violations.append(violation)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
    return LintResult(
        violations=violations,
        files_scanned=len(sources),
        rules_run=tuple(active),
        suppressed=suppressed,
    )
