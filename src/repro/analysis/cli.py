"""``python -m repro lint`` — the simlint command-line front end.

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage /
configuration errors. ``--update-baseline`` rewrites the committed
baseline from the current findings (the ratchet: run it only to shrink
the file or to adopt a deliberate, justified exception).

Incremental runs are the default: results are keyed by content hashes
under ``.simlint-cache/`` at the repo root, so an unchanged tree
replays instantly. ``--no-cache`` forces a cold run (CI runs both and
gates on the warm one being >=5x faster); ``--changed`` narrows the
scan to files git reports as modified — the fast pre-commit loop, with
the caveat that cross-file rules only see the changed subset, so CI
still runs the full tree.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    missing_file_entries,
    split_by_baseline,
)
from repro.analysis.cache import LintCache
from repro.analysis.config import load_config
from repro.analysis.engine import find_repo_root, run_lint
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.rules import all_rules

__all__ = ["main"]

EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _default_paths() -> list[Path]:
    import repro

    return [Path(repro.__file__).resolve().parent]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "whole-program invariant checker: determinism (syntactic and "
            "taint-flow), hot-path purity, scheme-registry completeness, "
            "stats-protocol stability, __slots__, "
            "async event-loop safety and fork safety "
            "(see docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="A,B",
        help="comma-separated rule subset (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files git reports as changed (fast pre-commit "
        "loop; cross-file rules see just the subset, CI runs the full "
        "tree)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file (default: simlint-baseline.json at the repo "
        "root, when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (CI uses this to assert the tree "
        "itself is clean)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0 "
        "(also prunes entries whose file was deleted)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache (cold run)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: .simlint-cache at the repo root)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for dataflow-facts extraction (default 1)",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print a rule's rationale plus a violating/clean example "
        "pair and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _explain(name: str) -> int:
    try:
        rule = all_rules([name])[name]
    except KeyError as exc:
        return _usage_error(str(exc.args[0]))
    print(f"{rule.name} (v{rule.version}): {rule.description}")
    if rule.rationale:
        print()
        print(textwrap.fill(rule.rationale, width=72))
    if rule.example_bad:
        print("\nviolating example:")
        print(textwrap.indent(rule.example_bad.rstrip("\n"), "    "))
    if rule.example_good:
        print("\nclean example:")
        print(textwrap.indent(rule.example_good.rstrip("\n"), "    "))
    if not (rule.rationale or rule.example_bad):
        print("\n(no extended documentation recorded for this rule)")
    return 0


def _changed_files(root: Path) -> list[Path] | None:
    """Python files git sees as modified/added/untracked, or None on error.

    ``status --porcelain`` covers staged + unstaged + untracked in one
    pass; renames report the new side. Deleted files have nothing to
    lint and are skipped.
    """
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    changed: list[Path] = []
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        status, rest = line[:2], line[3:].strip()
        if "D" in status:
            continue
        if " -> " in rest:
            rest = rest.split(" -> ")[-1]
        rest = rest.strip('"')
        if rest.endswith(".py"):
            candidate = root / rest
            if candidate.is_file():
                changed.append(candidate)
    return changed


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; redirect stdout to
        # devnull so the interpreter-exit flush does not traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(all_rules().items()):
            print(f"  {name:24s} {rule.description}")
        return 0
    if args.explain:
        return _explain(args.explain)

    paths = [Path(p) for p in args.paths] or _default_paths()
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        return _usage_error(f"no such path(s): {', '.join(missing)}")

    root = find_repo_root(paths[0])
    config = load_config(root)
    rules = None
    if args.rules:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
        try:
            rules = all_rules(names)
        except KeyError as exc:
            return _usage_error(str(exc.args[0]))

    if args.changed:
        changed = _changed_files(root)
        if changed is None:
            return _usage_error("--changed requires a working `git` checkout")
        scope = [p.resolve() for p in paths]
        paths = [
            f for f in changed
            if any(f == s or s in f.parents for s in scope)
        ]
        if not paths:
            print("simlint: no changed Python files in scope")
            return 0

    if args.jobs < 1:
        return _usage_error("--jobs must be >= 1")
    cache = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir \
            else root / ".simlint-cache"
        cache = LintCache(cache_dir)

    started = time.perf_counter()
    result = run_lint(
        paths, config=config, root=root, rules=rules,
        cache=cache, jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    # perfbench-convention timing line, on stderr so json/sarif stdout
    # stays machine-parseable; CI greps it for the warm>=5x-cold gate.
    mode = "warm" if result.cache_hit else "cold"
    print(
        f"[perfbench] simlint.run mode={mode} files={result.files_scanned} "
        f"facts_reused={result.facts_reused} wall_s={elapsed:.3f}",
        file=sys.stderr,
    )

    baseline = Baseline()
    baseline_path = Path(args.baseline) if args.baseline else root / config.baseline_name
    if args.update_baseline:
        pruned = 0
        if baseline_path.is_file():
            try:
                pruned = len(
                    missing_file_entries(Baseline.load(baseline_path), root)
                )
            except BaselineError:
                pass
        Baseline.from_violations(result.violations).write(baseline_path)
        print(
            f"simlint: wrote {len(result.violations)} entr"
            f"{'y' if len(result.violations) == 1 else 'ies'} to {baseline_path}"
            + (f" (pruned {pruned} deleted-file entr"
               f"{'y' if pruned == 1 else 'ies'})" if pruned else "")
        )
        return 0
    if not args.no_baseline and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            return _usage_error(str(exc))

    new, tolerated, stale = split_by_baseline(result.violations, baseline)
    for entry in missing_file_entries(baseline, root):
        print(
            f"simlint: baseline entry for deleted file {entry['path']} "
            f"(rule {entry['rule']}) can never match again — prune with "
            "--update-baseline",
            file=sys.stderr,
        )
    renderers = {"json": render_json, "sarif": render_sarif, "text": render_text}
    print(
        renderers[args.format](
            result, new=new, tolerated=tolerated, stale_baseline_entries=stale
        )
    )
    return EXIT_FINDINGS if new else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
