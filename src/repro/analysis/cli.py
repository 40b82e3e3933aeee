"""``python -m repro lint`` — the simlint command-line front end.

Exit codes: 0 clean, 1 findings, 2 usage errors.

Every run parses and analyzes the whole requested tree in one serial
pass; passing files or directories as arguments lints just those.
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
import time
from pathlib import Path

from repro.analysis.engine import run_lint
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
            "stats-protocol stability, __slots__, api wire-type "
            "stability, async event-loop safety and fork safety "
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
    print(f"{rule.name}: {rule.description}")
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

    rules = None
    if args.rules:
        names = [name.strip() for name in args.rules.split(",") if name.strip()]
        try:
            rules = all_rules(names)
        except KeyError as exc:
            return _usage_error(str(exc.args[0]))

    started = time.perf_counter()
    result = run_lint(paths, rules=rules)
    elapsed = time.perf_counter() - started
    # Timing line on stderr, so json/sarif stdout stays machine-parseable.
    print(
        f"[simlint] run files={result.files_scanned} "
        f"wall_s={elapsed:.3f}",
        file=sys.stderr,
    )
    renderers = {"json": render_json, "sarif": render_sarif, "text": render_text}
    print(renderers[args.format](result))
    return EXIT_FINDINGS if result.violations else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
