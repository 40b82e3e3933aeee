"""Command-line front-end: thin adapters over the ``repro.api`` facade.

Examples::

    python -m repro run fig1 --mixes Q2 Q7 --accesses 20000
    python -m repro run fig7 --jobs auto --trace-out fig7.jsonl
    python -m repro run table3 --export out/table3.json
    python -m repro dse --mixes Q1 Q7 --sample-rate 0.5
    python -m repro serve --port 7914 --state-dir .repro-serve
    python -m repro list
    python -m repro list-schemes

``run`` and ``dse`` build a typed request through :mod:`repro.api` and
execute it through the same facade the ``repro serve`` daemon uses, so
validation and defaulting happen in exactly one place and a CLI run
is byte-identical to the same request answered by a warm server
(``scripts/serve_smoke.py`` asserts this in CI). Both share one body:
server dispatch, error mapping, table, export, manifest and failure
table. ``lint`` hands its arguments to simlint, which owns its flags
and error messages. An experiment id is always spelled after ``run``
(``python -m repro run fig1``); a bare ``python -m repro fig1`` is a
usage error (exit code 2).

Exit codes (shared by run/dse/serve — see :mod:`repro.api.errors`):
0 success; 2 bad request/configuration (one clean line on stderr, never
a traceback); 3 grid completed but cells permanently failed.

Fault tolerance (see docs/robustness.md): ``run`` and ``dse`` always
collect per-cell failures instead of dying on the first one. A grid
that ends with failures still prints and exports every completed row,
lists the failed cells on stderr, records them in the manifest and
exits with code 3. ``--export`` keeps a crash-safe checkpoint beside
the artifact; ``--resume <ckpt>`` skips cells the checkpoint already
holds.
"""

from __future__ import annotations

import argparse
import sys

from repro import api
from repro.api.errors import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE


def _request_flags(parser: argparse.ArgumentParser, *, cores: int | None) -> None:
    """The flags ``run`` and ``dse`` share (``cores`` is the default)."""
    parser.add_argument("--mixes", nargs="*", default=None, help="mix subset")
    parser.add_argument("--cores", type=int, default=cores, help="4, 8 or 16")
    parser.add_argument(
        "--accesses", type=int, default=20_000, help="accesses per core"
    )
    parser.add_argument("--scale", type=int, default=16, help="capacity scale")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="worker processes for grid cells (a number or 'auto')",
    )
    parser.add_argument(
        "--export", default=None, help="write rows to this .json or .csv path"
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="record completed grid cells to this crash-safe JSONL file "
        "(defaults to <export>.ckpt.jsonl when --export is given)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="CKPT",
        help="resume from a checkpoint file: cells already recorded there "
        "are served from it, only the missing ones run",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="run on a warm `repro serve` daemon instead of locally "
        "(results are byte-identical; retries/reconnects transparently)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="bound on establishing the server connection (default 10)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget for the whole run; past it the request "
        "fails with the typed deadline_exceeded error (0 = none)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write observability JSONL events to FILE (enables per-cell "
        "progress on stderr; a .manifest.json lands next to it)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the Bi-Modal DRAM Cache paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (figure/table id)")
    run.add_argument(
        "experiment", help="experiment id (see `python -m repro list`)"
    )
    _request_flags(run, cores=None)
    run.add_argument(
        "--chart",
        default=None,
        metavar="COLUMN",
        help="also render a bar chart of this numeric column",
    )

    dse = sub.add_parser(
        "dse",
        help="MRC-guided design-space exploration (see docs/dse.md)",
    )
    _request_flags(dse, cores=4)
    dse.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        metavar="R",
        help="deterministic trace-sampling rate of the ghost pass, "
        "0 < R <= 1 (1.0 = every record; see docs/dse.md for error bounds)",
    )
    dse.add_argument(
        "--max-frontier",
        type=int,
        default=8,
        metavar="N",
        help="cap on Pareto-frontier points graduating to timing simulation",
    )

    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("list-schemes", help="list registered DRAM cache schemes")
    # `lint` is dispatched before parse_args so simlint owns its
    # argument surface; this entry only makes it show up in --help.
    sub.add_parser(
        "lint",
        help="run simlint static analysis (see docs/static-analysis.md)",
        add_help=False,
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation service daemon (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="persist grid journals/checkpoints here; a restarted server "
        "resumes unfinished grids from this directory",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        metavar="N",
        help="requests executing concurrently (admission semaphore)",
    )
    serve.add_argument(
        "--max-queued-per-client",
        type=int,
        default=8,
        metavar="N",
        help="per-client backlog bound; beyond it requests are rejected "
        "with the typed 'overloaded' error",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="graceful-drain budget after SIGTERM/SIGINT: in-flight work "
        "gets this long to finish (checkpointing as it goes) before the "
        "process force-exits (still status 0)",
    )
    return parser


def _usage_error(message: str) -> int:
    """One clean line on stderr, never a traceback."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_list() -> int:
    for spec in api.experiment_catalog().values():
        print(
            f"  {spec.name:14s} ({spec.default_cores}-core default)  "
            f"{spec.description}"
        )
    return EXIT_OK


def _cmd_list_schemes() -> int:
    # Same catalog the facade validator rejects unknown schemes against.
    from repro.harness.schemes import scheme_catalog

    for line in scheme_catalog():
        print(f"  {line}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.max_inflight < 1:
        return _usage_error(
            f"max-inflight must be >= 1 (got {args.max_inflight})"
        )
    if args.max_queued_per_client < 1:
        return _usage_error(
            f"max-queued-per-client must be >= 1 "
            f"(got {args.max_queued_per_client})"
        )
    if args.drain_timeout < 0:
        return _usage_error(
            f"drain-timeout must be >= 0 (got {args.drain_timeout})"
        )
    from repro.server import ServerConfig, serve_forever

    serve_forever(
        ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queued_per_client=args.max_queued_per_client,
            state_dir=args.state_dir or "",
            drain_timeout_s=args.drain_timeout,
        )
    )
    return EXIT_OK


def _checkpoint_path(args: argparse.Namespace) -> str | None:
    """Where this run checkpoints: --resume > --checkpoint > <export>.ckpt."""
    if args.resume:
        return args.resume
    if args.checkpoint:
        return args.checkpoint
    if args.export:
        from repro.harness import checkpoint as checkpoint_module

        return checkpoint_module.default_path(args.export)
    return None


def _parse_hostport(value: str) -> tuple[str, int] | None:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        return None
    try:
        return host, int(port)
    except ValueError:
        return None


def _request(args: argparse.Namespace):
    """The validated grid or dse request the command line describes."""
    common = dict(
        mixes=args.mixes or (),
        cores=args.cores,
        accesses_per_core=args.accesses,
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        deadline_s=args.deadline,
    )
    if args.command == "dse":
        return api.dse_request(
            sample_rate=args.sample_rate,
            max_frontier=args.max_frontier,
            **common,
        )
    return api.grid_request(args.experiment, **common)


def _cmd_request(args: argparse.Namespace, argv: list[str]) -> int:
    """``run`` and ``dse``: execute the request, then report its rows."""
    try:
        request = _request(args)
    except api.RequestError as exc:
        return _usage_error(str(exc))
    dse = args.command == "dse"
    if args.trace_out:
        from repro.obs import configure

        configure(args.trace_out, propagate_env=True)
    ckpt_path = _checkpoint_path(args)
    try:
        if args.server:
            address = _parse_hostport(args.server)
            if address is None:
                return _usage_error(
                    f"--server needs HOST:PORT (got {args.server!r})"
                )
            if ckpt_path:
                print(
                    "[repro] --server runs checkpoint on the daemon "
                    "(its keyed state dir); local checkpoint flags ignored",
                    file=sys.stderr,
                )
            from repro.api.retry import RetryPolicy

            # Reconnect-and-resume retries make a daemon restart invisible.
            with api.ServiceClient(
                *address,
                connect_timeout=args.connect_timeout,
                retry=RetryPolicy(),
            ) as client:
                execute = client.run_dse if dse else client.run_grid
                result = execute(request)
        else:
            execute = api.run_dse if dse else api.run_grid
            result = execute(
                request,
                checkpoint_path=ckpt_path,
                resume=bool(args.resume),
            )
    except (ValueError, api.ServiceError) as exc:
        # Config-shaped errors (unknown scheme/mix, bad parameter) from
        # inside an experiment get a clean one-liner, not a traceback.
        return _usage_error(str(exc))
    except (OSError, TimeoutError) as exc:
        if args.server:
            return _usage_error(f"cannot reach server {args.server}: {exc}")
        raise
    if args.resume and result.resumed_cells:
        print(
            f"[repro] resumed {result.resumed_cells} cell(s) from {ckpt_path}",
            file=sys.stderr,
        )
    rows = list(result.rows)
    from repro.harness.reporting import print_table

    if dse:
        experiment = "dse"
        print_table(rows, title="dse: MRC-guided design-space exploration")
        _print_dse_summary(result)
    else:
        experiment = request.experiment
        spec = api.get_experiment(experiment)
        print_table(rows, title=f"{experiment}: {spec.description}")
        if args.chart and rows:
            from repro.harness.figures import bar_chart

            print()
            print(bar_chart(rows, label=next(iter(rows[0])), value=args.chart))
    if args.export:
        if rows:
            from repro.harness.export import export_csv, export_json

            if args.export.endswith(".csv"):
                export_csv(rows, args.export)
            else:
                export_json(rows, args.export, experiment=experiment)
            print(f"\nwrote {args.export}")
        else:
            print(
                f"[repro] no completed rows; skipping export to {args.export}",
                file=sys.stderr,
            )
    _write_manifests(
        args, argv, experiment, api.grid_setup(request), list(result.failures)
    )
    if result.failures:
        _print_failure_table(result.failures)
        return EXIT_PARTIAL
    return EXIT_OK


def _print_dse_summary(result) -> None:
    stats = dict(result.stats)
    if result.winner:
        point = dict(result.winner)
        print(
            f"\nwinner: {point.get('cache_mb')}MB/"
            f"{point.get('block_size')}B/{point.get('associativity')}w/"
            f"{point.get('policy')}  hit_rate={point.get('hit_rate'):.4f}"
        )
    print(
        f"cost: {stats.get('full_sims_equivalent', 0):g} full-sim "
        f"equivalents vs {stats.get('exhaustive_sims', 0)} exhaustive "
        f"({stats.get('full_sims_avoided', 0)} avoided, "
        f"{stats.get('speedup', 0):g}x)"
    )


def _print_failure_table(failures) -> None:
    from repro.harness.faults import CellFailure

    print(
        f"\n[repro] grid completed with {len(failures)} failed cell(s):",
        file=sys.stderr,
    )
    for record in failures:
        print(f"  {CellFailure(**dict(record)).describe()}", file=sys.stderr)
    print(
        "[repro] completed rows were kept; failures are recorded in the "
        "run manifest (exit code 3)",
        file=sys.stderr,
    )


def _write_manifests(
    args: argparse.Namespace,
    argv: list[str],
    experiment: str,
    setup,
    failures: list[dict],
) -> None:
    """One manifest beside every artifact this invocation produced."""
    outputs = [p for p in (args.export, args.trace_out) if p]
    if not outputs:
        return
    from repro.obs import RunManifest

    manifest = RunManifest.collect(
        experiment,
        config=setup,
        seed=args.seed,
        argv=argv,
        failures=failures,
    )
    for output in outputs:
        manifest.write_next_to(output)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "list-schemes":
        return _cmd_list_schemes()
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_request(args, argv)


if __name__ == "__main__":
    raise SystemExit(main())
