"""The benchmark's three workloads, their set-up and their output checks.

Each workload is one call into the public ``repro.api`` facade, the
entry point the CLI and ``repro serve`` use, run serially (``jobs=1``):

* ``sweep`` -- Figure 8(c) on mix Q2: all six latency schemes through
  the batched drive loop. Q2 is dense and write-heavy; bimodal stays in
  its all-big-block state, so its way-locator fast path dominates.
* ``antt`` -- Figure 7 on mix Q7: alloy vs bimodal ANTT through the
  interval cores, the rich ``access`` path and per-program trace
  generation. It is the only workload that uses ``repro.cores`` and the
  only one that generates traces inside the timed pass.
* ``dse`` -- the 36-point design-space exploration on mix Q23: one ghost
  pass (``repro.mrc``) plus bimodal timing runs of the estimated
  frontier.

A cell tap wraps each workload's grid-cell function for the duration of
one pass. It records how many records the cell consumed and a digest of
what it produced, so every pass can be checked against the first pass of
the run and, at the reference seed and size, against ``reference.json``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field

clock = time.perf_counter

CORES = 4
# Accesses per core, sized so one pass takes a few seconds on a 2-vCPU host.
DEFAULT_ACCESSES = {"sweep": 10_000, "antt": 10_000, "dse": 4_000}
_MISSING = object()


def digest(value) -> str:
    """Short, stable digest of JSON-able simulated outputs."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def resolve(target: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object."""
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Patches:
    """Swap module or class attributes; restore them in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(current value)``."""
        if isinstance(owner, str):
            owner = resolve(owner)
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class CellOut:
    """What one grid cell consumed and produced in one pass."""

    label: str
    expect: int  # records the cell must consume
    records: int = 0
    digest: str = ""
    error: str = ""
    out: object = None
    arg: object = None  # the cell's grid argument (ANTT replays rebuild from it)

    def finish(self, records: int, out) -> None:
        self.records = records
        self.out = out
        self.digest = digest(out)


@dataclass
class PassOut:
    """One facade call: its wall time, its cells and its result."""

    wall: float
    cells: list
    rows: str
    status: str
    failures: int
    result: object

    @property
    def records(self) -> int:
        return sum(c.records for c in self.cells)


@dataclass(frozen=True)
class Hooks:
    """Public functions the traced run wraps, per workload.

    ``cells`` are ``(target, attr, span name)``; the other fields are
    ``(target, attr)``. ``entry`` is the cache method the cells drive.
    """

    cells: tuple
    builds: tuple
    traces: tuple
    drives: tuple
    entry: str


class Workload:
    """One facade call at a fixed size and seed."""

    name = ""
    mix = ""
    hooks: Hooks

    def __init__(self, seed: int, accesses: int | None = None) -> None:
        self.seed = seed
        self.accesses = accesses or DEFAULT_ACCESSES[self.name]

    def request(self, backend: str | None = None):
        raise NotImplementedError

    def call(self, request):
        raise NotImplementedError

    def rows(self, result):
        return result.rows

    def set_up_traces(self) -> list[int]:
        """Accesses per core of each ``self.mix`` trace a pass requests."""
        return []

    def install_taps(self, patches: Patches, sink: list) -> None:
        raise NotImplementedError

    def model(self, first: PassOut) -> dict:
        """Simulated outputs that explain host time (not gated)."""
        return {}

    def experiment(self, accesses: int):
        from repro.harness.runner import ExperimentSetup

        return ExperimentSetup(num_cores=CORES, accesses_per_core=accesses, seed=self.seed)


def _guarded(cell: CellOut, run):
    try:
        return run()
    except Exception as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
        raise


class Sweep(Workload):
    name = "sweep"
    mix = "Q2"
    hooks = Hooks(
        cells=(("repro.harness.parallel", "run_scheme_on_mix", "cell"),),
        builds=(("repro.harness.runner", "build_cache"),),
        traces=(("repro.harness.runner", "materialized_trace"),),
        drives=(("repro.harness.runner", "drive_cache"),),
        entry="access_fast",
    )

    def request(self, backend=None):
        from repro.api import facade

        return facade.grid_request(
            "fig8c", mixes=[self.mix], accesses_per_core=self.accesses,
            seed=self.seed, jobs=1, backend=backend,
        )

    def call(self, request):
        from repro.api import facade

        return facade.run_grid(request)

    def set_up_traces(self):
        return [self.accesses]

    def install_taps(self, patches, sink):
        def make(orig):
            def run_scheme_on_mix(scheme, mix_name, **kw):
                setup = kw["setup"]
                cell = CellOut(scheme, setup.num_cores * setup.accesses_per_core)
                sink.append(cell)
                result = _guarded(cell, lambda: orig(scheme, mix_name, **kw))
                cell.finish(result.accesses, {"end_time": result.end_time, "stats": result.stats})
                return result

            return run_scheme_on_mix

        patches.wrap("repro.harness.parallel", "run_scheme_on_mix", make)

    def model(self, first):
        out = {}
        for cell in first.cells:
            stats = cell.out["stats"]
            accesses = stats["accesses"] or 1
            offchip = stats["offchip_fetched_bytes"] + stats["offchip_writeback_bytes"]
            out[f"model.{cell.label}.hit_rate"] = (stats["hit_rate"], "ratio")
            out[f"model.{cell.label}.avg_read_latency_cyc"] = (stats["avg_read_latency"], "cycles")
            out[f"model.{cell.label}.offchip_bytes_per_access"] = (offchip / accesses, "B/access")
            if cell.label == "bimodal":
                for key in ("way_locator_hit_rate", "small_access_fraction", "metadata_rbh"):
                    out[f"model.bimodal.{key}"] = (stats[key], "ratio")
        return out


class Antt(Workload):
    name = "antt"
    mix = "Q7"
    hooks = Hooks(
        cells=(("repro.harness.experiments.performance", "antt_cell", "cell"),),
        builds=(("repro.harness.parallel", "build_cache"),),
        traces=(),
        drives=(
            ("repro.cores.multiprog:MultiProgramRunner", "run_multiprogrammed"),
            ("repro.cores.multiprog:MultiProgramRunner", "run_standalone"),
        ),
        entry="access",
    )

    def request(self, backend=None):
        from repro.api import facade

        return facade.grid_request(
            "fig7", mixes=[self.mix], accesses_per_core=self.accesses,
            seed=self.seed, jobs=1, backend=backend,
        )

    def call(self, request):
        from repro.api import facade

        return facade.run_grid(request)

    def install_taps(self, patches, sink):
        def make_cell(orig):
            def antt_cell(cell):
                per_core = cell.accesses_per_core or cell.setup.accesses_per_core
                # One multiprogrammed run plus one standalone run per core.
                out = CellOut(cell.scheme, 2 * cell.setup.num_cores * per_core, arg=cell)
                sink.append(out)
                antt = _guarded(out, lambda: orig(cell))
                out.finish(out.records, {"antt": antt})
                return antt

            return antt_cell

        def make_run(orig):
            def run(runner, *args):
                result = orig(runner, *args)
                sink[-1].records += sum(c.reads + c.writes for c in result.cores)
                return result

            return run

        patches.wrap("repro.harness.experiments.performance", "antt_cell", make_cell)
        for target, attr in self.hooks.drives:
            patches.wrap(target, attr, make_run)

    def model(self, first):
        row = first.result.rows[0]
        return {
            "model.antt.alloy": (row["alloy"], "antt"),
            "model.antt.bimodal": (row["bimodal"], "antt"),
            "model.antt.improvement_pct": (row["improvement_pct"], "%"),
        }


class Dse(Workload):
    name = "dse"
    mix = "Q23"
    hooks = Hooks(
        cells=(
            ("repro.mrc.dse", "dse_estimate_cell", "ghost"),
            ("repro.mrc.dse", "dse_sim_cell", "cell"),
        ),
        builds=(("repro.mrc.dse", "build_cache"),),
        traces=(
            ("repro.harness.runner", "materialized_trace"),
            ("repro.mrc.dse", "materialized_columns"),
        ),
        drives=(("repro.mrc.dse", "drive_cache"),),
        entry="access_fast",
    )

    def request(self, backend=None):
        from repro.api import facade

        return facade.dse_request(
            mixes=[self.mix], cores=CORES, accesses_per_core=self.accesses,
            seed=self.seed, jobs=1, backend=backend,
        )

    def call(self, request):
        from repro.api import facade

        return facade.run_dse(request)

    def rows(self, result):
        return {"rows": result.rows, "winner": result.winner, "stats": result.stats}

    def set_up_traces(self):
        return [self.accesses, max(1, self.accesses // 4)]

    def install_taps(self, patches, sink):
        def make_estimate(orig):
            def dse_estimate_cell(cell):
                setup = cell.setup
                out = CellOut("estimate", setup.num_cores * setup.accesses_per_core)
                sink.append(out)
                rows = _guarded(out, lambda: orig(cell))
                out.finish(out.records, {"rows": rows})
                return rows

            return dse_estimate_cell

        def make_sample(orig):
            def sample_addresses(addresses, rate, seed):
                stream = orig(addresses, rate, seed)
                sink[-1].records = len(stream)
                return stream

            return sample_addresses

        def make_sim(orig):
            def dse_sim_cell(cell):
                setup = cell.setup
                label = f"{cell.point.label()}@{setup.accesses_per_core}"
                out = CellOut(label, setup.num_cores * setup.accesses_per_core)
                sink.append(out)
                result = _guarded(out, lambda: orig(cell))
                out.finish(result["records"], result)
                return result

            return dse_sim_cell

        patches.wrap("repro.mrc.dse", "dse_estimate_cell", make_estimate)
        patches.wrap("repro.mrc.dse", "sample_addresses", make_sample)
        patches.wrap("repro.mrc.dse", "dse_sim_cell", make_sim)

    def model(self, first):
        stats = first.result.stats
        winner = first.result.winner
        return {
            "model.dse.frontier_size": (stats["frontier_size"], "count"),
            "model.dse.full_sims_equivalent": (stats["full_sims_equivalent"], "sims"),
            "model.dse.winner_hit_rate": (winner.get("hit_rate", 0.0), "ratio"),
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Antt, Dse)}


def materialize(workload: Workload) -> None:
    """Fill the trace cache with every trace a pass of ``workload`` reads."""
    for accesses in workload.set_up_traces():
        workload.experiment(accesses).trace_records(workload.mix)


def run_pass(workload: Workload, *, backend=None, install=None, around=None) -> PassOut:
    """One facade call with the cell taps (and any extra patches) on.

    ``around(call)`` runs the call, for spans or profiling around it.
    """
    request = workload.request(backend)
    sink: list = []
    with Patches() as patches:
        workload.install_taps(patches, sink)
        if install is not None:
            install(patches)
        gc.collect()
        start = clock()
        result = around(lambda: workload.call(request)) if around else workload.call(request)
        wall = clock() - start
    return PassOut(
        wall=wall,
        cells=sink,
        rows=digest(workload.rows(result)),
        status=result.status,
        failures=len(result.failures),
        result=result,
    )


@dataclass
class Checker:
    """Counts failed cells: a cell is one operation.

    A cell fails when it raises, when its drive consumes a record count
    other than cores x accesses, when its outputs differ from the first
    pass of the run, or, at the reference seed and size, when they differ
    from the stored reference. A partial grid with no failed cell is
    charged its failure count.
    """

    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: PassOut | None = None

    def note(self, message: str) -> None:
        self.problems.append(message)

    def check(self, tag: str, p: PassOut) -> None:
        base = self.first.cells if self.first is not None else None
        ref = self.reference["cells"] if self.reference is not None else None
        bad = 0
        for i, cell in enumerate(p.cells):
            why = ""
            if cell.error:
                why = cell.error
            elif cell.records != cell.expect:
                why = f"consumed {cell.records} records, expected {cell.expect}"
            elif base is not None and (
                i >= len(base) or (base[i].label, base[i].digest) != (cell.label, cell.digest)
            ):
                why = "outputs differ from the first pass"
            elif ref is not None and (i >= len(ref) or ref[i] != [cell.label, cell.digest]):
                why = "outputs differ from the stored reference"
            if why:
                bad += 1
                self.note(f"{tag}: cell {i} ({cell.label}): {why}")
        if base is not None and len(p.cells) < len(base):
            bad += len(base) - len(p.cells)
            self.note(f"{tag}: ran {len(p.cells)} cells, the first pass ran {len(base)}")
        if not bad:
            if p.status != "ok":
                bad = max(1, p.failures)
                self.note(f"{tag}: grid status {p.status!r}")
            elif self.first is not None and p.rows != self.first.rows:
                bad = 1
                self.note(f"{tag}: result rows differ from the first pass")
            elif self.reference is not None and p.rows != self.reference["rows"]:
                bad = 1
                self.note(f"{tag}: result rows differ from the stored reference")
        self.attempted += max(len(p.cells), len(base or ()), 1)
        self.failed += bad
        if self.first is None:
            self.first = p

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems
