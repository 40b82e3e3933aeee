"""The traced run: one workload's host time split across its layers.

Two instruments, both installed from this file by wrapping public
functions for the duration of a pass, never from inside ``src/``:

* **Spans** around each grid cell, cache build, trace acquisition,
  drive, ``stats_snapshot()``, ghost pass and timing cell. A span's self
  time is its duration minus its children's; ``pass`` self time is the
  harness overhead (pass wall minus the cells).
* **Record and replay** for the per-record layers inside each drive,
  because per-call timers around ``access_fast`` and the device methods
  would cost more than the work they time. A record pass logs every
  drive's drive->scheme stream (the cache's ``access_fast``, or
  ``access`` for the ANTT cores) and its scheme->device stream (the five
  public ``DRAMDevice`` timing methods, patched on the class before the
  cache is built because schemes bind them in ``__init__``). After each
  drive the streams are replayed: the drive loop over a stub cache that
  returns the recorded completion times, the scheme into a fresh cache,
  the device calls into fresh devices and, for ANTT, the per-program
  trace generators and the interval cores over a stub cache and the
  recorded record streams. Each replay's loop overhead is measured with
  a no-op target and subtracted, so a call is charged to its caller once.

The host's speed drifts by more than the 10% the parts must reconcile
to, even between adjacent passes, so no time is compared with one taken
in another pass. Span self times become shares of their own span pass's
wall time; each replay round also re-runs the real drive, and a part's
share of a drive is its replay time over that re-run. The shares, which
must add up to 1 (``trace.reconcile_err``), split the median wall time
of the plain passes that alternate with the span passes, taken in
reference seconds like ``wall_s`` (see hostspeed.py).

The bimodal family inlines the device kernel on its way-locator hit
branch, so its device replay reproduces only part of the recorded
outputs (``dram.replay_match``) and that kernel's time stays in the
scheme's self time. The off-chip controller's queue logic
(``repro.dram.controller``) sits between the scheme and the device and
is also charged to the scheme.
"""

from __future__ import annotations

import cProfile
import gc
import inspect
import itertools
import os
import pstats
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from repobench.hostspeed import Sampler
from repobench.workloads import CORES, Patches, clock, run_pass

DEVICE_METHODS = (
    "read_fast",
    "write_fast",
    "access_direct_fast",
    "column_direct_fast",
    "activate_direct",
)
# Subpackages whose Python calls per record are reported on every
# workload (zero where the workload does not reach them).
SUBPACKAGES = (
    "api", "harness", "workloads", "dramcache", "bimodal", "dram",
    "cores", "mrc", "common", "obs", "sram",
)
LAYERS = ("harness", "build", "workloads", "runner", "scheme", "dram", "stats", "cores", "mrc")
MIN_ROUNDS = 3
REPLAY_ROUNDS = 3


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: ``[name, start, end, parent, pass id, attrs]``."""

    def __init__(self) -> None:
        self.rows: list = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, **attrs):
        rows = self.rows
        stack = self._stack

        def span(*args, **kw):
            index = len(rows)
            rows.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, attrs])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kw)
            finally:
                rows[index][1] = start
                rows[index][2] = clock()
                stack.pop()

        return span

    def totals(self, pass_id: int) -> tuple[dict, list]:
        """Self seconds per span name for one pass, and each drive's."""
        children: dict = defaultdict(float)
        for _, start, end, parent, pid, _ in self.rows:
            if pid == pass_id and parent >= 0:
                children[parent] += end - start
        out: dict = defaultdict(float)
        drives = []
        for index, (name, start, end, _, pid, attrs) in enumerate(self.rows):
            if pid != pass_id:
                continue
            own = end - start - children[index]
            out[name] += own
            if name == "pass":
                out["wall"] += end - start
            elif name == "cell":
                out["cell_wall"] += end - start
            elif name == "drive":
                drives.append(own)
            elif name == "stats":
                out[f"stats:{attrs['scheme']}"] += own
                out[f"flushes:{attrs['scheme']}"] += 1
        return out, drives


def _install_spans(workload, spans: Spans):
    hooks = workload.hooks

    def build_span(build):
        timed = spans.wrap("build", build)

        def build_cache(scheme, *args, **kw):
            cache = timed(scheme, *args, **kw)
            cache.stats_snapshot = spans.wrap("stats", cache.stats_snapshot, scheme=scheme)
            return cache

        return build_cache

    def install(patches: Patches) -> None:
        for target, attr, name in hooks.cells:
            patches.wrap(target, attr, lambda fn, name=name: spans.wrap(name, fn))
        for target, attr in hooks.traces:
            patches.wrap(target, attr, lambda fn: spans.wrap("trace", fn))
        for target, attr in hooks.drives:
            patches.wrap(target, attr, lambda fn: spans.wrap("drive", fn))
        for target, attr in hooks.builds:
            patches.wrap(target, attr, build_span)

    return install


# ----------------------------------------------------------------------
# record and replay
# ----------------------------------------------------------------------
class _DriveLog:
    """Everything one drive sent across the scheme and device boundaries."""

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        self.addresses: list = []
        self.nows: list = []
        self.writes: list = []
        self.outs: list = []
        self.resets: list[int] = []
        self.devices: list = []  # (device, init args, init kwargs)
        self.calls: list = []  # (device, method name, args, output)
        self.streams: list = []  # ANTT: each program's records, by slot
        self.entry = "access_fast"
        self.model: dict = {}

    def attach(self, cache, entry: str) -> None:
        """Record ``cache.<entry>`` calls and the warm-up stats reset."""
        self.entry = entry
        inner = getattr(cache, entry)
        a, t, w, o = (lst.append for lst in (self.addresses, self.nows, self.writes, self.outs))
        if entry == "access_fast":
            def access_fast(address, now, is_write=False):
                out = inner(address, now, is_write)
                a(address), t(now), w(is_write), o(out)
                return out

            cache.access_fast = access_fast
        else:
            def access(address, now, *, is_write=False):
                res = inner(address, now, is_write=is_write)
                a(address), t(now), w(is_write), o(res.complete)
                return res

            cache.access = access
        reset = cache.reset_stats

        def reset_stats():
            self.resets.append(len(self.outs))
            reset()

        cache.reset_stats = reset_stats


class _StubCache:
    """Stands in for the scheme under the drive loop: recorded completions."""

    name = "stub"

    def __init__(self, outs: list) -> None:
        self._next = iter(outs).__next__

    def access_fast(self, address, now, is_write=False):
        return self._next()

    def reset_stats(self) -> None:
        pass

    def stats_snapshot(self) -> dict:
        return {}


class _NoopResult:
    complete = 0


_NOOP_RESULT = _NoopResult()


def _noop(address, now, is_write=False):
    return now


def _noop_rich(address, now, *, is_write=False):
    return _NOOP_RESULT


def _noop_any(*args):
    return 0


def _noop_reset() -> None:
    pass


def _time_entry(fn, reset, segments, rich: bool):
    """Feed recorded scheme inputs to ``fn``; warm-up reset between segments."""
    outs: list = []
    app = outs.append
    start = clock()
    for i, (addresses, nows, writes) in enumerate(segments):
        if i:
            reset()
        if rich:
            for a, t, w in zip(addresses, nows, writes):
                app(fn(a, t, is_write=w).complete)
        else:
            for a, t, w in zip(addresses, nows, writes):
                app(fn(a, t, w))
    return clock() - start, outs


def _time_calls(seq):
    outs: list = []
    app = outs.append
    start = clock()
    for fn, args in seq:
        app(fn(*args))
    return clock() - start, outs


def _time_generation(runner, programs) -> float:
    """Regenerate the per-program record streams one ANTT drive consumed."""
    from repro.cores.multiprog import iter_records
    from repro.workloads.generator import ProgramTrace
    from repro.workloads.trace import CORE_ADDRESS_STRIDE

    n = runner.accesses_per_core
    start = clock()
    for idx in programs:
        trace = ProgramTrace(
            runner.mix.programs[idx],
            seed=runner.seed + idx,
            base_address=idx * CORE_ADDRESS_STRIDE,
        )
        for _ in iter_records(trace, n):
            pass
    elapsed = clock() - start
    start = clock()
    for _ in itertools.repeat(None, n * len(programs)):
        pass
    return elapsed - (clock() - start)


def _replay(log: _DriveLog, build, rerun, extra: dict, rounds: int, problems: list) -> dict:
    """Replay one drive's layers ``rounds`` times, each beside a real re-run.

    ``build()`` makes a fresh cache; ``rerun()`` times the real drive again
    (cache build and stats flush excluded); ``extra`` maps further part
    names to callables timing their replay. A part's share is its replay
    time over the re-run of the same round.
    """
    from repro.dram.device import DRAMDevice

    rich = log.entry == "access"
    cuts = [0, *log.resets, len(log.outs)]
    segments = [
        (log.addresses[s:e], log.nows[s:e], log.writes[s:e]) for s, e in zip(cuts, cuts[1:])
    ]
    seconds: dict = defaultdict(list)
    shares: dict = defaultdict(list)
    matched = 0
    for r in range(rounds):
        parts = {name: timed(r == 0) for name, timed in extra.items()}
        rerun_s = rerun()
        cache = build()
        entry = getattr(cache, log.entry)
        scheme, outs = _time_entry(entry, cache.reset_stats, segments, rich)
        if r == 0 and outs != log.outs:
            problems.append(f"scheme replay of {log.scheme} does not reproduce its completion times")
        scheme -= _time_entry(_noop_rich if rich else _noop, _noop_reset, segments, rich)[0]
        fresh = {id(dev): DRAMDevice(*args, **kw) for dev, args, kw in log.devices}
        seq = [(getattr(fresh[id(dev)], name), args) for dev, name, args, _ in log.calls]
        dram, outs = _time_calls(seq)
        if r == 0:
            matched = sum(1 for got, call in zip(outs, log.calls) if got == call[3])
        parts["dram"] = dram - _time_calls([(_noop_any, args) for _, args in seq])[0]
        parts["scheme"] = scheme - parts["dram"]
        for name, value in parts.items():
            seconds[name].append(value)
            shares[name].append(value / rerun_s)
    return {
        "scheme": log.scheme,
        "records": len(log.outs),
        "calls": len(log.calls),
        "matched": matched,
        "seconds": {name: statistics.median(v) for name, v in seconds.items()},
        "shares": {name: statistics.median(v) for name, v in shares.items()},
        "model": log.model,
    }


class _StubCores:
    """Stands in for the scheme under the ANTT cores: recorded results."""

    def __init__(self, log: _DriveLog) -> None:
        from repro.dramcache.base import DRAMCacheAccess

        results = [DRAMCacheAccess(False, now, out) for now, out in zip(log.nows, log.outs)]
        self._next = iter(results).__next__

    def access(self, address, now, *, is_write=False):
        return self._next()

    def reset_stats(self) -> None:
        pass


class _NoTrace:
    """Stands in for ``ProgramTrace`` while recorded streams are replayed."""

    def __init__(self, *args, **kw) -> None:
        pass


class Recorder:
    """Record pass: logs each drive and replays it as soon as it ends."""

    def __init__(self, workload, rounds: int) -> None:
        self.workload = workload
        self.rounds = rounds
        self.log: _DriveLog | None = None
        self.drives: list[dict] = []
        self.problems: list[str] = []
        self.devices = Patches()

    # -- device boundary ------------------------------------------------
    def patch_devices(self) -> None:
        from repro.dram.device import DRAMDevice

        def make_init(init):
            def __init__(device, *args, **kw):
                init(device, *args, **kw)
                if self.log is not None:
                    self.log.devices.append((device, args, kw))

            return __init__

        def make_method(method, name):
            sig = inspect.signature(method)

            def recorded(device, *args, **kw):
                out = method(device, *args, **kw)
                if self.log is not None:
                    if kw:
                        args = sig.bind(device, *args, **kw).args[1:]
                    self.log.calls.append((device, name, args, out))
                return out

            return recorded

        self.devices.wrap(DRAMDevice, "__init__", make_init)
        for name in DEVICE_METHODS:
            self.devices.wrap(DRAMDevice, name, lambda m, name=name: make_method(m, name))

    def replay(self, build, rerun, extra: dict) -> None:
        """Replay the drive just logged, on unpatched devices."""
        log, self.log = self.log, None
        self.devices.restore()
        self.drives.append(_replay(log, build, rerun, extra, self.rounds, self.problems))

    # -- batched drives (sweep, dse): a facade pass with wrapped builds --
    def install(self, patches: Patches) -> None:
        hooks = self.workload.hooks
        builds: list = []

        def make_build(build):
            def build_cache(scheme, *args, **kw):
                self.log = _DriveLog(scheme)
                self.patch_devices()
                cache = build(scheme, *args, **kw)
                self.log.attach(cache, hooks.entry)
                builds.append(lambda: build(scheme, *args, **kw))
                return cache

            return build_cache

        def make_drive(drive):
            def drive_cache(cache, records, **kw):
                result = drive(cache, records, **kw)
                build = builds.pop()

                outs = self.log.outs
                scheme = self.log.scheme

                def rerun():
                    fresh = build()
                    flush = _timed_method(fresh, "stats_snapshot")
                    start = clock()
                    drive(fresh, records, **kw)
                    return clock() - start - flush[0]

                def loop(check: bool) -> float:
                    start = clock()
                    replayed = drive(_StubCache(outs), records, **kw)
                    elapsed = clock() - start
                    if check and (replayed.accesses, replayed.end_time) != (result.accesses, result.end_time):
                        self.problems.append(f"drive-loop replay of {scheme} does not reproduce its drive")
                    return elapsed

                self.replay(build, rerun, {"loop": loop})
                return result

            return drive_cache

        for target, attr in hooks.builds:
            patches.wrap(target, attr, make_build)
        for target, attr in hooks.drives:
            patches.wrap(target, attr, make_drive)

    # -- ANTT: the cell's MultiProgramRunner, rebuilt as antt_cell does --
    def antt_cell(self, cell) -> float:
        import repro.cores.multiprog as multiprog
        from repro.cores.metrics import antt
        from repro.cores.multiprog import MultiProgramRunner
        from repro.harness.runner import build_cache
        from repro.workloads.mixes import mixes_for_cores

        setup = cell.setup
        system = setup.system
        if cell.cache_mb is not None:
            system = system.scaled_cache(cell.cache_mb << 20)
        per_core = cell.accesses_per_core or setup.accesses_per_core
        total = per_core * setup.num_cores
        build_s = [0.0]

        def build():
            start = clock()
            cache = build_cache(
                cell.scheme, system, scale=setup.scale,
                bimodal_config=cell.bimodal_config,
                adaptation_interval=max(1_000, total // 150),
            )
            build_s[0] += clock() - start
            if self.log is not None:
                self.log.attach(cache, "access")
            return cache

        runner = MultiProgramRunner(
            mixes_for_cores(setup.num_cores)[cell.mix], build,
            accesses_per_core=per_core, seed=setup.seed,
            footprint_scale=setup.footprint_scale,
            intensity_scale=cell.intensity_scale,
            warmup_fraction=cell.warmup_fraction,
        )
        drives = [(runner.run_multiprogrammed, list(range(runner.mix.num_cores)))]
        drives += [(lambda i=i: runner.run_standalone(i), [i]) for i in range(runner.mix.num_cores)]
        results = []
        for run, programs in drives:
            log = self.log = _DriveLog(cell.scheme)
            self.patch_devices()
            with Patches() as patches:
                patches.wrap(multiprog, "iter_records", lambda it: _recording_iter(it, log.streams))
                result = run()
            results.append(result)
            log.model = result.cache.stats_snapshot()

            def rerun(run=run):
                before = build_s[0]
                start = clock()
                run()
                return clock() - start - (build_s[0] - before)

            def cores(check: bool, run=run, log=log, result=result) -> float:
                streams = iter(log.streams)
                stub = _StubCores(log)
                with Patches() as patches:
                    patches.wrap(multiprog, "ProgramTrace", lambda cls: _NoTrace)
                    patches.wrap(multiprog, "iter_records", lambda it: lambda trace, n: iter(next(streams)))
                    runner.cache_factory = lambda: stub
                    try:
                        start = clock()
                        replayed = run()
                        elapsed = clock() - start
                    finally:
                        runner.cache_factory = build
                if check and replayed.per_core_cycles != result.per_core_cycles:
                    self.problems.append(f"cores replay of {cell.scheme} does not reproduce its core clocks")
                return elapsed

            def gen(check: bool, programs=programs) -> float:
                return _time_generation(runner, programs)

            self.replay(build, rerun, {"gen": gen, "cores": cores})
        standalone = [r.per_core_cycles[0] for r in results[1:]]
        return antt(results[0].per_core_cycles, standalone)


def _recording_iter(iter_records, streams: list):
    """``iter_records`` that keeps each program's records for the cores replay."""

    def recording(trace, n):
        records = list(iter_records(trace, n))
        streams.append(records)
        return iter(records)

    return recording


def _timed_method(obj, name: str) -> list:
    """Accumulate the time spent in ``obj.<name>()`` into the returned cell."""
    inner = getattr(obj, name)
    spent = [0.0]

    def timed():
        start = clock()
        try:
            return inner()
        finally:
            spent[0] += clock() - start

    setattr(obj, name, timed)
    return spent


def _record_pass(workload, first, checker) -> Recorder:
    recorder = Recorder(workload, REPLAY_ROUNDS)
    try:
        if workload.hooks.entry == "access":
            for i, cell in enumerate(first.cells):
                value = recorder.antt_cell(cell.arg)
                checker.attempted += 1
                if value != cell.out["antt"]:
                    checker.failed += 1
                    checker.note(f"record pass: cell {i} ({cell.label}): ANTT {value!r} != {cell.out['antt']!r}")
        else:
            checker.check("record pass", run_pass(workload, install=recorder.install))
    finally:
        recorder.devices.restore()
    for problem in recorder.problems:
        checker.note(f"record pass: {problem}")
    return recorder


# ----------------------------------------------------------------------
# counting pass and probes
# ----------------------------------------------------------------------
def _count_pass(workload):
    """cProfile pass: Python calls per ``repro`` subpackage, gen-0 GCs."""
    import repro

    prefix = str(Path(repro.__file__).parent) + os.sep
    prof = cProfile.Profile()
    gen0: list[int] = []

    def around(call):
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        try:
            return prof.runcall(call)
        finally:
            gen0.append(gc.get_stats()[0]["collections"] - before)

    p = run_pass(workload, around=around)
    calls: Counter = Counter()
    for (filename, _, _), (_, ncalls, *_) in pstats.Stats(prof).stats.items():
        if filename.startswith(prefix):
            sub = filename[len(prefix):].split(os.sep)[0]
            calls["repro" if sub.endswith(".py") else sub] += ncalls
    return p, calls, gen0[0]


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _tracer_pass(workload):
    from repro.obs import Tracer, install

    previous = install(Tracer(enabled=True, stream=_Discard()))
    try:
        return run_pass(workload)
    finally:
        install(previous)


def _has_vectorized(workload) -> bool:
    """Whether the request layer still offers the vectorized backend."""
    from repro.api.errors import RequestError

    try:
        workload.request("vectorized")
    except RequestError:
        return False
    return True


def _generation_cost(workload, rounds: int) -> tuple[float, int]:
    """Seconds to materialize the workload's set-up traces, and records."""
    sizes = workload.set_up_traces()
    times = []
    for _ in range(rounds):
        elapsed = 0.0
        for accesses in sizes:
            trace = workload.experiment(accesses).trace(workload.mix)
            start = clock()
            trace.materialize()
            elapsed += clock() - start
        times.append(elapsed)
    return statistics.median(times), sum(CORES * a for a in sizes)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_run(workload, checker, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` and the trace record.

    Rounds of a plain pass, a span pass and a repro-tracer pass (plus a
    vectorized-backend pass on ``sweep``) repeat for ``seconds``, at
    least ``MIN_ROUNDS`` times; the record pass and the counting pass
    follow.
    """
    rich = workload.hooks.entry == "access"
    vectorized = workload.name == "sweep" and _has_vectorized(workload)
    spans = Spans()
    walls: dict = defaultdict(list)
    totals, drive_selves = [], []
    plain, plain_ref = [], []
    start = clock()
    while len(plain) < MIN_ROUNDS or clock() - start < seconds:
        i = len(plain) + 1
        sampler = Sampler()
        p = run_pass(workload, around=sampler.time)
        checker.check(f"plain pass {i}", p)
        plain.append(p)
        walls["plain"].append(p.wall - sampler.spent)
        plain_ref.append(sampler.reference(p.wall))
        spans.pass_id = i
        p = run_pass(
            workload,
            install=_install_spans(workload, spans),
            around=lambda call: spans.wrap("pass", call)(),
        )
        checker.check(f"span pass {i}", p)
        total, drives = spans.totals(i)
        totals.append(total)
        drive_selves.append(drives)
        p = _tracer_pass(workload)
        checker.check(f"tracer pass {i}", p)
        walls["tracer"].append(p.wall)
        if vectorized:
            p = run_pass(workload, backend="vectorized")
            checker.check(f"vectorized pass {i}", p)
            walls["vectorized"].append(p.wall)
    first = plain[0]
    plain_wall = statistics.median(plain_ref)  # reference seconds, as wall_s
    walls["span"] = [t["wall"] for t in totals]
    # Self times as shares of their own span pass: immune to host drift.
    fractions = [{k: v / t["wall"] for k, v in t.items()} for t in totals]
    frac = {k: statistics.median(f.get(k, 0.0) for f in fractions) for k in set().union(*fractions)}

    def over_plain(kind: str) -> float:
        """Median over rounds of a pass's wall time over its round's plain pass."""
        return statistics.median(w / p for w, p in zip(walls[kind], walls["plain"]))

    recorder = _record_pass(workload, first, checker)
    drives = recorder.drives
    if any(len(d) != len(drives) for d in drive_selves):
        checker.note(f"record pass: {len(drives)} drives, span passes saw {[len(d) for d in drive_selves]}")
        drive_selves = [d[: len(drives)] + [0.0] * (len(drives) - len(d)) for d in drive_selves]
    p, calls, gen0 = _count_pass(workload)
    checker.check("counting pass", p)

    # Split each drive's share of the pass by its replayed parts' shares.
    parts: dict = defaultdict(float)
    by_scheme: dict = defaultdict(lambda: [0.0, 0, 0, 0])  # share, records, matched, calls
    for k, d in enumerate(drives):
        d["pass_share"] = statistics.median(
            selves[k] / t["wall"] for selves, t in zip(drive_selves, totals)
        )
        for name, share in d["shares"].items():
            parts[name] += share * d["pass_share"]
        acc = by_scheme[d["scheme"]]
        acc[0] += d["shares"]["scheme"] * d["pass_share"]
        acc[1] += d["records"]
        acc[2] += d["matched"]
        acc[3] += d["calls"]
    shares = {
        "harness": frac.get("pass", 0.0) + frac.get("cell", 0.0),
        "build": frac.get("build", 0.0),
        "workloads": frac.get("trace", 0.0) + parts["gen"],
        "runner": parts["loop"],
        "scheme": parts["scheme"],
        "dram": parts["dram"],
        "stats": frac.get("stats", 0.0),
        "cores": parts["cores"],
        "mrc": frac.get("ghost", 0.0),
    }
    layers = {name: share * plain_wall for name, share in shares.items()}
    if rich:
        gen_s = sum(d["seconds"]["gen"] for d in drives)
        gen_records = sum(d["records"] for d in drives)
    else:
        gen_s, gen_records = _generation_cost(workload, REPLAY_ROUNDS)
    records = first.records
    drive_records = sum(d["records"] for d in drives) or 1
    calls_total = sum(d["calls"] for d in drives)

    m: dict = {f"{name}.self_ms": (layers[name] * 1e3, "ms") for name in LAYERS}
    m.update({
        "workloads.gen_us_per_rec": (gen_s / max(gen_records, 1) * 1e6, "us/rec"),
        "scheme.self_us_per_rec": (layers["scheme"] / drive_records * 1e6, "us/rec"),
        "dram.self_us_per_rec": (layers["dram"] / drive_records * 1e6, "us/rec"),
        "dram.calls_per_rec": (calls_total / drive_records, "calls/rec"),
        "dram.replay_match": (sum(d["matched"] for d in drives) / max(calls_total, 1), "ratio"),
        "harness.overhead_ms": (frac.get("pass", 0.0) * plain_wall * 1e3, "ms"),
        "harness.cells": (len(first.cells), "count"),
        "harness.cells_failed": (checker.failed, "count"),
        "obs.tracer_overhead_frac": (over_plain("tracer") - 1, "ratio"),
        "trace.reconcile_err": (abs(sum(shares.values()) - 1), "ratio"),
        "trace.overhead_frac": (over_plain("span") - 1, "ratio"),
        "gc.gen0_per_krec": (gen0 / (records / 1e3), "1/krec"),
    })
    for sub in sorted(set(SUBPACKAGES) | set(calls)):
        m[f"calls_per_rec.{sub}"] = (calls[sub] / records, "calls/rec")

    # Workload-specific layer metrics.
    for name, (share, n, matched, calls_) in by_scheme.items():
        m[f"scheme.{name}.self_us_per_rec"] = (share * plain_wall / max(n, 1) * 1e6, "us/rec")
        m[f"dram.{name}.replay_match"] = (matched / max(calls_, 1), "ratio")
    for name in {key[len("stats:"):] for key in totals[0] if key.startswith("stats:")}:
        flush = statistics.median(t[f"stats:{name}"] / t[f"flushes:{name}"] for t in totals)
        m[f"stats.{name}.flush_ms"] = (flush * 1e3, "ms")
    if rich:
        m["cores.self_us_per_rec"] = (layers["cores"] / drive_records * 1e6, "us/rec")
        for d in drives[:: 1 + CORES]:  # the multiprogrammed drive of each cell
            m[f"model.{d['scheme']}.hit_rate"] = (d["model"]["hit_rate"], "ratio")
            if "way_locator_hit_rate" in d["model"]:
                m[f"model.{d['scheme']}.way_locator_hit_rate"] = (d["model"]["way_locator_hit_rate"], "ratio")
    else:
        m["runner.loop_us_per_rec"] = (layers["runner"] / drive_records * 1e6, "us/rec")
    if "ghost" in frac:
        points = len(first.result.rows)
        per_point = layers["mrc"] / (first.cells[0].records * points)
        m["mrc.ghost_ns_per_rec_point"] = (per_point * 1e9, "ns/rec-point")
        m["mrc.sim_share"] = (frac["cell_wall"], "ratio")
    if vectorized:
        m["runner.vectorized_speedup"] = (1 / over_plain("vectorized"), "x")
    m.update(workload.model(first))

    for d in drives:
        d.pop("model")
    record = {
        "walls_s": walls,
        "plain_reference_s": plain_ref,
        "layer_shares": shares,
        "span_totals_s": totals,
        "drives": drives,
        "spans": spans.rows,
    }
    return m, record
