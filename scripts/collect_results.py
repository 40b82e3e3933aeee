#!/usr/bin/env python3
"""Collect the measured values for EXPERIMENTS.md in one sweep.

Runs every experiment at the benchmark configurations and writes a
results digest to stdout (tee it into a file). This is the script used
to populate the paper-vs-measured table.
"""

import json
import pathlib
import time

import repro.harness.experiments as E
from repro.harness.perfbench import append_bench_record, measure_drive_throughput
from repro.harness.runner import ExperimentSetup

QUAD = ExperimentSetup(num_cores=4, accesses_per_core=20_000, seed=1)
QUAD_LONG = ExperimentSetup(num_cores=4, accesses_per_core=50_000, seed=1)
EIGHT = ExperimentSetup(
    num_cores=8, scale=32, accesses_per_core=25_000, seed=1
)
ANTT = ExperimentSetup(num_cores=4, accesses_per_core=25_000, seed=1)
ANTT8 = ExperimentSetup(
    num_cores=8, scale=32, accesses_per_core=12_000, seed=1
)

QUAD_MIXES = ["Q2", "Q5", "Q7", "Q12", "Q17", "Q20", "Q23"]


def section(name):
    print(f"\n### {name} [{time.strftime('%H:%M:%S')}]", flush=True)


def dump(rows):
    print(json.dumps(rows, indent=None, default=str), flush=True)


section("fig1")
dump(E.fig1_miss_rate_vs_block_size(setup=QUAD, mix_names=QUAD_MIXES))

section("fig2")
dump(
    E.fig2_block_utilization(
        setup=QUAD, mix_names=["Q2", "Q4", "Q5", "Q7", "Q8", "Q19", "Q23"]
    )
)

section("fig3")
dump(E.fig3_latency_breakdown())

section("fig5")
dump(E.fig5_mru_hits(setup=EIGHT, mix_names=["E1", "E5", "E8", "E12", "E15"]))

section("fig7-4core")
dump(E.fig7_antt(setup=ANTT, mix_names=["Q2", "Q5", "Q7", "Q12", "Q17", "Q20", "Q23"]))

section("fig7-8core")
dump(E.fig7_antt(setup=ANTT8, mix_names=["E1", "E4", "E13"]))

section("fig8a")
dump(E.fig8a_component_analysis(setup=ANTT8, mix_names=["E1", "E4"]))

section("fig8b")
dump(E.fig8b_hit_rate(setup=QUAD, mix_names=QUAD_MIXES))

section("fig8c")
dump(E.fig8c_access_latency(setup=QUAD, mix_names=QUAD_MIXES))

section("fig9a")
dump(E.fig9a_wasted_bandwidth(setup=EIGHT, mix_names=["E5", "E8", "E15"]))

section("fig9b")
dump(E.fig9b_metadata_rbh(setup=QUAD, mix_names=["Q2", "Q7", "Q12", "Q17"]))

section("fig9c")
dump(E.fig9c_way_locator_hit_rate(setup=QUAD, mix_names=["Q2", "Q12", "Q17", "Q20"]))

section("fig10")
dump(
    E.fig10_small_block_fraction(
        setup=QUAD_LONG, mix_names=["Q2", "Q7", "Q17", "Q19", "Q23"]
    )
)

section("fig11")
dump(E.fig11_energy(setup=EIGHT, mix_names=["E1", "E4", "E9"]))

section("fig12")
dump(E.fig12_sensitivity(setup=ANTT, mix_names=["Q2", "Q12"]))

section("table3")
dump(E.table3_way_locator_storage())

section("table6")
dump(E.table6_prefetch(setup=QUAD, mix_names=["Q2", "Q12", "Q20"]))

section("ext-victim")
dump(E.victim_buffer_study(setup=QUAD, mix_names=["Q2", "Q7", "Q23"]))

section("ext-spaceutil")
dump(E.space_utilization_comparison(setup=QUAD_LONG, mix_names=["Q2", "Q7", "Q23"]))

section("bench-perf")
_bench = [
    measure_drive_throughput(mode=mode, repeats=3) for mode in ("fast", "traced")
]
dump([r.row() for r in _bench])
_bench_path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"
append_bench_record(_bench, _bench_path)
print(f"appended throughput entry to {_bench_path}", flush=True)

section("done")
