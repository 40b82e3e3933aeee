#!/bin/sh
# Measure drive-loop throughput (the fast protocol, with and without
# the observability tracer enabled) and append a timestamped entry to
# BENCH_perf.json at the repo root. The entry's traced_over_fast ratio
# tracks tracer overhead across PRs.
#
# Usage: scripts/bench_perf.sh [extra perfbench args...]
#   e.g. scripts/bench_perf.sh --repeats 5 --mix Q7
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro.harness.perfbench --output BENCH_perf.json "$@"
