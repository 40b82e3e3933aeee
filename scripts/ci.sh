#!/usr/bin/env bash
# Tier-1 CI: full test suite + an end-to-end fault-tolerance smoke run.
#
# The smoke run exercises the robustness contract (docs/robustness.md)
# against the real CLI: a grid with one injected permanently-failing
# cell must still export the completed rows, record the failure in the
# manifest, exit with code 3 — and a subsequent --resume from its
# checkpoint (without the fault) must finish only the missing cell and
# produce a CSV byte-identical to an uninterrupted run. The same grid
# at --jobs 2, and a dse run resumed from its default checkpoint, must
# export byte-identical rows too.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== static analysis (simlint) =="
# The tree itself must be clean. The [simlint] stderr line records
# files= and wall_s= of the run.
python -m repro lint

echo "== static analysis (simlint, SARIF gate) =="
# --format sarif output must validate against the SARIF 2.1.0 subset
# checked by scripts/sarif_check.py (the same file CI uploads).
LINT_LOG="$(mktemp -d)"
python -m repro lint --format sarif > "${LINT_LOG}/simlint.sarif" 2>/dev/null
python scripts/sarif_check.py "${LINT_LOG}/simlint.sarif"
rm -rf "${LINT_LOG}"

# ruff is not part of the offline container image; run it when the
# environment provides it (the CI lint job installs it explicitly).
if command -v ruff >/dev/null 2>&1; then
    echo "== static analysis (ruff) =="
    ruff check src tests
else
    echo "== static analysis (ruff) == skipped: ruff not on PATH"
fi

echo "== tier-1 test suite =="
# Includes the drive path's tight perf gate: Python calls per record
# within 5% of committed figures (tests/harness/test_call_budget.py).
python -m pytest -x -q

echo "== benchmark smoke (repobench) =="
# Every repobench workload at a tiny size, untraced and traced. The
# benchmark wraps names in src (repro.mrc.dse.sample_addresses,
# materialized_columns, build_cache, drive_cache); a refactor that
# breaks one fails here instead of at the next benchmark run.
python3 -m pytest repobench/test_smoke.py -q

echo "== benchmark outputs and speed vs stored reference (repobench, seed 1) =="
# The smoke test above runs at seed 3 and tiny sizes, where no stored
# reference applies. Here each workload runs its minimum three passes
# at the reference seed and size, and every cell's outputs must match
# repobench/reference.json: the last line must read "correct": true
# with 0 failed. The loose perf gate: the median pass time, wall_s in
# host-speed-scaled reference seconds, must stay within 2x the
# workload's committed median (how those were measured: CHANGES.md).
for workload in sweep antt dse; do
    last="$(python3 repobench/run.py --workload "${workload}" --seed 1 \
        --seconds 0 --trace 0 | tail -n 1)"
    python3 - "${workload}" "${last}" <<'EOF'
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"repobench {workload}: outputs differ from the reference: {result}")
bound = 2 * {"sweep": 2.21, "antt": 2.24, "dse": 2.30}[workload]
wall = result["metrics"]["wall_s"]["value"]
if wall > bound:
    sys.exit(f"repobench {workload}: wall_s {wall:.2f} exceeds {bound:.2f} reference s")
print(f"[repobench] {workload} correct=true attempted={result['attempted']} failed=0"
      f" wall_s={wall:.2f} (bound {bound:.2f})")
EOF
done

echo "== fault-tolerance smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
export REPRO_TRACE_CACHE_DIR="${SMOKE_DIR}/traces"
RUN=(python -m repro run fig10 --mixes Q1 Q2 --accesses 1500)

# Uninterrupted baseline.
"${RUN[@]}" --export "${SMOKE_DIR}/base.csv" >/dev/null

# Same grid with cell 1 failing permanently: exit 3, partial export.
set +e
REPRO_FAULT_INJECT='{"1": {"action": "raise"}}' \
    "${RUN[@]}" --export "${SMOKE_DIR}/part.csv" >/dev/null 2>"${SMOKE_DIR}/part.err"
status=$?
set -e
[ "${status}" -eq 3 ] || { echo "expected exit 3, got ${status}"; exit 1; }
grep -q "Q1" "${SMOKE_DIR}/part.csv" || { echo "partial export lost Q1 row"; exit 1; }
! grep -q "Q2" "${SMOKE_DIR}/part.csv" || { echo "failed cell leaked a row"; exit 1; }
grep -q '"status": "partial"' "${SMOKE_DIR}/part.csv.manifest.json" \
    || { echo "manifest missing partial status"; exit 1; }
grep -q '"InjectedFault"' "${SMOKE_DIR}/part.csv.manifest.json" \
    || { echo "manifest missing failure record"; exit 1; }

# Resume from the partial run's checkpoint: byte-identical to baseline.
"${RUN[@]}" --export "${SMOKE_DIR}/part.csv" \
    --resume "${SMOKE_DIR}/part.csv.ckpt.jsonl" >/dev/null
cmp "${SMOKE_DIR}/base.csv" "${SMOKE_DIR}/part.csv" \
    || { echo "resumed CSV differs from uninterrupted run"; exit 1; }

# The same grid at --jobs 2 runs its cells in the worker pool of the
# one grid engine: the export must be byte-identical to the serial run.
"${RUN[@]}" --jobs 2 --export "${SMOKE_DIR}/jobs2.csv" >/dev/null
cmp "${SMOKE_DIR}/base.csv" "${SMOKE_DIR}/jobs2.csv" \
    || { echo "--jobs 2 CSV differs from the serial run"; exit 1; }

# `dse` shares `run`'s body: --export checkpoints to <export>.ckpt.jsonl,
# and a --resume from that file serves every cell, notes it on stderr
# and exports byte-identical rows.
DSE=(python -m repro dse --mixes Q23 --accesses 300)
"${DSE[@]}" --export "${SMOKE_DIR}/dse.csv" >/dev/null
"${DSE[@]}" --export "${SMOKE_DIR}/dse-resumed.csv" \
    --resume "${SMOKE_DIR}/dse.csv.ckpt.jsonl" >/dev/null 2>"${SMOKE_DIR}/dse.err"
cmp "${SMOKE_DIR}/dse.csv" "${SMOKE_DIR}/dse-resumed.csv" \
    || { echo "resumed dse CSV differs from the first run"; exit 1; }
grep -q '^\[repro\] resumed' "${SMOKE_DIR}/dse.err" \
    || { echo "dse --resume printed no resumed note"; exit 1; }

echo "== unscaled-capacity smoke (fig8c at scale 1) =="
# Every test above builds caches at scale 16 or at a small hand-made
# geometry. This builds all six Figure 8(c) schemes at the paper's
# 128 MB, so a cache constructor that breaks at full size fails here:
# the command must exit 0 and the Q2 row must hold every scheme.
python -m repro run fig8c --mixes Q2 --accesses 300 --scale 1 \
    --export "${SMOKE_DIR}/fig8c-scale1.json" >/dev/null
python - "${SMOKE_DIR}/fig8c-scale1.json" <<'EOF'
import json, sys
rows = {row["mix"]: row for row in json.load(open(sys.argv[1]))["rows"]}
schemes = ("alloy", "lohhill", "atcache", "footprint", "fixed512", "bimodal")
missing = [s for s in schemes if not isinstance(rows.get("Q2", {}).get(s), float)]
if missing:
    sys.exit(f"fig8c at scale 1: the Q2 row lacks {missing}")
print("[smoke] fig8c at scale 1: the Q2 row holds all six schemes")
EOF

echo "== ANTT trace-cache smoke (cold, warm, disk layer off) =="
# ANTT runs read their per-program streams from the trace cache. The
# fig10 smoke above cached Q1 and Q2 only, so the first fig7 run on Q7
# materializes its trace, the second (a new process) reads the .npz
# file without rewriting it, and the third runs with the disk layer
# off. The three exports must be byte-identical.
ANTT=(python -m repro run fig7 --mixes Q7 --accesses 1500)
"${ANTT[@]}" --export "${SMOKE_DIR}/antt-cold.json" >/dev/null
Q7_TRACE="$(ls "${REPRO_TRACE_CACHE_DIR}"/v*-Q7-c4-a1500-*.npz)"
Q7_INODE="$(stat -c %i "${Q7_TRACE}")"
"${ANTT[@]}" --export "${SMOKE_DIR}/antt-warm.json" >/dev/null
[ "$(stat -c %i "${Q7_TRACE}")" = "${Q7_INODE}" ] \
    || { echo "warm fig7 run regenerated the Q7 trace"; exit 1; }
REPRO_TRACE_CACHE=0 "${ANTT[@]}" --export "${SMOKE_DIR}/antt-off.json" >/dev/null
cmp "${SMOKE_DIR}/antt-cold.json" "${SMOKE_DIR}/antt-warm.json" \
    || { echo "warm fig7 export differs from cold"; exit 1; }
cmp "${SMOKE_DIR}/antt-cold.json" "${SMOKE_DIR}/antt-off.json" \
    || { echo "fig7 export with the disk cache off differs"; exit 1; }

echo "== service smoke (repro serve) =="
# Boots the daemon on an ephemeral port, drives one grid through the
# typed client and asserts the export is byte-identical to the CLI
# path, plus warm-state behavior (trace-cache hits, checkpoint resume).
# See docs/service.md.
python scripts/serve_smoke.py

echo "== dse smoke (MRC engine + design-space driver) =="
# Three gates (docs/dse.md): the ghost cache must match the reference
# LRU walk integer-for-integer at sampling rate 1.0, its hit-rate
# estimate must land within 2% absolute of a full timing simulation on
# two mixes, and `repro dse` must spend >= 5x fewer full-simulation
# equivalents than the exhaustive grid.
python scripts/dse_smoke.py

echo "== chaos suite =="
# The chaos-marked tests (disk + wire fault injection, see
# docs/robustness.md) run inside tier-1 above; this pass re-runs them
# under pytest-timeout so a hung drain or reconnect fails fast instead
# of wedging the job. Skipped where the plugin is not installed (the
# offline container) — coverage is unchanged, only the hang cap is.
if python -c "import pytest_timeout" >/dev/null 2>&1; then
    python -m pytest -m chaos -q --timeout=120
else
    echo "pytest-timeout not on PATH; chaos tests already ran in tier-1"
fi

echo "ci.sh: all checks passed"
