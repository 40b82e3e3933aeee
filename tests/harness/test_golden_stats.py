"""Golden byte-identity: every scheme's stats pinned against committed JSON.

The timing kernel (dram device, cache base, scheme access paths) is
rewritten for speed from time to time; the contract is that such
rewrites are *bit-identical* — every number in ``stats_snapshot()``,
every CSV export and every end_time must come out exactly the same.
This test drives all registered schemes on the Q1 mix with a non-zero
warmup (so the warmup reset boundary semantics are covered too) and
compares the full stats dictionary — after a JSON round-trip, so the
comparison is exactly as strict as what lands in exported artifacts —
against ``tests/golden/drive_stats_q1.json``.

The registry holds only the default Bi-Modal configurations. Three
variants that experiments build through ``bimodal_config`` take other
branches of the access path and are pinned in
``tests/golden/bimodal_variants.json`` on Q1 and Q7:

* ``dueling`` — the set-dueling global controller (``ext-controller``),
  whose leader sets observe every hit and miss;
* ``colocated-serial`` — metadata co-located with the data row and
  serial tag/data issue (Figure 9b's co-located layout);
* ``serial`` — serial tag/data issue alone (``ablation_parallel_tag``).

Their short adaptation interval puts global-state transitions inside
the measured region.

ANTT (Figure 7's metric) comes from a different driver: the interval
cores of :class:`~repro.cores.multiprog.MultiProgramRunner`, one
multiprogrammed run plus one standalone run per program.
``tests/golden/antt.json`` pins alloy and bimodal on Q1 and Q7 under
the Figure 7 cell protocol: the ANTT, every core clock of both kinds
of run and the multiprogrammed cache's full stats.

The design-space exploration's timing runs (``repro dse``) build
Bi-Modal caches with 256 B–1 KB big blocks, whose fills move up to
sixteen off-chip beats. ``tests/golden/dse_points.json`` pins six such
points on Q23 and Q1, built as ``repro.mrc.dse.dse_sim_cell`` builds
them: the full stats plus the off-chip controller and device counters
that the posted tail beats of each fill write.

At the default capacity no Loh-Hill or ATCache set fills its 29 ways
within these traces, so the files above never reach a tags-in-DRAM
eviction. ``tests/golden/tags_in_dram.json`` drives lohhill, atcache
and footprint on Q1 and Q2 with the stacked cache shrunk to 256 KB and
512 KB, where full-set LRU choices, dirty writebacks and tag-cache
evictions all happen. It pins the full stats, the off-chip
controller's counters and, for atcache, the tag cache's own counts.

To regenerate after an *intentional* simulation-semantics change::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/harness/test_golden_stats.py

then commit the updated JSON alongside the change that explains it.
A pure performance PR must never need to regenerate these files.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bimodal.cache import BiModalConfig
from repro.cores.metrics import antt
from repro.cores.multiprog import MultiProgramRunner
from repro.harness.runner import (
    ExperimentSetup,
    build_cache,
    drive_cache,
    scaled_locator_bits,
)
from repro.harness.schemes import available_schemes
from repro.mrc.dse import DesignPoint, _point_config

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "drive_stats_q1.json"
VARIANTS_PATH = GOLDEN_DIR / "bimodal_variants.json"
ANTT_PATH = GOLDEN_DIR / "antt.json"
DSE_PATH = GOLDEN_DIR / "dse_points.json"
TAGS_IN_DRAM_PATH = GOLDEN_DIR / "tags_in_dram.json"

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1_500)
TOTAL = SETUP.num_cores * SETUP.accesses_per_core
WARMUP = TOTAL // 2  # warmup > 0: the reset boundary is part of the contract

_BIMODAL = BiModalConfig(
    locator_index_bits=scaled_locator_bits(scale=SETUP.scale),
    predictor_index_bits=12,
    tracker_sample_every=1,
    adaptation_interval=500,
)
VARIANTS = {
    "dueling": replace(_BIMODAL, controller="dueling"),
    "colocated-serial": replace(
        _BIMODAL, colocated_metadata=True, parallel_tag_data=False
    ),
    "serial": replace(_BIMODAL, parallel_tag_data=False),
}
VARIANT_MIXES = ("Q1", "Q7")
ANTT_SCHEMES = ("alloy", "bimodal")
DSE_POINTS = tuple(
    DesignPoint(cache_mb, block_size, associativity, policy)
    for cache_mb, block_size, associativity, policy in (
        (4, 256, 4, "fixed"),
        (4, 256, 8, "adaptive"),
        (8, 512, 4, "adaptive"),
        (8, 512, 8, "fixed"),
        (16, 1024, 4, "fixed"),
        (16, 1024, 8, "adaptive"),
    )
)
DSE_MIXES = ("Q23", "Q1")
TAGS_IN_DRAM_SCHEMES = ("lohhill", "atcache", "footprint")
TAGS_IN_DRAM_MIXES = ("Q1", "Q2")
TAGS_IN_DRAM_KB = (256, 512)


def _drive_scheme(
    scheme: str, mix: str = "Q1", bimodal_config: BiModalConfig | None = None
) -> dict:
    cache = build_cache(
        scheme, SETUP.system, scale=SETUP.scale, bimodal_config=bimodal_config
    )
    result = drive_cache(
        cache,
        SETUP.trace_records(mix),
        window=16,
        streams=SETUP.num_cores,
        warmup=WARMUP,
    )
    snapshot = {
        "records": result.accesses,
        "end_time": result.end_time,
        "stats": result.stats,
    }
    # JSON round-trip: the comparison happens in the exact representation
    # exported artifacts use, so "equal here" means "byte-identical there".
    return json.loads(json.dumps(snapshot))


def _antt_case(scheme: str, mix: str) -> dict:
    """One Figure 7 cell, built as ``repro.harness.parallel.antt_cell`` does."""
    runner = MultiProgramRunner(
        SETUP.mixes()[mix],
        lambda: build_cache(
            scheme,
            SETUP.system,
            scale=SETUP.scale,
            adaptation_interval=max(1_000, TOTAL // 150),
        ),
        accesses_per_core=SETUP.accesses_per_core,
        seed=SETUP.seed,
        footprint_scale=SETUP.footprint_scale,
        intensity_scale=SETUP.intensity_scale,
        warmup_fraction=0.5,
    )
    shared = runner.run_multiprogrammed()
    standalone = [
        runner.run_standalone(i).per_core_cycles[0]
        for i in range(runner.mix.num_cores)
    ]
    snapshot = {
        "antt": antt(shared.per_core_cycles, standalone),
        "multiprogrammed_cycles": shared.per_core_cycles,
        "standalone_cycles": standalone,
        "stats": shared.cache.stats_snapshot(),
    }
    return json.loads(json.dumps(snapshot))


def _dse_case(point: DesignPoint, mix: str) -> dict:
    """One dse timing run, built as ``repro.mrc.dse.dse_sim_cell`` does."""
    cache = build_cache(
        "bimodal",
        SETUP.system.scaled_cache(point.cache_mb << 20),
        bimodal_config=_point_config(point, SETUP, TOTAL),
        scale=SETUP.scale,
        adaptation_interval=max(1_000, TOTAL // 150),
    )
    result = drive_cache(
        cache,
        SETUP.trace_records(mix),
        window=16,
        streams=SETUP.num_cores,
        warmup=int(TOTAL * 0.5),
    )
    offchip = cache.offchip
    snapshot = {
        "records": result.accesses,
        "end_time": result.end_time,
        "stats": result.stats,
        "offchip": {
            "reads": offchip.reads,
            "writes": offchip.writes,
            "bytes_transferred": offchip.bytes_transferred,
            "row_buffer_hit_rate": offchip.row_buffer_hit_rate(),
            "activations": offchip.device.total_activations(),
            "precharges": offchip.device.total_precharges(),
            "read_latency_mean": offchip.read_latency.mean,
        },
    }
    return json.loads(json.dumps(snapshot))


def _tags_in_dram_case(scheme: str, mix: str, capacity_kb: int) -> dict:
    """One shrunken-capacity drive whose sets fill and evict."""
    cache = build_cache(
        scheme, SETUP.system.scaled_cache(capacity_kb << 10), scale=SETUP.scale
    )
    result = drive_cache(
        cache,
        SETUP.trace_records(mix),
        window=16,
        streams=SETUP.num_cores,
        warmup=WARMUP,
    )
    offchip = cache.offchip
    snapshot = {
        "records": result.accesses,
        "end_time": result.end_time,
        "stats": result.stats,
        "offchip": {
            "reads": offchip.reads,
            "writes": offchip.writes,
            "bytes_transferred": offchip.bytes_transferred,
            "row_buffer_hit_rate": offchip.row_buffer_hit_rate(),
        },
    }
    if scheme == "atcache":
        tag_cache = cache.tag_cache
        snapshot["tag_cache"] = {
            "evictions": tag_cache.evictions,
            "hits": tag_cache.accesses.hits,
            "misses": tag_cache.accesses.misses,
        }
    return json.loads(json.dumps(snapshot))


def _current_snapshots() -> dict[str, dict]:
    return {scheme: _drive_scheme(scheme) for scheme in available_schemes()}


def _current_variant_snapshots() -> dict[str, dict]:
    return {
        f"{variant}/{mix}": _drive_scheme("bimodal", mix, config)
        for variant, config in VARIANTS.items()
        for mix in VARIANT_MIXES
    }


def _check_golden(path: Path, current: dict[str, dict]) -> dict[str, dict]:
    """Compare against (or, under REPRO_REGEN_GOLDEN, rewrite) ``path``."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden file {path}; regenerate with "
        "REPRO_REGEN_GOLDEN=1 python -m pytest tests/harness/test_golden_stats.py"
    )
    golden = json.loads(path.read_text())
    assert sorted(current) == sorted(golden), (
        "pinned configuration set changed; regenerate the golden file"
    )
    return golden


def test_all_schemes_match_golden():
    current = _current_snapshots()
    golden = _check_golden(GOLDEN_PATH, current)
    for scheme in available_schemes():
        assert current[scheme] == golden[scheme], (
            f"scheme {scheme!r} drifted from the golden snapshot — a timing "
            "kernel change altered simulation results"
        )


def test_bimodal_variants_match_golden():
    current = _current_variant_snapshots()
    golden = _check_golden(VARIANTS_PATH, current)
    for key in sorted(golden):
        assert current[key] == golden[key], (
            f"Bi-Modal variant {key!r} drifted from the golden snapshot"
        )


def test_antt_matches_golden():
    current = {
        f"{scheme}/{mix}": _antt_case(scheme, mix)
        for scheme in ANTT_SCHEMES
        for mix in VARIANT_MIXES
    }
    golden = _check_golden(ANTT_PATH, current)
    for key in sorted(golden):
        assert current[key] == golden[key], (
            f"ANTT case {key!r} drifted from the golden snapshot"
        )


def test_dse_points_match_golden():
    current = {
        f"{point.label()}/{mix}": _dse_case(point, mix)
        for point in DSE_POINTS
        for mix in DSE_MIXES
    }
    golden = _check_golden(DSE_PATH, current)
    for key in sorted(golden):
        assert current[key] == golden[key], (
            f"dse point {key!r} drifted from the golden snapshot"
        )


def test_tags_in_dram_match_golden():
    current = {
        f"{scheme}/{mix}/{capacity_kb}KB": _tags_in_dram_case(
            scheme, mix, capacity_kb
        )
        for scheme in TAGS_IN_DRAM_SCHEMES
        for mix in TAGS_IN_DRAM_MIXES
        for capacity_kb in TAGS_IN_DRAM_KB
    }
    golden = _check_golden(TAGS_IN_DRAM_PATH, current)
    for key in sorted(golden):
        assert current[key] == golden[key], (
            f"tags-in-DRAM case {key!r} drifted from the golden snapshot"
        )


def test_golden_covers_all_registered_schemes():
    """The committed file must track the registry, not a stale subset."""
    if not GOLDEN_PATH.exists():
        pytest.skip("golden file not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(available_schemes())
