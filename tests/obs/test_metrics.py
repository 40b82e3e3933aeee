"""MetricsRegistry: counters, gauges, distributions, flat snapshots."""

from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.add("drive.count")
        reg.add("drive.count")
        reg.add("drive.records", 500)
        assert reg.counter_value("drive.count") == 2
        assert reg.snapshot()["drive.records"] == 500

    def test_counters_accessor_filters_by_prefix(self):
        reg = MetricsRegistry()
        reg.add("grid.cells", 4)
        reg.add("grid.cell_failures")
        reg.add("trace_cache.corrupt_evictions")
        assert reg.counters() == {
            "grid.cells": 4,
            "grid.cell_failures": 1,
            "trace_cache.corrupt_evictions": 1,
        }
        assert reg.counters("grid.") == {
            "grid.cells": 4,
            "grid.cell_failures": 1,
        }
        # A copy, not a view into the registry.
        reg.counters()["grid.cells"] = 0
        assert reg.counter_value("grid.cells") == 4

    def test_gauges_keep_latest(self):
        reg = MetricsRegistry()
        reg.gauge("cache.hit_rate", 0.5)
        reg.gauge("cache.hit_rate", 0.75)
        assert reg.snapshot()["cache.hit_rate"] == 0.75

    def test_distributions_summarize(self):
        reg = MetricsRegistry()
        for sample in (1.0, 2.0, 3.0):
            reg.observe("cell.wall_s", sample)
        snap = reg.snapshot()
        assert snap["cell.wall_s.count"] == 3
        assert snap["cell.wall_s.mean"] == 2.0
        assert snap["cell.wall_s.min"] == 1.0
        assert snap["cell.wall_s.max"] == 3.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        reg.bucket("util", 8, 3)
        reg.bucket("util", 1)
        snap = reg.snapshot()
        assert snap["util.8"] == 3 and snap["util.1"] == 1

    def test_update_flattens_nested_dicts(self):
        reg = MetricsRegistry()
        reg.update(
            {"hit_rate": 0.9, "nested": {"rbh": 0.4}, "label": object()},
            prefix="cache",
        )
        snap = reg.snapshot()
        assert snap["cache.hit_rate"] == 0.9
        assert snap["cache.nested.rbh"] == 0.4
        assert isinstance(snap["cache.label"], str)

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.add("a")
        reg.gauge("b", 1)
        reg.observe("c", 1.0)
        reg.bucket("d", 1)
        assert len(reg) == 4
        reg.reset()
        assert len(reg) == 0 and reg.snapshot() == {}

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("z", 1)
        reg.add("a", 2)
        assert list(reg.snapshot()) == ["a", "z"]


class TestGlobal:
    def test_set_metrics_swaps_registry(self):
        replacement = MetricsRegistry()
        previous = set_metrics(replacement)
        try:
            assert get_metrics() is replacement
        finally:
            set_metrics(previous)
        assert get_metrics() is previous


class TestLayerTaps:
    def test_cache_report_metrics_covers_shared_vocabulary(self):
        from repro.harness.runner import ExperimentSetup, build_cache, drive_cache

        setup = ExperimentSetup(num_cores=4, accesses_per_core=800)
        cache = build_cache("alloy", setup.system, scale=setup.scale)
        drive_cache(cache, setup.trace_records("Q1"), streams=4)
        reg = MetricsRegistry()
        cache.report_metrics(reg)
        snap = reg.snapshot()
        assert snap["cache.scheme"] == "alloy"
        assert snap["cache.accesses"] == 3200
        assert 0.0 <= snap["cache.hit_rate"] <= 1.0
        assert snap["cache.offchip.reads"] > 0

    def test_controller_report_metrics(self):
        from repro.common.config import system_config
        from repro.harness.runner import build_offchip

        offchip = build_offchip(system_config(4))
        offchip.read_fast(0, 0)
        offchip.write_fast(4096, 10)
        reg = MetricsRegistry()
        offchip.report_metrics(reg)
        snap = reg.snapshot()
        assert snap["offchip.reads"] == 1
        assert snap["offchip.writes"] == 1
        assert snap["offchip.bytes"] == 128
