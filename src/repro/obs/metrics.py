"""Process-wide registry of named counters, gauges and distributions.

Simulator components already keep their own counters (``RateStat``,
``MeanStat`` and plain ints on the caches and main memory); the
registry is the *reporting* side — a flat, name-addressed bag every
layer dumps into at drive/run granularity so the tracer and exporters
see one vocabulary. Taps are pull-based: nothing in a per-record hot
loop touches the registry; ``report_metrics`` methods copy finished
counters in at span boundaries.

Names are dotted paths (``cache.hit_rate``, ``offchip.reads``,
``grid.cell_wall_s``). ``snapshot()`` flattens everything to
JSON-friendly scalars: counters and gauges verbatim, distributions as
``<name>.count/mean/min/max``, histograms as ``<name>.<bucket>``.
"""

from __future__ import annotations

from repro.common.stats import Histogram, RunningMean

__all__ = ["MetricsRegistry", "get_metrics", "set_metrics"]


class MetricsRegistry:
    """Flat, name-addressed metrics store (per process)."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, object] = {}
        self._dists: dict[str, RunningMean] = {}
        self._hists: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value) -> None:
        """Set gauge ``name`` to the latest ``value`` (any JSON scalar)."""
        self._gauges[name] = value

    def observe(self, name: str, sample: float) -> None:
        """Add ``sample`` to the streaming distribution ``name``."""
        dist = self._dists.get(name)
        if dist is None:
            dist = self._dists[name] = RunningMean()
        dist.add(sample)

    def bucket(self, name: str, bucket: int, amount: int = 1) -> None:
        """Add to integer-bucket histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.add(bucket, amount)

    def update(self, values: dict, *, prefix: str = "") -> None:
        """Gauge every (possibly nested) key of ``values``.

        Nested mappings flatten with dotted keys; non-scalar leaves are
        stringified. This is the one-call tap for existing
        ``stats_snapshot()`` dictionaries.
        """
        for key, value in values.items():
            full = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                self.update(value, prefix=full)
            elif isinstance(value, (int, float, bool)) or value is None:
                self.gauge(full, value)
            else:
                self.gauge(full, str(value))

    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Counters (optionally filtered by dotted-name ``prefix``)."""
        if not prefix:
            return dict(self._counters)
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def distribution(self, name: str) -> RunningMean | None:
        return self._dists.get(name)

    def snapshot(self) -> dict[str, object]:
        """Flatten to sorted JSON-friendly scalars."""
        out: dict[str, object] = {}
        out.update(self._counters)
        out.update(self._gauges)
        for name, dist in self._dists.items():
            out[f"{name}.count"] = dist.count
            out[f"{name}.mean"] = dist.mean
            if dist.count:
                out[f"{name}.min"] = dist.minimum
                out[f"{name}.max"] = dist.maximum
        for name, hist in self._hists.items():
            for bucket, count in sorted(hist.buckets.items()):
                out[f"{name}.{bucket}"] = count
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._dists.clear()
        self._hists.clear()

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._dists)
            + len(self._hists)
        )


_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (workers get their own copy)."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous
