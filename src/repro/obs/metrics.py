"""Metrics registry: named counters, gauges and distribution metrics.

Components register their metrics under dotted names
(``core0.ooo_loads``, ``bus.committed.GetS``, ``recorder.opt_4k.log_bits``)
and the registry renders everything into a flat
:class:`MetricsSnapshot` — a plain ``{name: number}`` dict that the
harness, the benchmarks and the figure scripts all consume, replacing the
reflection-based aggregation that used to live in
``Machine.recording_stats``.

Distribution metrics wrap :class:`~repro.common.stats.OnlineStats` and
:class:`~repro.common.stats.Histogram`, so one registered timer expands to
``.count/.mean/.max/.p50/...`` snapshot keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.stats import Histogram, OnlineStats

__all__ = ["Counter", "Gauge", "DistributionMetric", "MetricsRegistry",
           "MetricsSnapshot", "rollup_snapshots"]

#: Snapshot-key suffixes whose values cannot be merged across runs
#: (order-sensitive or non-additive); dropped from rollups.
_DROPPED_SUFFIXES = (".stddev", ".p50", ".p95", ".p99")


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_into(self, out: dict) -> None:
        out[self.name] = self.value


class Gauge:
    """Point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def snapshot_into(self, out: dict) -> None:
        out[self.name] = self.value


class DistributionMetric:
    """OnlineStats + Histogram backed distribution (timers, occupancies)."""

    __slots__ = ("name", "stats", "histogram")

    def __init__(self, name: str, *, bin_width: int = 10):
        self.name = name
        self.stats = OnlineStats()
        self.histogram = Histogram(bin_width=bin_width)

    def observe(self, value: float) -> None:
        self.stats.add(value)
        if value >= 0:
            self.histogram.add(value)

    def merge(self, other: "DistributionMetric") -> None:
        self.stats.merge(other.stats)
        self.histogram.merge(other.histogram)

    def snapshot_into(self, out: dict) -> None:
        stats = self.stats
        out[f"{self.name}.count"] = stats.count
        out[f"{self.name}.mean"] = stats.mean
        out[f"{self.name}.min"] = stats.minimum if stats.count else 0.0
        out[f"{self.name}.max"] = stats.maximum if stats.count else 0.0
        out[f"{self.name}.stddev"] = stats.stddev
        out[f"{self.name}.p50"] = self.histogram.percentile(50.0)
        out[f"{self.name}.p95"] = self.histogram.percentile(95.0)
        out[f"{self.name}.p99"] = self.histogram.percentile(99.0)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable flat view of a registry at one instant."""

    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat ``{name: number}`` dict (JSON-safe)."""
        return dict(self.values)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (worker results
        arriving over the sweep wire format)."""
        return cls(dict(data))

    def __getitem__(self, name: str):
        return self.values[name]

    def get(self, name: str, default=None):
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __len__(self) -> int:
        return len(self.values)

    def diff(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """Per-key ``self - before`` for numeric keys present in either.

        Keys absent on one side are treated as 0, which makes
        before/after comparisons around a run trivially safe.
        """
        out: dict = {}
        for name in sorted(set(self.values) | set(before.values)):
            after_value = self.values.get(name, 0)
            before_value = before.values.get(name, 0)
            if isinstance(after_value, str) or isinstance(before_value, str):
                out[name] = after_value
            else:
                out[name] = after_value - before_value
        return MetricsSnapshot(out)

    def subset(self, prefix: str) -> dict:
        """All keys under a dotted prefix (``snap.subset("core0")``)."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name: value for name, value in self.values.items()
                if name.startswith(dotted)}


def rollup_snapshots(snapshots: dict) -> dict:
    """Merge many runs' snapshots (``{label: snapshot or dict}``) into one.

    Labels are visited in sorted order, so the merge does not depend on
    the order runs finished in.  By key suffix: ``.count`` and plain
    integer metrics sum, ``.min``/``.max`` take the extreme, ``.mean`` is
    weighted by its sibling ``.count``, other floats average, and strings
    and order-sensitive keys (``.stddev``, percentiles) are dropped rather
    than merged wrongly.
    """
    sums: dict[str, int | float] = {}
    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}
    means: dict[str, list[tuple[float, float]]] = {}
    float_totals: dict[str, float] = {}
    float_counts: dict[str, int] = {}
    for label in sorted(snapshots):
        metrics = snapshots[label]
        if isinstance(metrics, MetricsSnapshot):
            metrics = metrics.values
        for name, value in metrics.items():
            if name.endswith(_DROPPED_SUFFIXES) or isinstance(value, str):
                continue
            if name.endswith(".count"):
                sums[name] = sums.get(name, 0) + value
            elif name.endswith(".min"):
                mins[name] = min(mins.get(name, value), value)
            elif name.endswith(".max"):
                maxs[name] = max(maxs.get(name, value), value)
            elif name.endswith(".mean"):
                weight = metrics.get(name[:-len(".mean")] + ".count", 1)
                means.setdefault(name, []).append((value, weight))
            elif isinstance(value, int):
                sums[name] = sums.get(name, 0) + value
            else:
                float_totals[name] = float_totals.get(name, 0.0) + value
                float_counts[name] = float_counts.get(name, 0) + 1
    out: dict = {}
    out.update(sums)
    out.update(mins)
    out.update(maxs)
    for name, observations in means.items():
        total_weight = sum(weight for _, weight in observations)
        if total_weight > 0:
            out[name] = (sum(value * weight for value, weight in observations)
                         / total_weight)
        else:
            out[name] = (sum(value for value, _ in observations)
                         / len(observations))
    for name, total in float_totals.items():
        out[name] = total / float_counts[name]
    return dict(sorted(out.items()))


class MetricsRegistry:
    """Component-scoped registry of named metrics."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | DistributionMetric] = {}

    # --------------------------------------------------------- registration

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def distribution(self, name: str, *, bin_width: int = 10) -> DistributionMetric:
        return self._get(name, DistributionMetric, bin_width=bin_width)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view that prepends ``prefix.`` to every registered name."""
        return ScopedRegistry(self, prefix)

    # -------------------------------------------------------------- loading

    def set_counters(self, values: dict[str, int], *, prefix: str = "") -> None:
        """Bulk-register plain counter values (end-of-run collection)."""
        dotted = prefix + "." if prefix else ""
        for name, value in values.items():
            self.counter(dotted + name).value = value

    def inc_counters(self, values: dict[str, int], *, prefix: str = "") -> None:
        """Accumulate counter deltas (a sweep sums each recorded shard's
        totals under ``sweep.worker``)."""
        dotted = prefix + "." if prefix else ""
        for name, value in values.items():
            self.counter(dotted + name).inc(value)

    def observe_stats(self, name: str, stats: OnlineStats,
                      histogram: Histogram | None = None) -> None:
        """Adopt pre-accumulated OnlineStats/Histogram under ``name``."""
        metric = self.distribution(name)
        metric.stats.merge(stats)
        if histogram is not None:
            metric.histogram.merge(histogram)

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> MetricsSnapshot:
        out: dict = {}
        for name in sorted(self._metrics):
            self._metrics[name].snapshot_into(out)
        return MetricsSnapshot(out)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)


class ScopedRegistry:
    """Prefix view over a :class:`MetricsRegistry` (per-component handle)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._prefix + name)

    def distribution(self, name: str, *, bin_width: int = 10) -> DistributionMetric:
        return self._registry.distribution(self._prefix + name,
                                           bin_width=bin_width)
