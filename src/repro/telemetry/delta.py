"""Cross-process telemetry merge for sharded campaign days.

A forked shard worker inherits a memory copy of the global registry;
everything it records during its component is invisible to the parent.
The worker therefore snapshots the registry when the component starts,
diffs at the end, and ships the difference as a :class:`TelemetryDelta`
on the ``ShardDayDelta`` it already returns.  The parent folds deltas
in component order; because every metric value is an integer, fold
order cannot change the result and sharded runs reproduce a serial
run's metrics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.telemetry.registry import MetricKey, TelemetryRegistry


@dataclass(frozen=True)
class TelemetryDelta:
    """Per-component metric increments (and gauge last-writes)."""

    #: Counter increments since the component's base snapshot.
    counters: Dict[MetricKey, int]
    #: Gauges written during the component (last value wins on merge).
    gauges: Dict[MetricKey, int]
    #: Histogram bucket-count increments, aligned to ``hist_bounds``.
    histograms: Dict[MetricKey, List[int]]
    #: Histogram sum increments.
    histogram_sums: Dict[MetricKey, int]
    #: Histogram maxima raised during the component (max wins on merge).
    histogram_maxes: Dict[MetricKey, int]
    #: Bucket bounds for any family first observed in the child.
    hist_bounds: Dict[str, Tuple[int, ...]]


def capture_delta(registry: TelemetryRegistry,
                  base: Mapping[str, object]) -> TelemetryDelta:
    """Diff the registry against a ``base`` ``export_state()`` snapshot."""
    state = registry.export_state()
    base_counters: Mapping[MetricKey, int] = base["counters"]  # type: ignore[assignment]
    counters = {
        key: value - base_counters.get(key, 0)
        for key, value in state["counters"].items()  # type: ignore[union-attr]
        if value != base_counters.get(key, 0)
    }
    base_gauges: Mapping[MetricKey, int] = base["gauges"]  # type: ignore[assignment]
    gauges = {
        key: value
        for key, value in state["gauges"].items()  # type: ignore[union-attr]
        if base_gauges.get(key) != value
    }
    base_hist: Mapping[MetricKey, List[int]] = base["hist"]  # type: ignore[assignment]
    histograms: Dict[MetricKey, List[int]] = {}
    for key, buckets in state["hist"].items():  # type: ignore[union-attr]
        before = base_hist.get(key)
        if before is None:
            diff = list(buckets)
        else:
            diff = [b - a for a, b in zip(before, buckets)]
        if any(diff):
            histograms[key] = diff
    base_sums: Mapping[MetricKey, int] = base["hist_sum"]  # type: ignore[assignment]
    histogram_sums = {
        key: value - base_sums.get(key, 0)
        for key, value in state["hist_sum"].items()  # type: ignore[union-attr]
        if value != base_sums.get(key, 0)
    }
    base_maxes: Mapping[MetricKey, int] = base["hist_max"]  # type: ignore[assignment]
    histogram_maxes = {
        key: value
        for key, value in state["hist_max"].items()  # type: ignore[union-attr]
        if base_maxes.get(key) != value
    }
    return TelemetryDelta(
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        histogram_sums=histogram_sums,
        histogram_maxes=histogram_maxes,
        hist_bounds=dict(state["hist_bounds"]),  # type: ignore[arg-type]
    )


def merge_delta(registry: TelemetryRegistry,
                delta: TelemetryDelta) -> None:
    """Fold one component's increments into the parent registry.

    Bypasses the ``enabled`` gate: the parent decides enablement, and a
    delta only exists because recording was on when the child forked.
    """
    for name, bounds in sorted(delta.hist_bounds.items()):
        registry._hist_bounds.setdefault(name, tuple(bounds))
    counters = registry._counters
    for key in sorted(delta.counters):
        counters[key] = counters.get(key, 0) + delta.counters[key]
    gauges = registry._gauges
    for key in sorted(delta.gauges):
        gauges[key] = delta.gauges[key]
    hist = registry._hist
    for key in sorted(delta.histograms):
        diff = delta.histograms[key]
        buckets = hist.get(key)
        if buckets is None:
            hist[key] = list(diff)
        else:
            for i, inc in enumerate(diff):
                buckets[i] += inc
    sums = registry._hist_sum
    for key in sorted(delta.histogram_sums):
        sums[key] = sums.get(key, 0) + delta.histogram_sums[key]
    maxes = registry._hist_max
    for key, value in sorted(delta.histogram_maxes.items()):
        if key not in maxes or value > maxes[key]:
            maxes[key] = value
