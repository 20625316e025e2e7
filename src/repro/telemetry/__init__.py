"""Deterministic telemetry plane: metrics, spans and exports.

The subsystem watches the pipeline the way the paper's operators watched
production (§5-§6: rate-limit deployments, invalidation bursts, live
SynchroTrap) while staying invisible to the simulation itself: seeded
runs with telemetry enabled are byte-identical to runs with it
disabled.

Layout:

- :mod:`repro.telemetry.registry` — counters/gauges/histograms keyed by
  name + sorted label tuples (integer-valued, so checkpoints restore
  them exactly).
- :mod:`repro.telemetry.tracing` — span tree over stages, campaign
  days and delivery waves; Chrome-trace + text export.
- :mod:`repro.telemetry.export` — Prometheus text exposition, JSON and
  trace writers behind ``repro run --telemetry`` / ``repro metrics``.
"""

from repro.telemetry.export import (
    chrome_trace,
    histogram_quantiles,
    metrics_json,
    prometheus_text,
    render_metrics,
    render_span_tree,
    write_telemetry,
)
from repro.telemetry.registry import TELEMETRY, TelemetryRegistry
from repro.telemetry.tracing import TRACER, Span, Tracer

__all__ = [
    "TELEMETRY",
    "TRACER",
    "Span",
    "TelemetryRegistry",
    "Tracer",
    "chrome_trace",
    "histogram_quantiles",
    "metrics_json",
    "prometheus_text",
    "render_metrics",
    "render_span_tree",
    "write_telemetry",
]
