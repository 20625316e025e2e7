"""Exporters: Prometheus text exposition, JSON, Chrome trace, text tree.

Exports are pure functions of the registry/tracer state.  The metrics
documents are deterministic across seeded runs; the trace documents
carry wall-clock timings by design (that is what a trace is for) and
are therefore never part of an identity comparison.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.tracing import Span, Tracer


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labels: Sequence[Sequence[str]],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [(str(k), str(v)) for k, v in labels] + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(registry: TelemetryRegistry) -> str:
    """Render every series in Prometheus text exposition format."""
    snap = registry.snapshot()
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def _type_line(name: str, kind: str) -> None:
        if seen_types.get(name) != kind:
            seen_types[name] = kind
            lines.append(f"# TYPE {name} {kind}")

    for name, labels, value in snap["counters"]:  # type: ignore[union-attr]
        _type_line(name, "counter")
        lines.append(f"{name}{_render_labels(labels)} {value}")
    for name, labels, value in snap["gauges"]:  # type: ignore[union-attr]
        _type_line(name, "gauge")
        lines.append(f"{name}{_render_labels(labels)} {value}")
    for name, labels, bounds, buckets, total, _ in (
            snap["histograms"]):  # type: ignore[union-attr]
        _type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(bounds, buckets):
            cumulative += count
            lines.append(
                f"{name}_bucket"
                f"{_render_labels(labels, (('le', str(bound)),))}"
                f" {cumulative}")
        cumulative += buckets[len(bounds)]
        lines.append(
            f"{name}_bucket{_render_labels(labels, (('le', '+Inf'),))}"
            f" {cumulative}")
        lines.append(f"{name}_sum{_render_labels(labels)} {total}")
        lines.append(f"{name}_count{_render_labels(labels)} {cumulative}")
    return "\n".join(lines) + "\n"


def metrics_json(registry: TelemetryRegistry) -> Dict[str, object]:
    """JSON document: deterministic series + wall-clock stage sidecar."""
    return {
        "fingerprint": registry.fingerprint(),
        "metrics": registry.snapshot(),
        # Wall-clock side channel (the perf StageTimer view).  Varies
        # run to run; excluded from the fingerprint on purpose.
        "stages": {
            "seconds": dict(registry.stages.stages),
            "counters": dict(registry.stages.counters),
        },
    }


def histogram_quantiles(bounds: Sequence[int], buckets: Sequence[int],
                        percents: Sequence[int] = (50, 95, 99),
                        maximum: Optional[int] = None,
                        ) -> Dict[str, object]:
    """Upper-bound quantile estimates from bucket counts.

    Integer arithmetic throughout: the pN is the upper bound of the
    bucket holding the ceil(N% * count)-th observation.  When that
    observation overflowed the last bound, the overflow bucket's upper
    bound is the series' exact ``maximum`` (None if not given).
    Deterministic, so quantiles are safe to bake into benchmark
    baselines.
    """
    total = sum(buckets)
    out: Dict[str, object] = {"count": total}
    for percent in percents:
        key = f"p{percent}"
        if total == 0:
            out[key] = None
            continue
        rank = -(-percent * total // 100)  # ceil without floats
        cumulative = 0
        value: object = None
        for index, count in enumerate(buckets):
            cumulative += count
            if cumulative >= rank:
                value = (bounds[index] if index < len(bounds)
                         else maximum)
                break
        out[key] = value
    return out


def render_metrics(payload: Dict[str, object]) -> str:
    """Human rendering of a ``metrics.json`` document."""
    metrics = payload["metrics"]
    lines: List[str] = [f"fingerprint: {payload['fingerprint']}"]
    counters = metrics["counters"]  # type: ignore[index]
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, labels, value in counters:
            lines.append(f"  {name}{_render_labels(labels)} {value}")
    gauges = metrics["gauges"]  # type: ignore[index]
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name, labels, value in gauges:
            lines.append(f"  {name}{_render_labels(labels)} {value}")
    histograms = metrics["histograms"]  # type: ignore[index]
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name, labels, bounds, buckets, total, maximum in histograms:
            quantiles = histogram_quantiles(bounds, buckets,
                                            maximum=maximum)
            rendered = " ".join(
                f"{key}={'inf' if val is None else val}"
                for key, val in quantiles.items() if key != "count")
            lines.append(f"  {name}{_render_labels(labels)} "
                         f"count={quantiles['count']} sum={total} "
                         f"{rendered}")
    stages = payload.get("stages", {})
    seconds = stages.get("seconds", {}) if isinstance(stages, dict) else {}
    if seconds:
        lines.append("")
        lines.append("stages (wall seconds, non-deterministic):")
        for name, value in seconds.items():
            lines.append(f"  {name} {value:.3f}")
    return "\n".join(lines) + "\n"


def chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """Chrome trace-event JSON (load in chrome://tracing or Perfetto).

    Wall times become ``ts``/``dur`` microseconds; sim times ride in
    each event's ``args`` so both clocks stay visible side by side.
    """
    spans = list(tracer.walk())
    origin = min((s.wall_start for s in spans), default=0.0)
    events: List[Dict[str, object]] = [{
        "ph": "M", "pid": 1, "tid": 1, "name": "process_name",
        "args": {"name": "repro pipeline"},
    }]
    for span in spans:
        args: Dict[str, object] = dict(span.args)
        if span.sim_start is not None:
            args["sim_start"] = span.sim_start
            args["sim_end"] = span.sim_end
        events.append({
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "name": span.name,
            "ts": int((span.wall_start - origin) * 1e6),
            "dur": int((span.wall_end - span.wall_start) * 1e6),
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": tracer.dropped},
    }


def _render_span(span: Span, depth: int, lines: List[str]) -> None:
    sim = ""
    if span.sim_start is not None and span.sim_end is not None:
        sim = f" sim={span.sim_start}..{span.sim_end}"
    args = "".join(f" {k}={v}" for k, v in sorted(span.args.items()))
    lines.append(f"{'  ' * depth}{span.name}"
                 f" wall={span.wall_ms():.2f}ms{sim}{args}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_span_tree(tracer: Tracer) -> str:
    """Indented text rendering of the span forest."""
    lines: List[str] = []
    for root in tracer.roots:
        _render_span(root, 0, lines)
    if tracer.dropped:
        lines.append(f"[{tracer.dropped} spans dropped at the "
                     f"{tracer._count} span cap]")
    return "\n".join(lines) + ("\n" if lines else "")


def write_telemetry(out_dir: str, registry: TelemetryRegistry,
                    tracer: Tracer) -> Dict[str, str]:
    """Write the full export set; returns the artifact paths."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "prometheus": root / "metrics.prom",
        "json": root / "metrics.json",
        "trace": root / "trace.json",
        "spans": root / "spans.txt",
    }
    paths["prometheus"].write_text(prometheus_text(registry),
                                   encoding="utf-8")
    payload = metrics_json(registry)
    paths["json"].write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    paths["trace"].write_text(json.dumps(chrome_trace(tracer)) + "\n",
                              encoding="utf-8")
    paths["spans"].write_text(render_span_tree(tracer), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}
