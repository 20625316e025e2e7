"""The telemetry plane: registry, tracing, exports — and the identity
contract that makes it safe to leave on: a seeded run with telemetry
enabled is byte-identical to the same run with it disabled (same
request-log digest).
"""

from __future__ import annotations

import json

import pytest

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.oauth.redact import redact_token
from repro.telemetry import (
    TELEMETRY,
    TRACER,
    TelemetryRegistry,
    Tracer,
    chrome_trace,
    histogram_quantiles,
    metrics_json,
    prometheus_text,
    render_metrics,
    render_span_tree,
    write_telemetry,
)


@pytest.fixture()
def registry():
    reg = TelemetryRegistry()
    reg.enable()
    return reg


@pytest.fixture(autouse=True)
def _quiesce_globals():
    """Leave the process-global registry/tracer off and empty around
    every test, whatever the test did to them."""
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
    TRACER.disable()
    TRACER.reset()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_counters_accumulate_and_label_order_is_canonical(registry):
    registry.count("req_total", outcome="ok", action="LIKE")
    registry.count("req_total", action="LIKE", outcome="ok")
    assert registry.counter_value("req_total", action="LIKE",
                                  outcome="ok") == 2
    assert registry.counter_total("req_total") == 2


def test_disabled_registry_records_nothing():
    reg = TelemetryRegistry()
    reg.count("a")
    reg.gauge_set("b", 4)
    reg.observe("c", 1)
    assert reg.snapshot() == {"counters": [], "gauges": [],
                              "histograms": []}


def test_token_label_values_are_redacted(registry):
    token = "EAAB" + "ab" * 20
    registry.count("token_events", token=token)
    snap = registry.snapshot()
    [(name, labels, value)] = snap["counters"]
    assert labels == [["token", redact_token(token)]]
    assert token not in repr(snap)


def test_histogram_bucketing_and_quantiles(registry):
    registry.register_histogram("sizes", (1, 2, 4, 8))
    for value in (1, 2, 3, 5, 9, 100):
        registry.observe("sizes", value)
    bounds, buckets, total = registry.histogram("sizes")
    assert bounds == (1, 2, 4, 8)
    assert buckets == [1, 1, 1, 1, 2]  # 9 and 100 overflow
    assert total == 120
    quantiles = histogram_quantiles(bounds, buckets)
    assert quantiles["count"] == 6
    assert quantiles["p50"] == 4
    assert quantiles["p99"] is None  # overflow bucket


def test_overflowing_tail_quantiles_report_the_exact_max(registry):
    """wave_limiter_denials stops at 256: a tail past it reports the
    largest observation, and the max survives export/install."""
    for value in (0, 3, 300, 1000, 700):
        registry.observe("wave_limiter_denials", value, stage="campaign")
    [row] = registry.snapshot()["histograms"]
    name, _, bounds, buckets, total, maximum = row
    assert (name, bounds[-1], buckets[-1], total) == (
        "wave_limiter_denials", 256, 3, 2003)
    assert maximum == 1000
    quantiles = histogram_quantiles(bounds, buckets, maximum=maximum)
    assert (quantiles["p50"], quantiles["p95"], quantiles["p99"]) == (
        1000, 1000, 1000)
    registry.observe("wave_limiter_denials", 1, stage="campaign")
    registry.observe("wave_limiter_denials", 1, stage="campaign")
    [row] = registry.snapshot()["histograms"]
    quantiles = histogram_quantiles(row[2], row[3], maximum=row[5])
    assert (quantiles["p50"], quantiles["p99"]) == (4, 1000)

    resumed = TelemetryRegistry()
    resumed.install_state(registry.export_state())
    assert resumed.snapshot() == registry.snapshot()


def test_fingerprint_excludes_requested_families(registry):
    registry.count("wave_charges_total", 3)
    base = registry.fingerprint(exclude_prefixes=("journal_",))
    registry.count("journal_frames_total", 2)
    assert registry.fingerprint(exclude_prefixes=("journal_",)) == base
    assert registry.fingerprint() != base


def test_export_install_state_roundtrip(registry):
    registry.count("a_total", 3, kind="x")
    registry.gauge_set("g", 7)
    registry.observe("wave_size", 33, stage="campaign")
    state = registry.export_state()
    other = TelemetryRegistry()
    other.install_state(state)
    assert other.fingerprint() == registry.fingerprint()


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def test_prometheus_text_shape(registry):
    registry.count("req_total", 3, outcome="ok")
    registry.gauge_set("keys", 5, window="token")
    registry.register_histogram("sizes", (1, 2))
    registry.observe("sizes", 1)
    registry.observe("sizes", 9)
    text = prometheus_text(registry)
    assert '# TYPE req_total counter' in text
    assert 'req_total{outcome="ok"} 3' in text
    assert '# TYPE keys gauge' in text
    assert 'sizes_bucket{le="1"} 1' in text
    assert 'sizes_bucket{le="+Inf"} 2' in text
    assert 'sizes_sum 10' in text
    assert 'sizes_count 2' in text


def test_prometheus_escapes_label_values(registry):
    registry.count("odd_total", 1, path='a"b\\c')
    text = prometheus_text(registry)
    assert 'path="a\\"b\\\\c"' in text


def test_chrome_trace_and_span_tree():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("outer", day=3):
        with tracer.span("inner"):
            pass
    doc = chrome_trace(tracer)
    json.dumps(doc)  # must be serialisable
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(isinstance(e["ts"], int) and isinstance(e["dur"], int)
               for e in events)
    assert doc["otherData"]["dropped_spans"] == 0
    tree = render_span_tree(tracer)
    assert "outer" in tree and "  inner" in tree


def test_tracer_span_cap_counts_drops():
    import repro.telemetry.tracing as tracing

    tracer = Tracer()
    tracer.enable()
    cap = tracing.MAX_SPANS
    tracing.MAX_SPANS = 3
    try:
        handles = [tracer.begin(f"s{i}") for i in range(5)]
    finally:
        tracing.MAX_SPANS = cap
    assert handles.count(None) == 2
    assert tracer.dropped == 2


def test_write_telemetry_and_render_metrics(tmp_path, registry):
    registry.count("req_total", 2, outcome="ok")
    registry.observe("wave_size", 12, stage="campaign")
    tracer = Tracer()
    tracer.enable()
    with tracer.span("stage"):
        pass
    paths = write_telemetry(tmp_path / "out", registry, tracer)
    assert sorted(paths) == ["json", "prometheus", "spans", "trace"]
    payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert payload["fingerprint"] == registry.fingerprint()
    text = render_metrics(payload)
    assert "req_total" in text
    assert "p50=" in text
    rendered = render_metrics(metrics_json(registry))
    assert rendered.startswith("fingerprint:")


# ----------------------------------------------------------------------
# Identity contract: telemetry on == telemetry off
# ----------------------------------------------------------------------
def _campaign_run(*, telemetry=False, networks=(
        "fb-autolikers.com", "autolike.vn"), scale=0.004, seed=31):
    from repro.faults.plan import FaultPlan

    TELEMETRY.reset()
    TRACER.reset()
    if telemetry:
        TELEMETRY.enable()
        TRACER.enable()
    else:
        TELEMETRY.disable()
        TRACER.disable()
    world = World(StudyConfig(scale=scale, seed=seed,
                              fault_plan=FaultPlan()))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in networks:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(scale))
    config = CampaignConfig.compressed(
        12, networks=networks, outgoing_per_hour=0.0,
        hublaa_outage=None)
    campaign = CountermeasureCampaign(world, ecosystem, config)
    campaign.run()
    return world


def test_telemetry_enabled_run_is_byte_identical_to_disabled():
    digest_off = _campaign_run(telemetry=False).api.log.digest()
    digest_on = _campaign_run(telemetry=True).api.log.digest()
    assert digest_on == digest_off
    # And the run actually recorded something.
    assert TELEMETRY.counter_total("delivery_attempts_total") > 0
    assert TELEMETRY.counter_total("wave_likes_total") > 0
    assert TRACER.roots


def test_cli_metrics_renders_written_document(tmp_path, registry,
                                              capsys):
    from repro.cli import main as repro_main

    registry.count("req_total", 2, outcome="ok")
    tracer = Tracer()
    write_telemetry(tmp_path / "tele", registry, tracer)
    assert repro_main(["metrics", str(tmp_path / "tele")]) == 0
    out = capsys.readouterr().out
    assert "fingerprint:" in out
    assert 'req_total{outcome="ok"} 2' in out
    assert repro_main(["metrics", str(tmp_path / "missing")]) == 2
