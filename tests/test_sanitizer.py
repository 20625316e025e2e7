"""reprosan acceptance: the identity contract (a sanitized run is
byte-identical to an unsanitized one) and divergence bisection down to
the exact event.

The campaign fixtures run a compressed two-network study — once plain,
once traced — so the identity check is over a real workload, not
synthetic draws; the synthetic traces below pin the differ's bisection
mechanics instead.
"""

from __future__ import annotations

import sys

import pytest

from repro.apps.catalog import AppCatalog
from repro.collusion.ecosystem import build_ecosystem
from repro.core.config import StudyConfig
from repro.core.world import World
from repro.countermeasures.campaign import (
    CampaignConfig,
    CountermeasureCampaign,
)
from repro.sanitizer import SANITIZER, diff_manifests
from repro.sanitizer.trace import MAX_SAMPLES, SanitizerTrace
from repro.sim.clock import DAY

NETWORKS = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.004
DAYS = 12
SEED = 31


def _campaign(sanitize):
    """One compressed campaign; returns (digest, rows, manifest)."""
    SANITIZER.reset()
    if sanitize:
        SANITIZER.enable()
    else:
        SANITIZER.disable()
    try:
        world = World(StudyConfig(scale=SCALE, seed=SEED))
        AppCatalog(world.apps, world.rng.stream("catalog"),
                   tail_apps=0).build()
        ecosystem = build_ecosystem(world, build_membership=False,
                                    network_limit=13)
        for domain in NETWORKS:
            network = ecosystem.network(domain)
            network.build_membership(network.profile.pool_size(SCALE))
        config = CampaignConfig.compressed(
            DAYS, networks=NETWORKS, outgoing_per_hour=0.0,
            hublaa_outage=None)
        CountermeasureCampaign(world, ecosystem, config).run()
        manifest = SANITIZER.manifest() if sanitize else None
        return world.api.log.digest(), len(world.api.log), manifest
    finally:
        SANITIZER.reset()
        SANITIZER.disable()


@pytest.fixture(scope="module")
def plain():
    return _campaign(sanitize=False)


@pytest.fixture(scope="module")
def traced():
    return _campaign(sanitize=True)


# ----------------------------------------------------------------------
# Identity contract
# ----------------------------------------------------------------------
def test_sanitized_run_is_byte_identical(plain, traced):
    """The tentpole invariant: hooks observe, never perturb."""
    assert traced[0] == plain[0]
    assert traced[1] == plain[1]


def test_trace_covers_the_determinism_surface(traced):
    manifest = traced[2]
    assert manifest["format"] == "reprosan-trace"
    names = set(manifest["streams"])
    assert {"clock", "limiter"} <= names
    assert any(name.startswith("rng:") for name in names)
    # The fused-admission hot loops draw raw (hot_draw_bindings), so
    # the trace stays in the thousands, not the millions of draws.
    assert manifest["events"] > 1_000
    # No campaign path records execution-strategy markers.
    assert "shard" not in names


# ----------------------------------------------------------------------
# Bisection mechanics (synthetic traces)
# ----------------------------------------------------------------------
def _drive(schedule, stream="campaign"):
    trace = SanitizerTrace()
    trace.enable()
    frame = sys._getframe()
    for day, payload in schedule:
        trace.note_time(day * DAY)
        trace.record_draw(stream, payload, "random()", frame)
    return trace


def _daily(days, per_day):
    return [(day, b"draw:%d:%d" % (day, seq))
            for day in range(days) for seq in range(per_day)]


def test_extra_event_bisects_to_the_exact_seq():
    base = _daily(3, 120)
    divergent = list(base)
    divergent.insert(120 + 78, (1, b"extra-draw"))
    diff = diff_manifests(_drive(base).manifest(),
                          _drive(divergent).manifest())
    assert not diff.equal
    (found,) = diff.divergences
    assert (found.stream, found.day, found.seq) == ("rng:campaign", 1, 78)
    assert found.kind == "event"
    assert "extra-draw" not in found.detail_a  # a has the original
    assert "events this day" in found.detail_b


def test_same_count_byte_difference_bisects_exactly():
    base = _daily(1, 40)
    mutated = list(base)
    mutated[20] = (0, b"flipped")
    diff = diff_manifests(_drive(base).manifest(),
                          _drive(mutated).manifest())
    (found,) = diff.divergences
    assert (found.day, found.seq, found.kind) == (0, 20, "event")


def test_thinned_sampling_brackets_instead_of_guessing():
    """Past MAX_SAMPLES the stride doubles; the differ reports the
    honest bracket rather than a fabricated exact seq."""
    per_day = MAX_SAMPLES + 200  # thins once: stride 2, odd-seq samples
    base = _daily(1, per_day)
    mutated = list(base)
    mutated[300] = (0, b"flipped")
    diff = diff_manifests(_drive(base).manifest(),
                          _drive(mutated).manifest())
    (found,) = diff.divergences
    assert found.kind == "interval"
    assert found.seq is None
    assert (found.seq_lo, found.seq_hi) == (299, 301)


def test_stream_present_on_one_side_is_the_divergence():
    base = _drive(_daily(1, 10))
    extra = _drive(_daily(1, 10))
    extra.record_limiter("saturate", "deadbeef")
    diff = diff_manifests(base.manifest(), extra.manifest())
    (found,) = diff.divergences
    assert found.kind == "missing-stream"
    assert found.stream == "limiter"


# ----------------------------------------------------------------------
# Trace plumbing invariants
# ----------------------------------------------------------------------
def test_export_install_mid_run_is_digest_neutral():
    """Checkpointing folds pending bytes early; fold points depend
    only on event counts, so chains stay comparable."""
    schedule = _daily(2, 45)
    straight = _drive(schedule)

    first = _drive(schedule[:45])
    handoff = SanitizerTrace()
    handoff.enable()
    handoff.install_state(first.export_state())
    frame = sys._getframe()
    for day, payload in schedule[45:]:
        handoff.note_time(day * DAY)
        handoff.record_draw("campaign", payload, "random()", frame)

    assert handoff.fingerprint() == straight.fingerprint()
    assert diff_manifests(straight.manifest(), handoff.manifest()).equal


def test_clock_reads_deduplicate_by_value():
    trace = SanitizerTrace()
    trace.enable()
    trace.record_clock(5)
    trace.record_clock(5)
    trace.record_clock(6)
    trace.record_clock(5)
    assert trace._streams["clock"].total == 3


def test_hooks_are_gated_at_the_call_site():
    """A disabled sanitizer costs one attribute check per hook site —
    nothing is recorded until ``enable()``."""
    from repro.sim.clock import SimClock

    SANITIZER.reset()
    SANITIZER.disable()
    try:
        clock = SimClock()
        clock.now()
        assert SANITIZER.stream_names() == []
        SANITIZER.enable()
        clock.now()
        assert SANITIZER.stream_names() == ["clock"]
    finally:
        SANITIZER.reset()
        SANITIZER.disable()


def test_reset_preserves_the_enabled_flag():
    trace = SanitizerTrace()
    trace.enable()
    trace.reset()
    assert trace.enabled
