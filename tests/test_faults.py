"""Deterministic fault injection: plans, injectors, and the two
identity guarantees (empty plan = byte-identical, fixed plan =
run-to-run identical)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import StudyConfig
from repro.core.world import World
from repro.experiments import runner
from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    chaos_plan,
    transient_plan,
)
from repro.graphapi.errors import ApiTimeout, TransientApiError
from repro.graphapi.request import ApiAction, ApiRequest
from repro.oauth.apps import AppSecuritySettings
from repro.oauth.errors import InvalidTokenError
from repro.oauth.scopes import PermissionScope
from repro.oauth.server import AuthorizationRequest
from repro.oauth.tokens import TokenLifetime
from repro.sim.clock import DAY, SimClock
from repro.sim.rng import RngFactory


# ----------------------------------------------------------------------
# Plan / rule basics
# ----------------------------------------------------------------------
def test_rule_validation():
    with pytest.raises(ValueError):
        FaultRule(kind="nope", probability=0.1)
    with pytest.raises(ValueError):
        FaultRule(kind="transient", probability=1.5)
    with pytest.raises(ValueError):
        FaultRule(kind="transient", probability=0.1, start_day=-1)
    with pytest.raises(ValueError):
        FaultRule(kind="transient", probability=0.1,
                  start_day=5, end_day=5)


def test_rule_window_and_actions():
    rule = FaultRule(kind="transient", probability=0.5, start_day=2,
                     end_day=4, actions=frozenset({"LIKE_POST"}))
    assert not rule.active_on(1)
    assert rule.active_on(2)
    assert rule.active_on(3)
    assert not rule.active_on(4)
    assert rule.matches("LIKE_POST")
    assert not rule.matches("COMMENT")


def test_plan_json_round_trip(tmp_path):
    plan = chaos_plan()
    path = str(tmp_path / "plan.json")
    plan.dump(path)
    loaded = FaultPlan.load(path)
    assert loaded == plan
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_empty_plan_is_falsy():
    assert not FaultPlan()
    assert transient_plan()
    assert FaultPlan().with_rule(
        FaultRule(kind="chunk", probability=0.1))


# ----------------------------------------------------------------------
# Injector decisions
# ----------------------------------------------------------------------
def _injector(plan, seed=1):
    clock = SimClock()
    rng = RngFactory(seed).stream("faults")
    return FaultInjector(plan, rng, clock), clock


def test_injector_certain_rule_always_fires():
    inj, _clock = _injector(transient_plan(1.0))
    assert inj.decide("LIKE_POST", "tok") == "transient"
    assert inj.counters["transient"] == 1


def test_injector_respects_action_filter():
    inj, _clock = _injector(transient_plan(1.0, actions=["COMMENT"]))
    assert inj.decide("LIKE_POST", "tok") is None
    assert inj.decide("COMMENT", "tok") == "transient"


def test_injector_respects_day_window():
    plan = FaultPlan((FaultRule(kind="timeout", probability=1.0,
                                start_day=1, end_day=2),))
    inj, clock = _injector(plan)
    assert inj.decide("LIKE_POST", "tok") is None
    clock.advance(DAY)
    assert inj.decide("LIKE_POST", "tok") == "timeout"
    clock.advance(DAY)
    assert inj.decide("LIKE_POST", "tok") is None


def test_injector_chunk_rules_separate_from_scalar():
    plan = FaultPlan((FaultRule(kind="chunk", probability=1.0),))
    inj, _clock = _injector(plan)
    assert inj.decide("LIKE_POST", "tok") is None
    assert inj.decide_chunk(48)
    assert inj.total_injected() == 1


def test_injector_seeds_and_torn_tail_bytes_are_pinned():
    """The namespace seeds are drawn in a fixed order from the
    ``faults`` streams (the unused "crash" draw included), so a fixed
    master seed fixes every seed and every torn-tail byte count."""
    plan = FaultPlan((FaultRule(kind="torn_tail", probability=1.0),))
    factory = RngFactory(2017)
    inj = FaultInjector(plan, factory.stream("faults"), SimClock(),
                        chunk_rng=factory.stream("faults:chunk"))
    assert inj._seeds == {
        "s": 17794455416699221527,
        "crash": 14392463166467106935,
        "torn": 8108114514053306194,
        "c": 4292753535543459371,
    }
    assert [inj.decide_torn_tail(day) for day in range(4)] == [
        66, 96, 51, 73]


# ----------------------------------------------------------------------
# API-level injection
# ----------------------------------------------------------------------
def _world_with_plan(plan):
    world = World(StudyConfig(scale=0.01, seed=42, fault_plan=plan))
    app = world.apps.register(
        "Fault App", "https://fault.example/cb",
        security=AppSecuritySettings(True, False),
        approved_permissions=PermissionScope.full(),
        token_lifetime=TokenLifetime.LONG_TERM,
    )
    user = world.platform.register_account("User")
    target = world.platform.register_account("Target")
    post = world.platform.create_post(target.account_id, "content")
    result = world.auth_server.authorize(
        AuthorizationRequest(app.app_id, app.redirect_uri, "token",
                             app.approved_permissions),
        user.account_id)
    return world, post, result.access_token.token


def test_transient_fault_raises_and_logs():
    world, post, token = _world_with_plan(transient_plan(1.0))
    with pytest.raises(TransientApiError):
        world.api.like_post(token, post.post_id)
    rows = world.api.log.all()
    assert rows[-1].outcome == "transient_error"


def test_timeout_fault_raises_api_timeout():
    plan = FaultPlan((FaultRule(kind="timeout", probability=1.0),))
    world, post, token = _world_with_plan(plan)
    with pytest.raises(ApiTimeout):
        world.api.like_post(token, post.post_id)


def test_invalidate_token_fault_kills_token_mid_flight():
    plan = FaultPlan((FaultRule(kind="invalidate_token",
                                probability=1.0),))
    world, post, token = _world_with_plan(plan)
    with pytest.raises(InvalidTokenError):
        world.api.like_post(token, post.post_id)
    stored = world.tokens.peek(token)
    assert stored.invalidated
    assert stored.invalidation_reason == "fault_injection"


def test_chunk_fault_fails_whole_batch():
    plan = FaultPlan((FaultRule(kind="chunk", probability=1.0),))
    world, post, token = _world_with_plan(plan)
    requests = [ApiRequest(ApiAction.LIKE_POST, token,
                           {"post_id": post.post_id})]
    assert world.api.execute_batch(requests) is None
    # The failed batch performed nothing.
    assert not world.platform.get_post(post.post_id).likes


def test_try_like_post_returns_transient_code():
    world, post, token = _world_with_plan(transient_plan(1.0))
    assert world.api.try_like_post(token, post.post_id) == "transient"


# ----------------------------------------------------------------------
# Study-level identity and degradation guarantees
# ----------------------------------------------------------------------
def _digest(artifacts) -> str:
    h = hashlib.sha256()
    for r in artifacts.world.api.log.all():
        h.update(repr((r.action.name, r.timestamp, r.token, r.user_id,
                       r.app_id, r.target_id, r.source_ip, r.asn,
                       r.outcome)).encode())
    return h.hexdigest()


def _study(fault_plan):
    config = StudyConfig(scale=0.002, seed=13, milking_days=4,
                         campaign_days=12, network_limit=3,
                         fault_plan=fault_plan)
    artifacts = runner.build_world(config)
    runner.run_milking(artifacts)
    runner.run_campaign(artifacts)
    return artifacts


@pytest.fixture(scope="module")
def baseline_artifacts():
    return _study(None)


def test_empty_plan_is_byte_identical(baseline_artifacts):
    empty = _study(FaultPlan())
    assert empty.world.faults is None
    assert _digest(empty) == _digest(baseline_artifacts)


def test_fixed_plan_is_run_to_run_identical():
    one = _study(chaos_plan())
    two = _study(chaos_plan())
    assert _digest(one) == _digest(two)
    assert one.world.faults.counters == two.world.faults.counters


def test_transient_plan_degrades_but_delivers(baseline_artifacts):
    faulty = _study(transient_plan(0.05))
    assert faulty.world.faults.counters["transient"] > 0
    # Delivery completed (degraded, not aborted): the networks kept
    # delivering likes at roughly the fault-free volume.
    baseline_likes = sum(
        n.total_likes_delivered
        for n in baseline_artifacts.ecosystem.networks.values())
    faulty_likes = sum(
        n.total_likes_delivered
        for n in faulty.ecosystem.networks.values())
    assert faulty_likes > 0.8 * baseline_likes
    retries = sum(n.retry_policy.counters["retries"]
                  for n in faulty.ecosystem.networks.values())
    recoveries = sum(n.retry_policy.counters["recoveries"]
                     for n in faulty.ecosystem.networks.values())
    assert retries > 0
    assert recoveries > 0
