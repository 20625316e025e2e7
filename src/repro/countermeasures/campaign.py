"""The countermeasure campaign of §6 / Fig. 5.

Re-runs honeypot milking against the focal collusion networks while the
platform escalates through the paper's intervention ladder:

====  ==========================================================
Day   Intervention
====  ==========================================================
1-11  baseline milking (no countermeasures)
12    per-token rate limit reduced by >10x
23    invalidate half of all milked tokens
28    invalidate all milked tokens
29+   invalidate half of newly observed tokens daily
36+   invalidate all newly observed tokens daily
46    daily + weekly per-IP like limits
55+   SynchroTrap clustering-based invalidation
70    AS blocking for susceptible apps
====  ==========================================================

(hublaa.me's site outage on days 45-50 is reproduced as an availability
window.)  Every intervention day is configurable, and each countermeasure
can be disabled independently for ablation studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.collusion.ecosystem import CollusionEcosystem
from repro.collusion.network import CollusionNetwork
from repro.countermeasures.asblocking import (
    block_asns_for_apps,
    identify_abusive_asns,
)
from repro.countermeasures.clustering import (
    ClusteringCountermeasure,
    ClusteringOutcome,
)
from repro.countermeasures.invalidation import TokenInvalidator
from repro.countermeasures.iplimits import apply_ip_like_limits
from repro.countermeasures.ratelimits import apply_reduced_token_limit
from repro.detection.synchrotrap import SynchroTrap
from repro.honeypot.account import HoneypotAccount, create_honeypot
from repro.honeypot.crawler import TimelineCrawler
from repro.honeypot.ledger import MilkedTokenLedger
from repro.perf import PERF
from repro.sim.clock import DAY, HOUR
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.tracing import TRACER


@dataclass
class CampaignConfig:
    """Knobs of the countermeasure campaign (defaults follow Fig. 5)."""

    days: int = 75
    posts_per_day: int = 10
    networks: Tuple[str, ...] = ("hublaa.me", "official-liker.net")
    # Interventions (1-indexed campaign days, as labelled in Fig. 5).
    rate_limit_day: int = 12
    reduced_token_limit: int = 40
    invalidate_half_day: int = 23
    invalidate_all_day: int = 28
    daily_half_start_day: int = 29
    daily_all_start_day: int = 36
    ip_limit_day: int = 46
    ip_daily_limit: int = 100
    ip_weekly_limit: int = 400
    clustering_start_day: int = 55
    clustering_interval_days: int = 3
    as_block_day: int = 70
    as_block_min_ips: int = 50
    hublaa_outage: Optional[Tuple[int, int]] = (45, 51)
    #: Average background likes/hour the networks perform with each
    #: honeypot token during the campaign (Fig. 7's 5-10/hour band).
    outgoing_per_hour: float = 7.0
    #: Whether the focal networks also serve their bulk anonymous
    #: workload (charge-only path).  Ablations may disable it to study
    #: a single mechanism in isolation.
    background_serving: bool = True
    # Per-countermeasure switches (for ablations).
    enable_rate_limit: bool = True
    enable_invalidation: bool = True
    enable_ip_limits: bool = True
    enable_clustering: bool = True
    enable_as_block: bool = True

    def __post_init__(self) -> None:
        if self.days <= 0 or self.posts_per_day <= 0:
            raise ValueError("days and posts_per_day must be positive")

    @classmethod
    def compressed(cls, days: int, **overrides) -> "CampaignConfig":
        """The paper's 75-day schedule squeezed into ``days``.

        Intervention days are remapped proportionally and then nudged so
        each stage still fires on its own day (strictly increasing).
        Useful for quick runs and CI; ``days=75`` returns the paper's
        schedule unchanged.
        """
        if days <= 8:
            raise ValueError("need at least 9 days to fit every stage")
        reference = cls()
        ratio = days / reference.days
        stages = ("rate_limit_day", "invalidate_half_day",
                  "invalidate_all_day", "daily_half_start_day",
                  "daily_all_start_day", "ip_limit_day",
                  "clustering_start_day", "as_block_day")
        mapped = {}
        previous = 1
        for name in stages:
            value = max(previous + 1,
                        round(getattr(reference, name) * ratio))
            mapped[name] = value
            previous = value
        if mapped["as_block_day"] >= days:
            raise ValueError(
                f"{days} days cannot fit the full intervention ladder")
        outage = reference.hublaa_outage
        if outage is not None:
            start = max(2, round(outage[0] * ratio))
            mapped["hublaa_outage"] = (start,
                                       max(start + 1,
                                           round(outage[1] * ratio)))
        interval = max(1, round(reference.clustering_interval_days
                                * ratio))
        mapped["clustering_interval_days"] = interval
        mapped.update(overrides)
        return cls(days=days, **mapped)


@dataclass
class NetworkDailySeries:
    """Fig. 5's measured series for one network."""

    domain: str
    posts_per_day: List[int] = field(default_factory=list)
    likes_per_day: List[int] = field(default_factory=list)

    @property
    def avg_likes_per_post(self) -> List[float]:
        return [likes / posts if posts else 0.0
                for likes, posts in zip(self.likes_per_day,
                                        self.posts_per_day)]

    def window_average(self, start_day: int, end_day: int) -> float:
        """Mean avg-likes/post over campaign days [start, end] (1-based,
        inclusive)."""
        values = self.avg_likes_per_post[start_day - 1:end_day]
        return sum(values) / len(values) if values else 0.0


@dataclass
class CampaignResults:
    """Everything the Fig. 5-8 experiments consume."""

    config: CampaignConfig
    start_day: int
    series: Dict[str, NetworkDailySeries]
    honeypots: Dict[str, HoneypotAccount]
    ledger: MilkedTokenLedger
    interventions: List[Tuple[int, str]]
    clustering_outcomes: List[Tuple[int, ClusteringOutcome]]
    tokens_invalidated: int
    #: Campaign day a crash-recovery resume restarted from (None for an
    #: uninterrupted run).
    resumed_from_day: Optional[int] = None


class CountermeasureCampaign:
    """Runs the Fig. 5 campaign against a built ecosystem."""

    def __init__(self, world, ecosystem: CollusionEcosystem,
                 config: Optional[CampaignConfig] = None) -> None:
        self.world = world
        self.ecosystem = ecosystem
        self.config = config or CampaignConfig()
        self.rng = world.rng.stream("campaign")
        self.ledger = MilkedTokenLedger()
        self.crawler = TimelineCrawler(world, self.ledger)
        self.invalidator = TokenInvalidator(
            world.tokens, self.ledger, world.rng.stream("invalidation"))
        self.clustering = ClusteringCountermeasure(
            SynchroTrap(max_bucket_actors=100),
            window_days=self.config.clustering_interval_days)
        self.networks: Dict[str, CollusionNetwork] = {}
        self.honeypots: Dict[str, HoneypotAccount] = {}
        self.series: Dict[str, NetworkDailySeries] = {}
        for domain in self.config.networks:
            network = ecosystem.network(domain)
            network.refresh_all_tokens()
            network.replenishment_enabled = True
            network.background_serving_enabled = (
                self.config.background_serving)
            self.networks[domain] = network
            self.honeypots[domain] = create_honeypot(world, network)
            self.series[domain] = NetworkDailySeries(domain=domain)
        self.interventions: List[Tuple[int, str]] = []
        self.clustering_outcomes: List[Tuple[int, ClusteringOutcome]] = []
        self._start_day = world.clock.day()
        self._campaign_start_ts = world.clock.now()

    # ------------------------------------------------------------------
    def run(self, recovery=None) -> CampaignResults:
        """Run the campaign, optionally under a
        :class:`~repro.countermeasures.recovery.CampaignRecovery` that
        journals rows, checkpoints day boundaries and — on resume —
        fast-forwards past the days already on disk."""
        config = self.config
        self._schedule_outages()
        first_day = 1
        if recovery is not None:
            first_day = recovery.prepare(self)
        for campaign_day in range(first_day, config.days + 1):
            if recovery is not None:
                recovery.begin_day(self, campaign_day)
            self._run_day(campaign_day)
            if recovery is not None:
                recovery.on_day_complete(self, campaign_day)
        if recovery is not None:
            recovery.finish(self)
        return CampaignResults(
            config=config,
            start_day=self._start_day,
            series=self.series,
            honeypots=self.honeypots,
            ledger=self.ledger,
            interventions=self.interventions,
            clustering_outcomes=self.clustering_outcomes,
            tokens_invalidated=self.invalidator.total_invalidated,
            resumed_from_day=(recovery.resumed_from_day
                              if recovery is not None else None),
        )

    # ------------------------------------------------------------------
    def _schedule_outages(self) -> None:
        outage = self.config.hublaa_outage
        if outage and "hublaa.me" in self.networks:
            start_day, end_day = outage
            base = self._campaign_start_ts
            self.networks["hublaa.me"].schedule_outage(
                base + (start_day - 1) * DAY, base + (end_day - 1) * DAY)

    def _run_day(self, campaign_day: int) -> None:
        world = self.world
        day_start = world.clock.now()
        day_span = TRACER.begin("campaign_day", day=campaign_day)
        likes_today = {domain: 0 for domain in self.networks}
        posts_today = {domain: 0 for domain in self.networks}

        self._schedule_day(day_start, likes_today, posts_today)
        world.scheduler.run_until(day_start + DAY - 1)

        for honeypot in self.honeypots.values():
            self.crawler.crawl_incoming(honeypot)
        self._apply_interventions(campaign_day)
        for network in self.networks.values():
            network.daily_tick()

        for domain in self.networks:
            self.series[domain].posts_per_day.append(posts_today[domain])
            self.series[domain].likes_per_day.append(likes_today[domain])
        world.clock.advance_to(day_start + DAY)
        if TELEMETRY.enabled:
            self._sample_window_occupancy()
        TRACER.end(day_span)

    def _sample_window_occupancy(self) -> None:
        """Day-end gauges over the limiter windows."""
        occupancy = self.world.api.enforcer.window_occupancy()
        for window in sorted(occupancy):
            keys, events = occupancy[window]
            TELEMETRY.gauge_set("ratelimit_window_keys", keys,
                                window=window)
            TELEMETRY.gauge_set("ratelimit_window_events", events,
                                window=window)

    def _schedule_day(self, day_start: int, likes_today: Dict[str, int],
                      posts_today: Dict[str, int]) -> None:
        """Enqueue one day's request / outgoing / serving events.

        Per network: the like requests, then the honeypot token's
        hour-by-hour background use (the Fig. 7 signal), then the bulk
        charge-only serving workload.  Each time is drawn from the
        campaign stream as it is scheduled, so the draw order and the
        scheduler's submission tie-break are one fixed sequence.
        """
        at = self.world.scheduler.at
        per_hour = self.config.outgoing_per_hour
        for domain, network in self.networks.items():
            honeypot = self.honeypots[domain]
            for when in self._request_times(day_start):
                at(when,
                   lambda n=network, h=honeypot, d=domain:
                       self._submit_request(n, h, d, likes_today,
                                            posts_today),
                   label=f"cm-request:{domain}")
            if per_hour > 0:
                for hour in range(24):
                    for _ in range(self._poisson(per_hour)):
                        at(day_start + hour * HOUR + self.rng.randrange(HOUR),
                           lambda n=network, h=honeypot:
                               n.use_member_token_for_background(
                                   h.account_id, 1),
                           label=f"cm-outgoing:{domain}")
            total = network.profile.background_requests_per_day
            if network.background_serving_enabled and total > 0:
                hourly, remainder = divmod(total, 24)
                for hour in range(24):
                    count = hourly + (1 if hour < remainder else 0)
                    if count <= 0:
                        continue
                    at(day_start + hour * HOUR + self.rng.randrange(HOUR),
                       lambda n=network, c=count:
                           n.serve_background_requests(c),
                       label=f"cm-serving:{domain}")

    def _request_times(self, day_start: int) -> List[int]:
        """Spread the day's requests across a working window."""
        count = self.config.posts_per_day
        window_start = day_start + 7 * HOUR
        window = 15 * HOUR
        step = window // max(1, count)
        return [window_start + i * step + self.rng.randrange(max(1, step // 2))
                for i in range(count)]

    def _submit_request(self, network: CollusionNetwork,
                        honeypot: HoneypotAccount, domain: str,
                        likes_today: Dict[str, int],
                        posts_today: Dict[str, int]) -> None:
        post = self.world.platform.create_post(
            honeypot.account_id,
            f"campaign status #{len(honeypot.like_post_ids) + 1}")
        honeypot.like_post_ids.append(post.post_id)
        report = network.submit_like_request(honeypot.account_id,
                                             post.post_id)
        posts_today[domain] += 1
        likes_today[domain] += report.delivered

    def _poisson(self, mean: float) -> int:
        limit = math.exp(-mean)
        k, product = 0, self.rng.random()
        while product > limit:
            k += 1
            product *= self.rng.random()
        return k

    # ------------------------------------------------------------------
    # Interventions
    # ------------------------------------------------------------------
    def _apply_interventions(self, campaign_day: int) -> None:
        config = self.config
        abs_day = self.world.clock.day()

        if config.enable_rate_limit and campaign_day == config.rate_limit_day:
            apply_reduced_token_limit(self.world.policy,
                                      config.reduced_token_limit)
            self._note(campaign_day,
                       f"token rate limit -> {config.reduced_token_limit}/day")

        if config.enable_invalidation:
            if campaign_day == config.invalidate_half_day:
                killed = self.invalidator.invalidate_fraction_of_observed(
                    abs_day, fraction=0.5)
                self._note(campaign_day,
                           f"invalidated half of milked tokens ({killed})")
            elif campaign_day == config.invalidate_all_day:
                killed = self.invalidator.invalidate_all_observed(abs_day)
                self._note(campaign_day,
                           f"invalidated all milked tokens ({killed})")
            elif (config.daily_half_start_day <= campaign_day
                  < config.daily_all_start_day):
                killed = self.invalidator.invalidate_new_observations(
                    abs_day, fraction=0.5)
                self._note(campaign_day,
                           f"daily half invalidation ({killed})")
            elif campaign_day >= config.daily_all_start_day:
                killed = self.invalidator.invalidate_new_observations(
                    abs_day, fraction=1.0)
                self._note(campaign_day,
                           f"daily full invalidation ({killed})")

        if config.enable_ip_limits and campaign_day == config.ip_limit_day:
            apply_ip_like_limits(self.world.policy,
                                 daily=config.ip_daily_limit,
                                 weekly=config.ip_weekly_limit)
            self._note(campaign_day,
                       f"IP like limits: {config.ip_daily_limit}/day, "
                       f"{config.ip_weekly_limit}/week")

        if (config.enable_clustering
                and campaign_day >= config.clustering_start_day
                and (campaign_day - config.clustering_start_day)
                % config.clustering_interval_days == 0):
            with PERF.stage("detection"):
                outcome = self.clustering.run(self.world.api.log,
                                              self.invalidator,
                                              now=self.world.clock.now())
            PERF.count("detection.pairs_scored",
                       outcome.detection.pairs_scored)
            self.clustering_outcomes.append((campaign_day, outcome))
            self._note(campaign_day,
                       f"clustering invalidated "
                       f"{outcome.tokens_invalidated} tokens "
                       f"({outcome.detection.flagged_count} flagged)")

        if config.enable_as_block and campaign_day == config.as_block_day:
            since = (self._campaign_start_ts
                     + (config.ip_limit_day - 1) * DAY)
            asns = identify_abusive_asns(
                self.world.api.log, self.world.as_registry,
                min_ips=config.as_block_min_ips, since=since)
            susceptible = [app.app_id for app in self.world.apps
                           if app.is_susceptible]
            installed = block_asns_for_apps(self.world.policy, asns,
                                            susceptible)
            self._note(campaign_day,
                       f"blocked ASes {asns} for {len(susceptible)} "
                       f"susceptible apps ({installed} entries)")

    def _note(self, campaign_day: int, message: str) -> None:
        self.interventions.append((campaign_day, message))
