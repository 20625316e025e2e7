"""A collusion network: token harvesting, like/comment delivery, evasion.

The network's behaviour follows §3/§4/§6 of the paper:

* **Harvesting** — members join through the OAuth implicit flow of a
  susceptible application and paste the access token from the redirect
  fragment into the network's site; the network stores it in a token DB.
* **Delivery** — a like request is served by sampling tokens from the DB
  (roughly uniformly for the big pools; some networks bias toward a "hot
  set" of recently used tokens) and issuing Graph API like calls from the
  network's server IPs.
* **Adaptation** — dead tokens are dropped on discovery; sustained
  rate-limit errors make a hot-set network fall back to uniform sampling
  (the §6.1 bounce-back); exhausted or blocked IPs are rotated out.
* **Replenishment** — new members trickle in and members whose tokens
  died re-join (the §6.2 bounce-back).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.collusion.comments import CommentDictionary
from repro.collusion.monetization import (
    MonetizationProfile,
    default_premium_plans,
)
from repro.collusion.profiles import CollusionNetworkProfile, calibrate_pool_size
from repro.faults.retry import RetryPolicy
from repro.graphapi.errors import GraphApiError, TransientApiError
from repro.netsim.pools import IpPool
from repro.oauth.errors import InvalidTokenError, OAuthError
from repro.oauth.server import AuthorizationRequest
from repro.sanitizer.streams import hot_draw_bindings
from repro.socialnet.errors import SocialNetworkError
from repro.telemetry.registry import TELEMETRY

#: try_* result codes that mark a retryable (injected) failure.
_TRANSIENT_CODES = ("transient", "timeout")


@dataclass
class DeliveryReport:
    """Outcome of serving one like/comment request."""

    requested: int
    delivered: int
    attempts: int
    dead_tokens_dropped: int = 0
    rate_limited: int = 0
    ip_limited: int = 0
    blocked: int = 0
    other_failures: int = 0
    #: Transient API failures that survived the retry budget.
    transient_failures: int = 0
    #: Retry attempts spent on transient failures during this delivery.
    retries: int = 0
    #: Retry loops that gave up with attempts left to burn but the
    #: elapsed-time budget (``RetryPolicy.max_elapsed``) exhausted...
    giveups_deadline: int = 0
    #: ...vs loops that burned the full attempt budget.
    giveups_attempts: int = 0
    halted: bool = False  # no usable IPs left: delivery cannot continue

    @property
    def succeeded(self) -> bool:
        return self.delivered >= self.requested


class MemberDirectory:
    """Shared registry of colluding accounts across all networks.

    Implements cross-network membership overlap: the paper found 1,150,782
    memberships but only 1,008,021 unique accounts (~12% of joins are
    accounts already colluding elsewhere).
    """

    def __init__(self, platform, geo, rng: random.Random,
                 overlap_rate: float = 0.12) -> None:
        if not 0.0 <= overlap_rate < 1.0:
            raise ValueError(f"bad overlap rate: {overlap_rate}")
        self._platform = platform
        self._geo = geo
        self._rng = rng
        self._overlap_rate = overlap_rate
        self._accounts: List[str] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._accounts)

    def draw_member(self, exclude: Set[str],
                    country_mix: Optional[Sequence[Tuple[str, float]]] = None) -> str:
        """An account for a new membership: usually fresh, sometimes an
        existing colluder from another network."""
        if self._accounts and self._rng.random() < self._overlap_rate:
            for _ in range(8):  # rejection-sample around exclusions
                candidate = self._rng.choice(self._accounts)
                if candidate not in exclude:
                    return candidate
        return self._create_account(country_mix)

    def _create_account(self, country_mix) -> str:
        self._counter += 1
        country = self._geo.sample_country(self._rng, country_mix)
        account = self._platform.register_account(  # reprolint: disable=RL301 — signup is the platform's first-party web flow; no app token is involved, so there is nothing for the Graph API to meter
            f"Colluding User {self._counter}", country=country)
        self._accounts.append(account.account_id)
        return account.account_id


# dead_members and _member_op_journal are deliberately outside the
# __dict__ snapshot (_CHECKPOINT_SKIP_FIELDS): a checkpoint carries the
# membership-op journal beside the snapshot, and recovery replays it
# onto the rebuilt dead_members set instead of pickling the set.
class CollusionNetwork:  # reprolint: disable=RL401 — dead_members/_member_op_journal are rebuilt by recovery from the checkpointed op journal, never shipped raw
    """One autoliker service wired into a simulated world."""

    def __init__(self, world, profile: CollusionNetworkProfile,
                 directory: MemberDirectory, ip_pool: IpPool,
                 short_url_slug: Optional[str] = None) -> None:
        self.world = world
        self.profile = profile
        self.directory = directory
        self.ip_pool = ip_pool
        self.short_url_slug = short_url_slug
        self.domain = profile.domain
        self.app = world.apps.get(profile.app_id)
        self.rng = world.rng.stream(f"network:{profile.domain}")
        # Bound-method caches for the sampling hot path; the rng instance
        # never changes (setstate mutates it in place) and the profile is
        # static, so these stay valid for the network's lifetime.  Bound
        # through the sanitizer shell so the inlined rejection loops
        # draw raw (byte-identical, unhooked) even while tracing — see
        # hot_draw_bindings on the per-draw overhead budget.
        self._rng_random, self._getrandbits = hot_draw_bindings(self.rng)
        self._reuse_bias = profile.token_reuse_bias

        # Token database: member account id -> token string, plus a list
        # for O(1) uniform sampling with swap-pop removal.
        self.token_db: Dict[str, str] = {}
        self._member_list: List[str] = []
        self._member_index: Dict[str, int] = {}
        self.dead_members: Set[str] = set()
        self.member_countries: Dict[str, str] = {}

        # Hot-set sampling state (§6.1 adaptation): a sticky working set
        # of cached tokens the network prefers, refreshed daily.
        self._hot_members: List[str] = []
        self._uniform_mode = profile.token_reuse_bias <= 0.0
        self._rate_error_day_streak = 0
        self._rate_errors_today = 0

        # Availability.
        self._outage_windows: List[Tuple[int, int]] = []
        self.replenishment_enabled = False
        #: Anonymous member requests served per day through the cheap
        #: charge-only path (enabled alongside replenishment).
        self.background_serving_enabled = False

        # Daily request accounting (free-plan limits).
        self._requests_today: Dict[str, int] = {}
        self._accounted_day = -1

        # Batched-delivery health: after a failed all-or-nothing chunk
        # (token invalidation storms, limit pressure) stay on the scalar
        # path for a while instead of paying sample-rollback-replay on
        # every chunk; the backoff doubles while failures persist.
        # ``batch_requests_enabled = False`` forces the scalar path
        # everywhere (the two are RNG-stream equivalent; the flag exists
        # for equivalence tests and debugging).
        self.batch_requests_enabled = True
        self._batch_cooldown = 0
        self._batch_backoff = self._BATCH_CHUNK
        # Resilience: transient API failures (fault injection) are
        # retried with deterministic backoff and a per-endpoint circuit
        # breaker; a chunk that keeps failing degrades the network to
        # the scalar path for the rest of the day.  All of this is inert
        # (and free) while the world has no fault plan.
        self.retry_policy = RetryPolicy()
        self._batch_fail_streak = 0
        self._batch_degraded_day = -1
        # Membership-op journal for campaign checkpoints: an ordered
        # record of every ("store", id) / ("drop", id) mutation of
        # ``dead_members`` since recording began.  A crash-recovery
        # resume replays it onto the rebuilt base set, reproducing both
        # the set's *contents* and its *iteration order* (which feeds
        # the replenishment shuffle) without ever pickling the set.
        self._member_op_journal: Optional[List[Tuple[str, str]]] = None

        # IP health for today.
        self._exhausted_ips: Set[str] = set()
        self._blocked_asns: Set[int] = set()
        self._ip_weights = self._make_ip_weights()
        self._usable_ips: Optional[List[str]] = None
        self._usable_cum_weights: Optional[List[float]] = None

        #: The operator behind this network (see collusion.ownership);
        #: when set, a slice of background activity promotes their content.
        self.owner = None

        # Premium auto-delivery bookkeeping: member -> last boosted post.
        self._auto_boosted: Dict[str, str] = {}

        # Outgoing-activity machinery (requesters our tokens serve).
        self._requester_pool: List[Optional[str]] = []
        self._page_likes_done: Dict[str, Set[str]] = {}
        self._pages: List[str] = []

        # Comments.
        self.comment_dictionary: Optional[CommentDictionary] = None
        if profile.comment_style is not None:
            self.comment_dictionary = CommentDictionary(
                profile.comment_style,
                world.rng.stream(f"comments:{profile.domain}"))

        # Monetization.
        self.monetization = MonetizationProfile(
            domain=profile.domain,
            free_likes_per_request=profile.likes_per_request,
            premium_plans=default_premium_plans(profile.likes_per_request),
        )

        # Lifetime counters.
        self.total_likes_delivered = 0
        self.total_comments_delivered = 0
        self.total_requests_served = 0
        self.total_joins = 0

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def schedule_outage(self, start_ts: int, end_ts: int) -> None:
        """Take the site down for [start_ts, end_ts)."""
        if end_ts <= start_ts:
            raise ValueError("outage must end after it starts")
        self._outage_windows.append((start_ts, end_ts))

    def in_scheduled_outage(self) -> bool:
        now = self.world.clock.now()
        return any(start <= now < end
                   for start, end in self._outage_windows)

    def is_available(self) -> bool:
        if self.in_scheduled_outage():
            return False
        if self.profile.outage_rate > 0 and (
                self.rng.random() < self.profile.outage_rate):
            return False
        return True

    # ------------------------------------------------------------------
    # Membership / token harvesting
    # ------------------------------------------------------------------
    def member_count(self) -> int:
        return len(self._member_list)

    def is_member(self, account_id: str) -> bool:
        return (account_id in self.token_db
                or account_id in self.dead_members)

    def _country_mix(self):
        # Member countries follow the site's visitor geography; reuse the
        # default platform mix unless the network is strongly regional.
        return None

    def join(self, account_id: Optional[str] = None) -> str:
        """One user joins: click the short URL, install the app through
        the implicit flow, paste the token into the site.  Returns the
        member's account id."""
        if account_id is None:
            account_id = self.directory.draw_member(
                exclude=set(self.token_db), country_mix=self._country_mix())
        country = self.world.platform.get_account(account_id).country
        if self.short_url_slug is not None:
            self.world.shortener.click(
                self.short_url_slug, referrer=self.domain, country=country)
        token_string = self._obtain_token(account_id)
        self._store_member(account_id, token_string, country)
        self.total_joins += 1
        return account_id

    def _obtain_token(self, account_id: str) -> str:
        """The §3 workflow: reuse the app's live token if the user already
        installed it (e.g. via another collusion network), else run the
        client-side flow and lift the token from the redirect fragment."""
        existing = self.world.tokens.live_token_for(
            account_id, self.app.app_id)
        if existing is not None:
            return existing.token
        result = self.world.auth_server.authorize(
            AuthorizationRequest(
                app_id=self.app.app_id,
                redirect_uri=self.app.redirect_uri,
                response_type="token",
                scope=self.app.approved_permissions,
            ),
            account_id,
        )
        token_string = result.token_from_fragment()
        if token_string is None:  # pragma: no cover - defensive
            raise OAuthError("implicit flow returned no token")
        return token_string

    def _store_member(self, account_id: str, token_string: str,
                      country: str) -> None:
        self.dead_members.discard(account_id)
        if self._member_op_journal is not None:
            self._member_op_journal.append(("store", account_id))
        if account_id not in self.token_db:
            self._member_index[account_id] = len(self._member_list)
            self._member_list.append(account_id)
        self.token_db[account_id] = token_string
        self.member_countries[account_id] = country

    def _drop_member(self, account_id: str) -> None:
        """Remove a member whose token proved dead (swap-pop)."""
        if account_id not in self.token_db:
            return
        del self.token_db[account_id]
        idx = self._member_index.pop(account_id)
        last = self._member_list.pop()
        if last != account_id:
            self._member_list[idx] = last
            self._member_index[last] = idx
        self.dead_members.add(account_id)
        if self._member_op_journal is not None:
            self._member_op_journal.append(("drop", account_id))

    def refresh_all_tokens(self) -> int:
        """Re-harvest tokens from every member whose token is no longer
        live (expired or invalidated).

        Models the steady state of a long-running network: members renew
        their 2-month tokens as they keep using the service.  The
        countermeasure campaign calls this once at start, mirroring the
        paper's re-milking months after the original measurement, when
        the networks were at full strength."""
        refreshed = 0
        stale = [m for m in self._member_list
                 if self.world.tokens.live_token_for(
                     m, self.app.app_id) is None]
        stale.extend(list(self.dead_members))
        for account_id in stale:
            self.join(account_id)
            refreshed += 1
        return refreshed

    def build_membership(self, count: int) -> int:
        """Bulk-recruit ``count`` members (initial pool construction)."""
        for _ in range(count):
            self.join()
        return self.member_count()

    # ------------------------------------------------------------------
    # Checkpoint snapshot (see repro.countermeasures.recovery)
    # ------------------------------------------------------------------
    #: Fields a checkpoint snapshot never carries: shared subsystems
    #: owned by the world, immutable wiring, the bound-method RNG
    #: shortcuts (rebuilt on adoption), and ``dead_members`` — a set
    #: whose *iteration order* feeds the replenishment join order, and
    #: which a pickle round-trip would silently reorder (the rebuilt set
    #: lacks the original's internal layout history).  Recovery replays
    #: the membership-op journal onto a rebuilt set instead.
    _CHECKPOINT_SKIP_FIELDS = frozenset((
        "world", "directory", "ip_pool", "app", "profile",
        "comment_dictionary", "_rng_random", "_getrandbits",
        "dead_members", "_member_op_journal",
    ))

    def export_state(self) -> dict:
        """Every mutable, network-owned field, as a picklable dict."""
        skip = self._CHECKPOINT_SKIP_FIELDS
        return {key: value for key, value in self.__dict__.items()
                if key not in skip}

    def adopt_state(self, state: dict) -> None:
        """Install :meth:`export_state` output (including the RNG, so
        the adopted stream continues exactly where the snapshot left
        it)."""
        self.__dict__.update(state)
        self._rng_random, self._getrandbits = hot_draw_bindings(self.rng)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample_member(self, exclude: Set[str]) -> Optional[str]:
        """Pick a member token to spend.

        Hot-set networks prefer their cached working set
        (``token_reuse_bias`` of the time) and fall back to the full DB
        when the working set is exhausted for this request; if random
        probing keeps hitting exclusions (tiny pools), a linear sweep
        finds any remaining member.
        """
        members = self._member_list
        if not members:
            return None
        if self._uniform_mode:
            hot = None
        else:
            hot = self._hot_members
            if not hot:
                self._refresh_hot_set()
                hot = self._hot_members
        # rng.choice(seq) is seq[rng._randbelow(len(seq))], and
        # _randbelow(n) is a rejection loop over getrandbits(n.bit_length()).
        # Inlining that loop draws the identical bit stream while dropping
        # two Python frames per probe in the simulator's hottest function.
        getrandbits = self._getrandbits
        if hot and self._rng_random() < self._reuse_bias:
            token_db = self.token_db
            size = len(hot)
            bits = size.bit_length()
            for _ in range(4):
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                member = hot[r]
                if member not in exclude and member in token_db:
                    return member
        size = len(members)
        bits = size.bit_length()
        for _ in range(10):
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            member = members[r]
            if member not in exclude:
                return member
        # Small-pool fallback: deterministic sweep from a random offset.
        start = getrandbits(bits)
        while start >= size:
            start = getrandbits(bits)
        for i in range(size):
            member = members[(start + i) % size]
            if member not in exclude:
                return member
        return None

    def _refresh_hot_set(self) -> None:
        """Re-draw the cached working set of tokens (done daily)."""
        if self._uniform_mode or not self._member_list:
            self._hot_members = []
            return
        size = min(self.profile.hot_set_size, len(self._member_list))
        self._hot_members = self.rng.sample(self._member_list, size)

    def _note_use(self, member: str) -> None:
        """Hook kept for symmetry; the sticky hot set needs no per-use
        bookkeeping."""

    def _make_ip_weights(self) -> List[float]:
        n = len(self.ip_pool.addresses)
        if self.profile.ip_usage == "uniform":
            return [1.0] * n
        # Zipf-ish: a few IPs carry the vast majority of traffic (Fig 8a).
        return [1.0 / (i + 1) for i in range(n)]

    def _invalidate_ip_cache(self) -> None:
        self._usable_ips = None
        self._usable_cum_weights = None

    def _pick_ip(self) -> Optional[str]:
        if self._usable_ips is None:
            usable = [
                (addr, w) for addr, w in zip(self.ip_pool.addresses,
                                             self._ip_weights)
                if addr not in self._exhausted_ips
                and (self.world.as_registry.asn_of(addr)
                     not in self._blocked_asns)
            ]
            self._usable_ips = [a for a, _ in usable]
            cum: List[float] = []
            total = 0.0
            for _, weight in usable:
                total += weight
                cum.append(total)
            self._usable_cum_weights = cum
        usable = self._usable_ips
        if not usable:
            return None
        # Inlined rng.choices(..., cum_weights=..., k=1)[0]: one uniform
        # draw + one bisect over the cached cumulative weights, consuming
        # the identical RNG stream without list/validation overhead.
        cum = self._usable_cum_weights
        return usable[bisect(cum, self._rng_random() * cum[-1],
                             0, len(usable) - 1)]

    # ------------------------------------------------------------------
    # Request accounting & gates
    # ------------------------------------------------------------------
    def _roll_day(self) -> None:
        today = self.world.clock.day()
        if today != self._accounted_day:
            self._accounted_day = today
            self._requests_today.clear()
            self._exhausted_ips.clear()
            self._invalidate_ip_cache()

    def request_allowed(self, requester_id: str) -> bool:
        """Free-plan daily limits (djliker/monkeyliker cap at 10/day)."""
        self._roll_day()
        limit = self.profile.daily_request_limit
        if limit is None:
            return True
        return self._requests_today.get(requester_id, 0) < limit

    def _charge_request(self, requester_id: str) -> None:
        self._roll_day()
        self._requests_today[requester_id] = (
            self._requests_today.get(requester_id, 0) + 1)

    # ------------------------------------------------------------------
    # Like / comment delivery
    # ------------------------------------------------------------------
    def submit_like_request(self, requester_id: str,
                            post_id: str) -> DeliveryReport:
        """A member asks for likes on their post."""
        quota = self.monetization.likes_per_request_for(requester_id)
        if not self.is_member(requester_id):
            raise PermissionError(
                f"{requester_id} is not a member of {self.domain}")
        if not self.is_available() or not self.request_allowed(requester_id):
            return DeliveryReport(requested=quota, delivered=0, attempts=0)
        self._charge_request(requester_id)
        report = self._deliver_likes(post_id, quota,
                                     exclude={requester_id})
        self.total_requests_served += 1
        return report

    def submit_comment_request(self, requester_id: str,
                               post_id: str) -> DeliveryReport:
        """A member asks for auto-comments on their post."""
        if self.comment_dictionary is None:
            raise PermissionError(
                f"{self.domain} does not provide auto-comments")
        quota = self.profile.comments_per_post
        if not self.is_member(requester_id):
            raise PermissionError(
                f"{requester_id} is not a member of {self.domain}")
        if not self.is_available() or not self.request_allowed(requester_id):
            return DeliveryReport(requested=quota, delivered=0, attempts=0)
        self._charge_request(requester_id)
        return self._deliver_comments(post_id, quota,
                                      exclude={requester_id})

    def deliver_followup(self, requester_id: str, post_id: str,
                         count: int) -> DeliveryReport:
        """Finish a previously short delivery (client-side retry).

        The milker schedules this when a like request came back short
        with transient failures: the network tops the post up without
        charging a new request against the member's daily quota.
        """
        if count <= 0 or not self.is_available():
            return DeliveryReport(requested=count, delivered=0, attempts=0)
        return self._deliver_likes(post_id, count, exclude={requester_id})

    #: Pairs sampled per optimistic batch chunk.
    _BATCH_CHUNK = 48
    #: Don't bother batching tails smaller than this.
    _BATCH_MIN = 8
    #: Backoff ceiling, in scalar iterations between batch probes.
    _BATCH_BACKOFF_MAX = 4096
    #: Consecutive chunk failures before degrading to scalar delivery
    #: for the rest of the day (fault-plan runs only).
    _BATCH_DEGRADE_STREAK = 6

    def _batch_failed(self) -> None:
        self._batch_cooldown = self._batch_backoff
        self._batch_backoff = min(self._batch_backoff * 2,
                                  self._BATCH_BACKOFF_MAX)
        if self.world.faults is not None:
            self._batch_fail_streak += 1
            if self._batch_fail_streak >= self._BATCH_DEGRADE_STREAK:
                day = self.world.clock.day()
                if self._batch_degraded_day != day and TELEMETRY.enabled:
                    TELEMETRY.count("wave_degradations_total",
                                    network=self.domain)
                self._batch_degraded_day = day

    def _batching_active(self) -> bool:
        """Whether the all-or-nothing fast path should be probed."""
        return (self.batch_requests_enabled
                and self._batch_degraded_day != self.world.clock.day())

    def _deliver_likes(self, post_id: str, quota: int,
                       exclude: Set[str]) -> DeliveryReport:
        report = DeliveryReport(requested=quota, delivered=0, attempts=0)
        used: Set[str] = set(exclude)
        budget = max(1, int(quota * self.profile.retry_factor))
        if self._batching_active():
            self._deliver_likes_wave(post_id, quota, budget, used, report)
        else:
            self._deliver_likes_scalar(post_id, quota, budget, used, report)
        self.total_likes_delivered += report.delivered
        if TELEMETRY.enabled:
            self._report_delivery_telemetry(report)
        return report

    def _report_delivery_telemetry(self, report: DeliveryReport) -> None:
        """Mirror the report's retry/breaker tallies into the metrics
        registry so ``repro run --json`` and the Prometheus export agree
        with the DeliveryReport the caller sees."""
        domain = self.domain
        TELEMETRY.count("delivery_requested_total", report.requested,
                        network=domain)
        TELEMETRY.count("delivery_delivered_total", report.delivered,
                        network=domain)
        TELEMETRY.count("delivery_attempts_total", report.attempts,
                        network=domain)
        if report.retries:
            TELEMETRY.count("delivery_retries_total", report.retries,
                            network=domain)
        if report.giveups_attempts:
            TELEMETRY.count("delivery_giveups_total",
                            report.giveups_attempts,
                            network=domain, reason="attempts")
        if report.giveups_deadline:
            TELEMETRY.count("delivery_giveups_total",
                            report.giveups_deadline,
                            network=domain, reason="deadline")

    def _deliver_likes_scalar(self, post_id: str, quota: int, budget: int,
                              used: Set[str],
                              report: DeliveryReport) -> None:
        """The per-request delivery loop: one :meth:`GraphApi.try_like_post`
        round-trip per sampled member.

        This is the wave path's verification oracle — a wave run must
        produce this loop's exact RNG stream, log rows and report (see
        tests/test_batch_equivalence.py) — and the live path whenever
        batching is disabled or degraded for the day."""
        while (report.delivered < quota and report.attempts < budget
               and not report.halted):
            if self._batch_cooldown > 0:
                self._batch_cooldown -= 1
            report.attempts += 1
            member = self._sample_member(used)
            if member is None:
                break
            if not self._perform_like(member, post_id, report):
                continue
            used.add(member)
            report.delivered += 1

    def _deliver_likes_wave(self, post_id: str, quota: int, budget: int,
                            used: Set[str], report: DeliveryReport) -> None:
        """Planned-wave delivery: the whole round in bulk admission.

        Fault-free there is exactly one wave — every entry flows through
        one :class:`~repro.graphapi.api.DeliveryWave` with memoized
        token/limiter state, and the log rows and window hits land in
        one flush.  Under an active fault plan the round is paced in
        chunk-sized segments: each segment rolls the plan's chunk rules
        (on the dedicated chunk stream) before it opens, a firing rule
        trips the usual circuit breaker — cooldown with exponential
        backoff, served through the scalar oracle so the per-entry
        stream stays byte-identical — and a backoff streak degrades the
        network to scalar delivery for the rest of the day."""
        inj = self.world.faults
        api = self.world.api
        if inj is None:
            wave = api.delivery_wave(post_id)
            try:
                self._wave_like_run(wave, -1, quota, budget, used, report)
            finally:
                wave.finish()
            return
        while (report.delivered < quota and report.attempts < budget
               and not report.halted):
            if self._batch_degraded_day == self.world.clock.day():
                self._deliver_likes_scalar(post_id, quota, budget, used,
                                           report)
                return
            if self._batch_cooldown > 0:
                if self._cooldown_like_stretch(post_id, quota, budget,
                                               used, report):
                    return
                continue
            room = min(quota - report.delivered, budget - report.attempts)
            if room < self._BATCH_MIN:
                # Tails below the chunk floor always ran scalar.
                self._deliver_likes_scalar(post_id, quota, budget, used,
                                           report)
                return
            if inj.decide_chunk(min(room, self._BATCH_CHUNK),
                                key=self.domain):
                self._batch_failed()
                continue
            wave = api.delivery_wave(post_id)
            try:
                stalled = self._wave_like_run(
                    wave, min(room, self._BATCH_CHUNK), quota, budget,
                    used, report)
            finally:
                wave.finish()
            self._batch_backoff = self._BATCH_CHUNK
            self._batch_fail_streak = 0
            if stalled:
                return

    def _cooldown_like_stretch(self, post_id: str, quota: int, budget: int,
                               used: Set[str],
                               report: DeliveryReport) -> bool:
        """Serve the circuit-breaker backoff through the scalar oracle.

        One cooldown tick per request, exactly like the scalar loop;
        returns True when the member pool ran dry (delivery must stop).
        The caller opens a fresh wave afterwards — the interlude mutates
        the live limiter deques, so any prior wave's memoized capacities
        are stale by construction (waves are finished before this runs).
        """
        while (self._batch_cooldown > 0 and report.delivered < quota
               and report.attempts < budget and not report.halted):
            self._batch_cooldown -= 1
            report.attempts += 1
            member = self._sample_member(used)
            if member is None:
                return True
            if self._perform_like(member, post_id, report):
                used.add(member)
                report.delivered += 1
        return False

    def _wave_like_run(self, wave, seg: int, quota: int, budget: int,
                       used: Set[str], report: DeliveryReport) -> bool:
        """Run up to ``seg`` delivery entries through ``wave``
        (``seg < 0`` = unbounded).  Per-entry RNG draws, verdict
        handling and report bookkeeping mirror
        :meth:`_deliver_likes_scalar` + :meth:`_perform_like` exactly.
        Returns True when the member pool ran dry."""
        sample_member = self._sample_member
        token_get = self.token_db.get
        pick_ip = self._pick_ip
        wave_like = wave.like
        retry_policy = self.retry_policy
        counters = retry_policy.counters
        now = self.world.clock._now
        while (report.delivered < quota and report.attempts < budget
               and not report.halted):
            if seg == 0:
                return False
            seg -= 1
            report.attempts += 1
            member = sample_member(used)
            if member is None:
                return True
            token = token_get(member)
            if token is None:
                continue
            ip = pick_ip()
            if ip is None:
                report.blocked += 1
                report.halted = True
                return False
            code = wave_like(token, ip)
            if code in _TRANSIENT_CODES:
                before = counters["retries"]
                attempts0 = counters["giveups_attempts"]
                deadline0 = counters["giveups_deadline"]
                code = retry_policy.retry(
                    "like_post", member, now,
                    lambda: wave_like(token, ip), code)
                report.retries += counters["retries"] - before
                report.giveups_attempts += (
                    counters["giveups_attempts"] - attempts0)
                report.giveups_deadline += (
                    counters["giveups_deadline"] - deadline0)
            if code is not None:
                if code == "invalid_token":
                    self._drop_member(member)
                    report.dead_tokens_dropped += 1
                elif code == "token_limit":
                    self._rate_errors_today += 1
                    report.rate_limited += 1
                elif code == "ip_limit":
                    self._exhausted_ips.add(ip)
                    self._invalidate_ip_cache()
                    report.ip_limited += 1
                elif code == "blocked":
                    asn = self.world.as_registry.asn_of(ip)
                    if asn is not None:
                        self._blocked_asns.add(asn)
                        self._invalidate_ip_cache()
                    report.blocked += 1
                elif code in _TRANSIENT_CODES:
                    report.transient_failures += 1
                else:
                    report.other_failures += 1
                continue
            self._note_use(member)
            used.add(member)
            report.delivered += 1
        return False

    def _perform_like(self, member: str, post_id: str,
                      report: DeliveryReport) -> bool:
        token = self.token_db.get(member)
        if token is None:
            return False
        ip = self._pick_ip()
        if ip is None:
            report.blocked += 1
            report.halted = True
            return False
        code = self.world.api.try_like_post(token, post_id, source_ip=ip)
        if code in _TRANSIENT_CODES:
            policy = self.retry_policy
            counters = policy.counters
            before = counters["retries"]
            attempts0 = counters["giveups_attempts"]
            deadline0 = counters["giveups_deadline"]
            code = policy.retry(
                "like_post", member, self.world.clock._now,
                lambda: self.world.api.try_like_post(
                    token, post_id, source_ip=ip),
                code)
            report.retries += counters["retries"] - before
            report.giveups_attempts += (
                counters["giveups_attempts"] - attempts0)
            report.giveups_deadline += (
                counters["giveups_deadline"] - deadline0)
        if code is not None:
            if code == "invalid_token":
                self._drop_member(member)
                report.dead_tokens_dropped += 1
            elif code == "token_limit":
                self._rate_errors_today += 1
                report.rate_limited += 1
            elif code == "ip_limit":
                self._exhausted_ips.add(ip)
                self._invalidate_ip_cache()
                report.ip_limited += 1
            elif code == "blocked":
                asn = self.world.as_registry.asn_of(ip)
                if asn is not None:
                    self._blocked_asns.add(asn)
                    self._invalidate_ip_cache()
                report.blocked += 1
            elif code in _TRANSIENT_CODES:
                report.transient_failures += 1
            else:
                report.other_failures += 1
            return False
        self._note_use(member)
        return True

    def _deliver_comments(self, post_id: str, quota: int,
                          exclude: Set[str]) -> DeliveryReport:
        report = DeliveryReport(requested=quota, delivered=0, attempts=0)
        used: Set[str] = set(exclude)
        budget = max(1, int(quota * self.profile.retry_factor) + 3)
        dictionary = self.comment_dictionary
        assert dictionary is not None
        while report.delivered < quota and report.attempts < budget:
            report.attempts += 1
            member = self._sample_member(used)
            if member is None:
                break
            token = self.token_db.get(member)
            if token is None:
                continue
            ip = self._pick_ip()
            if ip is None:
                break
            text = dictionary.sample(self.rng)
            try:
                self.world.api.comment(token, post_id, text, source_ip=ip)
            except TransientApiError:
                # Retry the identical payload with backoff; any terminal
                # code is folded into the usual failure accounting.
                code = self._retry_comment(member, token, post_id, text,
                                           ip, report)
                if code is not None:
                    if code == "invalid_token":
                        self._drop_member(member)
                        report.dead_tokens_dropped += 1
                    elif code in _TRANSIENT_CODES:
                        report.transient_failures += 1
                    else:
                        report.other_failures += 1
                    continue
            except InvalidTokenError:
                self._drop_member(member)
                report.dead_tokens_dropped += 1
                continue
            except (GraphApiError, SocialNetworkError):
                report.other_failures += 1
                continue
            self._note_use(member)
            used.add(member)
            report.delivered += 1
        self.total_comments_delivered += report.delivered
        return report

    def _retry_comment(self, member: str, token: str, post_id: str,
                       text: str, ip: str,
                       report: DeliveryReport) -> Optional[str]:
        """Retry a transiently failed comment; None when it lands."""

        def attempt() -> Optional[str]:
            try:
                self.world.api.comment(token, post_id, text, source_ip=ip)
            except TransientApiError as error:
                return ("timeout" if error.code == "api_timeout"
                        else "transient")
            except InvalidTokenError:
                return "invalid_token"
            except (GraphApiError, SocialNetworkError):
                return "error"
            return None

        policy = self.retry_policy
        counters = policy.counters
        before = counters["retries"]
        attempts0 = counters["giveups_attempts"]
        deadline0 = counters["giveups_deadline"]
        code = policy.retry("comment", member, self.world.clock._now,
                            attempt, "transient")
        report.retries += counters["retries"] - before
        report.giveups_attempts += (
            counters["giveups_attempts"] - attempts0)
        report.giveups_deadline += (
            counters["giveups_deadline"] - deadline0)
        return code

    # ------------------------------------------------------------------
    # Outgoing activity: the network spends *this member's* token serving
    # other members' requests (what Table 4 calls "Outgoing Activities").
    # ------------------------------------------------------------------
    def use_member_token_for_background(self, member: str,
                                        actions: int) -> int:
        """Spend ``member``'s token on ``actions`` background likes.

        Page targets are liked first (each page once per member), then
        requester posts; returns how many actions actually executed.
        """
        performed = 0
        for _ in range(actions):
            token = self.token_db.get(member)
            if token is None:
                break
            if self._background_like(member, token):
                performed += 1
        return performed

    #: Share of background actions spent promoting the operator's own
    #: content (§5.2: honeypots were "frequently used" to like owners'
    #: timeline posts).
    SELF_PROMOTION_SHARE = 0.05

    def _background_like(self, member: str, token: str) -> bool:
        ip = self._pick_ip()
        if ip is None:
            return False
        if (self.owner is not None
                and self.rng.random() < self.SELF_PROMOTION_SHARE):
            if self._promote_owner(member, token, ip):
                return True
        page_share = self._page_target_share()
        liked_pages = self._page_likes_done.setdefault(member, set())
        try:
            if self.rng.random() < page_share:
                page_id = self._next_page_for(liked_pages)
                if page_id is not None:
                    self.world.api.like_page(token, page_id, source_ip=ip)
                    liked_pages.add(page_id)
                    self._note_use(member)
                    return True
                # fall through to a requester post
            target_post = self._next_requester_post()
            self.world.api.like_post(token, target_post, source_ip=ip)
        except InvalidTokenError:
            self._drop_member(member)
            return False
        except (GraphApiError, SocialNetworkError):
            return False
        self._note_use(member)
        return True

    def _promote_owner(self, member: str, token: str, ip: str) -> bool:
        """Spend the token on the operator's promo content instead."""
        target = self.rng.choice(self.owner.promo_post_ids
                                 + [self.owner.page_id])
        try:
            if target.startswith("page:"):
                self.world.api.like_page(token, target, source_ip=ip)
            else:
                self.world.api.like_post(token, target, source_ip=ip)
        except InvalidTokenError:
            self._drop_member(member)
            return False
        except (GraphApiError, SocialNetworkError):
            return False  # duplicate etc.: fall back to normal targets
        self._note_use(member)
        return True

    def _page_target_share(self) -> float:
        total = self.profile.outgoing_activities
        if total <= 0:
            return 0.0
        return self.profile.outgoing_target_pages / total

    def _next_page_for(self, liked: Set[str]) -> Optional[str]:
        """A page this member has not liked yet; grows the page pool on
        demand (pages belong to members promoting their fan pages)."""
        for page_id in self._pages:
            if page_id not in liked:
                return page_id
        owner = (self.rng.choice(self._member_list)
                 if self._member_list else None)
        if owner is None:
            return None
        page = self.world.platform.create_page(  # reprolint: disable=RL301 — members create their own fan pages through the first-party UI, not via a third-party app token
            owner, f"{self.domain} fan page {len(self._pages) + 1}")
        self._pages.append(page.page_id)
        return page.page_id

    def _next_requester_post(self) -> str:
        """A fresh post by a requesting member drawn from the requester
        pool (sized so unique-target counts match Table 4)."""
        if not self._requester_pool:
            size = self._requester_pool_size()
            self._requester_pool = [None] * size
        idx = self.rng.randrange(len(self._requester_pool))
        requester = self._requester_pool[idx]
        if requester is None:
            requester = self.directory.draw_member(exclude=set())
            self._requester_pool[idx] = requester
        post = self.world.platform.create_post(  # reprolint: disable=RL301 — a requester posting on their own wall models the first-party UI; only the subsequent likes flow through the Graph API
            requester, f"please like my post ({self.domain})")
        return post.post_id

    def _requester_pool_size(self) -> int:
        profile = self.profile
        account_actions = max(
            1, profile.outgoing_activities - profile.outgoing_target_pages)
        unique_accounts = max(1, profile.outgoing_target_accounts)
        if account_actions <= unique_accounts:
            return unique_accounts
        return calibrate_pool_size(unique_accounts, account_actions)

    # ------------------------------------------------------------------
    # Daily upkeep
    # ------------------------------------------------------------------
    def daily_tick(self) -> None:
        """End-of-day housekeeping: §6.1 adaptation, §6.2 replenishment,
        hot-set refresh and the day's background serving."""
        # Adaptation: persistent rate-limit errors push the network to
        # uniform token sampling after `adaptation_days` bad days.
        if self._rate_errors_today > 20:
            self._rate_error_day_streak += 1
            if (self._rate_error_day_streak >= self.profile.adaptation_days
                    and not self._uniform_mode):
                self._uniform_mode = True
        else:
            self._rate_error_day_streak = 0
        self._rate_errors_today = 0

        if self.replenishment_enabled and not self.in_scheduled_outage():
            # Users cannot submit tokens while the site is down.
            self._replenish()
        if not self.in_scheduled_outage():
            self._process_auto_delivery()
        self._refresh_hot_set()

    def _replenish(self) -> None:
        """§6.2: fresh joins plus returning members whose tokens died.

        Rates are absolute (members/day), matching the paper's
        observation that networks see a "rather small number of distinct
        new colluding accounts" daily regardless of pool size.
        """
        rng = self.rng
        fresh = self._poissonish(self.profile.new_members_per_day)
        for _ in range(fresh):
            self.join()
        rejoining = min(len(self.dead_members),
                        self._poissonish(self.profile.rejoins_per_day))
        if rejoining <= 0:
            return
        dead = list(self.dead_members)
        rng.shuffle(dead)
        for account_id in dead[:rejoining]:
            self.join(account_id)

    def _process_auto_delivery(self) -> None:
        """Premium perk (§5.1): subscribers on auto-delivery plans get
        their newest post boosted daily without logging in."""
        for member, plan_name in self.monetization.subscriptions.items():
            plan = self.monetization.plan(plan_name)
            if not plan.auto_delivery:
                continue
            timeline = self.world.platform.timeline(member)
            if not timeline:
                continue
            latest = timeline[-1]
            if self._auto_boosted.get(member) == latest.post_id:
                continue
            self._deliver_likes(latest.post_id, plan.likes_per_request,
                                exclude={member})
            self._auto_boosted[member] = latest.post_id

    def _poissonish(self, mean: float) -> int:
        """A cheap Poisson-like draw (normal approximation, floored)."""
        if mean <= 0:
            return 0
        if mean < 20:
            # Knuth's algorithm is fine at small means.
            limit = math.exp(-mean)
            k, product = 0, self.rng.random()
            while product > limit:
                k += 1
                product *= self.rng.random()
            return k
        return max(0, int(round(self.rng.gauss(mean, mean ** 0.5))))

    # ------------------------------------------------------------------
    # Background serving: the bulk of the network's real workload, run
    # through the Graph API's charge-only path so countermeasures see
    # the token/IP/AS pressure without the simulator materializing tens
    # of millions of platform writes.
    # ------------------------------------------------------------------
    def serve_background_requests(self, count: int) -> int:
        """Serve ``count`` anonymous member like-requests; returns the
        number of like charges that succeeded."""
        if count <= 0:
            return 0
        total = 0
        if not self._batching_active():
            for _ in range(count):
                total += self._serve_one_background_scalar()
            return total
        if self.world.faults is None:
            # One charge wave spans the whole serving event: every
            # request in it shares this clock instant, so token lookups
            # and window capacities memoize across requests and the
            # limiter hits land in a single flush.
            wave = self.world.api.delivery_wave()
            try:
                for _ in range(count):
                    total += self._serve_one_background_wave(wave)
            finally:
                wave.finish()
            return total
        for _ in range(count):
            total += self._serve_one_background_faulty()
        return total

    def _background_entry(self, charge, used: Set[str]) -> Optional[int]:
        """One sampled charge attempt: 1 charged, 0 failed, ``None``
        when the request must stop (member pool or IP pool ran dry).
        ``charge(token, ip)`` is either the scalar
        :meth:`GraphApi.try_charge_like` oracle or a wave's
        :meth:`~repro.graphapi.api.DeliveryWave.charge` — both consume
        identical RNG/fault draws and bookkeeping."""
        member = self._sample_member(used)
        if member is None:
            return None
        token = self.token_db.get(member)
        if token is None:
            return 0
        ip = self._pick_ip()
        if ip is None:
            return None
        code = charge(token, ip)
        if code in _TRANSIENT_CODES:
            code = self.retry_policy.retry(
                "charge_like", member, self.world.clock._now,
                lambda: charge(token, ip), code)
        if code is not None:
            if code == "invalid_token":
                self._drop_member(member)
            elif code == "token_limit":
                self._rate_errors_today += 1
            elif code == "ip_limit":
                self._exhausted_ips.add(ip)
                self._invalidate_ip_cache()
            elif code == "blocked":
                asn = self.world.as_registry.asn_of(ip)
                if asn is not None:
                    self._blocked_asns.add(asn)
                    self._invalidate_ip_cache()
            return 0
        used.add(member)
        return 1

    def _serve_one_background_scalar(self) -> int:
        """Scalar oracle for one background request (and the live path
        while batching is disabled or degraded)."""
        quota = self.profile.likes_per_request
        budget = max(1, int(quota * self.profile.retry_factor))
        delivered = 0
        attempts = 0
        used: Set[str] = set()
        api = self.world.api

        def charge(token: str, ip: str) -> Optional[str]:
            return api.try_charge_like(token, source_ip=ip)

        while delivered < quota and attempts < budget:
            if self._batch_cooldown > 0:
                self._batch_cooldown -= 1
            attempts += 1
            got = self._background_entry(charge, used)
            if got is None:
                break
            delivered += got
        return delivered

    def _serve_one_background_wave(self, wave) -> int:
        """One background request through an open (fault-free) wave.

        The entry bookkeeping mirrors :meth:`_background_entry` exactly;
        it is inlined — and the impossible-here transient-retry check
        dropped (:meth:`DeliveryWave.charge` only returns transient
        codes from a live fault injector) — because this loop processes
        millions of entries per campaign."""
        quota = self.profile.likes_per_request
        budget = max(1, int(quota * self.profile.retry_factor))
        delivered = 0
        attempts = 0
        used: Set[str] = set()
        charge = wave.charge
        sample_member = self._sample_member
        token_get = self.token_db.get
        pick_ip = self._pick_ip
        while delivered < quota and attempts < budget:
            attempts += 1
            member = sample_member(used)
            if member is None:
                break
            token = token_get(member)
            if token is None:
                continue
            ip = pick_ip()
            if ip is None:
                break
            code = charge(token, ip)
            if code is not None:
                if code == "token_limit":
                    self._rate_errors_today += 1
                elif code == "invalid_token":
                    self._drop_member(member)
                elif code == "ip_limit":
                    self._exhausted_ips.add(ip)
                    self._invalidate_ip_cache()
                elif code == "blocked":
                    asn = self.world.as_registry.asn_of(ip)
                    if asn is not None:
                        self._blocked_asns.add(asn)
                        self._invalidate_ip_cache()
                continue
            used.add(member)
            delivered += 1
        return delivered

    def _serve_one_background_faulty(self) -> int:
        """One background request under an active fault plan: waves are
        paced in chunk-sized segments with the same chunk-rule probes,
        circuit breaker and scalar-oracle cooldown stretches as
        :meth:`_deliver_likes_wave`."""
        inj = self.world.faults
        api = self.world.api
        quota = self.profile.likes_per_request
        budget = max(1, int(quota * self.profile.retry_factor))
        delivered = 0
        attempts = 0
        used: Set[str] = set()

        def scalar_charge(token: str, ip: str) -> Optional[str]:
            return api.try_charge_like(token, source_ip=ip)

        while delivered < quota and attempts < budget:
            room = min(quota - delivered, budget - attempts)
            if (self._batch_degraded_day == self.world.clock.day()
                    or self._batch_cooldown > 0
                    or room < self._BATCH_MIN):
                if self._batch_cooldown > 0:
                    self._batch_cooldown -= 1
                attempts += 1
                got = self._background_entry(scalar_charge, used)
                if got is None:
                    break
                delivered += got
                continue
            seg = min(room, self._BATCH_CHUNK)
            if inj.decide_chunk(seg, key=self.domain):
                self._batch_failed()
                continue
            wave = api.delivery_wave()
            stop = False
            try:
                charge = wave.charge
                while seg > 0 and delivered < quota and attempts < budget:
                    seg -= 1
                    attempts += 1
                    got = self._background_entry(charge, used)
                    if got is None:
                        stop = True
                        break
                    delivered += got
            finally:
                wave.finish()
            self._batch_backoff = self._BATCH_CHUNK
            self._batch_fail_streak = 0
            if stop:
                break
        return delivered

    def _binomial(self, n: int, p: float) -> int:
        if n <= 0 or p <= 0:
            return 0
        if p >= 1.0:
            return n
        mean = n * p
        if n > 200 and mean > 5:
            # Normal approximation keeps daily replenishment O(1) even
            # for six-figure member pools.
            std = (n * p * (1.0 - p)) ** 0.5
            return max(0, min(n, int(round(self.rng.gauss(mean, std)))))
        return sum(1 for _ in range(n) if self.rng.random() < p)
