"""Rate limiting primitives and the mutable platform rate-limit policy.

:class:`RateLimitPolicy` is the knob panel the §6 countermeasures turn:
the per-token action limit (§6.1), per-IP daily/weekly like limits (§6.4)
and the AS blocklist for protected applications (§6.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set, Tuple

from repro.oauth.redact import redact_token
from repro.sanitizer.trace import SANITIZER as _SANITIZER
from repro.sim.clock import DAY

#: Facebook's baseline per-token write budget.  Generous enough that the
#: paper observes collusion traffic "slips under the current rate limit".
DEFAULT_TOKEN_ACTIONS_PER_DAY = 600

#: §6.1: "we reduce the rate limit by more than an order of magnitude".
REDUCED_TOKEN_ACTIONS_PER_DAY = 40


class SlidingWindowLimiter:
    """Counts events per key within a sliding time window.

    :meth:`full` is the one admission check; ``hit(key, now)`` records
    an event.  Old timestamps are evicted lazily per key (a second
    eviction at the same ``now`` pops nothing, since events are only
    ever recorded at the current time).
    """

    def __init__(self, limit: int, window_seconds: int) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if window_seconds <= 0:
            raise ValueError(f"window must be positive, got {window_seconds}")
        self.limit = limit
        self.window_seconds = window_seconds
        self._events: Dict[str, Deque[int]] = {}
        # Saturation memo: key -> earliest time the key can admit again.
        # A rejected request records nothing, so while a key is saturated
        # its deque is static and that time is exact — repeated rejects
        # become one dict probe instead of an eviction pass.
        self._saturated_until: Dict[str, int] = {}

    def _evict(self, key: str, now: int) -> Deque[int]:
        events = self._events.get(key)
        if events is None:
            events = self._events[key] = deque()
            return events
        horizon = now - self.window_seconds
        while events and events[0] <= horizon:
            events.popleft()
        return events

    def full(self, key: str, now: int) -> bool:
        """Whether ``key`` is at its limit at ``now``: the limiter's one
        admission check.

        A memoized full key answers from the saturation memo.  Otherwise
        the key's window is evicted to ``now`` (and left in
        ``_events[key]`` for the caller to charge) and compared with the
        limit; a full window memoizes when admits resume, once its
        ``len(events) - limit + 1`` oldest events have expired."""
        until = self._saturated_until.get(key)
        if until is not None:
            if now < until:
                return True
            del self._saturated_until[key]
        events = self._evict(key, now)
        if len(events) < self.limit:
            return False
        self._saturated_until[key] = (events[len(events) - self.limit]
                                      + self.window_seconds)
        if _SANITIZER.enabled:
            _SANITIZER.record_limiter("saturate", redact_token(key))
        return True

    def usage(self, key: str, now: int) -> int:
        """Events currently counted against ``key``."""
        return len(self._evict(key, now))

    def hit(self, key: str, now: int) -> None:
        self._evict(key, now).append(now)

    def try_acquire(self, key: str, now: int) -> bool:
        """Atomically check-and-record; True if the event was admitted."""
        if self.full(key, now):
            return False
        self._events[key].append(now)
        return True


@dataclass
class RateLimitPolicy:
    """The platform's mutable abuse-limit configuration.

    All limits default to "off" (None) except the per-token budget, which
    models Facebook's always-on baseline limit.
    """

    token_actions_per_day: int = DEFAULT_TOKEN_ACTIONS_PER_DAY
    ip_likes_per_day: Optional[int] = None
    ip_likes_per_week: Optional[int] = None
    #: ASes whose like requests are blocked, per protected app id.  The
    #: paper scopes AS blocking to the susceptible applications only, "to
    #: mitigate the risk of collateral damage to other applications".
    blocked_asns_by_app: Dict[str, Set[int]] = field(default_factory=dict)

    def block_as_for_app(self, app_id: str, asn: int) -> None:
        self.blocked_asns_by_app.setdefault(app_id, set()).add(asn)

    def is_as_blocked(self, app_id: str, asn: Optional[int]) -> bool:
        if asn is None:
            return False
        return asn in self.blocked_asns_by_app.get(app_id, ())


class PolicyEnforcer:
    """Binds a :class:`RateLimitPolicy` to concrete sliding-window state.

    Rebuilds windows when the policy's numeric limits change (the
    countermeasure campaign lowers the token limit mid-flight).
    """

    def __init__(self, policy: RateLimitPolicy) -> None:
        self.policy = policy
        self._token_limiter = SlidingWindowLimiter(
            policy.token_actions_per_day, DAY)
        self._ip_day_limiter: Optional[SlidingWindowLimiter] = None
        self._ip_week_limiter: Optional[SlidingWindowLimiter] = None
        self._sync()

    def _sync(self) -> None:
        if self._token_limiter.limit != self.policy.token_actions_per_day:
            self._token_limiter = SlidingWindowLimiter(
                self.policy.token_actions_per_day, DAY)
        if self.policy.ip_likes_per_day is None:
            self._ip_day_limiter = None
        elif (self._ip_day_limiter is None
              or self._ip_day_limiter.limit != self.policy.ip_likes_per_day):
            self._ip_day_limiter = SlidingWindowLimiter(
                self.policy.ip_likes_per_day, DAY)
        if self.policy.ip_likes_per_week is None:
            self._ip_week_limiter = None
        elif (self._ip_week_limiter is None
              or self._ip_week_limiter.limit != self.policy.ip_likes_per_week):
            self._ip_week_limiter = SlidingWindowLimiter(
                self.policy.ip_likes_per_week, 7 * DAY)

    def window_occupancy(self) -> Dict[str, Tuple[int, int]]:
        """Deterministic ``window -> (tracked keys, resident events)``.

        Purely observational — no eviction pass, no saturation-memo
        update — so sampling it (the telemetry day-end gauges) cannot
        perturb the simulation.  Resident counts include events a lazy
        eviction has not dropped yet; with identical admission history
        the counts are identical, which is what the resumed-run
        metrics identity relies on.
        """
        occupancy: Dict[str, Tuple[int, int]] = {}
        for name, limiter in (("token", self._token_limiter),
                              ("ip_daily", self._ip_day_limiter),
                              ("ip_weekly", self._ip_week_limiter)):
            if limiter is None:
                continue
            events = limiter._events
            occupancy[name] = (
                len(events), sum(len(q) for q in events.values()))
        return occupancy

    def admit_token_action(self, token: str, now: int) -> bool:
        """Check-and-record one write action for ``token``."""
        self._sync()
        return self._token_limiter.try_acquire(token, now)

    def admit_like(self, token: str, source_ip: Optional[str],
                   now: int) -> Optional[str]:
        """Check-and-record one like: the §6.4 per-IP windows, then the
        §6.1 per-token budget.

        Returns ``None`` if admitted, else the violated limit name
        (``"daily"`` / ``"weekly"`` / ``"token"``).  IP windows are
        charged even when the token budget then rejects; requests
        without a source IP are never IP-limited.
        """
        self._sync()
        if source_ip is not None:
            day = self._ip_day_limiter
            week = self._ip_week_limiter
            if day is not None and day.full(source_ip, now):
                return "daily"
            if week is not None and week.full(source_ip, now):
                return "weekly"
            if day is not None:
                day.hit(source_ip, now)
            if week is not None:
                week.hit(source_ip, now)
        if self._token_limiter.try_acquire(token, now):
            return None
        return "token"

    # ------------------------------------------------------------------
    # Wave admission (memoized per-(key, wave-timestamp) transitions)
    # ------------------------------------------------------------------
    def like_wave(self, now: int) -> "LikeWaveAdmitter":
        """Open a delivery wave at timestamp ``now``.

        The returned admitter answers per-entry like admissions with the
        exact verdicts — in the exact order — that scalar
        :meth:`admit_like` calls at the same timestamp would produce,
        but computes each key's remaining window capacity once and then
        decrements in O(1); the recorded hits land in bulk at
        :meth:`LikeWaveAdmitter.flush`.  The raising
        :meth:`GraphApi.charge_like` / :meth:`GraphApi.like_post` still
        admit through :meth:`admit_like`, and the test suite pins wave
        runs against them."""
        self._sync()
        return LikeWaveAdmitter(self._token_limiter, self._ip_day_limiter,
                                self._ip_week_limiter, now)

    # ------------------------------------------------------------------
    # Checkpoint transfer (see repro.countermeasures.recovery)
    # ------------------------------------------------------------------
    @staticmethod
    def _dump_limiter(limiter: Optional[SlidingWindowLimiter]):
        if limiter is None:
            return None
        return {"events": {key: tuple(events)
                           for key, events in limiter._events.items()
                           if events},
                "saturated": dict(limiter._saturated_until)}

    @staticmethod
    def _load_limiter(limiter: Optional[SlidingWindowLimiter],
                      state) -> None:
        if limiter is None or state is None:
            return
        limiter._events = {key: deque(events)
                           for key, events in state["events"].items()}
        limiter._saturated_until = dict(state["saturated"])

    def export_state(self) -> Dict:
        """Full policy + window state for a campaign checkpoint."""
        self._sync()
        policy = self.policy
        return {
            "policy": {
                "token_actions_per_day": policy.token_actions_per_day,
                "ip_likes_per_day": policy.ip_likes_per_day,
                "ip_likes_per_week": policy.ip_likes_per_week,
                "blocked_asns_by_app": {
                    app: set(asns) for app, asns
                    in policy.blocked_asns_by_app.items()},
            },
            "token": self._dump_limiter(self._token_limiter),
            "ip_day": self._dump_limiter(self._ip_day_limiter),
            "ip_week": self._dump_limiter(self._ip_week_limiter),
        }

    def install_state(self, state: Dict) -> None:
        """Restore an :meth:`export_state` snapshot wholesale."""
        policy = self.policy
        fields = state["policy"]
        policy.token_actions_per_day = fields["token_actions_per_day"]
        policy.ip_likes_per_day = fields["ip_likes_per_day"]
        policy.ip_likes_per_week = fields["ip_likes_per_week"]
        policy.blocked_asns_by_app = {
            app: set(asns)
            for app, asns in fields["blocked_asns_by_app"].items()}
        self._sync()
        self._load_limiter(self._token_limiter, state["token"])
        self._load_limiter(self._ip_day_limiter, state["ip_day"])
        self._load_limiter(self._ip_week_limiter, state["ip_week"])


class LikeWaveAdmitter:
    """Memoized admission state for one delivery wave.

    All requests in a wave share one timestamp, so a key's sliding
    window cannot lose events mid-wave: its admission capacity ("room")
    is a single number computed once, by the limiter's
    :meth:`~SlidingWindowLimiter.full` check, and every further
    admission for that key is a dict probe plus a decrement.  Pending
    hits are appended to the deques in one bulk :meth:`flush`, which
    leaves limiter state byte-identical to the equivalent scalar
    :meth:`PolicyEnforcer.admit_like` sequence (including the
    saturation memos the scalar path would have set).

    Room encoding per key: ``n > 0`` admits remain; ``0`` the wave
    consumed the window but no request has been rejected yet (the
    scalar path would not have memoized saturation either); ``-1``
    saturated and memoized.
    """

    __slots__ = (
        "now", "token_only", "_token_limiter", "_day", "_week",
        "_rooms", "_pending", "_events",
        "_day_rooms", "_day_pending", "_day_events",
        "_week_rooms", "_week_pending", "_week_events",
    )

    def __init__(self, token_limiter: SlidingWindowLimiter,
                 day: Optional[SlidingWindowLimiter],
                 week: Optional[SlidingWindowLimiter], now: int) -> None:
        self.now = now
        self._token_limiter = token_limiter
        self._day = day
        self._week = week
        self.token_only = day is None and week is None
        self._rooms: Dict[str, int] = {}
        self._pending: Dict[str, int] = {}
        self._events: Dict[str, Deque[int]] = {}
        self._day_rooms: Dict[str, int] = {}
        self._day_pending: Dict[str, int] = {}
        self._day_events: Dict[str, Deque[int]] = {}
        self._week_rooms: Dict[str, int] = {}
        self._week_pending: Dict[str, int] = {}
        self._week_events: Dict[str, Deque[int]] = {}

    def _room_of(self, limiter: SlidingWindowLimiter, key: str,
                 rooms: Dict[str, int],
                 events_memo: Dict[str, Deque[int]]) -> int:
        """First touch of ``key`` this wave: resolve its capacity
        through the limiter's one check, :meth:`SlidingWindowLimiter.full`."""
        if limiter.full(key, self.now):
            rooms[key] = -1
            return -1
        events = events_memo[key] = limiter._events[key]
        room = rooms[key] = limiter.limit - len(events)
        return room

    def _exhaust(self, limiter: SlidingWindowLimiter, key: str,
                 rooms: Dict[str, int], events_memo: Dict[str, Deque[int]],
                 pending: Dict[str, int]) -> None:
        """First rejection after this wave consumed the key's room.

        Memoizes saturation exactly as the scalar path would at this
        point — where the deque would already contain the wave's hits,
        which here are still pending."""
        events = events_memo[key]
        count = pending.get(key, 0)
        idx = len(events) + count - limiter.limit
        base = events[idx] if idx < len(events) else self.now
        limiter._saturated_until[key] = base + limiter.window_seconds
        rooms[key] = -1
        if _SANITIZER.enabled:
            _SANITIZER.record_limiter("exhaust", redact_token(key))

    def admit(self, token: str, source_ip: Optional[str]) -> Optional[str]:
        """Per-entry verdict: ``None`` admitted, else ``"daily"`` /
        ``"weekly"`` / ``"token"``.  IP windows are charged even when
        the token budget then rejects, matching the scalar order."""
        if source_ip is not None and not self.token_only:
            day = self._day
            if day is not None:
                room = self._day_rooms.get(source_ip)
                if room is None:
                    room = self._room_of(day, source_ip, self._day_rooms,
                                         self._day_events)
                if room <= 0:
                    if room == 0:
                        self._exhaust(day, source_ip, self._day_rooms,
                                      self._day_events, self._day_pending)
                    return "daily"
            week = self._week
            if week is not None:
                room = self._week_rooms.get(source_ip)
                if room is None:
                    room = self._room_of(week, source_ip, self._week_rooms,
                                         self._week_events)
                if room <= 0:
                    if room == 0:
                        self._exhaust(week, source_ip, self._week_rooms,
                                      self._week_events, self._week_pending)
                    return "weekly"
            if day is not None:
                self._day_rooms[source_ip] -= 1
                self._day_pending[source_ip] = (
                    self._day_pending.get(source_ip, 0) + 1)
            if week is not None:
                self._week_rooms[source_ip] -= 1
                self._week_pending[source_ip] = (
                    self._week_pending.get(source_ip, 0) + 1)
        rooms = self._rooms
        room = rooms.get(token)
        if room is None:
            room = self._room_of(self._token_limiter, token, rooms,
                                 self._events)
        if room <= 0:
            if room == 0:
                self._exhaust(self._token_limiter, token, rooms,
                              self._events, self._pending)
            return "token"
        rooms[token] = room - 1
        pending = self._pending
        pending[token] = pending.get(token, 0) + 1
        return None

    def flush(self) -> None:
        """Bulk-append the wave's admitted hits to the live deques."""
        now = self.now
        events = self._events
        for key, count in self._pending.items():
            events[key].extend((now,) * count)
        if not self.token_only:
            day_events = self._day_events
            for key, count in self._day_pending.items():
                day_events[key].extend((now,) * count)
            week_events = self._week_events
            for key, count in self._week_pending.items():
                week_events[key].extend((now,) * count)
