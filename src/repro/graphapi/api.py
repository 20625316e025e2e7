"""The Graph API endpoint layer.

Enforcement order for write actions mirrors the real platform:

1. token validity (unknown / expired / invalidated → ``invalid_token``);
2. appsecret_proof if the app's settings require it (Fig. 2b);
3. permission scope (``publish_actions`` for likes/comments);
4. AS blocklist for protected apps (§6.4);
5. per-IP like limits (§6.4);
6. per-token action budget (§6.1);
7. the platform write itself.

Every request — successful or not — lands in the :class:`RequestLog`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.graphapi.errors import (
    ApiTimeout,
    AppSecretRequiredError,
    BlockedSourceError,
    GraphApiError,
    IpRateLimitError,
    PermissionDeniedError,
    RateLimitExceededError,
    TransientApiError,
)
from repro.graphapi.log import RequestLog
from repro.graphapi.ratelimit import PolicyEnforcer, RateLimitPolicy
from repro.graphapi.request import (
    LIKE_ACTIONS,
    WRITE_ACTIONS,
    ApiAction,
    ApiRequest,
    ApiResponse,
)
from repro.netsim.asn import AsRegistry
from repro.oauth.redact import redact_token
from repro.oauth.apps import ApplicationRegistry
from repro.oauth.errors import InvalidTokenError
from repro.oauth.proof import verify_appsecret_proof
from repro.oauth.scopes import Permission
from repro.oauth.tokens import AccessToken, TokenStore
from repro.sim.clock import SimClock
from repro.socialnet.errors import SocialNetworkError
from repro.socialnet.platform import SocialPlatform
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.tracing import TRACER


class GraphApi:
    """Authenticated API over a :class:`SocialPlatform`."""

    def __init__(self, clock: SimClock, platform: SocialPlatform,
                 apps: ApplicationRegistry, tokens: TokenStore,
                 as_registry: Optional[AsRegistry] = None,
                 policy: Optional[RateLimitPolicy] = None) -> None:
        self.clock = clock
        self.platform = platform
        self.apps = apps
        self.tokens = tokens
        self.as_registry = as_registry
        self.policy = policy or RateLimitPolicy()
        self.enforcer = PolicyEnforcer(self.policy)
        self.log = RequestLog()
        #: Fault injector (:class:`repro.faults.FaultInjector`) or None.
        #: ``None`` keeps every request path fault-free at the cost of a
        #: single attribute check — an empty plan is byte-identical to a
        #: build without the subsystem.
        self.faults = None
        #: Aggregate counters for the charge-only path (see charge_like).
        self.charge_counters: Dict[str, int] = {"likes": 0}
        # Source IPs are drawn from static pools, so IP->ASN memoizes well.
        self._asn_cache: Dict[str, Optional[int]] = {}
        # Charge-path token memo: access token -> (token, app, granted).
        # Token objects are shared references, so the mutable validity
        # bits (invalidated, expiry) are still checked on every call.
        self._charge_token_cache: Dict[
            str, Tuple[AccessToken, Any, bool]] = {}

    # ------------------------------------------------------------------
    # Core dispatch
    # ------------------------------------------------------------------
    def execute(self, request: ApiRequest) -> ApiResponse:
        """Validate, enforce limits, perform the action, and log it."""
        now = self.clock.now()
        token: Optional[AccessToken] = None
        outcome = "ok"
        asn: Optional[int] = None
        asn_resolved = False
        try:
            inj = self.faults
            if inj is not None:
                fault = inj.decide(request.action.name,
                                   request.access_token)
                if fault is not None:
                    # invalidate_token already flipped the token in the
                    # store; validation below surfaces it naturally.
                    self._raise_fault(fault, request.access_token)
            token = self.tokens.validate(request.access_token)
            app = self.apps.get(token.app_id)
            self._check_app_secret(app, request)
            self._check_permissions(token, request.action)
            asn = self._resolve_asn(request.source_ip)
            asn_resolved = True
            if request.action in LIKE_ACTIONS:
                if self.policy.is_as_blocked(app.app_id, asn):
                    raise BlockedSourceError(request.source_ip or "?", asn)
                violated = self.enforcer.admit_like(
                    token.token, request.source_ip, now)
                if violated == "token":
                    raise RateLimitExceededError(redact_token(token.token))
                if violated is not None:
                    raise IpRateLimitError(request.source_ip or "?", violated)
            elif request.action in WRITE_ACTIONS:
                if not self.enforcer.admit_token_action(token.token, now):
                    raise RateLimitExceededError(redact_token(token.token))
            data = self._perform(token, request)
            return ApiResponse(action=request.action, data=data)
        except InvalidTokenError:
            outcome = "invalid_token"
            raise
        except GraphApiError as error:
            outcome = error.code
            raise
        except SocialNetworkError:
            outcome = "platform_error"
            raise
        finally:
            if not asn_resolved:
                # Admission failed before reaching ASN resolution.
                asn = self._resolve_asn(request.source_ip)
            self.log.append_row(
                now, request.action, request.access_token,
                token.user_id if token else None,
                token.app_id if token else None,
                self._target_of(request), request.source_ip, asn, outcome)
            if TELEMETRY.enabled:
                action = request.action.name
                TELEMETRY.count("graphapi_requests_total",
                                action=action, outcome=outcome)
                if outcome != "ok":
                    TELEMETRY.count("graphapi_errors_total", code=outcome)

    @staticmethod
    def _raise_fault(fault: str, access_token: str) -> None:
        """Turn a fault-plan decision into the matching API failure."""
        if fault == "transient":
            raise TransientApiError()
        if fault == "timeout":
            raise ApiTimeout()
        if fault == "rate_limit":
            raise RateLimitExceededError(redact_token(access_token))
        # "invalidate_token": no direct failure here — the request
        # proceeds and dies through the normal invalid_token machinery.

    # ------------------------------------------------------------------
    # Wave admission (planned delivery waves; see collusion/network.py)
    # ------------------------------------------------------------------
    def delivery_wave(self, post_id: Optional[str] = None) -> "DeliveryWave":
        """Open a :class:`DeliveryWave` at the current clock instant.

        Every collusion like delivery and background serving event runs
        through one wave: per-entry verdicts with the exact semantics
        and byte stream of :meth:`like_post` / :meth:`charge_like`
        (rejections come back as codes instead of exceptions), but with
        token/app/scope lookups and rate-limit window capacities
        memoized per wave, and rate-limit charges plus request-log rows
        applied in bulk when the wave flushes."""
        return DeliveryWave(self, post_id)

    def _resolve_asn(self, source_ip: Optional[str]) -> Optional[int]:
        if source_ip is None or self.as_registry is None:
            return None
        cached = self._asn_cache.get(source_ip, "miss")
        if cached != "miss":
            return cached
        asn = self.as_registry.asn_of(source_ip)
        self._asn_cache[source_ip] = asn
        return asn

    @staticmethod
    def _target_of(request: ApiRequest) -> Optional[str]:
        for key in ("post_id", "page_id", "object_id", "app_id"):
            if key in request.params:
                return str(request.params[key])
        return None

    @staticmethod
    def _check_app_secret(app, request: ApiRequest) -> None:
        """Verify the HMAC-SHA256 appsecret_proof when required.

        The raw secret is also accepted (some SDKs send it directly),
        but a leaked bare token can produce neither.
        """
        if not app.security.require_app_secret:
            return
        proof = request.appsecret_proof
        if proof == app.secret:
            return
        if not verify_appsecret_proof(app.secret, request.access_token,
                                      proof or ""):
            raise AppSecretRequiredError(app.app_id)

    @staticmethod
    def _check_permissions(token: AccessToken, action: ApiAction) -> None:
        if action in (ApiAction.LIKE_POST, ApiAction.LIKE_PAGE,
                      ApiAction.COMMENT, ApiAction.CREATE_POST):
            if not token.grants(Permission.PUBLISH_ACTIONS):
                raise PermissionDeniedError(
                    Permission.PUBLISH_ACTIONS.value)
        elif action is ApiAction.GET_PROFILE:
            if not token.grants(Permission.PUBLIC_PROFILE):
                raise PermissionDeniedError(Permission.PUBLIC_PROFILE.value)

    def _perform(self, token: AccessToken,
                 request: ApiRequest) -> Dict[str, Any]:
        action = request.action
        params = request.params
        user_id = token.user_id
        app_id = token.app_id
        ip = request.source_ip
        if action is ApiAction.GET_PROFILE:
            return self.platform.get_account(user_id).public_profile()
        if action is ApiAction.GET_APP_STATS:
            app = self.apps.get(str(params["app_id"]))
            return {
                "id": app.app_id,
                "name": app.name,
                "monthly_active_users": app.monthly_active_users,
                "daily_active_users": app.daily_active_users,
            }
        if action is ApiAction.GET_OBJECT_LIKES:
            post = self.platform.get_post(str(params["post_id"]))
            return {"post_id": post.post_id, "likers": post.liker_ids()}
        if action is ApiAction.CREATE_POST:
            post = self.platform.create_post(
                user_id, str(params["text"]), via_app_id=app_id,
                source_ip=ip)
            return {"post_id": post.post_id}
        if action is ApiAction.LIKE_POST:
            like = self.platform.like_post(
                user_id, str(params["post_id"]), via_app_id=app_id,
                source_ip=ip)
            return {"object_id": like.object_id, "liker_id": like.liker_id}
        if action is ApiAction.LIKE_PAGE:
            like = self.platform.like_page(
                user_id, str(params["page_id"]), via_app_id=app_id,
                source_ip=ip)
            return {"object_id": like.object_id, "liker_id": like.liker_id}
        if action is ApiAction.COMMENT:
            comment = self.platform.comment_on_post(
                user_id, str(params["post_id"]), str(params["text"]),
                via_app_id=app_id, source_ip=ip)
            return {"comment_id": comment.comment_id}
        raise ValueError(f"unhandled action: {action}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Charge-only path
    # ------------------------------------------------------------------
    def charge_like(self, access_token: str,
                    source_ip: Optional[str] = None,
                    appsecret_proof: Optional[str] = None) -> None:
        """Run the full admission path for a like without the platform
        write.

        Used to model a network's bulk workload (likes on arbitrary
        member posts): tokens, app-secret proofs, AS blocks and IP/token
        rate limits are all enforced and charged exactly as in
        :meth:`execute`, but no content is materialized and nothing is
        appended to the request log.  Aggregate volume is tracked in
        :attr:`charge_counters`.  Collusion background serving charges
        in bulk through :meth:`DeliveryWave.charge`, which returns this
        method's rejections as codes.
        """
        now = self.clock.now()
        inj = self.faults
        if inj is not None:
            fault = inj.decide("CHARGE_LIKE", access_token)
            if fault is not None:
                self._raise_fault(fault, access_token)
        cached = self._charge_token_cache.get(access_token)
        if cached is None:
            token = self.tokens.validate(access_token)
            app = self.apps.get(token.app_id)
            granted = token.grants(Permission.PUBLISH_ACTIONS)
            self._charge_token_cache[access_token] = (token, app, granted)
        else:
            token, app, granted = cached
            if token.invalidated:
                raise InvalidTokenError(
                    f"access token invalidated "
                    f"({token.invalidation_reason})")
            if token.is_expired(now):
                raise InvalidTokenError("access token expired")
        if app.security.require_app_secret and appsecret_proof != app.secret:
            if not verify_appsecret_proof(app.secret, access_token,
                                          appsecret_proof or ""):
                raise AppSecretRequiredError(app.app_id)
        if not granted:
            raise PermissionDeniedError(Permission.PUBLISH_ACTIONS.value)
        if self.policy.blocked_asns_by_app:
            asn = self._resolve_asn(source_ip)
            if self.policy.is_as_blocked(app.app_id, asn):
                raise BlockedSourceError(source_ip or "?", asn)
        violated = self.enforcer.admit_like(token.token, source_ip, now)
        if violated == "token":
            raise RateLimitExceededError(redact_token(token.token))
        if violated is not None:
            raise IpRateLimitError(source_ip or "?", violated)
        self.charge_counters["likes"] += 1

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def get_profile(self, access_token: str,
                    appsecret_proof: Optional[str] = None,
                    source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.GET_PROFILE, access_token,
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def like_post(self, access_token: str, post_id: str,
                  appsecret_proof: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.LIKE_POST, access_token, {"post_id": post_id},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def like_page(self, access_token: str, page_id: str,
                  appsecret_proof: Optional[str] = None,
                  source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.LIKE_PAGE, access_token, {"page_id": page_id},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def comment(self, access_token: str, post_id: str, text: str,
                appsecret_proof: Optional[str] = None,
                source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.COMMENT, access_token,
            {"post_id": post_id, "text": text},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def create_post(self, access_token: str, text: str,
                    appsecret_proof: Optional[str] = None,
                    source_ip: Optional[str] = None) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.CREATE_POST, access_token, {"text": text},
            appsecret_proof=appsecret_proof, source_ip=source_ip))

    def get_app_stats(self, access_token: str, app_id: str) -> ApiResponse:
        return self.execute(ApiRequest(
            ApiAction.GET_APP_STATS, access_token, {"app_id": app_id}))


#: Wave result code -> the request-log outcome the raising path logs.
_LOG_OUTCOMES = {
    None: "ok",
    "invalid_token": "invalid_token",
    "app_secret": AppSecretRequiredError.code,
    "permission": PermissionDeniedError.code,
    "blocked": BlockedSourceError.code,
    "token_limit": RateLimitExceededError.code,
    "ip_limit": IpRateLimitError.code,
    "transient": TransientApiError.code,
    "timeout": ApiTimeout.code,
    "platform_error": "platform_error",
}


class DeliveryWave:
    """Bulk admission context for one planned delivery wave.

    Every entry in a wave shares one clock instant, one application and
    (for platform writes) one target post, so the per-request pipeline
    of :meth:`GraphApi.like_post` / :meth:`GraphApi.charge_like`
    collapses: the (token, app, scope) lookup is memoized in the shared
    charge cache, while the token's validity bits are re-checked on
    every entry (a fault plan's ``invalidate_token`` can kill a token
    mid-wave); rate-limit windows become memoized per-(key,
    wave-timestamp) capacity transitions via
    :class:`~repro.graphapi.ratelimit.LikeWaveAdmitter`; and log rows /
    limiter hits / charge counters land in bulk at :meth:`finish`.

    The per-entry verdict codes, bookkeeping order and RNG/fault-stream
    consumption are byte-identical to the raising scalar methods with
    each exception mapped to its code (the test suite pins this against
    a reference adapter built on them).  Callers must :meth:`finish` the
    wave before anything else reads the request log or touches the like
    limiters.
    """

    __slots__ = (
        "api", "now", "post_id", "_inj", "_admitter", "_token_cache",
        "_peek", "_apps_get", "_policy", "_resolve", "_like_post",
        "_tokens", "_users", "_apps", "_ips", "_asns", "_outcomes",
        "_charged", "_finished", "_attempts", "_denied_token",
        "_denied_ip", "_span",
    )

    def __init__(self, api: GraphApi, post_id: Optional[str]) -> None:
        self.api = api
        self.now = api.clock._now
        self.post_id = post_id
        self._inj = api.faults
        self._admitter = api.enforcer.like_wave(self.now)
        self._token_cache = api._charge_token_cache
        self._peek = api.tokens.peek
        self._apps_get = api.apps.get
        self._policy = api.policy
        self._resolve = api._resolve_asn
        self._like_post = api.platform.like_post
        # Row buffers (parallel, in request order) for the like path.
        self._tokens: List[str] = []
        self._users: List[Optional[str]] = []
        self._apps: List[Optional[str]] = []
        self._ips: List[Optional[str]] = []
        self._asns: List[Optional[int]] = []
        self._outcomes: List[str] = []
        self._charged = 0
        self._finished = False
        # Wave-shape tallies (plain ints, maintained unconditionally so
        # telemetry enablement cannot perturb the execution path).
        self._attempts = 0
        self._denied_token = 0
        self._denied_ip = 0
        self._span = TRACER.begin("wave")

    # ------------------------------------------------------------------
    def _fault(self, action: str, access_token: str) -> Optional[str]:
        """Roll the fault plan for one entry: the injected failure's
        code, or ``None`` when the request proceeds (an
        ``invalidate_token`` fault has already killed the token, which
        the verdict then reports as ``"invalid_token"``)."""
        fault = self._inj.decide(action, access_token)
        if fault == "invalidate_token":
            return None
        if fault == "rate_limit":
            self._denied_token += 1
            return "token_limit"
        return fault

    def _verdict(self, access_token: str,
                 source_ip: Optional[str]) -> Optional[str]:
        """Admission for one entry, in the raising path's order: token
        validity, appsecret proof, scope, AS block, then the IP and
        token windows.  ``None`` admits (the limiter charge is pending
        until :meth:`finish`); otherwise the rejection's code.

        (token, app, granted) is memoized in the charge cache shared
        with :meth:`GraphApi.charge_like`; the token's validity bits
        are re-checked on every call."""
        cached = self._token_cache.get(access_token)
        if cached is None:
            token = self._peek(access_token)
            if (token is None or token.invalidated
                    or token.is_expired(self.now)):
                return "invalid_token"
            app = self._apps_get(token.app_id)
            granted = token.grants(Permission.PUBLISH_ACTIONS)
            self._token_cache[access_token] = (token, app, granted)
        else:
            token, app, granted = cached
            if token.invalidated or self.now >= token.expires_at:
                return "invalid_token"
        if (app.security.require_app_secret
                and not verify_appsecret_proof(app.secret, access_token,
                                               "")):
            return "app_secret"
        if not granted:
            return "permission"
        policy = self._policy
        if (policy.blocked_asns_by_app
                and policy.is_as_blocked(app.app_id,
                                         self._resolve(source_ip))):
            return "blocked"
        violated = self._admitter.admit(access_token, source_ip)
        if violated is None:
            return None
        if violated == "token":
            self._denied_token += 1
            return "token_limit"
        self._denied_ip += 1
        return "ip_limit"

    def charge(self, access_token: str,
               source_ip: Optional[str] = None) -> Optional[str]:
        """Wave analogue of :meth:`GraphApi.charge_like`: identical
        enforcement and fault-stream consumption, with each rejection
        returned as a code (``None`` on success, else
        ``"invalid_token"`` / ``"app_secret"`` / ``"permission"`` /
        ``"blocked"`` / ``"token_limit"`` / ``"ip_limit"`` /
        ``"transient"`` / ``"timeout"``); the limiter charge is pending
        until :meth:`finish`."""
        self._attempts += 1
        if self._inj is not None:
            code = self._fault("CHARGE_LIKE", access_token)
            if code is not None:
                return code
        code = self._verdict(access_token, source_ip)
        if code is None:
            self._charged += 1
        return code

    def like(self, access_token: str,
             source_ip: Optional[str]) -> Optional[str]:
        """Wave analogue of :meth:`GraphApi.like_post` against the
        wave's target post: same pipeline, same log rows (buffered until
        :meth:`finish`), same platform write; rejections come back as
        :meth:`charge`'s codes plus ``"platform_error"``.  A fault that
        kills the request before authentication, like a dead token, logs
        a row with no user or app, as a real 5xx would."""
        self._attempts += 1
        code = user_id = app_id = None
        if self._inj is not None:
            code = self._fault("LIKE_POST", access_token)
        if code is None:
            code = self._verdict(access_token, source_ip)
            if code != "invalid_token":
                token = self._token_cache[access_token][0]
                user_id = token.user_id
                app_id = token.app_id
            if code is None:
                try:
                    self._like_post(user_id, self.post_id,
                                    via_app_id=app_id, source_ip=source_ip)
                except SocialNetworkError:
                    code = "platform_error"
        self._tokens.append(access_token)
        self._users.append(user_id)
        self._apps.append(app_id)
        self._ips.append(source_ip)
        self._asns.append(self._resolve(source_ip))
        self._outcomes.append(_LOG_OUTCOMES[code])
        return code

    def finish(self) -> None:
        """Flush pending limiter charges, log rows and counters.

        Idempotent; the wave must not be used again afterwards (any
        limiter admission outside it invalidates the memoized window
        capacities, so callers open a fresh wave)."""
        if self._finished:
            return
        self._finished = True
        self._admitter.flush()
        if self._tokens:
            self.api.log.extend_like_rows(
                self.now, ApiAction.LIKE_POST, self.post_id, self._tokens,
                self._users, self._apps, self._ips, self._asns,
                self._outcomes)
        if self._charged:
            self.api.charge_counters["likes"] += self._charged
        if TELEMETRY.enabled:
            self._report_telemetry()
        span = self._span
        if span is not None:
            span.args["attempts"] = self._attempts
            span.args["charged"] = self._charged
            span.args["denied"] = self._denied_token + self._denied_ip
        TRACER.end(span)

    def _report_telemetry(self) -> None:
        """Fold the wave's shape into the metrics registry (enabled
        runs only; the tallies themselves are always maintained)."""
        stage = TELEMETRY.current_stage()
        TELEMETRY.observe("wave_size", self._attempts, stage=stage)
        TELEMETRY.observe("wave_limiter_denials",
                          self._denied_token + self._denied_ip,
                          stage=stage)
        if self._denied_token:
            TELEMETRY.count("ratelimit_denials_total", self._denied_token,
                            window="token")
        if self._denied_ip:
            TELEMETRY.count("ratelimit_denials_total", self._denied_ip,
                            window="ip")
        if self._charged:
            TELEMETRY.count("wave_charges_total", self._charged,
                            outcome="ok")
        for outcome, events in sorted(Counter(self._outcomes).items()):
            TELEMETRY.count("wave_likes_total", events, outcome=outcome)
