"""Layer wrappers for the traced study: calls and self time per function.

:class:`LayerTracer` replaces each public function in :data:`TARGETS`
with a timing wrapper, in the benchmark's own process and without
editing ``src/``.  Methods are patched on their class, so bound
methods taken after :meth:`LayerTracer.install` (``self._like_post =
platform.like_post``) resolve to the wrapper.  A caller that bound a
target before that, or imported a module function by name, would
bypass its wrapper; the benchmark's tests catch that as a wrapper
that records no calls.

Spans are aggregated per function (the hottest run millions of times
per study): calls, total seconds and self seconds, where self time is
a span minus the parts of it that wrapped child spans cover.  Time no
wrapped span covers is ``trace.unattributed_s``, so the self times of
all functions plus that remainder add up to the traced ``study_s``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

#: (layer metric prefix, module, attribute path) of every wrapped
#: function.  Several functions may share one prefix; their calls and
#: times add up.
TARGETS = [
    ("runner.build_world", "repro.experiments.runner", "build_world"),
    ("runner.run_milking", "repro.experiments.runner", "run_milking"),
    ("runner.run_campaign", "repro.experiments.runner", "run_campaign"),
    ("runner.run_experiments", "repro.experiments.runner",
     "run_experiments"),
    ("sim.run_until", "repro.sim.events", "EventScheduler.run_until"),
    ("apps.catalog_build", "repro.apps.catalog", "AppCatalog.build"),
    ("collusion.join", "repro.collusion.network", "CollusionNetwork.join"),
    ("collusion.serve_background_requests", "repro.collusion.network",
     "CollusionNetwork.serve_background_requests"),
    ("collusion.submit_like_request", "repro.collusion.network",
     "CollusionNetwork.submit_like_request"),
    ("collusion.daily_tick", "repro.collusion.network",
     "CollusionNetwork.daily_tick"),
    ("oauth.authorize", "repro.oauth.server",
     "AuthorizationServer.authorize"),
    ("oauth.token_from_fragment", "repro.oauth.server",
     "AuthorizationResult.token_from_fragment"),
    ("oauth.issue", "repro.oauth.tokens", "TokenStore.issue"),
    ("oauth.invalidate", "repro.oauth.tokens", "TokenStore.invalidate"),
    ("socialnet.register_account", "repro.socialnet.platform",
     "SocialPlatform.register_account"),
    ("socialnet.like_post", "repro.socialnet.platform",
     "SocialPlatform.like_post"),
    ("graphapi.execute", "repro.graphapi.api", "GraphApi.execute"),
    ("graphapi.wave_charge", "repro.graphapi.api", "DeliveryWave.charge"),
    ("graphapi.wave_like", "repro.graphapi.api", "DeliveryWave.like"),
    ("graphapi.wave_finish", "repro.graphapi.api", "DeliveryWave.finish"),
    ("graphapi.admit", "repro.graphapi.ratelimit", "LikeWaveAdmitter.admit"),
    ("graphapi.limiter_flush", "repro.graphapi.ratelimit",
     "LikeWaveAdmitter.flush"),
    ("graphapi.log_append", "repro.graphapi.log", "RequestLog.append_row"),
    ("graphapi.log_extend", "repro.graphapi.log",
     "RequestLog.extend_like_rows"),
    ("honeypot.crawl_incoming", "repro.honeypot.crawler",
     "TimelineCrawler.crawl_incoming"),
    ("honeypot.ledger_observe", "repro.honeypot.ledger",
     "MilkedTokenLedger.observe"),
    ("countermeasures.clustering", "repro.countermeasures.clustering",
     "ClusteringCountermeasure.run"),
    ("countermeasures.checkpoint", "repro.countermeasures.recovery",
     "CampaignRecovery.on_day_complete"),
    ("detection.synchrotrap_detect", "repro.detection.synchrotrap",
     "SynchroTrap.detect"),
    ("journal.append_row", "repro.journal.wal", "EventJournal.append_row"),
    ("journal.seal_day", "repro.journal.wal", "EventJournal.seal_day"),
    ("telemetry.count", "repro.telemetry.registry",
     "TelemetryRegistry.count"),
    ("telemetry.observe", "repro.telemetry.registry",
     "TelemetryRegistry.observe"),
] + [
    ("sanitizer.record", "repro.sanitizer.trace", f"SanitizerTrace.{hook}")
    for hook in ("record_draw", "record_clock", "record_limiter",
                 "record_journal", "record_shard")
] + [
    (f"experiments.{name}", f"repro.experiments.{name}", "run")
    for name in ("table1", "table2", "table3", "table4", "table5",
                 "table6", "fig4", "fig5", "fig6", "fig7", "fig8")
]

#: ``DeliveryReport`` fields summed over every ``submit_like_request``.
REPORT_FIELDS = {
    "collusion.likes_requested": "requested",
    "collusion.likes_delivered": "delivered",
    "collusion.like_attempts": "attempts",
    "collusion.rate_limited": "rate_limited",
    "collusion.ip_limited": "ip_limited",
    "collusion.blocked": "blocked",
    "collusion.dead_tokens_dropped": "dead_tokens_dropped",
}


class LayerTracer:
    """Aggregated spans and behaviour counts for one traced study."""

    def __init__(self) -> None:
        #: prefix -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Behaviour counts taken from wrapped calls' arguments/results.
        self.counts: Dict[str, int] = {}
        # One child-time accumulator per open span; index 0 is the root.
        self._stack: List[float] = [0.0]
        self._root_start = time.perf_counter()
        self._observers: Dict[str, Callable] = {
            "collusion.submit_like_request": self._on_delivery,
            "graphapi.admit": self._on_admit,
            "graphapi.log_extend": self._on_log_extend,
            "detection.synchrotrap_detect": self._on_detect,
        }

    # -- result observers ---------------------------------------------
    def _add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_delivery(self, args, report) -> None:
        for metric, field in REPORT_FIELDS.items():
            self._add(metric, getattr(report, field))

    def _on_admit(self, args, verdict) -> None:
        if verdict is not None:
            self._add(f"graphapi.admit.denied.{verdict}", 1)

    def _on_log_extend(self, args, result) -> None:
        self._add("graphapi.log_extend.rows", len(args[4]))

    def _on_detect(self, args, result) -> None:
        self._add("detection.flagged", result.flagged_count)

    # -- wrapping -----------------------------------------------------
    def wrap(self, prefix: str, func: Callable,
             observe: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        errors = f"{prefix}.errors"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._add(errors, 1)
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Import every target module and patch each target in place."""
        for prefix, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            wrapper = self.wrap(prefix, owner.__dict__[attr],
                                self._observers.get(prefix))
            setattr(owner, attr, wrapper)

    def finish(self, study_s: float, end: float) -> dict:
        """Per-function table plus the unattributed remainder.

        ``study_s`` is the traced study's wall time, ending at ``end``
        (a ``perf_counter`` reading); everything before :meth:`install`
        and the root span's own time are unattributed."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} span(s) still open")
        root_self = (end - self._root_start) - self._stack[0]
        before_root = study_s - (end - self._root_start)
        return {
            "functions": {prefix: {"calls": int(calls), "total_s": total,
                                   "self_s": own}
                          for prefix, (calls, total, own)
                          in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "unattributed_s": before_root + root_self,
        }
