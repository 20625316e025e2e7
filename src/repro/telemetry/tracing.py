"""Span tracing over the pipeline: stages → days → waves.

Spans carry both clocks: wall time (``perf_counter``, sanctioned here
by the reprolint RL001 allowlist — instrumented modules never read the
wall clock themselves, they call into the tracer) and sim time, read
from the bound :class:`repro.sim.clock.SimClock` when the runner has
attached one.  The tree exports as Chrome trace-event JSON (loadable
in ``chrome://tracing`` / Perfetto) and as an indented text tree.

Tracing is write-only with respect to the simulation: recording a span
never touches platform state, RNG streams or the request log, so a
traced run stays byte-identical to an untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from repro.perf.instrumentation import StageTimer

#: Hard cap on retained spans; a pathological run degrades to counting
#: drops instead of exhausting memory.
MAX_SPANS = 200_000


class Span:
    """One timed region.  ``wall_*`` are perf_counter seconds relative
    to the process; ``sim_*`` are simulated epoch seconds (None when no
    sim clock was bound at record time)."""

    __slots__ = ("name", "args", "wall_start", "wall_end",
                 "sim_start", "sim_end", "children")

    def __init__(self, name: str, args: Dict[str, object],
                 wall_start: float, sim_start: Optional[int]) -> None:
        self.name = name
        self.args = args
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.children: List["Span"] = []

    def wall_ms(self) -> float:
        return (self.wall_end - self.wall_start) * 1e3


class Tracer:
    """Builds a span forest; nesting follows begin/end bracketing."""

    def __init__(self) -> None:
        self.enabled = False
        #: SimClock bound by the runner once the world exists.
        self.clock = None
        self.roots: List[Span] = []
        self.dropped = 0
        self._stack: List[Span] = []
        self._count = 0
        self._stage_handles: List[Optional[Span]] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def bind_clock(self, clock) -> None:
        self.clock = clock

    def reset(self) -> None:
        self.roots = []
        self.dropped = 0
        self._stack = []
        self._count = 0
        self._stage_handles = []

    def _on_stage(self, name: str, entering: bool) -> None:
        """StageTimer listener: every timed pipeline stage becomes a
        span, so the trace inherits build/milking/campaign/detection
        structure without instrumenting the runner twice."""
        if entering:
            self._stage_handles.append(self.begin(name, kind="stage"))
        elif self._stage_handles:
            self.end(self._stage_handles.pop())

    def _sim_now(self) -> Optional[int]:
        if self.clock is None:
            return None
        return self.clock.now()

    def begin(self, name: str, **args: object) -> Optional[Span]:
        """Open a span; returns a handle for :meth:`end`, or None when
        tracing is off or the span budget is spent."""
        if not self.enabled:
            return None
        if self._count >= MAX_SPANS:
            self.dropped += 1
            return None
        self._count += 1
        span = Span(name, args, perf_counter(), self._sim_now())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.wall_end = perf_counter()
        span.sim_end = self._sim_now()
        if span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[None]:
        handle = self.begin(name, **args)
        try:
            yield
        finally:
            self.end(handle)

    def walk(self) -> Iterator[Span]:
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))


#: Process-global tracer.  Enabled by ``repro run --telemetry``;
#: the metrics registry can run with tracing off (bench mode).
TRACER = Tracer()

StageTimer.listeners.append(TRACER._on_stage)
