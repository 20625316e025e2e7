"""Instrumented RNG streams — the sanitizer's draw hooks.

``RngFactory.stream`` hands out an :class:`InstrumentedStream` in
place of the raw ``random.Random`` while the sanitizer is enabled.
The wrapper delegates every method to the *same* underlying generator
(the factory keeps the raw object; checkpoints and state transfer
operate on it directly), records one shadow-trace event per draw —
stream name, method, call-site, day, sequence — and records nothing
for ``getstate``/``setstate`` (state plumbing is not a draw).

The wrapper must survive the same journeys the raw generator makes:
``CollusionNetwork.export_state`` pickles ``self.rng`` into a campaign
checkpoint and, on resume, ``adopt_state`` swaps the unpickled stream
back in, rebinding bound-method caches (``self.rng.random``); the
wrapper therefore pickles by value (stream name + underlying
generator) and rebinds the process-global ``SANITIZER`` on the far
side, so an adopted stream keeps recording in the resumed process.
"""

from __future__ import annotations

import sys
from random import Random

from repro.sanitizer.trace import SANITIZER

def _rebuild(name: str, raw: Random) -> "InstrumentedStream":
    """Unpickle hook: rebind the new process's global sanitizer."""
    return InstrumentedStream(raw, name)


def hot_draw_bindings(stream):
    """``(random, getrandbits)`` bound methods for an inlined hot loop.

    The fused admission path caches bound draw methods and calls them
    millions of times per simulated day; a per-draw shadow-trace event
    there costs multiples of the stage's wall clock (reprosan's budget
    is <10% of campaign-stage time — see ``tools/bench_report.py
    --sanitize``).  These bindings resolve to the *raw* generator, so
    the draws stay byte-identical and completely unhooked.

    The exemption is structural — a fixed property of the two inlined
    call sites, identical in every run and execution mode — so it is
    deliberately not recorded as a trace event (a per-bind marker
    would differ between an uninterrupted run and a resume's
    ``adopt_state`` rebinding without describing any workload
    divergence).  A divergent draw
    inside the exempt loop still surfaces in the same day's trace
    through everything the loop feeds: the members/campaign streams,
    limiter saturation transitions, and journal frame digests.
    """
    if isinstance(stream, InstrumentedStream):
        raw = stream._raw
        return raw.random, raw.getrandbits
    return stream.random, stream.getrandbits


class InstrumentedStream:
    """Observation-only proxy around one named ``random.Random``.

    Draw methods are explicit delegations (so each records exactly one
    event with the caller's frame); everything else falls through
    ``__getattr__`` unrecorded.
    """

    __slots__ = ("_raw", "_name", "_san")

    def __init__(self, raw: Random, name: str) -> None:
        self._raw = raw
        self._name = name
        self._san = SANITIZER

    # -- pickling (checkpoints) ----------------------------------------
    def __reduce__(self):
        return (_rebuild, (self._name, self._raw))

    # -- state plumbing: delegated, never recorded ---------------------
    def getstate(self):
        return self._raw.getstate()

    def setstate(self, state) -> None:
        self._raw.setstate(state)

    def seed(self, *args, **kwargs) -> None:
        self._raw.seed(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._raw, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedStream({self._name!r})"

    # -- recorded draws ------------------------------------------------
    def random(self):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"r", "random", sys._getframe(1))
        return self._raw.random()

    def getrandbits(self, k):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"g", "getrandbits",
                            sys._getframe(1))
        return self._raw.getrandbits(k)

    def randrange(self, *args):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"R", "randrange",
                            sys._getframe(1))
        return self._raw.randrange(*args)

    def randint(self, a, b):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"i", "randint",
                            sys._getframe(1))
        return self._raw.randint(a, b)

    def choice(self, seq):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"c", "choice",
                            sys._getframe(1))
        return self._raw.choice(seq)

    def choices(self, population, *args, **kwargs):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"C", "choices",
                            sys._getframe(1))
        return self._raw.choices(population, *args, **kwargs)

    def shuffle(self, x):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"s", "shuffle",
                            sys._getframe(1))
        return self._raw.shuffle(x)

    def sample(self, population, k, **kwargs):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"S", "sample",
                            sys._getframe(1))
        return self._raw.sample(population, k, **kwargs)

    def uniform(self, a, b):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"u", "uniform",
                            sys._getframe(1))
        return self._raw.uniform(a, b)

    def triangular(self, *args, **kwargs):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"t", "triangular",
                            sys._getframe(1))
        return self._raw.triangular(*args, **kwargs)

    def gauss(self, mu=0.0, sigma=1.0):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"G", "gauss",
                            sys._getframe(1))
        return self._raw.gauss(mu, sigma)

    def normalvariate(self, mu=0.0, sigma=1.0):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"n", "normalvariate",
                            sys._getframe(1))
        return self._raw.normalvariate(mu, sigma)

    def expovariate(self, lambd=1.0):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"e", "expovariate",
                            sys._getframe(1))
        return self._raw.expovariate(lambd)

    def randbytes(self, n):
        san = self._san
        if san.enabled:
            san.record_draw(self._name, b"y", "randbytes",
                            sys._getframe(1))
        return self._raw.randbytes(n)

    def __setstate__(self, state):  # pragma: no cover - __reduce__ path
        raise TypeError("InstrumentedStream pickles via __reduce__")
