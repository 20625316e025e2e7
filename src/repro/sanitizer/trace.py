"""reprosan — the determinism sanitizer's shadow trace.

Every scaling result in this reproduction rests on byte-identical
equivalence invariants (wave-vs-scalar admission, kill-9 resume
convergence), but an end-of-run digest mismatch says *that*
determinism broke, never *where*.  The sanitizer works the way
TSan/MSan instrument a binary: hooks over the determinism surface —
every named RNG stream draw, ``SimClock`` read, limiter saturation
transition and journal frame append — feed a shadow trace that two
runs can diff down to the first divergent event (``repro san diff A
B``).

Memory is bounded the way a profiler bounds itself, not the way a
logger doesn't:

* Per ``(stream, day)`` **epoch digests** — a rolling blake2b chain
  over the stream's length-prefixed event payloads, folded and sealed
  when the stream's day changes.  The chain is cumulative *across*
  days, so a divergence on day ``d`` poisons every later epoch and a
  binary search over epochs finds the first bad day.
* **Intra-day samples** — ``(seq, chain-digest)`` checkpoints every
  ``stride`` events; the stride starts at 1 and doubles (thinning the
  kept samples) whenever a day exceeds ``MAX_SAMPLES``, so tiny runs
  bisect to the exact sequence number while huge days stay bounded.
* A **ring buffer** of the last ``RING_SIZE`` raw events per stream
  (method + call-site), so the differ can *name* the first divergent
  event when it falls inside the retained window.

The identity contract — a sanitized run is byte-identical to an
unsanitized one — holds because every hook observes and never draws,
never reads the wall clock, and never perturbs the object it watches;
``tests/test_sanitizer.py`` pins the request-log digest with the
plane on and off.

Fold points (where the pending byte buffer is hashed into the chain)
are a deterministic function of the per-stream event count alone —
sample positions, day seals, and export — so equal event prefixes
always produce equal digests regardless of when a run was
checkpointed or exported.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

#: Simulation seconds per day (mirrors repro.sim.clock.DAY; duplicated
#: here so the trace plane stays import-light for the sim layer).
_DAY = 86400

#: Digest width for epoch/sample chains (16 bytes = blake2b-128).
DIGEST_SIZE = 16

#: Intra-day sample checkpoints kept per (stream, day) before the
#: sampling stride doubles.
MAX_SAMPLES = 512

#: Raw events retained per stream for exact divergence naming.
RING_SIZE = 256

#: Reserved (non-RNG) stream names.  RNG streams are namespaced with
#: an ``rng:`` prefix so a factory stream can never collide with them.
CLOCK_STREAM = "clock"
LIMITER_STREAM = "limiter"
JOURNAL_STREAM = "journal"
SHARD_STREAM = "shard"


def _peek(chain: bytes, pending: bytearray) -> bytes:
    """The chain digest as if ``pending`` were folded — read-only."""
    if not pending:
        return chain
    digest = hashlib.blake2b(chain, digest_size=DIGEST_SIZE)
    digest.update(pending)
    return digest.digest()


def _fold(chain: bytes, pending: bytearray) -> bytes:
    """Fold buffered payload bytes into the rolling chain digest.

    Fold points alter later chain values, so they must line up across
    compared runs: sample positions and day seals are functions of the
    per-stream event count alone, and checkpoint export (the only
    other fold) happens at day boundaries, where the buffered bytes
    are exactly what the next day seal would fold anyway.
    """
    if not pending:
        return chain
    digest = hashlib.blake2b(chain, digest_size=DIGEST_SIZE)
    digest.update(pending)
    del pending[:]
    return digest.digest()


class _StreamState:
    """Mutable per-stream trace state (picklable; see export_state)."""

    __slots__ = ("day", "seq", "total", "chain", "pending", "epochs",
                 "samples", "stride", "ring")

    def __init__(self) -> None:
        self.day: Optional[int] = None
        self.seq = 0                    # events recorded this day
        self.total = 0                  # events recorded overall
        self.chain = b"reprosan-v1\x00\x00\x00\x00\x00"  # 16-byte genesis
        self.pending = bytearray()
        #: sealed days: [(day, event_count, cumulative_digest_hex), ...]
        self.epochs: List[Tuple[int, int, str]] = []
        #: per-day checkpoints: day -> [(seq, cumulative_digest_hex)];
        #: capped at MAX_SAMPLES per day by stride doubling, so memory
        #: grows with days (like epochs), never with events.
        self.samples: Dict[int, List[Tuple[int, str]]] = {}
        self.stride = 1                 # current day's sampling stride
        #: last RING_SIZE raw events: (day, seq, method, site)
        self.ring: deque = deque(maxlen=RING_SIZE)


class SanitizerTrace:  # reprolint: disable=RL401 — enabled is session wiring set before the world builds and is never part of a checkpoint
    """The process-global shadow-trace recorder (``SANITIZER``).

    Disabled by default; when disabled every hook is a single
    attribute check.  ``repro run --sanitize DIR`` enables it before
    the world is built and writes the manifest after the study.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._streams: Dict[str, _StreamState] = {}
        self._day = 0
        self._last_clock: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state (the enabled flag is preserved)."""
        self._streams = {}
        self._day = 0
        self._last_clock = None

    # ------------------------------------------------------------------
    # Day tracking
    # ------------------------------------------------------------------
    def note_time(self, now: int) -> None:
        """Clock advancement hook: keeps the current epoch day."""
        self._day = now // _DAY

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------
    def record_draw(self, stream: str, payload: bytes, method: str,
                    frame: Any) -> None:
        """One RNG draw on a named factory stream."""
        site = (frame.f_code.co_filename, frame.f_lineno)
        self._apply("rng:" + stream, self._day, payload, method, site)

    def record_clock(self, now: int) -> None:
        """One ``SimClock.now()`` read, deduplicated by value."""
        if now == self._last_clock:
            return
        self._last_clock = now
        self._apply(CLOCK_STREAM, now // _DAY, b"c%d" % now,
                    "now=%d" % now, None)

    def record_limiter(self, kind: str, key_digest: str) -> None:
        """One limiter saturation transition (``kind`` names the
        site: ``saturate``, ``exhaust``, ...; keys are redacted)."""
        self._apply(LIMITER_STREAM, self._day,
                    b"L" + kind.encode() + key_digest.encode(),
                    kind + " " + key_digest, None)

    def record_journal(self, day: int, tag: str, digest: bytes) -> None:
        """One WAL frame append, identified by its chain digest."""
        self._apply(JOURNAL_STREAM, day, b"J" + tag.encode() + digest,
                    "frame " + tag + " " + digest.hex(), None)

    def record_shard(self, label: str) -> None:
        """One execution-strategy marker on its own stream.

        No simulation path records one; the hook is kept because
        ``perfbench/tracer.py`` wraps it by name."""
        self._apply(SHARD_STREAM, self._day, b"S" + label.encode(),
                    label, None)

    # ------------------------------------------------------------------
    # The record core
    # ------------------------------------------------------------------
    def _apply(self, stream: str, day: int, payload: bytes,
               method: str, site) -> None:
        state = self._streams.get(stream)
        if state is None:
            state = self._streams[stream] = _StreamState()
        if day != state.day:
            if state.day is not None:
                state.chain = _fold(state.chain, state.pending)
                state.epochs.append((state.day, state.seq,
                                     state.chain.hex()))
            state.day = day
            state.seq = 0
            state.stride = 1
        pending = state.pending
        pending.append(len(payload))
        pending += payload
        seq = state.seq
        state.ring.append((day, seq, method, site))
        state.seq = seq + 1
        state.total += 1
        if state.seq % state.stride == 0:
            state.chain = _fold(state.chain, pending)
            samples = state.samples.setdefault(day, [])
            samples.append((seq, state.chain.hex()))
            if len(samples) > MAX_SAMPLES:
                # Thin to every other checkpoint and double the stride:
                # kept positions stay congruent to stride-1 mod stride,
                # so two traces with equal prefixes keep comparable
                # seqs no matter when each thinned.
                del samples[::2]
                state.stride *= 2

    # ------------------------------------------------------------------
    # State transfer (checkpoints; resume convergence)
    # ------------------------------------------------------------------
    def export_state(self, since: Optional[Dict[str, int]] = None
                     ) -> dict:
        """Picklable snapshot (pending bytes folded first, which is
        digest-neutral: fold points depend only on event counts).

        With ``since`` — the :meth:`epoch_marks` taken right after an
        earlier export — the append-only parts ship as deltas: epochs
        beyond each stream's marked count, and samples only for days
        that could have changed since, i.e. those the new epochs closed
        plus the open day.  A day gains samples only while it is its
        stream's open day, and leaving it always appends its epoch.
        """
        streams = {}
        for name, state in self._streams.items():
            state.chain = _fold(state.chain, state.pending)
            epochs, samples = state.epochs, state.samples
            if since is not None:
                epochs = epochs[since.get(name, 0):]
                changed = {epoch[0] for epoch in epochs} | {state.day}
                samples = {day: entries for day, entries in samples.items()
                           if day in changed}
            streams[name] = {
                "day": state.day,
                "seq": state.seq,
                "total": state.total,
                "chain": state.chain,
                "epochs": list(epochs),
                "samples": {day: list(entries)
                            for day, entries in samples.items()},
                "stride": state.stride,
                "ring": list(state.ring),
            }
        return {"streams": streams, "day": self._day,
                "last_clock": self._last_clock, "since": since}

    def epoch_marks(self) -> Dict[str, int]:
        """Per-stream sealed-epoch counts: the ``since`` argument that
        makes the next :meth:`export_state` a delta on the last one."""
        return {name: len(state.epochs)
                for name, state in self._streams.items()}

    def install_state(self, snapshot: dict) -> None:
        """Restore an :meth:`export_state` snapshot.

        A full export replaces the trace wholesale; a delta export
        (``since`` set) extends a trace holding the export it is a delta
        on: epochs append, shipped sample days replace their old lists.
        """
        if snapshot["since"] is None:
            self._streams = {}
        for name, data in snapshot["streams"].items():
            state = self._streams.get(name)
            if state is None:
                state = self._streams[name] = _StreamState()
            state.day = data["day"]
            state.seq = data["seq"]
            state.total = data["total"]
            state.chain = data["chain"]
            state.pending = bytearray()
            state.epochs.extend(data["epochs"])
            for day, entries in data["samples"].items():
                state.samples[day] = list(entries)
            state.stride = data["stride"]
            state.ring = deque(data["ring"], maxlen=RING_SIZE)
        self._day = snapshot["day"]
        self._last_clock = snapshot["last_clock"]

    # ------------------------------------------------------------------
    # Introspection / manifest
    # ------------------------------------------------------------------
    def stream_names(self) -> List[str]:
        return sorted(self._streams)

    def event_total(self) -> int:
        return sum(state.total for state in self._streams.values())

    def fingerprint(self) -> str:
        """8-hex-char digest over per-stream totals and chains."""
        digest = hashlib.blake2b(digest_size=4)
        for name in sorted(self._streams):
            state = self._streams[name]
            digest.update(f"{name}|{state.total}|".encode())
            digest.update(_peek(state.chain, state.pending))
        return digest.hexdigest()

    def manifest(self) -> dict:
        """The comparable trace document (``sanitizer.json``).

        Epoch lists include the still-open day as a final entry so two
        completed runs compare uniformly; ring call-sites are
        normalised to repo-relative paths.
        """
        streams = {}
        for name in sorted(self._streams):
            state = self._streams[name]
            chain = _peek(state.chain, state.pending)
            epochs = [list(epoch) for epoch in state.epochs]
            if state.day is not None:
                epochs.append([state.day, state.seq, chain.hex()])
            streams[name] = {
                "total": state.total,
                "epochs": epochs,
                "open_day": state.day,
                "samples": {str(day): [list(sample) for sample in entries]
                            for day, entries in
                            sorted(state.samples.items())},
                "ring": [[day, seq, method, _site_str(site)]
                         for day, seq, method, site in state.ring],
            }
        return {"format": "reprosan-trace", "version": 1,
                "events": self.event_total(), "streams": streams}


def _site_str(site) -> str:
    """Repo-relative ``path:lineno`` for a recorded call-site."""
    if site is None:
        return ""
    filename, lineno = site
    filename = filename.replace("\\", "/")
    marker = "/src/repro/"
    index = filename.rfind(marker)
    if index >= 0:
        filename = "repro/" + filename[index + len(marker):]
    else:
        parts = filename.rsplit("/", 2)
        filename = "/".join(parts[-2:])
    return f"{filename}:{lineno}"


#: The process-global sanitizer, mirroring ``TELEMETRY``'s shape.
SANITIZER = SanitizerTrace()
