"""Trace manifest comparison — ``repro san diff A B``.

Given two ``sanitizer.json`` manifests (run-vs-run,
resume-vs-uninterrupted), the differ works outside-in:

1. **Streams** — a stream present in only one trace is itself the
   divergence.
2. **Epochs** — per stream, the per-day ``(day, count, cumulative
   digest)`` ledger is scanned for the first mismatching entry.
   Chains are cumulative across days, so every epoch after the first
   bad one is poisoned and the first mismatch *is* the first bad day.
3. **Samples** — within the bad day, the intra-day ``(seq, digest)``
   checkpoints shared by both traces bracket the first divergent
   event; at stride 1 (every run below ``MAX_SAMPLES`` events per
   stream-day) the bracket collapses to the exact sequence number.
4. **Ring** — when the divergent seq falls inside the retained
   raw-event window, the event is named: method and call-site on each
   side.

A comparison may ignore streams that describe the execution strategy
rather than the workload (``--ignore``); two runs of the same
campaign compare every stream, so they ignore nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def load_manifest(path: str) -> dict:
    """Load a manifest from a file, or a ``--sanitize`` directory."""
    if os.path.isdir(path):
        path = os.path.join(path, "sanitizer.json")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != "reprosan-trace":
        raise ValueError(f"{path} is not a reprosan trace manifest")
    return document


@dataclass(frozen=True)
class Divergence:
    """One localized difference between two traces."""

    stream: str
    kind: str                  # missing-stream | event | interval
    day: Optional[int] = None
    seq: Optional[int] = None          # exact first divergent seq
    seq_lo: Optional[int] = None       # else: bracket (seq_lo, seq_hi]
    seq_hi: Optional[int] = None
    detail_a: str = ""
    detail_b: str = ""

    def render(self) -> str:
        if self.kind == "missing-stream":
            return (f"divergence: stream={self.stream} "
                    f"({self.detail_a or 'absent in a'}; "
                    f"{self.detail_b or 'absent in b'})")
        lines: List[str] = []
        if self.seq is not None:
            lines.append(f"divergence: stream={self.stream} "
                         f"day={self.day} seq={self.seq}")
        else:
            lines.append(f"divergence: stream={self.stream} "
                         f"day={self.day} seq in "
                         f"({self.seq_lo}, {self.seq_hi}] "
                         "(sampled resolution)")
        if self.detail_a:
            lines.append(f"  a: {self.detail_a}")
        if self.detail_b:
            lines.append(f"  b: {self.detail_b}")
        return "\n".join(lines)


@dataclass
class DiffResult:
    equal: bool
    streams_compared: int
    events_a: int
    events_b: int
    ignored: Tuple[str, ...] = ()
    divergences: List[Divergence] = field(default_factory=list)

    def render(self) -> str:
        if self.equal:
            ignored = (f" (ignored prefixes: {', '.join(self.ignored)})"
                       if self.ignored else "")
            return (f"sanitizer traces identical: "
                    f"{self.streams_compared} stream(s), "
                    f"{self.events_a} event(s){ignored}")
        header = (f"sanitizer traces diverge: "
                  f"{len(self.divergences)} stream(s) affected "
                  f"({self.events_a} vs {self.events_b} events)")
        return "\n".join([header]
                         + [d.render() for d in self.divergences])


def _epoch_ledger(stream: dict) -> List[Tuple[int, int, str]]:
    return [(int(day), int(count), digest)
            for day, count, digest in stream.get("epochs", [])]


def _samples_of(stream: dict, day: int) -> Dict[int, str]:
    entries = stream.get("samples", {}).get(str(day), [])
    return {int(seq): digest for seq, digest in entries}


def _ring_event(stream: dict, day: int, seq: int) -> Optional[str]:
    for entry_day, entry_seq, method, site in stream.get("ring", []):
        if entry_day == day and entry_seq == seq:
            return f"{method} @ {site}" if site else method
    return None


def _day_count(ledger: List[Tuple[int, int, str]], day: int) -> int:
    for entry_day, count, _digest in ledger:
        if entry_day == day:
            return count
    return 0


def _localize(stream: str, a: dict, b: dict, day: int) -> Divergence:
    """Pin the first divergent event within a known-bad day."""
    count_a = _day_count(_epoch_ledger(a), day)
    count_b = _day_count(_epoch_ledger(b), day)
    samples_a = _samples_of(a, day)
    samples_b = _samples_of(b, day)
    common = sorted(set(samples_a) & set(samples_b))
    lo = -1
    hi: Optional[int] = None
    for seq in common:
        if samples_a[seq] == samples_b[seq]:
            lo = seq
        else:
            hi = seq
            break
    if hi is None:
        # Every shared checkpoint agrees: the divergence is past the
        # last common sample.  When the counts differ, the first event
        # one trace has and the other lacks bounds it; when they agree
        # (same count, different bytes), the last event does.
        if count_a != count_b:
            hi = min(count_a, count_b)
        else:
            hi = count_a - 1
    # The bracket (lo, hi] collapses to an exact event when it holds
    # exactly one candidate — always true at sampling stride 1.
    seq: Optional[int] = hi if hi - lo == 1 else None
    detail_a = detail_b = ""
    probe = seq if seq is not None else hi
    if probe is not None:
        event_a = _ring_event(a, day, probe)
        event_b = _ring_event(b, day, probe)
        if event_a:
            detail_a = f"{event_a} ({count_a} events this day)"
        if event_b:
            detail_b = f"{event_b} ({count_b} events this day)"
    if not detail_a:
        detail_a = f"{count_a} events this day"
    if not detail_b:
        detail_b = f"{count_b} events this day"
    if seq is not None:
        return Divergence(stream=stream, kind="event", day=day, seq=seq,
                          detail_a=detail_a, detail_b=detail_b)
    return Divergence(stream=stream, kind="interval", day=day,
                      seq_lo=lo, seq_hi=hi,
                      detail_a=detail_a, detail_b=detail_b)


def _diff_stream(stream: str, a: dict, b: dict) -> Optional[Divergence]:
    ledger_a = _epoch_ledger(a)
    ledger_b = _epoch_ledger(b)
    for entry_a, entry_b in zip(ledger_a, ledger_b):
        if entry_a == entry_b:
            continue
        day_a, _count_a, _ = entry_a
        day_b, _count_b, _ = entry_b
        if day_a == day_b:
            return _localize(stream, a, b, day_a)
        # Different days at the same ledger position: one trace has an
        # epoch (hence events) on a day the other skipped entirely —
        # the first event of the earlier day is the divergence.
        day = min(day_a, day_b)
        return _localize(stream, a, b, day)
    if len(ledger_a) != len(ledger_b):
        longer = ledger_a if len(ledger_a) > len(ledger_b) else ledger_b
        day = longer[min(len(ledger_a), len(ledger_b))][0]
        return _localize(stream, a, b, day)
    return None


def diff_manifests(manifest_a: dict, manifest_b: dict,
                   ignore: Tuple[str, ...] = ()) -> DiffResult:
    """Compare two trace manifests; streams matching an ``ignore``
    prefix are excluded from the comparison."""
    streams_a = manifest_a.get("streams", {})
    streams_b = manifest_b.get("streams", {})

    def kept(name: str) -> bool:
        return not (ignore and name.startswith(tuple(ignore)))

    names = sorted(set(streams_a) | set(streams_b))
    divergences: List[Divergence] = []
    compared = 0
    for name in names:
        if not kept(name):
            continue
        compared += 1
        in_a = name in streams_a
        in_b = name in streams_b
        if not (in_a and in_b):
            present = streams_a.get(name) or streams_b.get(name)
            total = present.get("total", 0) if present else 0
            divergences.append(Divergence(
                stream=name, kind="missing-stream",
                detail_a=(f"{total} events" if in_a else "absent"),
                detail_b=(f"{total} events" if in_b else "absent")))
            continue
        found = _diff_stream(name, streams_a[name], streams_b[name])
        if found is not None:
            divergences.append(found)
    events = [sum(streams.get(name, {}).get("total", 0)
                  for name in names if kept(name))
              for streams in (streams_a, streams_b)]
    return DiffResult(equal=not divergences, streams_compared=compared,
                      events_a=events[0], events_b=events[1],
                      ignored=tuple(ignore), divergences=divergences)
