#!/usr/bin/env python3
"""Produce reprosan trace fixtures for the CI ``sanitizer-smoke`` job.

Two modes, each writing a pair of ``--sanitize``-style manifest
directories for ``repro san diff`` to compare:

``smoke --out DIR``
    Runs the compressed two-network countermeasure campaign twice in
    one process, into ``DIR/a`` and ``DIR/b``, with the sanitizer
    recording, and exits 1 if the two trace fingerprints differ.  CI
    then proves the traces match event-for-event, every stream
    included::

        repro san diff DIR/a DIR/b

    must exit 0.

``divergent --out DIR``
    Synthesizes ``DIR/base`` and ``DIR/divergent``: identical
    three-day draw schedules on one stream, except the divergent
    trace injects a single extra draw mid-day-1.  ``repro san diff``
    must exit 1 and bisect to the exact event — the mode prints the
    ``stream=... day=... seq=...`` marker CI greps for.
"""

from __future__ import annotations

import argparse
import sys

from repro.sanitizer import SANITIZER, write_sanitizer
from repro.sanitizer.trace import SanitizerTrace
from repro.sim.clock import DAY

#: Mirrors tests/resume_driver.py.
NETWORKS = ("fb-autolikers.com", "autolike.vn")
SCALE = 0.004
DAYS = 12
SEED = 31

#: The divergent fixture's shape: CI greps the diff output for
#: ``stream=rng:campaign day=1 seq=78`` (the injected draw displaces
#: event 78 of day 1; events 0..77 agree).
DIVERGENT_STREAM = "campaign"
DIVERGENT_DAYS = 3
DRAWS_PER_DAY = 120
INJECT_AFTER_SEQ = 77


def _run_campaign(out_dir: str) -> str:
    """One compressed campaign with the sanitizer on; returns the
    trace fingerprint over every stream."""
    from repro.apps.catalog import AppCatalog
    from repro.collusion.ecosystem import build_ecosystem
    from repro.core.config import StudyConfig
    from repro.core.world import World
    from repro.countermeasures.campaign import (
        CampaignConfig,
        CountermeasureCampaign,
    )

    SANITIZER.reset()
    SANITIZER.enable()
    world = World(StudyConfig(scale=SCALE, seed=SEED))
    AppCatalog(world.apps, world.rng.stream("catalog"),
               tail_apps=0).build()
    ecosystem = build_ecosystem(world, build_membership=False,
                                network_limit=13)
    for domain in NETWORKS:
        network = ecosystem.network(domain)
        network.build_membership(network.profile.pool_size(SCALE))
    config = CampaignConfig.compressed(
        DAYS, networks=NETWORKS, outgoing_per_hour=0.0,
        hublaa_outage=None)
    CountermeasureCampaign(world, ecosystem, config).run()
    write_sanitizer(out_dir)
    fingerprint = SANITIZER.fingerprint()
    print(f"dir={out_dir} digest={world.api.log.digest()} "
          f"trace_fingerprint={fingerprint}")
    SANITIZER.reset()
    SANITIZER.disable()
    return fingerprint


def cmd_smoke(args: argparse.Namespace) -> int:
    first = _run_campaign(f"{args.out}/a")
    second = _run_campaign(f"{args.out}/b")
    if first != second:
        print(f"smoke: trace fingerprints differ ({first} vs {second}); "
              f"run repro san diff {args.out}/a {args.out}/b to localize",
              file=sys.stderr)
        return 1
    return 0


def _drive(trace: SanitizerTrace, inject: bool) -> None:
    """Record the fixed draw schedule; the divergent twin slips one
    extra draw in after day 1's event ``INJECT_AFTER_SEQ``."""
    trace.enable()
    frame = sys._getframe()
    for day in range(DIVERGENT_DAYS):
        trace.note_time(day * DAY)
        for seq in range(DRAWS_PER_DAY):
            trace.record_draw(DIVERGENT_STREAM,
                              b"draw:%d:%d" % (day, seq),
                              "random()", frame)
            if inject and day == 1 and seq == INJECT_AFTER_SEQ:
                trace.record_draw(DIVERGENT_STREAM, b"extra-draw",
                                  "random() [injected]", frame)


def cmd_divergent(args: argparse.Namespace) -> int:
    base = SanitizerTrace()
    divergent = SanitizerTrace()
    _drive(base, inject=False)
    _drive(divergent, inject=True)
    write_sanitizer(f"{args.out}/base", trace=base)
    write_sanitizer(f"{args.out}/divergent", trace=divergent)
    print(f"expect: stream=rng:{DIVERGENT_STREAM} day=1 "
          f"seq={INJECT_AFTER_SEQ + 1}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="reprosan CI fixture generator")
    sub = parser.add_subparsers(dest="mode", required=True)
    smoke = sub.add_parser(
        "smoke", help="two identical campaign runs' trace pair")
    smoke.add_argument("--out", required=True)
    smoke.set_defaults(func=cmd_smoke)
    divergent = sub.add_parser(
        "divergent", help="synthetic pair with one injected draw")
    divergent.add_argument("--out", required=True)
    divergent.set_defaults(func=cmd_divergent)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
