"""One study of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured study, with
``PYTHONHASHSEED`` pinned and ``src`` on ``PYTHONPATH``::

    python3 perfbench/study.py --workload paper-campaign --seed 2017 \
        --t0 <parent time.time()> --out .perfbench-out/x --result r.json

The study is what a user of the reproduction runs: build the world,
milk the honeypots, run the countermeasure campaign, compute every
table and figure, then write the rendered report (and, on
``durable-campaign``, the journal, checkpoints, telemetry and
sanitizer files) under ``--out``.  Timings, digests and output sizes
go to ``--result`` as JSON.  ``--trace`` installs the layer wrappers
of ``tracer.py`` first and adds their per-function table;
``--setup-only`` stops after set-up and reports ``setup_s`` alone.

The program gets nothing but a ``StudyConfig`` (plus, on
``durable-campaign``, the observers ``repro run --journal --telemetry
--sanitize`` switches on); experiments run serially and the campaign
is not sharded.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Workload sizes.  ``days`` of 75 is the paper's full §6 schedule;
#: anything shorter is ``CampaignConfig.compressed`` (every
#: countermeasure stage, proportionally shortened).
WORKLOADS = {
    # Serving, admission and logging do the work; set-up does almost
    # none.  The campaign is >90% of the study.
    "paper-campaign": {"scale": 0.001, "milking_days": 90,
                       "campaign_days": 25, "observers": False},
    # Set-up and the build layers do the work: member pools 15x
    # larger (CollusionNetwork.join's O(n^2) exclude copy,
    # AuthorizationServer.authorize), milking and campaign short.
    "large-world": {"scale": 0.015, "milking_days": 10,
                    "campaign_days": 10, "observers": False},
    # The paper-campaign serving path plus durable state beside it:
    # WAL segments, per-day checkpoints, telemetry, sanitizer.
    "durable-campaign": {"scale": 0.001, "milking_days": 30,
                         "campaign_days": 12, "observers": True},
}


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started this "
                             "interpreter")
    parser.add_argument("--out", required=True,
                        help="directory the study writes its outputs to")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after runner.build_world and report "
                             "setup_s alone")
    args = parser.parse_args(argv)
    launch_s = time.time() - args.t0 - (time.perf_counter() - _START)
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import LayerTracer
        tracer = LayerTracer()
        tracer.install()

    from repro.core.config import StudyConfig
    from repro.countermeasures.recovery import CampaignRecovery
    from repro.experiments import export
    from repro.experiments.checkpoint import CheckpointStore
    from repro.experiments.runner import build_world, run_full_study
    from repro.perf import StageTimer
    from repro.sanitizer import SANITIZER, write_sanitizer
    from repro.telemetry import TELEMETRY, TRACER, write_telemetry
    import_done = time.perf_counter()

    config = StudyConfig(seed=args.seed, scale=spec["scale"],
                         milking_days=spec["milking_days"],
                         campaign_days=spec["campaign_days"])
    os.makedirs(args.out, exist_ok=True)
    timer = StageTimer()
    store = recovery = None
    if spec["observers"]:
        # The sequence of ``repro run --journal --telemetry --sanitize``.
        store = CheckpointStore(os.path.join(args.out, "experiments"),
                                fingerprint={"seed": args.seed,
                                             "workload": args.workload})
        store.clear()
        recovery = CampaignRecovery(os.path.join(args.out, "journal"),
                                    resume=False)
        TELEMETRY.reset()
        TELEMETRY.enable()
        TRACER.reset()
        TRACER.enable()
        timer = TELEMETRY.stages
        timer.reset()
        SANITIZER.reset()
        SANITIZER.enable()
    if args.setup_only:
        with timer.stage("build"):
            build_world(config)
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump({"setup_s": launch_s + (import_done - _START)
                       + timer.stages["build"]}, handle)
        return 0
    artifacts, report = run_full_study(config, timer=timer,
                                       checkpoint=store,
                                       campaign_recovery=recovery)
    observers_start = time.perf_counter()
    telemetry_write_s = sanitizer_write_s = 0.0
    if spec["observers"]:
        write_telemetry(os.path.join(args.out, "telemetry"), TELEMETRY,
                        TRACER)
        telemetry_write_s = time.perf_counter() - observers_start
        write_sanitizer(os.path.join(args.out, "sanitizer"))
        sanitizer_write_s = (time.perf_counter() - observers_start
                             - telemetry_write_s)
    rendered = report.render()
    with open(os.path.join(args.out, "report.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(rendered + "\n")
    with open(os.path.join(args.out, "report.json"), "w",
              encoding="utf-8") as handle:
        handle.write(export.report_to_json(report) + "\n")
    end = time.perf_counter()

    log = artifacts.world.api.log
    stages = timer.stages
    run_s = (stages["milking"] + stages["campaign"] + stages["experiments"]
             + telemetry_write_s + sanitizer_write_s)
    study_s = launch_s + (end - _START)
    journal_dir = os.path.join(args.out, "journal")
    checkpoint_bytes = _tree_bytes(os.path.join(journal_dir, "checkpoints"))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "log_digest": log.digest(),
        "report_sha256": hashlib.sha256(
            rendered.encode("utf-8")).hexdigest(),
        "log_rows": len(log),
        "study_s": study_s,
        "setup_s": launch_s + (import_done - _START) + stages["build"],
        "run_s": run_s,
        "log_rows_per_s": len(log) / run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "output_mb": _tree_bytes(args.out) / 1e6,
        "runner": {
            "build_s": stages["build"],
            "milking_s": stages["milking"],
            "campaign_s": stages["campaign"],
            "experiments_s": stages["experiments"],
            "export_s": end - observers_start,
        },
        "pins": {
            "sim.events_executed": artifacts.world.scheduler.executed,
            "sanitizer.events": (SANITIZER.event_total()
                                 if spec["observers"] else 0),
            "countermeasures.checkpoint_bytes": checkpoint_bytes,
            "journal.segment_bytes": (_tree_bytes(journal_dir)
                                      - checkpoint_bytes),
        },
        "telemetry.write_s": telemetry_write_s,
    }
    if tracer is not None:
        result["layers"] = tracer.finish(study_s, end)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
