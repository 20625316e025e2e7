"""Command-line interface: ``python -m repro <command>``.

Commands
--------
scan       run the §2.2 application scan and print Table 1
milk       run the §4 milking campaign (Tables 4/6, Fig. 4)
campaign   run the §6 countermeasure campaign (Figs. 5-8)
full       run everything and print the complete report
run        crash-tolerant full study (fault injection, checkpoints,
           --resume, --telemetry, --sanitize)
san        diff two determinism shadow traces (``run --sanitize``)
metrics    render a metrics.json written by ``run --telemetry``
lint       reprolint: determinism & discipline static analysis
bench      benchmark the pipeline stages (BENCH_PIPELINE.json)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments import (
    export,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
    table4,
    table6,
)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of paper scale (default 0.02)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--out", type=str, default=None,
                        help="also write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Measuring and Mitigating OAuth "
                     "Access Token Abuse by Collusion Networks' "
                     "(IMC 2017)"))
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="Table 1: scan the top-100 apps")
    _common_flags(scan)

    milk = sub.add_parser("milk",
                          help="Tables 4/6 + Fig 4: milk the networks")
    _common_flags(milk)
    milk.add_argument("--days", type=int, default=30)

    campaign = sub.add_parser(
        "campaign", help="Figs 5-8: run the countermeasure campaign")
    _common_flags(campaign)
    campaign.add_argument("--days", type=int, default=75)

    full = sub.add_parser("full", help="everything: the complete report")
    _common_flags(full)
    full.add_argument("--milking-days", type=int, default=30)
    full.add_argument("--campaign-days", type=int, default=75)

    run = sub.add_parser(
        "run", help="crash-tolerant full study: fault injection, "
                    "per-experiment checkpoints, --resume")
    _common_flags(run)
    run.add_argument("--milking-days", type=int, default=30)
    run.add_argument("--campaign-days", type=int, default=75)
    run.add_argument("--faults", type=str, default=None,
                     help="JSON fault-plan file to inject "
                          "(see examples/chaos_plan.json)")
    run.add_argument("--checkpoint-dir", type=str, default=None,
                     help="experiment checkpoint directory (default "
                          ".repro-checkpoints/seed<seed>-scale<scale>)")
    run.add_argument("--resume", action="store_true",
                     help="reuse checkpoints from a previous (crashed) "
                          "run instead of clearing them")
    run.add_argument("--journal", type=str, default=None,
                     help="campaign WAL + day-checkpoint directory; "
                          "with --resume, a killed run restarts from "
                          "its last completed campaign day instead of "
                          "day 1")
    run.add_argument("--parallel-experiments", action="store_true",
                     help="fan experiment jobs out over processes")
    run.add_argument("--job-timeout", type=float, default=None,
                     help="seconds before a hung experiment worker is "
                          "killed and its job re-run serially")
    run.add_argument("--telemetry", type=str, default=None,
                     metavar="DIR",
                     help="enable the telemetry plane and write "
                          "metrics.prom / metrics.json / trace.json / "
                          "spans.txt to DIR")
    run.add_argument("--sanitize", type=str, default=None,
                     metavar="DIR",
                     help="enable the determinism sanitizer (reprosan) "
                          "and write its shadow-trace manifest to "
                          "DIR/sanitizer.json; compare two runs with "
                          "'repro san diff A B'")

    metrics = sub.add_parser(
        "metrics", help="render a metrics.json written by "
                        "'repro run --telemetry DIR'")
    metrics.add_argument("path",
                         help="telemetry directory or metrics.json file")
    metrics.add_argument("--json", action="store_true",
                         help="re-emit the raw JSON document")
    metrics.add_argument("--out", type=str, default=None,
                         help="also write output to this file")

    score = sub.add_parser(
        "score", help="run everything and print the paper-vs-measured "
                      "scorecard")
    _common_flags(score)
    score.add_argument("--milking-days", type=int, default=30)
    score.add_argument("--campaign-days", type=int, default=75)

    san = sub.add_parser(
        "san", help="reprosan: diff two determinism shadow traces")
    san_sub = san.add_subparsers(dest="san_command", required=True)
    san_diff = san_sub.add_parser(
        "diff", help="compare two --sanitize manifests and name the "
                     "first divergent event")
    san_diff.add_argument("trace_a",
                          help="first sanitizer.json (or --sanitize dir)")
    san_diff.add_argument("trace_b",
                          help="second sanitizer.json (or --sanitize dir)")
    san_diff.add_argument("--ignore", action="append", default=[],
                          metavar="PREFIX",
                          help="exclude streams with this name prefix "
                               "(repeatable); two runs of the same "
                               "campaign compare every stream and "
                               "need none")
    san_diff.add_argument("--json", action="store_true",
                          help="emit the divergence report as JSON")
    san_diff.add_argument("--out", type=str, default=None,
                          help="also write output to this file")

    lint = sub.add_parser(
        "lint", help="reprolint: determinism & discipline static "
                     "analysis (RL001-RL005)")
    from repro.lint.cli import add_arguments as _add_lint_arguments
    _add_lint_arguments(lint)

    bench = sub.add_parser(
        "bench", help="benchmark pipeline stage throughput")
    _common_flags(bench)
    bench.set_defaults(scale=0.01)
    bench.add_argument("--milking-days", type=int, default=None)
    bench.add_argument("--campaign-days", type=int, default=None)
    bench.add_argument("--parallel-experiments", action="store_true",
                       help="fan experiment jobs out over processes")
    bench.add_argument("--baseline", type=str, default=None,
                       help="src dir of a baseline tree to compare "
                            "against (runs both in subprocesses with "
                            "PYTHONHASHSEED pinned)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="with --baseline, benchmark each tree this "
                            "many times (interleaved) and keep the best")
    bench.add_argument("--sanitize", action="store_true",
                       help="record the reprosan shadow trace during "
                            "the benchmarked study (measures the "
                            "sanitizer's overhead on this workload)")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _study(args, **overrides) -> Study:
    config = StudyConfig(scale=args.scale, seed=args.seed, **overrides)
    study = Study(config)
    study.build()
    return study


def cmd_scan(args) -> int:
    study = _study(args)
    result = table1.run(study.world, study.artifacts.catalog)
    if args.json:
        _emit(json.dumps(export._plain(result), indent=2), args.out)
    else:
        _emit(result.render(), args.out)
    return 0


def cmd_milk(args) -> int:
    study = _study(args, milking_days=args.days)
    results = study.milk()
    scale = study.config.scale
    sections = [
        table4.run(results, scale).render(),
        fig4.run(results).render(),
        table6.run(results).render(),
    ]
    if args.json:
        payload = {
            "table4": export._plain(table4.run(results, scale)),
            "table6": export._plain(table6.run(results)),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n\n".join(sections), args.out)
    return 0


def cmd_campaign(args) -> int:
    from repro.countermeasures.campaign import CampaignConfig

    study = _study(args, network_limit=2)
    campaign = study.run_countermeasures(CampaignConfig(days=args.days))
    world = study.world
    results = [
        fig5.run(campaign),
        fig6.run(world, campaign, ecosystem=study.ecosystem),
        fig7.run(world, campaign),
        fig8.run(world, campaign),
    ]
    if args.json:
        payload = {f"fig{i + 5}": export._plain(result)
                   for i, result in enumerate(results)}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n\n".join(r.render() for r in results), args.out)
    return 0


def cmd_full(args) -> int:
    study = _study(args, milking_days=args.milking_days,
                   campaign_days=args.campaign_days)
    study.milk()
    study.run_countermeasures()
    report = study.report()
    if args.json:
        _emit(export.report_to_json(report), args.out)
    else:
        _emit(report.render(), args.out)
    return 0


def _run_summary(artifacts, store, recovery) -> str:
    """Durability report for ``repro run``: what was reused, what
    fell back, what the log hashes to."""
    lines = ["run summary:"]
    lines.append(f"  experiment checkpoints: {store.hits} hit(s), "
                 f"{store.misses} miss(es)")
    if recovery is not None:
        described = recovery.describe()
        if described:
            lines.extend("  " + line for line in described.splitlines())
    log = artifacts.world.api.log
    lines.append(f"  request log: {len(log)} row(s), "
                 f"digest {log.digest()}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    from repro.experiments.checkpoint import CheckpointStore
    from repro.experiments.runner import run_full_study
    from repro.faults.plan import FaultPlan
    from repro.countermeasures.recovery import CampaignRecovery
    from repro.journal.wal import SimulatedCrash

    fault_plan = None
    if args.faults:
        try:
            fault_plan = FaultPlan.load(args.faults)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot load fault plan {args.faults}: {error}",
                  file=sys.stderr)
            return 2
    config = StudyConfig(scale=args.scale, seed=args.seed,
                         milking_days=args.milking_days,
                         campaign_days=args.campaign_days,
                         fault_plan=fault_plan)
    directory = args.checkpoint_dir or os.path.join(
        ".repro-checkpoints", f"seed{args.seed}-scale{args.scale}")
    fingerprint = {
        "seed": args.seed,
        "scale": args.scale,
        "milking_days": args.milking_days,
        "campaign_days": args.campaign_days,
        "faults": fault_plan.to_json(indent=None) if fault_plan else None,
    }
    store = CheckpointStore(directory, fingerprint=fingerprint)
    if args.resume:
        if not store.matches():
            print(f"error: checkpoints in {directory} belong to a "
                  "different configuration; re-run without --resume to "
                  "clear them", file=sys.stderr)
            return 2
    else:
        store.clear()
    recovery = None
    if args.journal:
        recovery = CampaignRecovery(args.journal, resume=args.resume)
    timer = None
    if args.telemetry:
        from repro.telemetry import TELEMETRY, TRACER

        TELEMETRY.reset()
        TELEMETRY.enable()
        TRACER.reset()
        TRACER.enable()
        # Accumulate stage timings into the registry's stage view so
        # metrics.json carries the full wall-clock sidecar.
        timer = TELEMETRY.stages
        timer.reset()
    if args.sanitize:
        from repro.sanitizer import SANITIZER

        # Enable before the world is built so RngFactory hands out
        # instrumented streams from the first draw.
        SANITIZER.reset()
        SANITIZER.enable()
    try:
        artifacts, report = run_full_study(
            config, parallel_experiments=args.parallel_experiments,
            checkpoint=store, job_timeout=args.job_timeout,
            campaign_recovery=recovery, timer=timer)
    except SimulatedCrash as crash:
        # A fault-plan crash (torn_tail etc.) ended the process the way
        # kill -9 would; the journal survives, so the same invocation
        # with --resume picks the campaign back up.  EX_SOFTWARE keeps
        # chaos harnesses able to tell "injected crash" from success.
        print(f"simulated crash: {crash}", file=sys.stderr)
        return 70
    telemetry_files = None
    if args.telemetry:
        from repro.telemetry import TELEMETRY, TRACER, write_telemetry

        telemetry_files = write_telemetry(args.telemetry, TELEMETRY,
                                          TRACER)
    sanitizer_path = None
    if args.sanitize:
        from repro.sanitizer import SANITIZER, write_sanitizer

        sanitizer_path = write_sanitizer(args.sanitize)
    summary = _run_summary(artifacts, store, recovery)
    if args.telemetry:
        summary += (f"\n  telemetry: {len(telemetry_files)} file(s) in "
                    f"{args.telemetry}")
    if args.sanitize:
        summary += (f"\n  sanitizer: {SANITIZER.event_total()} event(s) "
                    f"over {len(SANITIZER.stream_names())} stream(s), "
                    f"manifest {sanitizer_path}")
    if args.json:
        campaign = artifacts.campaign
        log = artifacts.world.api.log
        payload = json.loads(export.report_to_json(report))
        payload["run"] = {
            "checkpoint_hits": store.hits,
            "checkpoint_misses": store.misses,
            "resumed_from_day": (campaign.resumed_from_day
                                 if campaign is not None else None),
            "log_rows": len(log),
            "log_digest": log.digest(),
        }
        if args.telemetry:
            from repro.telemetry import TELEMETRY

            payload["telemetry"] = {
                "fingerprint": TELEMETRY.fingerprint(),
                "files": telemetry_files,
                "counters": {name: TELEMETRY.counter_total(name)
                             for name in TELEMETRY.counter_families()},
            }
        if args.sanitize:
            payload["sanitizer"] = {
                "fingerprint": SANITIZER.fingerprint(),
                "events": SANITIZER.event_total(),
                "streams": len(SANITIZER.stream_names()),
                "manifest": sanitizer_path,
            }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(report.render() + "\n\n" + summary, args.out)
    return 0


def cmd_score(args) -> int:
    from repro.experiments.comparison import score_report

    study = _study(args, milking_days=args.milking_days,
                   campaign_days=args.campaign_days)
    study.milk()
    study.run_countermeasures()
    card = score_report(study.report(), study.config.scale)
    if args.json:
        payload = [{"experiment": c.experiment, "name": c.name,
                    "expected": c.expected, "measured": c.measured,
                    "passed": c.passed} for c in card.checks]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(card.render(), args.out)
    return 0 if card.failed == 0 else 1


def cmd_metrics(args) -> int:
    from repro.telemetry.export import render_metrics

    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read metrics document {path}: {error}",
              file=sys.stderr)
        return 2
    if args.json:
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(render_metrics(payload).rstrip("\n"), args.out)
    return 0


def cmd_san(args) -> int:
    from repro.sanitizer import diff_manifests, load_manifest

    try:
        manifest_a = load_manifest(args.trace_a)
        manifest_b = load_manifest(args.trace_b)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = diff_manifests(manifest_a, manifest_b,
                            ignore=tuple(args.ignore))
    if args.json:
        payload = {
            "equal": result.equal,
            "streams_compared": result.streams_compared,
            "events": [result.events_a, result.events_b],
            "ignored": list(result.ignored),
            "divergences": [{
                "stream": d.stream, "kind": d.kind, "day": d.day,
                "seq": d.seq, "seq_lo": d.seq_lo, "seq_hi": d.seq_hi,
                "a": d.detail_a, "b": d.detail_b,
            } for d in result.divergences],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(result.render(), args.out)
    return 0 if result.equal else 1


def cmd_lint(args) -> int:
    from repro.lint.cli import run as run_lint

    return run_lint(args)


def cmd_bench(args) -> int:
    from repro.perf import bench

    if args.baseline is not None:
        try:
            document = bench.compare_trees(
                current_src=_own_src_dir(), baseline_src=args.baseline,
                scale=args.scale, seed=args.seed,
                parallel_experiments=args.parallel_experiments,
                milking_days=args.milking_days,
                campaign_days=args.campaign_days,
                repeats=args.repeats, sanitize=args.sanitize)
        except bench.BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        payload = bench.run_benchmark(
            scale=args.scale, seed=args.seed,
            parallel_experiments=args.parallel_experiments,
            milking_days=args.milking_days,
            campaign_days=args.campaign_days,
            sanitize=args.sanitize)
        document = {
            "benchmark": "run_full_study",
            "meta": {"scale": args.scale, "seed": args.seed,
                     "milking_days": args.milking_days,
                     "campaign_days": args.campaign_days,
                     "parallel_experiments": args.parallel_experiments},
            "current": payload,
        }
    if args.json:
        _emit(json.dumps(document, indent=2), args.out)
    else:
        text = bench.render(document)
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
                handle.write("\n")
    return 0


def _own_src_dir() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


COMMANDS = {
    "scan": cmd_scan,
    "milk": cmd_milk,
    "campaign": cmd_campaign,
    "full": cmd_full,
    "run": cmd_run,
    "san": cmd_san,
    "metrics": cmd_metrics,
    "score": cmd_score,
    "lint": cmd_lint,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
