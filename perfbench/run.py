#!/usr/bin/env python3
"""The study benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-campaign --seed 2017 \
        --seconds 30 --trace 0

Each study runs in a fresh single-threaded interpreter
(``perfbench/study.py``, ``PYTHONHASHSEED=0``), one after another: a
closed loop with one client, for about ``--seconds`` seconds and at
least three studies; set-up-only runs fill the rest of the time.
``--trace 0`` reports the medians of the end-to-end metrics; ``--trace 1`` alternates untraced and traced
studies and reports the per-layer table of ``perfbench/tracer.py``.
Every study's request-log digest and report hash are checked: against
``perfbench/reference.json`` for the seeds recorded there, otherwise
against the invocation's first study.  A study that raises or
disagrees counts in ``failed``; one that disagrees still counts in
the timings.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
from study import WORKLOADS  # noqa: E402

#: Untraced studies per run, whatever ``--seconds`` says.
MIN_STUDIES = 3
#: No study starts later than this many seconds into the run, so a run
#: ends well inside three minutes.
LAST_START_S = 120.0
#: A hung study is killed after this long.
STUDY_TIMEOUT_S = 150.0

END_TO_END = [
    ("study_s", "s"), ("setup_s", "s"), ("run_s", "s"),
    ("log_rows_per_s", "1/s"), ("peak_rss_mb", "MB"), ("output_mb", "MB"),
]


def _layer(prefix, *fields):
    unit = {"calls": "count", "self_s": "s", "errors": "count",
            "rows": "count"}
    return [(f"{prefix}.{field}", unit[field]) for field in fields]


PER_LAYER = (
    [(f"runner.{stage}_s", "s") for stage in
     ("build", "milking", "campaign", "experiments", "export")]
    + _layer("sim.run_until", "calls", "self_s")
    + [("sim.events_executed", "count")]
    + _layer("apps.catalog_build", "self_s")
    + [metric for name in ("join", "serve_background_requests",
                           "submit_like_request", "daily_tick")
       for metric in _layer(f"collusion.{name}", "calls", "self_s")]
    + [(f"collusion.{name}", "count") for name in
       ("likes_requested", "likes_delivered", "like_attempts")]
    + [("collusion.delivery_yield", "ratio")]
    + [(f"collusion.{name}", "count") for name in
       ("rate_limited", "ip_limited", "blocked", "dead_tokens_dropped")]
    + [metric for name in ("authorize", "token_from_fragment", "issue",
                           "invalidate")
       for metric in _layer(f"oauth.{name}", "calls", "self_s")]
    + _layer("socialnet.register_account", "calls", "self_s")
    + _layer("socialnet.like_post", "calls", "self_s")
    + _layer("graphapi.execute", "calls", "self_s", "errors")
    + [metric for name in ("wave_charge", "wave_like", "wave_finish",
                           "admit")
       for metric in _layer(f"graphapi.{name}", "calls", "self_s")]
    + [(f"graphapi.admit.denied.{code}", "count")
       for code in ("token", "daily", "weekly")]
    + _layer("graphapi.limiter_flush", "calls", "self_s")
    + _layer("graphapi.log_append", "calls", "self_s")
    + _layer("graphapi.log_extend", "calls", "rows", "self_s")
    + [("graphapi.log_rows", "count")]
    + _layer("honeypot.crawl_incoming", "calls", "self_s")
    + _layer("honeypot.ledger_observe", "calls", "self_s")
    + _layer("countermeasures.clustering", "calls", "self_s")
    + _layer("countermeasures.checkpoint", "calls", "self_s")
    + [("countermeasures.checkpoint_mb", "MB")]
    + _layer("detection.synchrotrap_detect", "calls", "self_s")
    + [("detection.flagged", "count")]
    + [(f"experiments.{name}.self_s", "s") for name in
       ("table1", "table2", "table3", "table4", "table5", "table6",
        "fig4", "fig5", "fig6", "fig7", "fig8")]
    + _layer("journal.append_row", "calls", "self_s")
    + _layer("journal.seal_day", "calls", "self_s")
    + [("journal.segment_mb", "MB"), ("sanitizer.events", "count")]
    + _layer("sanitizer.record", "calls", "self_s")
    + _layer("telemetry.count", "calls", "self_s")
    + _layer("telemetry.observe", "calls", "self_s")
    + [("telemetry.write_s", "s"), ("trace.overhead_frac", "ratio"),
       ("trace.unattributed_s", "s"), ("failed_frac", "ratio")]
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_study(workload: str, seed: int, deadline: float, *flags: str):
    """One study in a fresh interpreter (``flags``: ``--trace`` or
    ``--setup-only``): its result dict, or None when it raised, was
    killed or wrote nothing."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT_ROOT)
    result_path = os.path.join(scratch, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, os.path.join(HERE, "study.py"),
               "--workload", workload, "--seed", str(seed),
               "--out", os.path.join(scratch, "out"),
               "--result", result_path, *flags]
    try:
        t0 = time.time()
        proc = subprocess.run(
            command + ["--t0", repr(t0)], env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, min(STUDY_TIMEOUT_S,
                                 deadline - time.monotonic())))
        if proc.returncode != 0:
            sys.stderr.write(f"study failed (exit {proc.returncode}):\n"
                             + proc.stderr[-4000:])
            return None
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        sys.stderr.write("study killed after its time limit\n")
        return None
    except (OSError, ValueError) as error:
        sys.stderr.write(f"study result unreadable: {error}\n")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _layer_metrics(traced, untraced):
    """The per-layer table: medians of times over the studies, counts
    from the first traced study (every traced study has the same)."""
    first = traced[0]
    functions = first["layers"]["functions"]
    counts = {**first["layers"]["counts"], **first["pins"],
              "graphapi.log_rows": first["log_rows"]}
    attempts = counts.get("collusion.like_attempts", 0)
    derived = {
        "collusion.delivery_yield": (
            counts.get("collusion.likes_delivered", 0) / attempts
            if attempts else 0.0),
        "countermeasures.checkpoint_mb":
            counts["countermeasures.checkpoint_bytes"] / 1e6,
        "journal.segment_mb": counts["journal.segment_bytes"] / 1e6,
        "telemetry.write_s": _median([r["telemetry.write_s"]
                                      for r in traced]),
        "trace.overhead_frac": (_median([r["study_s"] for r in traced])
                                / _median([r["study_s"] for r in untraced])
                                - 1.0),
        "trace.unattributed_s": _median([r["layers"]["unattributed_s"]
                                         for r in traced]),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name == "failed_frac":
            continue
        if name.startswith("runner."):
            value = _median([r["runner"][name[len("runner."):]]
                             for r in untraced])
        elif name in derived:
            value = derived[name]
        elif prefix in functions and field == "self_s":
            value = _median([r["layers"]["functions"][prefix]["self_s"]
                             for r in traced])
        elif prefix in functions and field == "calls":
            value = functions[prefix]["calls"]
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _behaviour(result):
    """What every study of one seed must reproduce exactly."""
    return {key: result[key]
            for key in ("log_digest", "report_sha256", "log_rows")}


def _pins(result):
    """Exact counts every traced study of one seed must reproduce."""
    layers = result["layers"]
    return (result["pins"], layers["counts"],
            {name: row["calls"] for name, row
             in layers["functions"].items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)[args.workload].get(str(args.seed))

    # Byte-compile once so no study pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)
    start = time.monotonic()
    hard_deadline = start + STUDY_TIMEOUT_S
    kinds = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_STUDIES
    untraced, traced = [], []
    attempted = failed = rounds = 0
    expected = reference
    traced_pins = None
    while True:
        round_start = time.monotonic()
        for is_traced in kinds:
            result = _run_study(args.workload, args.seed, hard_deadline,
                                *(["--trace"] if is_traced else []))
            attempted += 1
            if result is None:
                failed += 1
                continue
            behaviour = _behaviour(result)
            expected = expected or behaviour
            ok = behaviour == expected
            if ok and is_traced:
                traced_pins = traced_pins or _pins(result)
                ok = _pins(result) == traced_pins
            if not ok:
                sys.stderr.write(f"study output differs: {behaviour} "
                                 f"expected {expected}\n")
                failed += 1
            (traced if is_traced else untraced).append(result)
        rounds += 1
        now = time.monotonic()
        # Start another round only if it should end within --seconds.
        finish = now - start + (now - round_start)
        if now - start > LAST_START_S or (
                rounds >= min_rounds
                and finish > min(args.seconds, LAST_START_S)):
            break

    # Fill what is left of --seconds with set-ups alone: set-up is a
    # small part of a study on most workloads, so this gives setup_s
    # many more samples than the studies can.
    setups = [r["setup_s"] for r in untraced]
    estimate = _median(setups)
    while not args.trace and setups:
        setup_start = time.monotonic()
        if setup_start - start + estimate > args.seconds:
            break
        result = _run_study(args.workload, args.seed, hard_deadline,
                            "--setup-only")
        attempted += 1
        if result is None:
            failed += 1
            break
        setups.append(result["setup_s"])
        estimate = time.monotonic() - setup_start
    try:
        os.rmdir(OUT_ROOT)
    except OSError:
        pass  # not empty: another run is using it
    if not untraced or (args.trace and not traced):
        print(f"error: no study of {args.workload} completed",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = _layer_metrics(traced, untraced)
        metrics["failed_frac"] = {"value": failed / attempted,
                                  "unit": "ratio"}
    else:
        metrics = {name: {"value": _median([r[name] for r in untraced]),
                          "unit": unit}
                   for name, unit in END_TO_END}
        metrics["setup_s"]["value"] = _median(setups)
    print(f"workload {args.workload}  seed {args.seed}  studies "
          f"{len(untraced)} untraced, {len(traced)} traced; "
          f"{len(setups) - len(untraced)} set-ups alone")
    print("study_s of each study: " + " ".join(
        f"{r['study_s']:.3f}{'t' if r['traced'] else ''}"
        for r in untraced + traced))
    print(f"log digest {expected['log_digest']}  report sha256 "
          f"{expected['report_sha256']}  "
          f"({'reference' if reference else 'first study'})")
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
