"""The benchmark's own checks.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The module fixture runs one traced study of every workload (about a
minute on a 2-core machine).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import study  # noqa: E402
import tracer  # noqa: E402

SEED = 2017


@pytest.fixture(scope="module")
def traced():
    results = {}
    for workload in study.WORKLOADS:
        result = run._run_study(workload, SEED,
                                time.monotonic() + run.STUDY_TIMEOUT_S,
                                "--trace")
        assert result is not None, f"traced {workload} study failed"
        results[workload] = result
    return results


def test_every_wrapper_records_a_call(traced):
    # A wrapper that a cached binding bypasses records no calls.
    silent = sorted(
        prefix for prefix in {target[0] for target in tracer.TARGETS}
        if not any(result["layers"]["functions"][prefix]["calls"]
                   for result in traced.values()))
    assert silent == []


def test_self_times_and_remainder_add_up_to_study_time(traced):
    for workload, result in traced.items():
        layers = result["layers"]
        rows = layers["functions"].values()
        assert all(row["self_s"] >= 0 for row in rows), workload
        assert all(row["self_s"] <= row["total_s"] for row in rows), workload
        assert layers["unattributed_s"] >= 0, workload
        attributed = sum(row["self_s"] for row in rows)
        assert attributed + layers["unattributed_s"] == pytest.approx(
            result["study_s"], rel=1e-9), workload


def test_traced_studies_match_the_reference(traced):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    for workload, result in traced.items():
        assert run._behaviour(result) == reference[workload][str(SEED)]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(study.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
