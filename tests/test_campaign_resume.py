"""Crash-recovery acceptance: a campaign killed with SIGKILL (or torn
by a journal-tail fault) and resumed must reproduce the byte-identical
request-log digest of an uninterrupted run.

Each scenario runs ``resume_driver.py`` in subprocesses with
``PYTHONHASHSEED=0`` — real process death, a real journal directory on
disk, and digest comparison across process boundaries.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import shutil
import signal
import subprocess
import sys

import pytest

from tests.resume_driver import DAYS, ids_digest

DRIVER = pathlib.Path(__file__).parent / "resume_driver.py"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_driver(*args, timeout=600):
    return subprocess.run(
        [sys.executable, str(DRIVER), *map(str, args)],
        capture_output=True, text=True, env=_env(), timeout=timeout)


def _parse(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


@pytest.fixture(scope="module")
def reference():
    """Uninterrupted, journal-less run: the digest to converge to."""
    result = _run_driver()
    assert result.returncode == 0, result.stderr[-2000:]
    return _parse(result.stdout)


@pytest.fixture(scope="module")
def sanitized_reference(tmp_path_factory):
    """Uninterrupted journaled run with the reprosan trace recording:
    the shadow trace every crash-resumed run must reproduce exactly."""
    root = tmp_path_factory.mktemp("sanitized-ref")
    result = _run_driver("--journal", root / "journal",
                         "--sanitize", root / "trace")
    assert result.returncode == 0, result.stderr[-2000:]
    parsed = _parse(result.stdout)
    parsed["trace_dir"] = root / "trace"
    parsed["journal_dir"] = root / "journal"
    return parsed


def test_journaled_run_matches_journal_less_reference(tmp_path,
                                                      reference):
    result = _run_driver("--journal", tmp_path / "journal")
    assert result.returncode == 0, result.stderr[-2000:]
    parsed = _parse(result.stdout)
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert parsed["resumed_from"] == "None"
    assert "sealed through day 12" in parsed["report"]
    # Workload-derived metrics (the journal_ family excluded)
    # must not notice the journal either.
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])


def test_sanitized_journaled_run_is_byte_identical(reference,
                                                   sanitized_reference):
    """The identity contract across process boundaries: turning the
    sanitizer (and the journal) on changes nothing observable."""
    assert sanitized_reference["digest"] == reference["digest"]
    assert sanitized_reference["rows"] == reference["rows"]
    assert (sanitized_reference["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])


def test_sigkill_mid_day_then_resume_is_byte_identical(
        tmp_path, reference, sanitized_reference):
    journal = tmp_path / "journal"
    crashed = _run_driver("--journal", journal, "--kill-day", 6,
                          "--sanitize", tmp_path / "crashed-trace")
    assert crashed.returncode == -signal.SIGKILL, (
        f"expected SIGKILL death, got rc={crashed.returncode}: "
        f"{crashed.stderr[-2000:]}")

    resumed = _run_driver("--journal", journal,
                          "--sanitize", tmp_path / "resumed-trace")
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    # Days 1-5 were sealed + checkpointed; the half-written day-6
    # segment is dropped on open and day 6 re-executes.
    assert parsed["resumed_from"] == "6"
    assert parsed["digest"] == reference["digest"]
    assert parsed["rows"] == reference["rows"]
    assert "resumed from day 6" in parsed["report"]
    # The day-5 checkpoint restored the metrics registry wholesale, so
    # the recovered run's telemetry converges on the uninterrupted
    # reference too.
    assert (parsed["telemetry_fingerprint"]
            == reference["telemetry_fingerprint"])
    # The checkpoint also carried the shadow trace: the resumed run's
    # sanitizer trace equals the uninterrupted journaled run's with NO
    # streams ignored — clock reads, journal frames and all.
    assert (parsed["sanitizer_fingerprint"]
            == sanitized_reference["sanitizer_fingerprint"])
    from repro.sanitizer import diff_manifests, load_manifest

    reference_manifest = load_manifest(
        str(sanitized_reference["trace_dir"]))
    resumed_manifest = load_manifest(str(tmp_path / "resumed-trace"))
    diff = diff_manifests(reference_manifest, resumed_manifest)
    assert diff.equal, diff.render()
    # The differ reads per-day samples only to localise a divergence;
    # the checkpoint chain must restore them (and the rings) exactly.
    assert resumed_manifest == reference_manifest


def test_torn_tail_is_detected_truncated_and_converges(tmp_path):
    journal = tmp_path / "journal"
    # Torn reference: same fault plan, no journal (the torn_tail kind
    # is only consulted when a journal is attached).
    reference = _run_driver("--torn-day", 4)
    assert reference.returncode == 0, reference.stderr[-2000:]
    ref = _parse(reference.stdout)

    crashed = _run_driver("--journal", journal, "--torn-day", 4)
    assert crashed.returncode != 0
    assert "SimulatedCrash" in crashed.stderr
    assert (journal / "torn-tail.fired").exists()

    resumed = _run_driver("--journal", journal, "--torn-day", 4)
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    parsed = _parse(resumed.stdout)
    # Day 4's seal was destroyed by the chop, so its segment is dropped
    # and the run resumes from the day-3 checkpoint.
    assert parsed["resumed_from"] == "4"
    assert "torn tail truncated" in parsed["report"]
    assert parsed["digest"] == ref["digest"]
    assert parsed["rows"] == ref["rows"]
    assert (parsed["telemetry_fingerprint"]
            == ref["telemetry_fingerprint"])


def test_fresh_run_over_existing_journal_starts_from_day_one(tmp_path,
                                                             reference):
    journal = tmp_path / "journal"
    first = _run_driver("--journal", journal)
    assert first.returncode == 0, first.stderr[-2000:]

    again = _run_driver("--journal", journal, "--no-resume")
    assert again.returncode == 0, again.stderr[-2000:]
    parsed = _parse(again.stdout)
    assert parsed["resumed_from"] == "None"
    assert parsed["digest"] == reference["digest"]


def test_checkpoints_ship_each_days_new_platform_objects_once(
        sanitized_reference):
    """Each checkpoint's platform part is a delta on the previous one:
    every account and post the campaign created ships in exactly one
    day's checkpoint, and together the days ship all of them."""
    checkpoints = sanitized_reference["journal_dir"] / "checkpoints"
    account_ids, post_ids, days_with_posts = [], [], 0
    for day in range(1, DAYS + 1):
        with open(checkpoints / f"day-{day:05d}.pkl", "rb") as handle:
            platform = pickle.load(handle).platform
        account_ids += [a.account_id for a in platform["new_accounts"]]
        post_ids += [post.post_id for post in platform["new_posts"]]
        days_with_posts += bool(platform["new_posts"])
    # Pairwise disjoint across days (and within one) ...
    assert len(set(account_ids)) == len(account_ids)
    assert len(set(post_ids)) == len(post_ids)
    # ... and, concatenated in day order, exactly the campaign's
    # creations in creation order.
    assert ids_digest(account_ids) == sanitized_reference[
        "campaign_accounts"]
    assert ids_digest(post_ids) == sanitized_reference["campaign_posts"]
    assert days_with_posts > 1


def test_broken_checkpoint_link_ends_the_chain(tmp_path, reference):
    """A later day's checkpoint is unusable without every earlier
    link: a missing or torn link makes resume fall back to the day
    before it, and the re-run days still converge."""
    crashed_journal = tmp_path / "crashed"
    crashed = _run_driver("--journal", crashed_journal, "--kill-day", 6)
    assert crashed.returncode == -signal.SIGKILL, crashed.stderr[-2000:]

    missing = tmp_path / "missing-link"
    shutil.copytree(crashed_journal, missing)
    (missing / "checkpoints" / "day-00002.pkl").unlink()

    torn = tmp_path / "torn-link"
    shutil.copytree(crashed_journal, torn)
    link = torn / "checkpoints" / "day-00003.pkl"
    with open(link, "r+b") as handle:
        handle.truncate(link.stat().st_size // 2)

    for journal, resumed_from in ((missing, "2"), (torn, "3")):
        resumed = _run_driver("--journal", journal)
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        parsed = _parse(resumed.stdout)
        assert parsed["resumed_from"] == resumed_from
        assert parsed["digest"] == reference["digest"]
        assert parsed["rows"] == reference["rows"]
        assert (parsed["campaign_accounts"]
                == reference["campaign_accounts"])
        assert parsed["campaign_posts"] == reference["campaign_posts"]


def test_journal_in_the_cumulative_checkpoint_format_is_refused(
        tmp_path):
    """A directory written with ``repro-journal-v1`` holds cumulative
    checkpoints; reading them as a delta chain would double-install
    every earlier day, so resume must refuse it outright."""
    journal = tmp_path / "journal"
    first = _run_driver("--journal", journal, "--kill-day", 3)
    assert first.returncode == -signal.SIGKILL, first.stderr[-2000:]
    meta_path = journal / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["format"] == "repro-journal-v2"
    meta["format"] = "repro-journal-v1"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    resumed = _run_driver("--journal", journal)
    assert resumed.returncode != 0
    assert "RecoveryError" in resumed.stderr
    assert "'repro-journal-v1'" in resumed.stderr
