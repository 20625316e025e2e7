"""RL4xx state-coverage rules: the fixture corpus, rule mechanics, and
the load-bearing gates over the real durability layer
(``recovery.py`` / ``wal.py``)."""

import re
import textwrap
from pathlib import Path

import repro
from repro.lint import lint_source

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "stateflow")
PACKAGE = Path(repro.__file__).resolve().parent

_PRAGMA = re.compile(r"#\s*reprolint:\s*disable[^\n]*")


def fixture_findings(name, kind="violations",
                     path="repro/oauth/helpers.py"):
    source = (DATA / kind / name).read_text(encoding="utf-8")
    return lint_source(source, path=path)


def fixture_rules(name, kind="violations",
                  path="repro/oauth/helpers.py"):
    return [f.rule for f in fixture_findings(name, kind, path)]


def rules_of(source, path="repro/oauth/helpers.py"):
    return [f.rule
            for f in lint_source(textwrap.dedent(source), path=path)]


# ----------------------------------------------------------------------
# Fixture corpus: each violating module produces exactly its rule,
# each clean twin produces nothing.
# ----------------------------------------------------------------------
def test_rl401_snapshot_fixture_pair():
    findings = fixture_findings("rl401_missing_capture.py")
    assert [f.rule for f in findings] == ["RL401"]
    assert "'_peak'" in findings[0].message
    assert fixture_rules("rl401_full_coverage.py", kind="clean") == []


def test_rl401_checkpoint_fixture_pair():
    findings = fixture_findings("rl401_checkpoint_fields.py")
    assert [f.rule for f in findings] == ["RL401", "RL401"]
    # Both failure modes name the dropped field.
    assert all("spool" in f.message for f in findings)
    assert fixture_rules("rl401_checkpoint_fields.py",
                         kind="clean") == []


def test_rl403_fixture_pair():
    findings = fixture_findings("rl403_raw_frame.py",
                                path="repro/journal/helpers.py")
    assert [f.rule for f in findings] == ["RL403", "RL403"]
    messages = " ".join(f.message for f in findings)
    assert "repr()" in messages
    assert "literal_eval" in messages
    assert fixture_rules("rl403_codec.py", kind="clean",
                         path="repro/journal/helpers.py") == []


def test_rl403_only_applies_inside_the_journal_package():
    # The same raw round-trip outside repro/journal/ is not this
    # rule's business.
    assert fixture_rules("rl403_raw_frame.py",
                         path="repro/oauth/helpers.py") == []


# ----------------------------------------------------------------------
# Rule mechanics beyond the corpus
# ----------------------------------------------------------------------
def test_rl401_capture_pair_cross_check_both_directions():
    findings = lint_source(textwrap.dedent("""
        def capture_windows(limiter):
            return {"events": dict(limiter.events),
                    "ghost": None}

        def install_windows(limiter, state):
            limiter.events = state["events"]
            limiter.extra = state["orphan"]
    """), path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL401", "RL401"]
    messages = " ".join(f.message for f in findings)
    assert "'ghost'" in messages      # captured, never installed
    assert "'orphan'" in messages     # installed, never captured


def test_rl401_dict_snapshot_skip_list_must_be_justified():
    # A __dict__ snapshot covers everything EXCEPT the skip list; a
    # mutated attribute on the skip list is exactly the state a resume
    # loses, so it is flagged (pragma + justification required).
    source = """
        class Box:
            _SKIP = ("cache",)

            def __init__(self):
                self.value = 0
                self.cache = {}

            def poke(self):
                self.value += 1
                self.cache["k"] = 1

            def export_state(self):
                return {k: v for k, v in self.__dict__.items()
                        if k not in self._SKIP}

            def install_state(self, state):
                self.__dict__.update(state)
    """
    findings = lint_source(textwrap.dedent(source),
                           path="repro/oauth/helpers.py")
    assert [f.rule for f in findings] == ["RL401"]
    assert "'cache'" in findings[0].message
    # Without the skip list the dynamic snapshot covers both attrs.
    assert rules_of(source.replace('_SKIP = ("cache",)',
                                   '_SKIP = ()')) == []


# ----------------------------------------------------------------------
# Load-bearing gates: undoing any shipped fix or pragma in the real
# durability layer makes the tree dirty again.
# ----------------------------------------------------------------------
def test_wal_codec_refactor_is_load_bearing():
    source = (PACKAGE / "journal" / "wal.py").read_text(
        encoding="utf-8")
    assert lint_source(source, path="repro/journal/wal.py") == []
    reverted = source.replace(
        "self._write_frame(encode_row(row))",
        'self._write_frame(b"R" + repr(row).encode("utf-8"))')
    reverted = reverted.replace(
        "yield decode_row(payload)",
        'yield literal_eval(payload[1:].decode("utf-8"))')
    assert reverted != source
    findings = lint_source(reverted, path="repro/journal/wal.py")
    assert [f.rule for f in findings] == ["RL403", "RL403"]


def test_recovery_checkpoint_pragma_is_load_bearing():
    # The fixpoint sees the token table flow export_state() ->
    # CampaignCheckpoint -> store.save(); only the justified pragma
    # keeps the deliberate durable image lintable.
    source = (PACKAGE / "countermeasures" / "recovery.py").read_text(
        encoding="utf-8")
    path = "repro/countermeasures/recovery.py"
    assert lint_source(source, path=path) == []
    stripped = _PRAGMA.sub("", source)
    rules = [f.rule for f in lint_source(stripped, path=path)]
    assert "RL103" in rules


def test_rl401_class_pragmas_are_load_bearing():
    cases = [
        ("collusion/network.py", "repro/collusion/network.py"),
        ("faults/plan.py", "repro/faults/plan.py"),
    ]
    for rel, path in cases:
        source = (PACKAGE / Path(rel)).read_text(encoding="utf-8")
        assert lint_source(source, path=path) == [], rel
        stripped = _PRAGMA.sub("", source)
        rules = {f.rule for f in lint_source(stripped, path=path)}
        assert "RL401" in rules, rel
