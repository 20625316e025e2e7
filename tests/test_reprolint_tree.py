"""Regression: the real tree is clean under the shipped baseline.

This is the live gate behind the determinism contract: any new
wall-clock read, global-random call, unordered iteration, entropy leak
or broad swallow in ``src/repro`` fails this test (and the CI ``lint``
job) unless it is pragma-annotated or deliberately baselined.
"""

from pathlib import Path

import repro
from repro.lint import LintEngine
from repro.lint.baseline import Baseline
from repro.lint.findings import Severity

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "tools" / "reprolint_baseline.json"
PACKAGE = Path(repro.__file__).resolve().parent


def test_shipped_baseline_exists_and_loads():
    baseline = Baseline.load(BASELINE)
    # The tree was fully fixed in the PR that introduced reprolint; the
    # baseline should only ever shrink from empty.
    assert len(baseline) == 0


def test_real_tree_is_clean_under_shipped_baseline():
    engine = LintEngine()
    report = engine.run([PACKAGE], baseline=Baseline.load(BASELINE))
    failing = report.failing(Severity.WARNING)
    details = "\n".join(f.render() for f in failing)
    assert not failing, f"reprolint regressions:\n{details}"
    assert report.exit_code(Severity.WARNING) == 0
    # Sanity: the walk really covered the tree.
    assert report.files_scanned > 100


def test_default_rules_cover_all_shipped_families():
    from repro.lint import default_rules
    from repro.lint.rules import ProjectRule

    rules = default_rules()
    ids = {rule.rule_id for rule in rules}
    assert {"RL001", "RL002", "RL003", "RL004", "RL005",
            "RL101", "RL201", "RL202", "RL203",
            "RL301", "RL302",
            "RL401", "RL403",
            "RL601", "RL602", "RL604"} <= ids
    assert any(isinstance(rule, ProjectRule) for rule in rules)


def test_rl301_pragmas_are_load_bearing():
    """Stripping the justification pragmas resurfaces the direct
    platform writes — the annotations are doing real work."""
    import re

    from repro.lint import lint_source

    source = (PACKAGE / "collusion" / "ownership.py").read_text(
        encoding="utf-8")
    stripped = re.sub(r"#\s*reprolint:\s*disable[^\n]*", "", source)
    findings = lint_source(stripped, path="repro/collusion/ownership.py")
    assert [f.rule for f in findings] == ["RL301"] * 3
    assert lint_source(source,
                       path="repro/collusion/ownership.py") == []


def test_token_redaction_in_api_is_load_bearing():
    """Undoing the redact_token() routing in graphapi/api.py brings the
    RL102 token-leak findings straight back."""
    from repro.lint import lint_source

    source = (PACKAGE / "graphapi" / "api.py").read_text(
        encoding="utf-8")
    assert source.count("redact_token(") >= 4
    unredacted = source.replace("redact_token(token.token)",
                                "token.token")
    unredacted = unredacted.replace("redact_token(access_token)",
                                    "access_token")
    findings = lint_source(unredacted, path="repro/graphapi/api.py")
    assert {f.rule for f in findings} == {"RL102"}
    assert len(findings) == 4
    assert lint_source(source, path="repro/graphapi/api.py") == []


def test_allowlisted_shells_are_the_only_wall_clock_users():
    """The perf shell exists and would be flagged without the allowlist
    — proving the allowlist is load-bearing, not dead config."""
    engine = LintEngine(allowlist={})
    report = engine.run([PACKAGE])
    wall_clock_paths = {f.path for f in report.findings
                        if f.rule == "RL001"}
    # bench.py's perf_counter calls live inside its subprocess-script
    # template string, so the only AST-level wall-clock users are the
    # StageTimer and the span tracer's wall-time axis.
    assert wall_clock_paths == {"repro/perf/instrumentation.py",
                                "repro/telemetry/tracing.py"}
    environ_paths = {f.path for f in report.findings
                     if f.rule == "RL004"}
    assert environ_paths == {"repro/perf/bench.py"}
