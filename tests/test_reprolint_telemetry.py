"""RL501 — metric label hygiene at telemetry-registry call sites."""

import textwrap

from repro.lint import lint_source


def rules_of(source, path="repro/module.py"):
    findings = lint_source(textwrap.dedent(source), path=path)
    return [finding.rule for finding in findings]


def test_rl501_flags_fstring_concat_and_str_calls():
    assert rules_of("""
        from repro.telemetry.registry import TELEMETRY

        def f(endpoint, token):
            TELEMETRY.count("requests_total", endpoint=f"api:{endpoint}")
            TELEMETRY.observe("latency", 3, route="/v2/" + endpoint)
            TELEMETRY.gauge_set("gauge", 1, token=str(token))
            TELEMETRY.count("requests_total",
                            name="x{}".format(endpoint))
    """) == ["RL501"] * 4


def test_rl501_flags_starstar_label_forwarding():
    assert rules_of("""
        from repro.telemetry.registry import TELEMETRY

        def f(labels):
            TELEMETRY.count("requests_total", **labels)
    """) == ["RL501"]


def test_rl501_accepts_literals_names_attributes_and_redact():
    assert rules_of("""
        from repro.oauth.redact import redact_token
        from repro.telemetry.registry import TELEMETRY

        def f(report, token):
            outcome = report.outcome
            TELEMETRY.count("requests_total", outcome=outcome)
            TELEMETRY.count("errors_total", code="rate_limited")
            TELEMETRY.observe("wave_size", report.attempts,
                              stage=report.stage)
            TELEMETRY.gauge_set("window_keys", 3, window="token")
            TELEMETRY.count("token_events", token=redact_token(token))
    """) == []


def test_rl501_signature_kwargs_are_not_labels():
    # ``value=`` and ``prefix=`` belong to the method signature; they
    # carry measurements, not label values.
    assert rules_of("""
        from repro.telemetry.registry import TELEMETRY

        def f(counters, n):
            TELEMETRY.count("frames_total", value=n + 1)
            TELEMETRY.count_many(counters, prefix="retries.")
    """) == []


def test_rl501_resolves_through_aliases_and_bare_name():
    assert rules_of("""
        from repro.telemetry.registry import TELEMETRY as REG

        def f(x):
            REG.count("total", kind=f"{x}")
    """) == ["RL501"]
    # The project-wide conventional name matches even without an
    # import (exec'd snippets, fixtures receiving the registry).
    assert rules_of("""
        def f(TELEMETRY, x):
            TELEMETRY.count("total", kind=f"{x}")
    """) == ["RL501"]


def test_rl501_ignores_unrelated_objects():
    # ``count`` on anything that is not the registry is out of scope.
    assert rules_of("""
        def f(collection, x):
            collection.count("a", kind=f"{x}")
    """) == []


def test_rl501_instrumented_modules_are_clean():
    import pathlib

    from repro.lint import LintEngine

    src = pathlib.Path(__file__).parent.parent / "src"
    pairs = []
    for rel in ("repro/graphapi/api.py", "repro/faults/retry.py",
                "repro/collusion/network.py", "repro/journal/wal.py",
                "repro/detection/synchrotrap.py"):
        pairs.append((rel, src / rel))
    report = LintEngine().run_files(pairs)
    assert [f for f in report.findings if f.rule == "RL501"] == []
