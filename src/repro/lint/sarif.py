"""SARIF 2.1.0 rendering for lint reports.

Emits the minimal static-analysis interchange document GitHub code
scanning and most SARIF viewers accept: one run, one driver, rule
descriptors for every rule id that produced a finding, and one result
per finding.  Baselined findings are kept in the document but carry an
``external`` suppression so viewers show them as accepted; findings
silenced by an in-source ``reprolint: disable`` pragma are appended
with an ``inSource`` suppression, so the justified exceptions stay
visible to code-scanning dashboards instead of vanishing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.lint.findings import Finding, Severity

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

#: Short descriptions for every shipped rule id (TokenTaintRule emits
#: three ids from one rule object, so this table is id-keyed rather
#: than derived from rule classes).
RULE_DESCRIPTIONS: Dict[str, str] = {
    "RL000": "file failed to parse",
    "RL001": "wall-clock reads outside the perf shell",
    "RL002": "global or unseeded randomness",
    "RL003": "nondeterministic ordering feeding iteration",
    "RL004": "entropy or environment leaking into sim state",
    "RL005": "broad exception handler that swallows context",
    "RL101": "token value flows into a logging sink",
    "RL102": "token value flows into an exception message",
    "RL103": "token value persisted to an experiment artifact",
    "RL201": "RNG stream constructed at module scope",
    "RL202": "RNG stream shared across entities",
    "RL203": "raw arithmetic on sim-clock values outside sim/",
    "RL301": "direct platform mutation bypassing the Graph API",
    "RL302": "platform mutation reached through an outside helper",
    "RL401": "mutable state missing from a snapshot capture/install",
    "RL403": "journal frame bypasses the approved codec",
}


def _fingerprint(finding: Finding) -> str:
    raw = "\x1f".join(finding.fingerprint())
    return hashlib.blake2b(raw.encode("utf-8"),
                           digest_size=8).hexdigest()


def _result(finding: Finding, in_source: bool = False) -> dict:
    text = finding.message
    if finding.hint:
        text = f"{text}. {finding.hint}"
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": text},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    "startColumn": max(finding.col, 1),
                },
            },
        }],
        "partialFingerprints": {
            "reprolintFingerprint/v1": _fingerprint(finding),
        },
    }
    if in_source:
        result["suppressions"] = [{
            "kind": "inSource",
            "justification": "reprolint: disable pragma"}]
    elif finding.baselined:
        result["suppressions"] = [{"kind": "external",
                                   "justification": "baselined"}]
    return result


def render_sarif(report) -> str:
    """Serialise a :class:`~repro.lint.engine.LintReport` as SARIF."""
    suppressed = list(getattr(report, "suppressed", ()))
    seen_rules: List[str] = []
    for finding in [*report.findings, *suppressed]:
        if finding.rule not in seen_rules:
            seen_rules.append(finding.rule)
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": RULE_DESCRIPTIONS.get(rule_id, rule_id)},
    } for rule_id in sorted(seen_rules)]
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "informationUri":
                        "https://example.invalid/reprolint",
                    "rules": rules,
                },
            },
            "results": ([_result(finding)
                         for finding in report.findings]
                        + [_result(finding, in_source=True)
                           for finding in suppressed]),
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
