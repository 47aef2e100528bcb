"""Human and JSON rendering of lint findings.

The JSON schema (``repro-lint/2``) is what the CI job uploads as an
artifact; its shape is pinned by ``tests/test_analysis.py``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.analysis.core import Finding

JSON_SCHEMA = "repro-lint/2"

__all__ = ["JSON_SCHEMA", "findings_to_json", "format_human"]


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Canonical JSON for a lint run (sorted keys, stable ordering)."""
    findings = list(findings)
    doc: Dict = {
        "schema": JSON_SCHEMA,
        "findings": [
            {
                "rule": f.rule,
                "check": f.check,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "symbol": f.symbol,
                "message": f.message,
            }
            for f in findings
        ],
        "summary": _summary(findings),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _summary(findings: List[Finding]) -> Dict:
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return {"total": len(findings), "by_rule": dict(sorted(by_rule.items()))}


def format_human(findings: Iterable[Finding]) -> str:
    """One ``path:line:col: RULE[check] message`` line per finding."""
    findings = list(findings)
    lines = [f"{f.location()}: {f.rule}[{f.check}] {f.message}"
             for f in findings]
    if not findings:
        lines.append("lint: no findings")
    else:
        summary = _summary(findings)
        parts = ", ".join(f"{r}: {n}" for r, n in
                          summary["by_rule"].items())
        lines.append(f"lint: {summary['total']} finding(s) ({parts})")
    return "\n".join(lines) + "\n"
