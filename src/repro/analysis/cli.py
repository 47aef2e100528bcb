"""The ``repro lint`` subcommand.

Kept in its own module (imported lazily by :mod:`repro.cli`) so that
``repro lint --help`` and the CI gate never pay for the experiment
stack's import time.

Exit codes: 0 — no findings; 1 — any finding; 2 — usage errors (bad
rule id).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import DEFAULT_TARGETS, all_rules, run_lint
from repro.analysis.report import findings_to_json, format_human


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: "
                             + " ".join(DEFAULT_TARGETS) + ")")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the JSON report to FILE "
                             "(regardless of --format)")
    parser.add_argument("--select", action="append", metavar="REPxxx",
                        help="only run the named rule (repeatable)")
    parser.add_argument("--ignore", action="append", metavar="REPxxx",
                        help="skip the named rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--root", default=".", metavar="DIR",
                        help="repository root (default: cwd)")


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  {rule.name}")
            print(f"        {rule.description}")
        return 0

    targets = args.paths or list(DEFAULT_TARGETS)
    try:
        findings = run_lint(targets, root=Path(args.root),
                            select=args.select, ignore=args.ignore)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.output:
        out = Path(args.output)
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(findings_to_json(findings))
    if args.format == "json":
        sys.stdout.write(findings_to_json(findings))
    else:
        sys.stdout.write(format_human(findings))
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & sim-concurrency static analyzer")
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
