"""A/B verdicts over two sets of benchmark runs.

    python bench/compare.py PARENT CHANGE

PARENT and CHANGE are each a ``runs.jsonl`` written by ``bench/run.py``
(or the ``--out`` directory holding it), from runs of the same
workloads with the same settings.  Run them as interleaved pairs,
alternating which side goes first; the i-th run of a workload on one
side is paired with the i-th run on the other.

For every workload and end-to-end metric the report has one row: each
side's median, quartiles and n, the share of pairs the change wins
(ties count for neither), the change of the median (positive is
worse) and a verdict:

``improved``
    the change wins at least 90% of pairs and its median beats the
    parent's by more than the distance between the parent's quartiles;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``no worse``
    neither of the above;
``unresolved``
    either side's spread (quartile distance over median) exceeds the
    bound, unless every run of the change beats every run of the parent.

It then lists every exact count and fidelity value that differs
between the two sides, and any that did not repeat within one side.
Exit status 1 when a metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Run records by workload, in file order."""
    if path.is_dir():
        path = path / "runs.jsonl"
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], lower_better: bool,
            bound: float) -> Dict[str, Any]:
    """Compare parent samples ``a`` with change samples ``b``."""
    sign = 1.0 if lower_better else -1.0

    def better(x: float, y: float) -> bool:  # x beats y
        return sign * (y - x) > 0

    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    win_share = wins / len(pairs) if pairs else 0.0
    spread = max((qa3 - qa1) / ma if ma else 0.0,
                 (qb3 - qb1) / mb if mb else 0.0)
    worse = sign * (mb - ma) / ma if ma else 0.0
    all_better = all(better(y, x) for x in a for y in b)
    improved = win_share >= WIN_SHARE and sign * (ma - mb) > qa3 - qa1
    if spread > bound and not all_better:
        result = "unresolved"
    elif improved:
        result = "improved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "no worse"
    return {"parent": (qa1, ma, qa3, len(a)), "change": (qb1, mb, qb3, len(b)),
            "win_share": win_share, "worse": worse, "spread": spread,
            "verdict": result}


def exact_values(rec: Dict[str, Any]) -> Dict[str, Any]:
    """The record's exact counts and fidelity values, flattened."""
    flat: Dict[str, Any] = {"events": rec.get("events")}
    for group, values in (rec.get("counts") or {}).items():
        for name, v in values.items():
            flat[f"{group}:{name}"] = v
    for label, out in (rec.get("outputs") or {}).items():
        for name, v in out.items():
            flat[f"output:{label}:{name}"] = v
    return flat


def exact_diff(a: List[Dict], b: List[Dict]) -> List[str]:
    lines = []
    sides = []
    for side, recs in (("parent", a), ("change", b)):
        flats = [exact_values(r) for r in recs if r.get("counts")] or \
                [exact_values(r) for r in recs]
        for other in flats[1:]:
            for k in sorted(set(flats[0]) | set(other)):
                if flats[0].get(k) != other.get(k):
                    lines.append(f"  {side} did not repeat {k}: "
                                 f"{flats[0].get(k)} vs {other.get(k)}")
        sides.append(flats[0])
    pa, ch = sides
    for k in sorted(set(pa) | set(ch)):
        if pa.get(k) != ch.get(k):
            lines.append(f"  {k}: {pa.get(k)} -> {ch.get(k)}")
    return lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)
    regressed = False
    print(f"{'workload':<12} {'metric':<12} {'parent q1/median/q3 (n)':<34} "
          f"{'change q1/median/q3 (n)':<34} {'wins':>5} {'delta':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["e2e"][name]["value"] for r in parent[workload] if "e2e" in r]
            b = [r["e2e"][name]["value"] for r in change[workload] if "e2e" in r]
            if not a or not b:
                continue
            v = verdict(a, b, m["better"] == "lower", m["bound"])
            regressed |= v["verdict"] == "regressed"
            cells = ["{:.4g}/{:.4g}/{:.4g} ({})".format(*v[s])
                     for s in ("parent", "change")]
            print(f"{workload:<12} {name:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{v['win_share']:>5.0%} {v['worse']:>+7.1%}  {v['verdict']}")
    for workload in sorted(set(parent) & set(change)):
        diff = exact_diff(parent[workload], change[workload])
        print(f"exact counts, {workload}: "
              + ("identical" if not diff else f"{len(diff)} differ"))
        for line in diff:
            print(line)
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads on one side only: {', '.join(only)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
