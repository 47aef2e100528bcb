"""The benchmark's four workloads and their fidelity checks.

Each workload is a list of figure *points* — the same ``FigSPoint`` /
``Fig6Point`` / ``Fig9Point`` objects the figure sweeps run — and one
*rep* runs every point once through the figure's public point function
(``run_figs_point``, ``run_fig6_point``, ``run_fig9_point``).  A rep
returns its simulated outputs (the fidelity values) plus the number of
operations it completed: requests for serving, RPCs for fig6, trace
runs for fig9.

``repro`` is imported lazily inside the functions, so a fresh
interpreter that only imports this module has not paid for the
simulator yet (the set-up measurement times that import).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"

#: Figure seed of the timed, spans and count reps.  The m3x serving
#: storm is bimodal in the seed (at 1.0x load seeds 1, 4 and 9 storm
#: with 626k-775k engine events, the other seven need 365k-421k), so a
#: timed rep at ``--seed`` would measure the seed instead of the commit.
#: ``--seed`` drives the checked warmup rep instead.
PINNED_SEED = 1

#: Serving outputs pinned by the fidelity check (percentile fields are
#: left out: their definition is due to change).
FIGS_FIELDS = ("completed", "slo_met", "shed", "failed", "span_ms",
               "backpressure", "retransmits", "dropped", "slow_paths")


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json."""

    name: str
    #: (seed, smoke) -> [(label, point)]
    points: Callable[[int, bool], List[Tuple[str, Any]]]
    #: point -> fidelity outputs of that point
    run_point: Callable[[Any], Dict[str, Any]]
    #: point -> operations one run of it completes (given its outputs)
    ops: Callable[[Any, Dict[str, Any]], int]
    #: point -> requests offered (serving only; 0 elsewhere)
    offered: Callable[[Any], int]


# -- serving (figS) -------------------------------------------------------------

def _figs_points(system: str, loads) -> Callable:
    def points(seed: int, smoke: bool):
        from repro.core.exps.figs import FigSPoint

        size = dict(requests=6, preload=8) if smoke else {}
        return [(f"{system}@{load}", FigSPoint(system, load, seed=seed, **size))
                for load in loads]
    return points


def _run_figs(pt) -> Dict[str, Any]:
    from repro.core.exps.figs import run_figs_point

    out = run_figs_point(pt)
    return {k: out[k] for k in FIGS_FIELDS}


# -- fig6 RPCs ------------------------------------------------------------------

def _rpc_points(seed: int, smoke: bool):
    # fig6 has no random input: the seed does not change these points
    from repro.core.exps.fig6 import Fig6Point

    iters, warm = (200, 10) if smoke else (10_000, 50)
    return [(kind, Fig6Point(kind, iters, warm))
            for kind in ("m3v_local", "m3v_remote")]


def _run_rpc(pt) -> Dict[str, Any]:
    from repro.core.exps.fig6 import run_fig6_point

    return {"mean_ps": run_fig6_point(pt)}


# -- fig9 scaling ---------------------------------------------------------------

def _scale_points(seed: int, smoke: bool):
    # fig9 has no random input: the seed does not change this point
    from repro.core.exps.fig9 import Fig9Point

    if smoke:
        pt = Fig9Point("m3v", 8, trace="find", runs=1, find_dirs=2,
                       find_files=3)
    else:
        pt = Fig9Point("m3v", 64, trace="find", runs=5, find_dirs=4,
                       find_files=6)
    return [(f"m3v@{pt.n_tiles}", pt)]


def _run_scale(pt) -> Dict[str, Any]:
    from repro.core.exps.fig9 import run_fig9_point

    return {"runs_per_s": run_fig9_point(pt)}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serve_m3v",
        _figs_points("m3v", (0.5, 1.0)), _run_figs,
        ops=lambda pt, out: out["completed"],
        offered=lambda pt: pt.gateways * pt.requests),
    Workload(
        "serve_m3x",
        _figs_points("m3x", (1.0,)), _run_figs,
        ops=lambda pt, out: out["completed"],
        offered=lambda pt: pt.gateways * pt.requests),
    Workload(
        "rpc_m3v",
        _rpc_points, _run_rpc,
        ops=lambda pt, out: pt.iterations,
        offered=lambda pt: 0),
    Workload(
        "scale_m3v64",
        _scale_points, _run_scale,
        ops=lambda pt, out: pt.n_tiles * pt.runs,
        offered=lambda pt: 0),
)}


# -- one rep ----------------------------------------------------------------------

@dataclass
class Rep:
    """One rep: per point label, the fidelity values and requests offered."""

    outputs: Dict[str, Dict[str, Any]]
    offered: Dict[str, int]
    ops: int


def run_rep(workload: Workload, seed: int, smoke: bool) -> Rep:
    rep = Rep({}, {}, 0)
    for label, pt in workload.points(seed, smoke):
        out = workload.run_point(pt)
        rep.outputs[label] = out
        rep.offered[label] = workload.offered(pt)
        rep.ops += workload.ops(pt, out)
    return rep


# -- fidelity ---------------------------------------------------------------------

def load_expected(path: Path = EXPECTED_FILE) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def check(workload: Workload, seed: int, smoke: bool, rep: Rep,
          expected: Optional[Dict[str, Any]]) -> List[str]:
    """Problems with a rep's outputs; an empty list means it passed.

    Seeds with committed values (full size only) must match them
    exactly.  Every rep also passes the conservation checks: serving
    resolves every offered request exactly once, and every latency or
    rate is a positive finite number.
    """
    problems = []
    want = None
    if expected is not None and not smoke:
        want = expected.get(workload.name, {}).get(str(seed))
    if want is not None and want != rep.outputs:
        for label in sorted(set(want) | set(rep.outputs)):
            got, exp = rep.outputs.get(label), want.get(label)
            if got != exp:
                problems.append(f"{workload.name} seed {seed} {label}: "
                                f"got {got}, expected {exp}")
    for label, out in rep.outputs.items():
        if "completed" in out:
            resolved = out["completed"] + out["shed"] + out["failed"]
            offered = rep.offered[label]
            if resolved != offered:
                problems.append(f"{label}: resolved {resolved} of {offered}")
            if not 0 <= out["slo_met"] <= out["completed"]:
                problems.append(f"{label}: slo_met {out['slo_met']} outside "
                                f"[0, {out['completed']}]")
        for key in ("mean_ps", "runs_per_s", "span_ms"):
            v = out.get(key)
            if v is not None and not (math.isfinite(v) and v > 0):
                problems.append(f"{label}: {key} = {v}")
    return problems
