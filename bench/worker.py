"""One measurement of one workload in a fresh interpreter.

``run.py`` starts this script once per measurement and reads the JSON
object it prints as its last line::

    python bench/worker.py setup  WORKLOAD [--smoke]
    python bench/worker.py timed  WORKLOAD [--seed N] [--reps N | --seconds S] [--smoke]
    python bench/worker.py spans  WORKLOAD --out DIR [--raw-spans] [--smoke]
    python bench/worker.py count  WORKLOAD [--smoke]

``setup`` times the import of the workload's modules and the
``build_system`` of each of its points; no repro module is imported
before its clock starts.  ``timed`` runs one checked warmup rep at
``--seed`` and then the timed reps at the pinned seed, with no tracer,
metrics or profiler attached by the benchmark.  ``spans`` and ``count``
run one rep at the pinned seed under the layer wrappers (:mod:`spans`)
or the counting tracer (:mod:`counts`).  Every rep is checked
(:func:`workloads.check`); a rep that raises or fails a check is a
failed op.  Host times are scaled to reference speed (:mod:`hostspeed`).
"""

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402
from workloads import (PINNED_SEED, WORKLOADS, Rep, Workload, check,  # noqa: E402
                       load_expected, run_rep)

#: timed reps taken when neither ``--reps`` nor ``--seconds`` is given
DEFAULT_REPS = 7
#: fewest timed reps a ``--seconds`` budget may give
MIN_REPS = 3
RAW_SPAN_WINDOW = 10_000


class Ops:
    """Counts checked reps (ops) and keeps their problems."""

    def __init__(self, workload: Workload, smoke: bool,
                 expected: Optional[Dict[str, Any]]):
        self.workload = workload
        self.smoke = smoke
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, seed: int, rep_fn=None) -> Optional[Rep]:
        """One checked rep; ``rep_fn`` runs it (default: untraced)."""
        self.attempted += 1
        try:
            rep = (rep_fn or (lambda: run_rep(self.workload, seed,
                                              self.smoke)))()
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            return None
        problems = check(self.workload, seed, self.smoke, rep, self.expected)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return rep

    def result(self, **fields) -> Dict[str, Any]:
        return dict(attempted=self.attempted, failed=self.failed,
                    problems=self.problems, **fields)


class _Built(Exception):
    """Raised right after a system is built: set-up stops there."""


def measure_setup(workload: Workload, smoke: bool) -> Dict[str, Any]:
    built = 0
    with HostSpeed() as clock:
        from repro.api import system as api_system

        init = api_system.System.__init__

        def init_then_stop(self, *args, **kwargs):
            init(self, *args, **kwargs)
            raise _Built

        api_system.System.__init__ = init_then_stop
        try:
            for _, pt in workload.points(PINNED_SEED, smoke):
                try:
                    workload.run_point(pt)
                except _Built:
                    built += 1
        finally:
            api_system.System.__init__ = init
    return {"setup_s": clock.scaled(), "raw_setup_s": clock.gross,
            "probes": clock.samples, "systems": built}


def measure_timed(ops: Ops, seed: int, reps: Optional[int],
                  seconds: Optional[float]) -> Dict[str, Any]:
    """Warmup at ``seed``, then timed reps at the pinned seed, each
    scaled to reference host speed (:mod:`hostspeed`)."""
    from repro.sim import engine

    ops.run(seed)  # warmup, and the check of --seed
    if reps is None and seconds is None:
        reps = DEFAULT_REPS
    walls: List[float] = []
    raw_walls: List[float] = []
    factors: List[float] = []
    events: Optional[int] = None
    outputs = None
    attempts, spent = 0, 0.0
    while (attempts < reps if reps is not None
           else attempts < MIN_REPS or spent < seconds):
        gc.collect()
        e0 = engine.events_processed()
        with HostSpeed() as clock:
            rep = ops.run(PINNED_SEED)
        n = engine.events_processed() - e0
        attempts += 1
        spent += clock.gross
        if rep is None:
            continue
        walls.append(clock.scaled())
        raw_walls.append(clock.gross)
        factors.append(clock.factor)
        outputs = rep.outputs
        if events is None:
            events = n
        elif n != events:
            ops.failed += 1
            ops.problems.append(f"rep processed {n} events, an earlier rep "
                                f"{events}: the simulation is not "
                                f"deterministic")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ops.result(walls=walls, raw_walls=raw_walls, factors=factors,
                      events=events, peak_rss_mb=rss_mb, outputs=outputs)


def measure_spans(ops: Ops, out: Path, workload: Workload, smoke: bool,
                  raw: bool) -> Dict[str, Any]:
    from spans import OVERHEAD, Recorder, instrument

    rec = Recorder(RAW_SPAN_WINDOW if raw else 0)

    def traced_rep() -> Rep:
        with instrument(rec):
            return run_rep(workload, PINNED_SEED, smoke)

    gc.collect()
    # probes land in whichever span is running; sampled uniformly in
    # time, they inflate every layer alike, and the factor removes them
    with HostSpeed() as clock:
        rep = ops.run(PINNED_SEED, traced_rep)
    calls: Dict[str, Dict[str, int]] = {}
    for (layer, method), n in sorted(rec.calls.items()):
        calls.setdefault(layer, {})[method] = n
    wall = clock.gross
    self_s = dict(sorted(rec.self_s.items()))
    layers = {
        "workload": workload.name,
        "seed": PINNED_SEED,
        "smoke": smoke,
        "wall_s": wall,
        "factor": clock.factor,
        "unattributed_s": wall - sum(self_s.values()),
        "overhead_s": self_s.get(OVERHEAD, 0.0),
        "self_s": self_s,
        "calls": calls,
        "callbacks": dict(sorted(rec.callbacks.items())),
    }
    if raw:
        t_base = rec.window[0][3] if rec.window else 0.0
        layers["spans"] = [
            {"id": i, "parent": p, "layer": lay, "start_s": s - t_base,
             "end_s": e - t_base} for i, p, lay, s, e in rec.window]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload.name}.layers.json", "w") as fh:
        json.dump(layers, fh, indent=1)
        fh.write("\n")
    return ops.result(wall_s=wall, factor=clock.factor, self_s=self_s,
                      calls=calls,
                      outputs=rep.outputs if rep else None)


def measure_count(ops: Ops, workload: Workload, smoke: bool) -> Dict[str, Any]:
    from counts import count_rep

    box: Dict[str, Any] = {}

    def counted_rep() -> Rep:
        rep, box["counts"] = count_rep(workload, smoke)
        return rep

    rep = ops.run(PINNED_SEED, counted_rep)
    return ops.result(counts=box.get("counts"),
                      outputs=rep.outputs if rep else None,
                      ops=rep.ops if rep else 0,
                      offered=sum(rep.offered.values()) if rep else 0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/worker.py")
    parser.add_argument("mode", choices=("setup", "timed", "spans", "count"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--raw-spans", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = measure_setup(workload, args.smoke)
    else:
        ops = Ops(workload, args.smoke, load_expected())
        if args.mode == "timed":
            result = measure_timed(ops, args.seed, args.reps, args.seconds)
        elif args.mode == "spans":
            result = measure_spans(ops, args.out, workload, args.smoke,
                                   args.raw_spans)
        else:
            result = measure_count(ops, workload, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
