#!/usr/bin/env python3
"""Run every experiment at (near) paper scale and dump JSON for
EXPERIMENTS.md.

The sizes are the plan table's (:mod:`repro.core.exps.plans`): the
``paper`` plan by default, ``quick`` under ``--quick``.  The figures
are executed through :mod:`repro.runner`: independent simulation
points fan out over ``--jobs`` worker processes, and each point's
result is cached content-addressed under ``--cache-dir``
(default ``.repro-cache/``), keyed by its config plus a fingerprint of
every ``repro`` source file and the ``REPRO_*`` environment.  A warm
re-run therefore simulates nothing and still reproduces the exact
serial results; after any source edit, or under a different
``REPRO_NOC_BATCH``, every point re-runs.

    scripts/run_experiments.py [out.json] --jobs 4
    scripts/run_experiments.py --only fig6 --only fig9
    scripts/run_experiments.py --no-cache        # always simulate
    scripts/run_experiments.py --refresh-cache   # re-simulate + rewrite
    scripts/run_experiments.py --expect-cached   # fail unless 100% hits
"""

import argparse
import json
import os
import sys
import time

from repro.core.exps.plans import PLANS
from repro.core.report import runner_summary
from repro.hw import complexity_report, table1
from repro.runner import DEFAULT_CACHE_DIR, ResultCache, Runner


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default="experiment_results.json",
                        help="output JSON path")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the point sweeps")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only these figures (table1, fig6..fig10, "
                             "figR, figS, voice, ablations); repeatable")
    parser.add_argument("--quick", action="store_true",
                        help="the quick plan: scaled-down workloads "
                             "(CI smoke)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--refresh-cache", action="store_true",
                        help="ignore cached results but write fresh ones")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="cache location (default .repro-cache)")
    parser.add_argument("--expect-cached", action="store_true",
                        help="exit non-zero if any point had to simulate "
                             "(CI warm-cache check)")
    parser.add_argument("--metrics", action="store_true",
                        help="meter every point; snapshots are stored as "
                             "cache sidecar artifacts")
    parser.add_argument("--profile", action="store_true",
                        help="self-profile the simulator; the summary "
                             "gains a per-subsystem wall-clock table")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    only = set(args.only) if args.only else None
    cache = None if args.no_cache else ResultCache(root=args.cache_dir,
                                                   refresh=args.refresh_cache)
    runner = Runner(jobs=args.jobs, cache=cache, progress=True,
                    metrics=args.metrics, profile=args.profile)

    results = {}
    if only is not None and os.path.exists(args.out):
        # a partial re-run (--only) updates the existing file in place
        # instead of dropping every figure that was not re-run
        with open(args.out) as handle:
            results = json.load(handle)
    t0 = time.time()

    def stamp(name):
        print(f"[{time.time() - t0:7.1f}s] {name}", flush=True)

    if only is None or "table1" in only:
        stamp("table 1")
        model = table1()
        results["table1"] = {
            "vdtu_kluts": model["vDTU"].kluts,
            "vdtu_kffs": model["vDTU"].kffs,
            "vdtu_brams": model["vDTU"].brams,
            "vdtu_of_boom": model.vdtu_fraction_of("BOOM"),
            "vdtu_of_rocket": model.vdtu_fraction_of("Rocket"),
            "virt_overhead": model.virtualization_overhead(),
            "sloc": complexity_report(),
        }

    for sweep, subkey, points in PLANS["quick" if args.quick else "paper"]:
        if only is not None and sweep not in only:
            continue
        stamp(f"{sweep}{f' ({subkey})' if subkey else ''}")
        value = runner.run_sweep(sweep, points)
        if subkey is None:
            results[sweep] = value
        else:
            results.setdefault(sweep, {})[subkey] = value

    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2, default=str)
    stamp(f"written to {args.out}")
    print(runner_summary(runner, time.time() - t0), flush=True)

    if runner.failed > 0:
        print(f"error: {runner.failed} point(s) failed:", file=sys.stderr)
        for outcome in runner.failures:
            print(f"  {outcome.spec.sweep}[{outcome.spec.index}]: "
                  f"{outcome.error}", file=sys.stderr)
        return 1
    if args.expect_cached and runner.simulated > 0:
        print(f"error: --expect-cached but {runner.simulated} point(s) "
              f"had to simulate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
