#!/usr/bin/env python3
"""Run every experiment at (near) paper scale and dump JSON for
EXPERIMENTS.md.

The figures are executed through :mod:`repro.runner`: independent
simulation points fan out over ``--jobs`` worker processes, and each
point's result is cached content-addressed under ``--cache-dir``
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

from repro.core.exps import (
    Fig6Params,
    Fig7Params,
    Fig8Params,
    Fig9Params,
    Fig10Params,
    FigRParams,
    FigSParams,
    VoiceParams,
)
from repro.core.report import runner_summary
from repro.hw import complexity_report, table1
from repro.runner import DEFAULT_CACHE_DIR, ResultCache, Runner


def build_plan(quick: bool):
    """(results key, sub-key or None, sweep name, params) per sweep."""
    if quick:
        return [
            ("fig6", None, "fig6", Fig6Params(iterations=150, warmup=15)),
            ("fig7", None, "fig7", Fig7Params(file_bytes=512 * 1024,
                                              runs=2, warmup=1)),
            ("fig8", None, "fig8", Fig8Params(repetitions=15, warmup=3)),
            ("fig9", "find", "fig9",
             Fig9Params(trace="find", runs=1, find_dirs=6, find_files=10,
                        tile_counts=[1, 2, 4])),
            ("fig9", "sqlite", "fig9",
             Fig9Params(trace="sqlite", runs=1, sqlite_txns=8,
                        tile_counts=[1, 2, 4])),
            ("fig10", None, "fig10", Fig10Params(records=60, operations=60,
                                                 runs=1, warmup=0)),
            ("voice", None, "voice", VoiceParams(triggers=4)),
            ("figR", None, "figR",
             FigRParams(messages=15, fault_rates=[0.0, 0.1])),
            ("figS", None, "figS",
             FigSParams(requests=30, loads=[0.7, 1.0, 1.5, 2.0],
                        ablation_loads=[2.0])),
            ("ablations", None, "ablations", None),
        ]
    return [
        ("fig6", None, "fig6", Fig6Params(iterations=1000, warmup=50)),
        ("fig7", None, "fig7", Fig7Params()),   # 2 MiB, 10 runs + 4 warmup
        ("fig8", None, "fig8", Fig8Params()),   # 50 reps + 5 warmup
        ("fig9", "find", "fig9", Fig9Params(trace="find", runs=2)),
        ("fig9", "sqlite", "fig9", Fig9Params(trace="sqlite", runs=2)),
        ("fig10", None, "fig10", Fig10Params(runs=2, warmup=1)),
        ("voice", None, "voice", VoiceParams(triggers=8, repetitions=1)),
        ("figR", None, "figR", FigRParams()),
        ("figS", None, "figS", FigSParams()),
        ("ablations", None, "ablations", None),   # one size: ~1 s
    ]


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
                        help="scaled-down workloads (CI smoke)")
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

    for key, subkey, sweep, params in build_plan(args.quick):
        if only is not None and key not in only:
            continue
        stamp(f"{key}{f' ({subkey})' if subkey else ''}")
        value = runner.run_sweep(sweep, params)
        if subkey is None:
            results[key] = value
        else:
            results.setdefault(key, {})[subkey] = value

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
