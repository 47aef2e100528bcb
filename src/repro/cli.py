"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``area``      print Table 1 and the derived ratios
``sloc``      print the section-6.1 complexity report
``fig6|fig7|fig8|fig9|fig10|figR|figS|voice``
              run one experiment (shortened workloads; ``--paper`` for
              the full parameters) and print its ASCII figure.  All of
              these go through the parallel runner: ``--jobs N`` fans
              the sweep's points over N worker processes, and results
              are served from the content-addressed ``.repro-cache/``
              unless ``--no-cache`` (``--refresh-cache`` re-simulates
              and rewrites the entries)
``stats <sweep>``
              run a sweep with the metrics layer on and print per-point
              time series (queue depths) and histograms, plus every
              counter summed over the points; ``--quick`` shrinks the
              workload
``profile <sweep>``
              run a sweep serially with the simulator self-profiler and
              print wall-clock per subsystem + events/sec
``report <results.json>``
              render a full run_experiments.py dump + shape checks
``trace fig6|fig8``
              record a deterministic execution trace of a golden
              workload; ``--diff`` checks it against the committed
              golden digest, ``--refresh`` rewrites the golden file,
              ``--out`` dumps the full canonical JSON, ``--spans`` /
              ``--chrome`` export activity timelines
``lint``      run the repo's own static analyzer (REP001 determinism,
              REP002 sim-concurrency, REP003 layering, REP004
              cross-tile isolation); exit 1 on any finding

Experiment modules import lazily: ``repro --version`` and ``repro
lint`` never load the platform stack.

Every subcommand shares one option set (runner options plus
``--metrics``/``--metrics-out``), so ``repro <cmd> --help`` reads the
same everywhere; commands that do not run sweeps simply ignore the
runner options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__

SWEEPS = ("fig6", "fig7", "fig8", "fig9", "fig10", "figR", "figS", "voice")


def _open_out(path):
    """Open ``path`` for writing, creating missing parent directories."""
    p = Path(path)
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return open(p, "w")


def _make_runner(args, metrics: bool = False, profile: bool = False):
    from repro.runner import ResultCache, Runner

    cache = None
    if not args.no_cache and not profile:  # profiles are never cached
        cache = ResultCache(root=args.cache_dir,
                            refresh=args.refresh_cache)
    jobs = 1 if profile else args.jobs     # self-profiling stays in-process
    return Runner(jobs=jobs, cache=cache, metrics=metrics, profile=profile,
                  progress=jobs > 1 and sys.stderr.isatty())


def _config_label(config) -> str:
    label = repr(config)
    return label if len(label) <= 72 else label[:69] + "..."


def _emit_metrics(args, runner) -> None:
    """Handle ``--metrics`` (stdout summary) and ``--metrics-out`` (one
    JSON snapshot per point) after a metered sweep."""
    from repro.obs import MetricsRegistry

    outcomes = [o for o in runner.last_outcomes
                if o is not None and o.metrics is not None]
    if getattr(args, "metrics_out", None):
        out_dir = Path(args.metrics_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for o in outcomes:
            path = out_dir / f"{o.spec.sweep}-{o.spec.index}.metrics.json"
            with open(path, "w") as fh:
                json.dump(o.metrics, fh, sort_keys=True)
                fh.write("\n")
        print(f"metrics: {len(outcomes)} snapshot(s) written to "
              f"{out_dir}/", file=sys.stderr)
    if getattr(args, "metrics", False):
        merged = MetricsRegistry.merge_dicts(o.metrics for o in outcomes)
        counters = merged["counters"]
        print(f"metrics — aggregate counters over {len(outcomes)} point(s):")
        for name, value in sorted(counters.items()):
            print(f"  {name:<44} {value:>12,}")
        if not counters:
            print("  (none recorded)")


def _sweep_result(name: str, params, args):
    """Run one figure's sweep through the runner (CLI plumbing)."""
    want_metrics = bool(getattr(args, "metrics", False)
                        or getattr(args, "metrics_out", None))
    runner = _make_runner(args, metrics=want_metrics)
    result = runner.run_sweep(name, params)
    if want_metrics:
        _emit_metrics(args, runner)
    return result


def _cmd_area(_args) -> int:
    from repro.hw import table1

    model = table1()
    print(f"{'Component':28s} {'LUTs[k]':>8s} {'FFs[k]':>7s} {'BRAMs':>6s}")
    for row in model.table_rows():
        print(f"{row['component']:28s} {row['kluts']:8.1f} "
              f"{row['kffs']:7.1f} {row['brams']:6.1f}")
    print(f"\nvDTU / BOOM:   {model.vdtu_fraction_of('BOOM'):.1%}")
    print(f"vDTU / Rocket: {model.vdtu_fraction_of('Rocket'):.1%}")
    print(f"virtualization overhead: {model.virtualization_overhead():.1%}")
    return 0


def _cmd_sloc(_args) -> int:
    from repro.hw import complexity_report

    report = complexity_report()
    for role in ("controller", "tilemux"):
        r = report[role]
        print(f"{role:11s} paper {r['paper_sloc']:6d} SLOC   "
              f"this repo {r['ours_sloc']:6d} SLOC")
    ratio = report["tilemux_to_controller_ratio"]
    print(f"ratio tilemux/controller: paper {ratio['paper']:.2f} / "
          f"ours {ratio['ours']:.2f}")
    return 0


# -- per-sweep parameter scaling ----------------------------------------------

def _sweep_params(name: str, args):
    """Parameters for ``name`` at the requested scale.

    ``--paper`` selects the full paper workloads, ``--quick`` the
    golden/smoke scale; the default is the shortened CLI scale.
    """
    paper = getattr(args, "paper", False)
    quick = getattr(args, "quick", False)
    if name == "fig6":
        from repro.core.exps.fig6 import Fig6Params
        if paper:
            return Fig6Params()
        return (Fig6Params(iterations=10, warmup=2) if quick
                else Fig6Params(iterations=150, warmup=15))
    if name == "fig7":
        from repro.core.exps.fig7 import Fig7Params
        if paper:
            return Fig7Params()
        return (Fig7Params(file_bytes=128 * 1024, runs=1, warmup=1) if quick
                else Fig7Params(file_bytes=512 * 1024, runs=2, warmup=1))
    if name == "fig8":
        from repro.core.exps.fig8 import Fig8Params
        if paper:
            return Fig8Params()
        return (Fig8Params(repetitions=5, warmup=1) if quick
                else Fig8Params(repetitions=15, warmup=3))
    if name == "fig9":
        from repro.core.exps.fig9 import Fig9Params
        trace = getattr(args, "trace", "find") or "find"
        if paper:
            return Fig9Params(trace=trace)
        if quick:
            return Fig9Params(trace=trace, tile_counts=[1, 2], runs=1,
                              find_dirs=4, find_files=6, sqlite_txns=4)
        return Fig9Params(trace=trace, find_dirs=6, find_files=10,
                          sqlite_txns=8)
    if name == "fig10":
        from repro.core.exps.fig10 import Fig10Params
        mix = getattr(args, "mix", "scan") or "scan"
        if paper:
            return Fig10Params(runs=8, warmup=2, mixes=(mix,))
        if quick:
            return Fig10Params(records=30, operations=30, runs=1,
                               warmup=0, mixes=(mix,))
        return Fig10Params(records=60, operations=60, runs=1, warmup=0,
                           mixes=(mix,))
    if name == "figR":
        from repro.core.exps.figr import FigRParams
        if paper:
            return FigRParams()
        return (FigRParams(messages=10, fault_rates=[0.0, 0.1]) if quick
                else FigRParams(messages=15, fault_rates=[0.0, 0.05, 0.1]))
    if name == "figS":
        from repro.core.exps.figs import FigSParams
        if paper:
            return FigSParams()
        if quick:
            return FigSParams(requests=10, loads=[0.7, 2.0],
                              ablation_loads=[2.0])
        return FigSParams(requests=30, loads=[0.7, 1.0, 1.5, 2.0],
                          ablation_loads=[2.0])
    if name == "voice":
        from repro.core.exps.voice import VoiceParams
        if paper:
            return VoiceParams(triggers=8)
        return VoiceParams(triggers=2 if quick else 4)
    raise ValueError(f"unknown sweep {name!r}")


def _cmd_fig6(args) -> int:
    from repro.core.report import bar_chart

    rows = _sweep_result("fig6", _sweep_params("fig6", args), args)
    print(bar_chart("Figure 6 — no-op round trips (k cycles)",
                    {k: v["kcycles"] for k, v in rows.items()}, unit="kcy"))
    return 0


def _cmd_fig7(args) -> int:
    from repro.core.report import bar_chart

    print(bar_chart("Figure 7 — file throughput (MiB/s)",
                    _sweep_result("fig7", _sweep_params("fig7", args), args),
                    unit="MiB/s"))
    return 0


def _cmd_fig8(args) -> int:
    from repro.core.report import bar_chart

    print(bar_chart("Figure 8 — UDP RTT (us)",
                    _sweep_result("fig8", _sweep_params("fig8", args), args),
                    unit="us"))
    return 0


def _cmd_fig9(args) -> int:
    from repro.core.report import series_chart

    data = _sweep_result("fig9", _sweep_params("fig9", args), args)
    print(series_chart(f"Figure 9 — {args.trace} (runs/s)", data))
    return 0


def _cmd_fig10(args) -> int:
    data = _sweep_result("fig10", _sweep_params("fig10", args), args)
    for system, row in data[args.mix].items():
        print(f"{system:14s} total={row['total_s']:.3f}s "
              f"user={row['user_s']:.3f}s sys={row['sys_s']:.3f}s")
    return 0


def _cmd_figr(args) -> int:
    data = _sweep_result("figR", _sweep_params("figR", args), args)
    print("Figure R — goodput and tail latency vs NoC fault rate")
    for system, by_rate in data.items():
        print(f"  {system}:")
        for rate, row in sorted(by_rate.items()):
            if row is None:
                print(f"    rate {rate:4.0%}  FAILED")
                continue
            print(f"    rate {rate:4.0%}  {row['goodput_rps']:8.0f} rps  "
                  f"p50 {row['p50_us']:7.1f} us  p99 {row['p99_us']:7.1f} us  "
                  f"retx {row['retransmits']:3d}  "
                  f"slow {row['slow_paths']:3d}  "
                  f"failed {row['failures']:2d}")
    return 0


def _cmd_figs(args) -> int:
    data = _sweep_result("figS", _sweep_params("figS", args), args)
    print("Figure S — goodput and tail latency vs offered load "
          "(multi-tenant serving under faults)")
    for arm, by_load in data.items():
        print(f"  {arm}:")
        for load, row in sorted(by_load.items()):
            if row is None:
                print(f"    load {load:4.1f}x  FAILED")
                continue
            print(f"    load {load:4.1f}x  offered {row['offered_rps']:7.0f} "
                  f"rps  goodput {row['goodput_rps']:7.0f} rps  "
                  f"p50 {row['p50_us']:8.1f} us  p99 {row['p99_us']:8.1f} us  "
                  f"p99.9 {row['p999_us']:8.1f} us  "
                  f"shed {row['shed']:3d}  bp {row['backpressure']:4d}  "
                  f"slow {row['slow_paths']:4d}")
    return 0


def _cmd_voice(args) -> int:
    data = _sweep_result("voice", _sweep_params("voice", args), args)
    print(f"isolated {data['isolated_ms']:.1f} ms / "
          f"shared {data['shared_ms']:.1f} ms "
          f"(+{data['overhead_pct']:.1f}%, paper +3.6%)")
    return 0


# -- observability commands ---------------------------------------------------

def _series_line(name: str, points) -> str:
    values = [v for _, v in points]
    if not values:
        return f"  {name:<40} (empty)"
    mean = sum(values) / len(values)
    return (f"  {name:<40} n={len(values):<5d} min={min(values):<10g} "
            f"mean={mean:<10.6g} max={max(values):<10g} last={values[-1]:g}")


def _cmd_stats(args) -> int:
    """Run ``<sweep>`` with metrics on; print per-point time series
    (queue depths) and histograms, and the counters summed over the
    points."""
    from repro.obs import MetricsRegistry

    runner = _make_runner(args, metrics=True)
    runner.run_sweep(args.sweep, _sweep_params(args.sweep, args))
    outcomes = [o for o in runner.last_outcomes
                if o is not None and o.metrics is not None]
    filters = args.series or []
    for o in outcomes:
        print(f"== {o.spec.sweep}[{o.spec.index}] "
              f"{_config_label(o.spec.config)}")
        gauges = o.metrics.get("gauges", {})
        shown = 0
        for name in sorted(gauges):
            if filters and not any(f in name for f in filters):
                continue
            print(_series_line(name, gauges[name]))
            shown += 1
        for name, summary in sorted(o.metrics.get("histograms", {}).items()):
            if filters and not any(f in name for f in filters):
                continue
            if summary.get("count"):
                print(f"  {name:<40} count={summary['count']:<7d} "
                      f"p50={summary['p50']:<12g} p99={summary['p99']:<12g} "
                      f"max={summary['max']:g}")
                shown += 1
        if not shown:
            print("  (no series matched)")
    merged = MetricsRegistry.merge_dicts(o.metrics for o in outcomes)
    print(f"== aggregate counters ({len(outcomes)} point(s))")
    for name, value in sorted(merged["counters"].items()):
        if filters and not any(f in name for f in filters):
            continue
        print(f"  {name:<44} {value:>12,}")
    if getattr(args, "metrics_out", None):
        _emit_metrics(args, runner)
    return 0


def _cmd_profile(args) -> int:
    """Run ``<sweep>`` serially under the self-profiler; print
    wall-clock per subsystem and events/sec."""
    from repro.obs import SelfProfiler

    runner = _make_runner(args, profile=True)
    runner.run_sweep(args.sweep, _sweep_params(args.sweep, args))
    profiles = [o.profile for o in runner.last_outcomes
                if o is not None and o.profile is not None]
    merged = SelfProfiler()
    for p in profiles:
        merged.merge(p)
    print(f"profile — {args.sweep}, {len(profiles)} point(s), "
          f"simulated in-process (jobs=1, no cache):")
    print(merged.table())
    return 0


def _cmd_trace(args) -> int:
    from repro.testing.golden import (
        canonical_json,
        diff_digest,
        digest,
        golden_path,
        load_golden,
        record_trace,
        write_golden,
    )

    tracer = record_trace(args.workload)
    actual = digest(tracer)
    print(f"{args.workload}: {actual['n_events']} events, "
          f"sha256 {actual['sha256'][:16]}…")
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(canonical_json(tracer))
            fh.write("\n")
        print(f"canonical trace written to {args.out}")
    if args.spans or args.chrome:
        from repro.obs import SpanCollector

        collector = SpanCollector()
        collector.feed(tracer.events)
        collector.finish()
        if args.spans:
            with _open_out(args.spans) as fh:
                fh.write(collector.to_json())
                fh.write("\n")
            print(f"{len(collector.spans)} spans written to {args.spans}")
        if args.chrome:
            with _open_out(args.chrome) as fh:
                fh.write(collector.to_chrome())
                fh.write("\n")
            print(f"chrome trace written to {args.chrome} "
                  f"(load via chrome://tracing or https://ui.perfetto.dev)")
    if args.refresh:
        path = write_golden(args.workload, tracer)
        print(f"golden digest refreshed: {path}")
        return 0
    if args.diff:
        path = golden_path(args.workload)
        if not path.exists():
            print(f"no golden file at {path} (record one with --refresh)")
            return 1
        problems = diff_digest(load_golden(args.workload), actual)
        if problems:
            print("trace DIVERGES from golden:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("trace matches golden")
    return 0


def _cmd_report(args) -> int:
    from repro.core.report import render_report, shape_checks

    with open(args.results) as handle:
        results = json.load(handle)
    print(render_report(results))
    failures = shape_checks(results)
    if failures:
        print("\nSHAPE CHECKS FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall shape checks passed")
    return 0


def _cmd_bench(args) -> int:
    from repro import bench

    paths = bench.write_bench_files(args.out_dir, args.runs, args.which)
    for path in paths:
        print(f"wrote {path}")
    if args.against:
        problems = bench.check_against(args.against, args.out_dir,
                                       args.threshold)
        if problems:
            print("PERF GATE FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"perf gate passed (threshold {args.threshold:.0%})")
    return 0


def _cmd_chaos(args) -> int:
    """Run the seeded chaos campaigns (fault storms + overload bursts
    over the figS serving topology) and gate on their verdicts."""
    from repro.testing.chaos import run_campaigns, standard_campaigns

    campaigns = standard_campaigns(requests=args.requests)
    if args.campaign:
        wanted = set(args.campaign)
        known = {c.name for c in campaigns}
        unknown = wanted - known
        if unknown:
            print(f"unknown campaign(s): {', '.join(sorted(unknown))}; "
                  f"known: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        campaigns = [c for c in campaigns if c.name in wanted]
    results = run_campaigns(campaigns)
    for result in results:
        print(result.summary())
    failed = [r for r in results if not r.ok]
    print(f"\nchaos: {len(results) - len(failed)}/{len(results)} "
          f"campaign(s) passed")
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    from repro.analysis import cli as lint_cli

    return lint_cli.run(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="M3v reproduction experiment runner")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # one option set shared by every subcommand: runner options plus the
    # observability flags; commands that do not run sweeps ignore them
    common = argparse.ArgumentParser(add_help=False)
    runner_group = common.add_argument_group("runner options")
    runner_group.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="worker processes for the sweep's points")
    runner_group.add_argument("--no-cache", action="store_true",
                              help="disable the content-addressed result "
                                   "cache")
    runner_group.add_argument("--refresh-cache", action="store_true",
                              help="ignore cached results but write fresh "
                                   "ones")
    runner_group.add_argument("--cache-dir", default=".repro-cache",
                              help="cache location (default .repro-cache)")
    obs_group = common.add_argument_group("observability options")
    obs_group.add_argument("--metrics", action="store_true",
                           help="meter the sweep and print aggregate "
                                "counters")
    obs_group.add_argument("--metrics-out", metavar="DIR",
                           help="write one metrics JSON snapshot per point "
                                "into DIR (created if missing)")

    sub.add_parser("area", parents=[common]).set_defaults(func=_cmd_area)
    sub.add_parser("sloc", parents=[common]).set_defaults(func=_cmd_sloc)
    for name, func in (("fig6", _cmd_fig6), ("fig7", _cmd_fig7),
                       ("fig8", _cmd_fig8), ("figR", _cmd_figr),
                       ("figS", _cmd_figs), ("voice", _cmd_voice)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--quick", action="store_true",
                       help="golden/smoke-scale workload")
        p.add_argument("--paper", action="store_true",
                       help="full paper-scale parameters")
        p.set_defaults(func=func)
    p = sub.add_parser("fig9", parents=[common])
    p.add_argument("--trace", choices=("find", "sqlite"), default="find")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--paper", action="store_true")
    p.set_defaults(func=_cmd_fig9)
    p = sub.add_parser("fig10", parents=[common])
    p.add_argument("--mix", choices=("read", "insert", "update",
                                     "mixed", "scan"), default="scan")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--paper", action="store_true")
    p.set_defaults(func=_cmd_fig10)

    for name, func, doc in (
            ("stats", _cmd_stats,
             "run a sweep with metrics on; print time series + counters"),
            ("profile", _cmd_profile,
             "run a sweep under the self-profiler; print wall-clock per "
             "subsystem")):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("sweep", choices=SWEEPS)
        p.add_argument("--quick", action="store_true",
                       help="golden/smoke-scale workload")
        p.add_argument("--paper", action="store_true",
                       help="full paper-scale parameters")
        p.add_argument("--trace", choices=("find", "sqlite"),
                       default="find", help="fig9 trace selection")
        p.add_argument("--mix", choices=("read", "insert", "update",
                                         "mixed", "scan"), default="scan",
                       help="fig10 mix selection")
        if name == "stats":
            p.add_argument("--series", action="append", metavar="SUBSTR",
                           help="only print series/counters whose name "
                                "contains SUBSTR (repeatable)")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "chaos", parents=[common],
        help="run seeded fault-storm + overload-burst campaigns against "
             "SLO floors and the invariant checkers")
    p.add_argument("--campaign", action="append", metavar="NAME",
                   help="run only this campaign (repeatable)")
    p.add_argument("--requests", type=int, default=10, metavar="N",
                   help="requests per gateway per phase (default 10)")
    p.set_defaults(func=_cmd_chaos)
    p = sub.add_parser("report", parents=[common])
    p.add_argument("results", help="JSON from scripts/run_experiments.py")
    p.set_defaults(func=_cmd_report)
    p = sub.add_parser("trace", parents=[common])
    p.add_argument("workload", choices=("fig6", "fig8"))
    p.add_argument("--diff", action="store_true",
                   help="compare against the committed golden digest")
    p.add_argument("--refresh", action="store_true",
                   help="rewrite the golden digest from this run")
    p.add_argument("--out", metavar="FILE",
                   help="write the full canonical trace JSON to FILE")
    p.add_argument("--spans", metavar="FILE",
                   help="export activity timeline spans as JSON to FILE")
    p.add_argument("--chrome", metavar="FILE",
                   help="export a Chrome trace_event file to FILE")
    p.set_defaults(func=_cmd_trace)
    p = sub.add_parser("bench", parents=[common])
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="where to write BENCH_engine.json / BENCH_figs.json "
                        "(default: current directory)")
    p.add_argument("--runs", type=int, default=3, metavar="N",
                   help="timed runs per benchmark; the best is kept")
    p.add_argument("--which", choices=("all", "engine", "figs"),
                   default="all", help="which BENCH file(s) to produce")
    p.add_argument("--against", metavar="DIR",
                   help="compare against the committed BENCH_*.json in DIR "
                        "and exit 1 on regression")
    p.add_argument("--threshold", type=float,
                   default=float(os.environ.get("PERF_THRESHOLD", "0.25")),
                   help="tolerated events/sec drop vs the committed "
                        "trajectory (default 0.25)")
    p.set_defaults(func=_cmd_bench)

    # deliberately NOT parented on `common`: lint must stay importable
    # without the runner/observability stacks
    from repro.analysis.cli import add_lint_arguments
    p = sub.add_parser(
        "lint", help="static analyzer: determinism, sim-concurrency, "
                     "layering (REP001-REP003)")
    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
