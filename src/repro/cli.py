"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``area``      print Table 1 and the derived ratios
``sloc``      print the section-6.1 complexity report
``fig6|fig7|fig8|fig9|fig10|figR|figS|voice``
              run one experiment and print its section of the report
              (:func:`repro.core.report.render_report`, what ``report``
              prints for a ``run_experiments.py`` dump).  The sizes
              come from the plan table (:mod:`repro.core.exps.plans`):
              ``quick`` by default, ``smoke`` under ``--quick`` and
              ``paper`` under ``--paper``; ``--trace`` picks fig9's
              entry and ``--mix`` fig10's points.  All of these go
              through the parallel runner: ``--jobs N`` fans the
              sweep's points over N worker processes, and results are
              served from the content-addressed ``.repro-cache/``
              unless ``--no-cache`` (``--refresh-cache`` re-simulates
              and rewrites the entries)
``stats <sweep>``
              simulate a sweep with the metrics layer on and print
              per-point time series (queue depths) and histograms, plus
              every counter summed over the points; ``--metrics-out
              DIR`` also writes each point's snapshot.  The only way to
              meter a sweep: it never reads or writes the cache
``profile <sweep>``
              simulate a sweep serially with the simulator
              self-profiler and print wall-clock per subsystem +
              events/sec.  The only way to profile a sweep
              (``stats`` and ``profile`` take the same size flags, and
              ``--trace``/``--mix`` for fig9/fig10 only)
``report <results.json>``
              render a full run_experiments.py dump + shape checks
``trace fig6|fig8|figS_m3v|figS_m3x``
              record a deterministic execution trace of a golden
              workload; ``--diff`` checks it against the committed
              golden digest, ``--refresh`` rewrites the golden file,
              ``--out`` dumps the full canonical JSON, ``--spans`` /
              ``--chrome`` export activity timelines
``lint``      run the repo's own static analyzer (REP001 determinism,
              REP002 sim-concurrency, REP003 layering, REP004
              cross-tile isolation); exit 1 on any finding

No parser takes an abbreviated option: ``--no-cach`` is not
``--no-cache``.  Experiment modules import lazily: ``repro
--version`` and ``repro lint`` never load the platform stack.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__

SWEEPS = ("fig6", "fig7", "fig8", "fig9", "fig10", "figR", "figS", "voice")
TRACES = ("find", "sqlite")                            # fig9's entries
# repro.testing.golden.GOLDEN_WORKLOADS, named here so that building
# the parser imports no model code
GOLDENS = ("fig6", "fig8", "figS_m3v", "figS_m3x")
MIXES = ("read", "insert", "update", "mixed", "scan")  # fig10's points


def _open_out(path):
    """Open ``path`` for writing, creating missing parent directories."""
    p = Path(path)
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return open(p, "w")


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


# -- the plan table -----------------------------------------------------------

def _points(name: str, args) -> list:
    """The points ``name`` runs at the requested size: the plan table's
    ``paper`` entry under ``--paper``, ``smoke`` under ``--quick`` and
    ``quick`` otherwise; fig9's entry for ``--trace``, fig10's points
    for ``--mix``."""
    from repro.core.exps.plans import PLANS

    size = "paper" if args.paper else "smoke" if args.quick else "quick"
    trace = getattr(args, "trace", None)
    (points,) = [points for sweep, sub, points in PLANS[size]
                 if sweep == name and sub in (None, trace)]
    if name == "fig10":
        points = [pt for pt in points if pt.mix == args.mix]
    return points


def _cmd_figure(args) -> int:
    """Run one figure's sweep and print its section of the report, as
    ``run_experiments.py`` would store it (fig9 keyed by its trace)."""
    from repro.core.report import render_report
    from repro.runner import ResultCache, Runner

    cache = None if args.no_cache else ResultCache(
        root=args.cache_dir, refresh=args.refresh_cache)
    runner = Runner(jobs=args.jobs, cache=cache,
                    progress=args.jobs > 1 and sys.stderr.isatty())
    result = runner.run_sweep(args.command, _points(args.command, args))
    if args.command == "fig9":
        result = {args.trace: result}
    print(render_report({args.command: result}))
    return 0


# -- observability commands ---------------------------------------------------

def _config_label(config) -> str:
    label = repr(config)
    return label if len(label) <= 72 else label[:69] + "..."


def _series_line(name: str, points) -> str:
    values = [v for _, v in points]
    if not values:
        return f"  {name:<40} (empty)"
    mean = sum(values) / len(values)
    return (f"  {name:<40} n={len(values):<5d} min={min(values):<10g} "
            f"mean={mean:<10.6g} max={max(values):<10g} last={values[-1]:g}")


def _cmd_stats(args) -> int:
    """Simulate ``<sweep>`` with metrics on; print per-point time series
    (queue depths) and histograms, and the counters summed over the
    points; ``--metrics-out`` also writes each point's snapshot."""
    from repro.obs import MetricsRegistry
    from repro.runner import Runner

    runner = Runner(jobs=args.jobs, metrics=True,
                    progress=args.jobs > 1 and sys.stderr.isatty())
    runner.run_sweep(args.sweep, _points(args.sweep, args))
    outcomes = [o for o in runner.last_outcomes if o.metrics is not None]
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
    if args.metrics_out:
        out_dir = Path(args.metrics_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for o in outcomes:
            path = out_dir / f"{o.spec.sweep}-{o.spec.index}.metrics.json"
            with open(path, "w") as fh:
                json.dump(o.metrics, fh, sort_keys=True)
                fh.write("\n")
        print(f"metrics: {len(outcomes)} snapshot(s) written to "
              f"{out_dir}/", file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    """Run ``<sweep>`` serially under the self-profiler; print
    wall-clock per subsystem and events/sec."""
    from repro.obs import SelfProfiler
    from repro.runner import Runner

    runner = Runner(profile=True)  # self-profiling stays in-process
    runner.run_sweep(args.sweep, _points(args.sweep, args))
    profiles = [o.profile for o in runner.last_outcomes
                if o.profile is not None]
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


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated option; its subparsers are
    of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(prog="repro",
                     description="M3v reproduction experiment runner")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads: the figure commands
    # the runner options, stats --jobs (it always simulates), the rest
    # none; --trace and --mix only for the sweep that reads each
    def runner_options(p, cache: bool) -> None:
        group = p.add_argument_group("runner options")
        group.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes for the sweep's points")
        if cache:
            group.add_argument("--no-cache", action="store_true",
                               help="disable the content-addressed result "
                                    "cache")
            group.add_argument("--refresh-cache", action="store_true",
                               help="ignore cached results but write "
                                    "fresh ones")
            group.add_argument("--cache-dir", default=".repro-cache",
                               help="cache location (default .repro-cache)")

    def size_options(p) -> None:
        p.add_argument("--quick", action="store_true",
                       help="golden/smoke-scale workload")
        p.add_argument("--paper", action="store_true",
                       help="full paper-scale parameters")

    sub.add_parser("area").set_defaults(func=_cmd_area)
    sub.add_parser("sloc").set_defaults(func=_cmd_sloc)
    for name in SWEEPS:
        p = sub.add_parser(name)
        runner_options(p, cache=True)
        size_options(p)
        if name == "fig9":
            p.add_argument("--trace", choices=TRACES, default="find")
        if name == "fig10":
            p.add_argument("--mix", choices=MIXES, default="scan")
        p.set_defaults(func=_cmd_figure)

    sweep_commands = {}
    for name, func, doc in (
            ("stats", _cmd_stats,
             "simulate a sweep with metrics on; print time series + "
             "counters"),
            ("profile", _cmd_profile,
             "simulate a sweep serially under the self-profiler; print "
             "wall-clock per subsystem")):
        p = sweep_commands[name] = sub.add_parser(name, help=doc)
        p.add_argument("sweep", choices=SWEEPS)
        size_options(p)
        p.add_argument("--trace", choices=TRACES,
                       help="fig9's trace (default find)")
        p.add_argument("--mix", choices=MIXES,
                       help="fig10's mix (default scan)")
        if name == "stats":
            runner_options(p, cache=False)
            p.add_argument("--metrics-out", metavar="DIR",
                           help="write one metrics JSON snapshot per point "
                                "into DIR (created if missing)")
            p.add_argument("--series", action="append", metavar="SUBSTR",
                           help="only print series/counters whose name "
                                "contains SUBSTR (repeatable)")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "chaos",
        help="run seeded fault-storm + overload-burst campaigns against "
             "SLO floors and the invariant checkers")
    p.add_argument("--campaign", action="append", metavar="NAME",
                   help="run only this campaign (repeatable)")
    p.add_argument("--requests", type=int, default=10, metavar="N",
                   help="requests per gateway per phase (default 10)")
    p.set_defaults(func=_cmd_chaos)
    p = sub.add_parser("report")
    p.add_argument("results", help="JSON from scripts/run_experiments.py")
    p.set_defaults(func=_cmd_report)
    p = sub.add_parser("trace")
    p.add_argument("workload", choices=GOLDENS)
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

    from repro.analysis.cli import add_lint_arguments
    p = sub.add_parser(
        "lint", help="static analyzer: determinism, sim-concurrency, "
                     "layering (REP001-REP003)")
    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    if args.command in sweep_commands:
        for option, sweep, default in (("trace", "fig9", "find"),
                                       ("mix", "fig10", "scan")):
            if getattr(args, option) is None:
                setattr(args, option, default)
            elif args.sweep != sweep:
                sweep_commands[args.command].error(
                    f"--{option} applies to {sweep} only")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
