"""Render experiment results as ASCII figures and the EXPERIMENTS.md
paper-vs-measured report.

Consumed by ``scripts/run_experiments.py`` and the CLI
(``python -m repro report``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping

BAR_WIDTH = 44


def bar_chart(title: str, values: Mapping[str, float], unit: str = "",
              width: int = BAR_WIDTH) -> str:
    """A horizontal ASCII bar chart, like the paper's figures.

    NaN values (e.g. the mean of a histogram that never got a sample)
    render as an em-dash row instead of poisoning the whole chart.
    """
    if not values:
        return f"{title}\n  (no data)"
    finite = [v for v in values.values() if not math.isnan(v)]
    peak = (max(finite) if finite else 0.0) or 1.0
    label_w = max(len(k) for k in values)
    lines = [title]
    for name, value in values.items():
        if math.isnan(value):
            lines.append(f"  {name:{label_w}s} |{'':{width}s} — {unit}")
            continue
        bar = "#" * max(1, round(width * value / peak))
        lines.append(f"  {name:{label_w}s} |{bar:<{width}s} {value:,.1f} {unit}")
    return "\n".join(lines)


def series_chart(title: str, series: Mapping[str, Mapping[int, float]],
                 x_label: str = "tiles", unit: str = "") -> str:
    """A small multi-series table (for the Figure 9 scaling curves)."""
    xs = sorted({x for ys in series.values() for x in ys})
    label_w = max(len(k) for k in series)
    lines = [title,
             "  " + " " * label_w + "".join(f"{x:>9}" for x in xs)
             + f"   ({x_label})"]
    for name, ys in series.items():
        cells = "".join(
            f"{'—':>9s}" if math.isnan(ys.get(x, float("nan")))
            else f"{ys[x]:9.0f}" for x in xs)
        lines.append(f"  {name:{label_w}s}{cells}   {unit}")
    return "\n".join(lines)


def format_duration(seconds: float) -> str:
    """Compact wall-clock rendering for progress and summary lines."""
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def progress_line(sweep: str, done: int, total: int, cached: int,
                  elapsed_s: float, eta_s: float) -> str:
    """One scheduler progress tick, e.g. ``[fig9] 7/24 ...``."""
    cached_part = f", {cached} cached" if cached else ""
    return (f"[{sweep}] {done}/{total} points{cached_part}, "
            f"{format_duration(elapsed_s)} elapsed, "
            f"eta {format_duration(eta_s)}")


def runner_summary(runner, elapsed_s: float = None) -> str:
    """End-of-run line for a :class:`repro.runner.Runner`.

    With self-profiling on (``Runner(profile=True)``), the per-subsystem
    wall-clock table merged over every simulated point is appended."""
    parts = [f"runner: {runner.total_points} points",
             f"{runner.simulated} simulated",
             f"{runner.served} from cache (jobs={runner.jobs})"]
    line = " — ".join([parts[0], ", ".join(parts[1:])])
    failed = getattr(runner, "failed", 0)
    if failed:
        line += f", {failed} FAILED"
    if elapsed_s is not None:
        line += f" in {format_duration(elapsed_s)}"
    if getattr(runner, "profile", False):
        outcomes = (getattr(runner, "all_outcomes", None)
                    or getattr(runner, "last_outcomes", []))
        profiles = [o.profile for o in outcomes
                    if o is not None and o.profile]
        if profiles:
            from repro.obs import SelfProfiler

            merged = SelfProfiler()
            for p in profiles:
                merged.merge(p)
            line += "\nself-profile (merged over simulated points):\n"
            line += merged.table()
    return line


def render_report(results: Dict) -> str:
    """The full ASCII report over a run_experiments results dict."""
    parts: List[str] = []

    if "table1" in results:
        t1 = results["table1"]
        parts.append(
            f"Table 1 — vDTU {t1['vdtu_kluts']} kLUTs = "
            f"{t1['vdtu_of_boom']:.1%} of BOOM / "
            f"{t1['vdtu_of_rocket']:.1%} of Rocket; "
            f"virtualization adds {t1['virt_overhead']:.1%} logic")

    if "fig6" in results:
        parts.append(bar_chart(
            "Figure 6 — no-op round trips (k cycles)",
            {k: v["kcycles"] for k, v in results["fig6"].items()},
            unit="kcy"))

    if "fig7" in results:
        parts.append(bar_chart("Figure 7 — file throughput (MiB/s)",
                               results["fig7"], unit="MiB/s"))

    if "fig8" in results:
        parts.append(bar_chart("Figure 8 — UDP RTT (us)",
                               results["fig8"], unit="us"))

    if "fig9" in results:
        for trace, series in results["fig9"].items():
            normalized = {sys: {int(k): v for k, v in ys.items()}
                          for sys, ys in series.items()}
            parts.append(series_chart(
                f"Figure 9 — {trace} throughput (runs/s)", normalized))

    if "fig10" in results:
        for mix, systems in results["fig10"].items():
            parts.append(bar_chart(
                f"Figure 10 — YCSB {mix}-heavy, total runtime (s)",
                {sys: row["total_s"] for sys, row in systems.items()},
                unit="s"))

    if "figR" in results:
        figr = {sys: {float(k): v for k, v in ys.items()}
                for sys, ys in results["figR"].items()}
        rates = sorted({r for ys in figr.values() for r in ys})
        label_w = max(len(s) for s in figr)
        lines = ["Figure R — resilience: goodput (round trips/s) vs "
                 "NoC fault rate",
                 "  " + " " * label_w + "".join(f"{r:>9.0%}" for r in rates)]
        for sys_name, ys in figr.items():
            cells = "".join(
                f"{'—':>9s}" if ys.get(r) is None
                else f"{ys[r]['goodput_rps']:9.0f}" for r in rates)
            lines.append(f"  {sys_name:{label_w}s}{cells}   rps")
        parts.append("\n".join(lines))

    if "figS" in results:
        figs = {arm: {float(k): v for k, v in ys.items()}
                for arm, ys in results["figS"].items()}
        loads = sorted({x for ys in figs.values() for x in ys})
        label_w = max(len(s) for s in figs)
        lines = ["Figure S — serving under overload: goodput (rps) vs "
                 "offered load (x saturation), faults on"]
        header = "  " + " " * label_w + "".join(f"{x:>9.1f}x" for x in loads)
        lines.append(header)
        for arm, ys in figs.items():
            cells = "".join(
                f"{'—':>10s}" if ys.get(x) is None
                else f"{ys[x]['goodput_rps']:10.0f}" for x in loads)
            lines.append(f"  {arm:{label_w}s}{cells}   rps")
        lines.append("  p99 latency (us):")
        for arm, ys in figs.items():
            cells = "".join(
                f"{'—':>10s}" if ys.get(x) is None
                else f"{ys[x]['p99_us']:10.0f}" for x in loads)
            lines.append(f"  {arm:{label_w}s}{cells}   us")
        parts.append("\n".join(lines))

    if "voice" in results:
        v = results["voice"]
        parts.append(
            f"Voice assistant — isolated {v['isolated_ms']:.1f} ms, "
            f"shared {v['shared_ms']:.1f} ms "
            f"(+{v['overhead_pct']:.1f}%; paper: +3.6%)")

    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# shape checks: the qualitative claims the reproduction must uphold
# ---------------------------------------------------------------------------

def shape_checks(results: Dict) -> List[str]:
    """Verify the paper's qualitative claims; returns failures."""
    failures: List[str] = []

    def expect(cond: bool, claim: str) -> None:
        if not cond:
            failures.append(claim)

    fig6 = results.get("fig6")
    if fig6:
        expect(0.5 < fig6["m3v_remote"]["kcycles"]
               / fig6["linux_syscall"]["kcycles"] < 1.5,
               "fig6: M3v remote RPC ~ Linux syscall")
        expect(fig6["m3v_local"]["kcycles"]
               > 2.5 * fig6["m3v_remote"]["kcycles"],
               "fig6: local RPC much dearer than remote")

    fig7 = results.get("fig7")
    if fig7:
        expect(fig7["m3v_read_shared"] > fig7["linux_read"],
               "fig7: M3v read beats Linux even shared")
        expect(fig7["linux_write"] < fig7["linux_read"],
               "fig7: writes slower than reads")

    fig9 = results.get("fig9", {})
    for trace, series in fig9.items():
        m3v = {int(k): v for k, v in series["m3v"].items()}
        m3x = {int(k): v for k, v in series["m3x"].items()}
        top = max(m3v)
        expect(m3v[1] > 1.3 * m3x[1],
               f"fig9/{trace}: ~2x single-tile advantage")
        expect(m3v[top] / m3v[1] > 0.65 * top,
               f"fig9/{trace}: near-linear M3v scaling")
        expect(m3x[top] < 1.4 * m3x[min(4, top)],
               f"fig9/{trace}: M3x plateaus")

    fig10 = results.get("fig10", {})
    if "scan" in fig10:
        expect(fig10["scan"]["linux"]["total_s"]
               > fig10["scan"]["m3v_shared"]["total_s"],
               "fig10: Linux loses on scans")

    voice = results.get("voice")
    if voice:
        expect(0 < voice["overhead_pct"] < 15,
               "voice: small sharing overhead")

    figs = results.get("figS")
    if figs and "m3v" in figs and "m3x" in figs:
        m3v = {float(k): v for k, v in figs["m3v"].items()}
        m3x = {float(k): v for k, v in figs["m3x"].items()}
        ok_v = {x: r for x, r in m3v.items() if r is not None}
        if ok_v:
            peak = max(r["goodput_rps"] for r in ok_v.values())
            top = max(ok_v)
            if top >= 1.5 and peak > 0:
                expect(ok_v[top]["goodput_rps"] >= 0.8 * peak,
                       "figS: M3v goodput at overload >= 80% of peak")
            low = max((x for x in ok_v if x <= 0.7), default=None)
            if low is not None:
                # over offered requests: shed and failed ones are misses
                row = ok_v[low]
                offered = row["completed"] + row["shed"] + row["failed"]
                expect(row["slo_met"] >= 0.95 * max(1, offered),
                       "figS: p99 SLO holds up to 70% utilization on M3v")
            both = max((x for x in ok_v if m3x.get(x) is not None),
                       default=None)
            if both is not None and both >= 1.5:
                expect(ok_v[both]["goodput_rps"]
                       > m3x[both]["goodput_rps"],
                       "figS: M3x slow path collapses under overload")
                expect(ok_v[both]["p99_us"] < m3x[both]["p99_us"],
                       "figS: M3v tail latency beats M3x under overload")

    if figs and "m3v_static" in figs and "m3v_adapt" in figs:
        static = {float(k): v for k, v in figs["m3v_static"].items()}
        adapt = {float(k): v for k, v in figs["m3v_adapt"].items()}
        for load in sorted(k for k in static
                           if static[k] is not None
                           and adapt.get(k) is not None):
            s, a = static[load], adapt[load]
            slo = s["tenants"]["gold"]["slo_us"]
            expect(s["tenants"]["gold"]["p99_us"] > slo,
                   f"figS: packed static layout breaks gold p99 SLO "
                   f"under skew @ {load}x")
            expect(a["tenants"]["gold"]["p99_us"] <= slo,
                   f"figS: adaptive placement holds gold p99 SLO @ {load}x")
            expect(a["migrations"] > 0 and s["migrations"] == 0,
                   f"figS: only the adaptive arm live-migrates @ {load}x")

    figr = results.get("figR")
    if figr and "m3v" in figr and "m3x" in figr:
        m3v = {float(k): v for k, v in figr["m3v"].items()}
        m3x = {float(k): v for k, v in figr["m3x"].items()}
        top = max((r for r in m3v if r > 0 and m3v[r] and m3x.get(r)),
                  default=None)
        if top is not None:
            expect(m3v[top]["goodput_rps"] > m3x[top]["goodput_rps"],
                   "figR: M3v degrades more gracefully than M3x")
            expect(m3v[top]["failures"] == 0,
                   "figR: no abandoned round trips on M3v")

    return failures
