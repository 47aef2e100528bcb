"""The repo benchmark: four workloads, end-to-end host metrics, per-layer
self time and exact work counts.

    python bench/run.py [--workloads NAME ...] [--seed N] [--reps N]
                        [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
                        [--raw-spans]

Each workload is measured in fresh single-threaded subprocesses
(``bench/worker.py``), one after another:

* 7 *setup* subprocesses time importing the workload and building its
  systems (``setup_s``, their median);
* one *timed* subprocess runs a checked warmup rep at ``--seed``, then
  the timed reps (``wall_s``, their median; ``peak_rss_mb``);
* one *spans* subprocess runs one rep under the layer wrappers and
  writes ``<out>/<workload>.layers.json``;
* one *count* subprocess runs one rep under a counting tracer.

``--trace 0`` measures only the end-to-end metrics, ``--trace 1`` only
the per-layer ones; without ``--trace`` both.  ``--seconds S`` takes
timed reps until S seconds of them are done (at least 3); ``--reps N``
takes exactly N; the default is 7.  Every metric is printed by name
with its unit; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and each run is
appended to ``<out>/runs.jsonl`` for ``bench/compare.py``.

Exit status: 0 when every op passed, 1 when an op failed (the result
line is still printed), 2 when the environment is refused or a
measurement could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from counts import EVQ_CLASSES, STAT_COUNTS, TRACE_COUNTS  # noqa: E402
from spans import SELF_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: variables that change the simulator's engine or policies; the
#: benchmark measures the defaults only
REFUSED_ENV = ("REPRO_SHARDS", "REPRO_SCHEDULER", "REPRO_NOC_BATCH",
               "REPRO_SCHED")
SETUP_RUNS = 7
SMOKE_SETUP_RUNS = 2
SMOKE_REPS = 2
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A measurement could not be taken."""


def refused_env() -> List[str]:
    return [name for name in REFUSED_ENV if os.environ.get(name)]


def fingerprint() -> Dict[str, Any]:
    fp: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
        "loadavg": os.getloadavg(),
    }
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(field):
                        fp[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return fp


def child(mode: str, workload: str, *flags: str) -> Dict[str, Any]:
    """Run one worker subprocess and return its result object."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, *flags]
    # numpy (imported by repro) would otherwise start an OpenBLAS pool
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload}: no result within "
                         f"{CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload}: worker exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def summary(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and n of one metric's samples."""
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "samples": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def e2e_metrics(timed: Dict, setups: List[Dict]) -> Dict[str, Dict]:
    return {"wall_s": summary(timed["walls"]),
            "setup_s": summary([s["setup_s"] for s in setups]),
            "peak_rss_mb": summary([timed["peak_rss_mb"]])}


def per_layer_metrics(timed: Dict, spans: Dict, count: Dict) -> Dict[str, float]:
    calls = spans["calls"]
    counts = count["counts"]

    def layer_calls(layer: str) -> int:
        return sum(calls.get(layer, {}).values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = statistics.median(timed["walls"]) if timed["walls"] else 0.0
    factor = spans["factor"]  # the spans rep's, like wall_s's
    m: Dict[str, float] = {name: spans["self_s"].get(layer, 0.0) * factor
                           for name, layer in SELF_METRICS.items()}
    m["mux.api.calls"] = layer_calls("mux.api")
    m["mux.api.sleeps"] = calls.get("mux.api", {}).get("sleep_us", 0)
    m["dtu.cmd.calls"] = layer_calls("dtu.cmd")
    m["services.serving.calls"] = layer_calls("services.serving")
    for name, kind in TRACE_COUNTS.items():
        m[name] = counts["trace"].get(kind, 0)
    for name, counters in STAT_COUNTS.items():
        m[name] = sum(counts["stats"].get(c, 0) for c in counters)
    for cls in EVQ_CLASSES:
        m[f"sim.evq.{cls}"] = counts["evq"].get(cls, 0)
    m["sim.events_per_op"] = ratio(m["sim.events"], count["ops"])
    m["sim.events_per_s"] = ratio(timed["events"] or 0, wall)
    m["sim.trace.emits"] = calls.get("sim.trace", {}).get("emit", 0)
    m["mux.api.fetch_hit_ratio"] = ratio(
        counts["trace"].get("msg_fetch", 0),
        calls.get("mux.api", {}).get("fetch", 0))
    m["services.serving.admit_ratio"] = ratio(
        counts["stats"].get("serving/admitted", 0), count["offered"])
    m["services.m3fs.client_calls"] = layer_calls("services.m3fs.client")
    m["trace_overhead"] = ratio(spans["wall_s"] * factor, wall)
    return m


def run_workload(name: str, args) -> Dict[str, Any]:
    """Measure one workload; returns its run record."""
    smoke = ["--smoke"] if args.smoke else []
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    n_setup = SMOKE_SETUP_RUNS if args.smoke else SETUP_RUNS
    setups = ([child("setup", name, *smoke) for _ in range(n_setup)]
              if want_e2e else [])
    reps = args.reps if args.reps is not None else (
        SMOKE_REPS if args.smoke and args.seconds is None else None)
    timed_flags = ["--seed", str(args.seed), *smoke]
    if reps is not None:
        timed_flags += ["--reps", str(reps)]
    elif args.seconds is not None:
        timed_flags += ["--seconds", str(args.seconds)]
    timed = child("timed", name, *timed_flags)
    results = [timed]
    spans = count = None
    if want_layers:
        raw = ["--raw-spans"] if args.raw_spans else []
        spans = child("spans", name, "--out", str(args.out), *raw, *smoke)
        count = child("count", name, *smoke)
        results += [spans, count]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    # the pinned-seed reps of every run must agree: tracing and
    # wrapping may not change what the program computes
    for label, r in (("spans", spans), ("count", count)):
        if r is not None and r["outputs"] != timed["outputs"]:
            failed += 1
            problems.append(f"{label} run outputs {r['outputs']} differ from "
                            f"the timed run's {timed['outputs']}")
    record: Dict[str, Any] = {
        "workload": name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace,
        "attempted": attempted, "failed": failed, "problems": problems,
        "outputs": timed["outputs"], "events": timed["events"],
        "raw": {"walls": timed["raw_walls"], "factors": timed["factors"],
                "setup_s": [s["raw_setup_s"] for s in setups],
                "setup_probes": [s["probes"] for s in setups]},
    }
    if want_e2e:
        record["e2e"] = e2e_metrics(timed, setups)
    if want_layers:
        record["per_layer"] = per_layer_metrics(timed, spans, count)
        record["counts"] = count["counts"]
    return record


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_values(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Dict]:
    """The record's metrics as ``{name: {"value", "unit"}}``, checked
    against the names ``BENCHMARK.json`` declares."""
    sections = []
    if "e2e" in record:
        sections.append(("end_to_end", {k: v["value"]
                                        for k, v in record["e2e"].items()}))
    if "per_layer" in record:
        sections.append(("per_layer", record["per_layer"]))
    out: Dict[str, Dict] = {}
    for section, values in sections:
        units = {m["name"]: m["unit"] for m in spec[section]}
        if set(values) != set(units):
            raise BenchError(f"{section} metrics {sorted(values)} do not "
                             f"match BENCHMARK.json {sorted(units)}")
        for name in units:
            out[name] = {"value": values[name], "unit": units[name]}
    return out


def print_record(record: Dict[str, Any], metrics: Dict[str, Dict]) -> None:
    name = record["workload"]
    print(f"== {name}: {record['failed']}/{record['attempted']} failed ops, "
          f"{record['events']} events per rep")
    for problem in record["problems"]:
        print(f"   FAILED: {problem}", file=sys.stderr)
    e2e = record.get("e2e", {})
    for metric, mv in metrics.items():
        line = f"   {metric:<32} {mv['value']:>16.6g} {mv['unit']}"
        if metric in e2e:
            s = e2e[metric]
            line += f"   (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        print(line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workloads", "--workload", nargs="+",
                        choices=sorted(WORKLOADS), default=list(WORKLOADS),
                        metavar="NAME")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the checked warmup rep (default 1)")
    parser.add_argument("--reps", type=int, help="timed reps (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="take timed reps until this many seconds of "
                             "them are done (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes of every workload, for the tests")
    parser.add_argument("--raw-spans", action="store_true",
                        help="also write the first 10k spans to layers.json")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()

    refused = refused_env()
    if refused:
        print(f"bench: refusing to run with {', '.join(refused)} set: the "
              f"benchmark measures the default engine", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    fp = fingerprint()
    print(f"host: {json.dumps(fp)}")
    spec = load_spec()
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads:
            record = run_workload(name, args)
            record["fingerprint"] = fp
            values = metric_values(record, spec)
            print_record(record, values)
            with open(args.out / "runs.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
            attempted += record["attempted"]
            failed += record["failed"]
            single = len(args.workloads) == 1
            for metric, mv in values.items():
                metrics[metric if single else f"{name}.{metric}"] = mv
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
