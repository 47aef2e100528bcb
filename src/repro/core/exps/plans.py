"""The sizes the figures run at: one table of three plans.

* ``paper`` — each sweep's default points (paper scale), fig9 once per
  trace.  ``scripts/run_experiments.py`` runs it to write
  ``experiment_results.json``, and ``repro <figure> --paper`` runs its
  entry.
* ``quick`` — shortened workloads: ``scripts/run_experiments.py
  --quick`` (the CI smoke) and ``repro <figure>`` by default.
* ``smoke`` — the smallest workloads, the golden-trace sizes of fig6
  and fig8: ``repro <figure> --quick``.

Each entry is ``(sweep, fig9 trace or None, points)``, in the order the
results file lists them.  ``ablations`` has one size, so every plan
runs its points as they are.  Only the CLI and the script import this
module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.exps.ablations import ablation_points
from repro.core.exps.fig6 import fig6_points
from repro.core.exps.fig7 import fig7_points
from repro.core.exps.fig8 import fig8_points
from repro.core.exps.fig9 import fig9_points
from repro.core.exps.fig10 import fig10_points
from repro.core.exps.figr import figr_points
from repro.core.exps.figs import figs_points
from repro.core.exps.voice import voice_points

Entry = Tuple[str, Optional[str], List[Any]]

PLANS: Dict[str, List[Entry]] = {
    "smoke": [
        ("fig6", None, fig6_points(iterations=10, warmup=2)),
        ("fig7", None, fig7_points(file_bytes=128 * 1024, runs=1,
                                   warmup=1)),
        ("fig8", None, fig8_points(repetitions=5, warmup=1)),
        *[("fig9", trace, fig9_points(tile_counts=(1, 2), trace=trace,
                                      runs=1, find_dirs=4, find_files=6,
                                      sqlite_txns=4))
          for trace in ("find", "sqlite")],
        ("fig10", None, fig10_points(records=30, operations=30, runs=1,
                                     warmup=0)),
        ("voice", None, voice_points(triggers=2)),
        ("figR", None, figr_points(fault_rates=(0.0, 0.1), messages=10)),
        ("figS", None, figs_points(loads=(0.7, 2.0), ablation_loads=(2.0,),
                                   requests=10)),
        ("ablations", None, ablation_points()),
    ],
    "quick": [
        ("fig6", None, fig6_points(iterations=150, warmup=15)),
        ("fig7", None, fig7_points(file_bytes=512 * 1024, runs=2,
                                   warmup=1)),
        ("fig8", None, fig8_points(repetitions=15, warmup=3)),
        ("fig9", "find", fig9_points(tile_counts=(1, 2, 4), trace="find",
                                     runs=1, find_dirs=6, find_files=10)),
        ("fig9", "sqlite", fig9_points(tile_counts=(1, 2, 4),
                                       trace="sqlite", runs=1,
                                       sqlite_txns=8)),
        ("fig10", None, fig10_points(records=60, operations=60, runs=1,
                                     warmup=0)),
        ("voice", None, voice_points(triggers=4)),
        ("figR", None, figr_points(fault_rates=(0.0, 0.1), messages=15)),
        ("figS", None, figs_points(loads=(0.7, 1.0, 1.5, 2.0),
                                   ablation_loads=(2.0,), requests=30)),
        ("ablations", None, ablation_points()),
    ],
    "paper": [
        ("fig6", None, fig6_points()),      # 1000 RPCs + 50 warmup
        ("fig7", None, fig7_points()),      # 2 MiB, 10 runs + 4 warmup
        ("fig8", None, fig8_points()),      # 50 reps + 5 warmup
        ("fig9", "find", fig9_points(trace="find")),
        ("fig9", "sqlite", fig9_points(trace="sqlite")),
        ("fig10", None, fig10_points()),    # 2 runs + 1 warmup
        ("voice", None, voice_points()),
        ("figR", None, figr_points()),
        ("figS", None, figs_points()),
        ("ablations", None, ablation_points()),
    ],
}
