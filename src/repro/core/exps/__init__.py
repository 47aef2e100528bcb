"""Experiment runners: one module per table/figure of the paper.

Each runner builds the right platform(s), executes the workload, and
returns plain result rows that ``scripts/run_experiments.py`` commits
to ``experiment_results.json`` and EXPERIMENTS.md prints.  Paper-scale
parameters are the defaults of each ``*Params`` dataclass; the quick
plans shrink them.

Every figure is additionally decomposed into pure, picklable *point
functions* (a frozen ``*Point`` config in, a plain result out) plus a
``reduce_*`` function that assembles the figure's result structure from
the point values in order.  ``run_*`` is exactly
``reduce(map(point_fn, points))``, so the serial entry points and the
parallel runner (:mod:`repro.runner`) execute identical code per point
— the basis of the serial/parallel parity guarantee.

The ablations (:mod:`repro.core.exps.ablations`) are a sweep of the
same shape, with one size and so no ``*Params`` class.  This package
does not import them; :mod:`repro.runner.registry` does when it
registers the sweeps.  So a caller that imports one figure module
directly (the repo benchmark's set-up times exactly that) does not pay
to compile them.
"""

from repro.core.exps.fig6 import (
    Fig6Params, Fig6Point, fig6_points, reduce_fig6, run_fig6,
    run_fig6_point,
)
from repro.core.exps.fig7 import (
    Fig7Params, Fig7Point, fig7_points, reduce_fig7, run_fig7,
    run_fig7_point,
)
from repro.core.exps.fig8 import (
    Fig8Params, Fig8Point, fig8_points, reduce_fig8, run_fig8,
    run_fig8_point,
)
from repro.core.exps.fig9 import (
    Fig9Params, Fig9Point, fig9_points, reduce_fig9, run_fig9,
    run_fig9_point,
)
from repro.core.exps.fig10 import (
    Fig10Params, Fig10Point, fig10_points, reduce_fig10, run_fig10,
    run_fig10_point,
)
from repro.core.exps.figr import (
    FigRParams, FigRPoint, figr_points, reduce_figr, run_figr,
    run_figr_point,
)
from repro.core.exps.figs import (
    FigSParams, FigSPoint, figs_points, reduce_figs, run_figs,
    run_figs_point,
)
from repro.core.exps.voice import (
    VoiceParams, VoicePoint, reduce_voice, run_voice, run_voice_point,
    voice_points,
)

__all__ = [
    "Fig6Params", "Fig6Point", "fig6_points", "run_fig6_point",
    "reduce_fig6", "run_fig6",
    "Fig7Params", "Fig7Point", "fig7_points", "run_fig7_point",
    "reduce_fig7", "run_fig7",
    "Fig8Params", "Fig8Point", "fig8_points", "run_fig8_point",
    "reduce_fig8", "run_fig8",
    "Fig9Params", "Fig9Point", "fig9_points", "run_fig9_point",
    "reduce_fig9", "run_fig9",
    "Fig10Params", "Fig10Point", "fig10_points", "run_fig10_point",
    "reduce_fig10", "run_fig10",
    "FigRParams", "FigRPoint", "figr_points", "run_figr_point",
    "reduce_figr", "run_figr",
    "FigSParams", "FigSPoint", "figs_points", "run_figs_point",
    "reduce_figs", "run_figs",
    "VoiceParams", "VoicePoint", "voice_points", "run_voice_point",
    "reduce_voice", "run_voice",
]
