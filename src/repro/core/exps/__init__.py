"""Experiment runners: one module per table/figure of the paper.

Each figure is a sweep of pure, picklable *point functions*: a frozen
``*Point`` config in, a plain result out.  The point is the figure's
only config, and its field defaults are the paper-scale values.
``*_points(...)`` lists a figure's points: its keyword arguments are
the sweep axes a caller may set (fig9's tile counts, fig10's mixes,
figR's fault rates, figS's loads) plus any point field, so
``fig6_points()`` is the paper-scale figure and ``fig6_points(
iterations=10, warmup=2)`` a smaller one.  ``reduce_*(points,
values)`` assembles the figure's result structure from each value and
the point it came from.

:mod:`repro.runner` runs the sweeps (``Runner().run_sweep(name,
points)`` is the one way to run a whole figure), and
:mod:`repro.core.exps.plans` holds the one table of sizes (``smoke``,
``quick``, ``paper``) that the CLI and ``scripts/run_experiments.py``
run.  ``scripts/run_experiments.py`` commits the results to
``experiment_results.json`` and EXPERIMENTS.md prints them.

This package imports nothing: a caller that imports one figure module
directly (the repo benchmark's set-up times exactly that) loads only
that module and what it uses, and the registry
(:mod:`repro.runner.registry`) imports each figure module itself.
"""
