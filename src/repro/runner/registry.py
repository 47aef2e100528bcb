"""The sweep registry: a figure as data.

A :class:`Sweep` declares an experiment as a list of points plus a
reducer: ``points()`` lists the sweep's frozen per-point configs at
paper scale (the built-in figures' ``*_points`` functions also take
the sweep axes and point fields as keywords, which is how
:mod:`repro.core.exps.plans` sizes them), ``point_fn(config)``
simulates exactly one point (pure, picklable — it builds its own
platforms), and ``reduce(points, values)`` assembles the figure's
result structure from each value and the point it came from.  The scheduler
(:mod:`repro.runner.scheduler`) only ever sees this interface, so
fanning a figure out over worker processes cannot change its results.

Every cache key covers the whole ``repro`` package and the ``REPRO_*``
environment (:func:`repro.runner.cache.code_fingerprint`), so editing
any simulator module re-simulates every sweep.  ``fingerprint_paths``
lists extra files to hash into the sweep's keys, for sweeps whose
point functions read code from outside the package; the built-in
figures need none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Sweep", "get_sweep", "register", "sweep_names", "unregister"]


@dataclass(frozen=True)
class Sweep:
    name: str
    points: Callable[..., List[Any]]
    point_fn: Callable[[Any], Any]
    reduce: Callable[[List[Any], List[Any]], Any]
    fingerprint_paths: Tuple[str, ...] = field(default_factory=tuple)


SWEEPS: Dict[str, Sweep] = {}
_BUILTIN_LOADED = False


def register(sweep: Sweep, replace: bool = False) -> Sweep:
    if sweep.name in SWEEPS and not replace:
        raise ValueError(f"sweep {sweep.name!r} already registered")
    SWEEPS[sweep.name] = sweep
    return sweep


def unregister(name: str) -> None:
    SWEEPS.pop(name, None)


def get_sweep(name: str) -> Sweep:
    _load_builtin()
    try:
        return SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; known: "
                       f"{', '.join(sorted(SWEEPS))}") from None


def sweep_names() -> List[str]:
    _load_builtin()
    return sorted(SWEEPS)


def _load_builtin() -> None:
    """Register the paper's figures on first use (import-cycle safe)."""
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    from repro.core.exps import (ablations, fig6, fig7, fig8, fig9, fig10,
                                 figr, figs, voice)

    builtin = [
        ("fig6", fig6.fig6_points, fig6.run_fig6_point, fig6.reduce_fig6),
        ("fig7", fig7.fig7_points, fig7.run_fig7_point, fig7.reduce_fig7),
        ("fig8", fig8.fig8_points, fig8.run_fig8_point, fig8.reduce_fig8),
        ("fig9", fig9.fig9_points, fig9.run_fig9_point, fig9.reduce_fig9),
        ("fig10", fig10.fig10_points, fig10.run_fig10_point,
         fig10.reduce_fig10),
        ("voice", voice.voice_points, voice.run_voice_point,
         voice.reduce_voice),
        ("figR", figr.figr_points, figr.run_figr_point, figr.reduce_figr),
        ("figS", figs.figs_points, figs.run_figs_point, figs.reduce_figs),
        ("ablations", ablations.ablation_points,
         ablations.run_ablation_point, ablations.reduce_ablations),
    ]
    for name, points, point_fn, reduce in builtin:
        if name in SWEEPS:       # a test replaced it before first load
            continue
        register(Sweep(name=name, points=points, point_fn=point_fn,
                       reduce=reduce))
