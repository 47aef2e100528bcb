"""The sweep registry: a figure as data.

A :class:`Sweep` declares an experiment as a list of points plus a
reducer: ``points(params)`` expands sweep-level parameters into frozen
per-point configs, ``point_fn(config)`` simulates exactly one point
(pure, picklable — it builds its own platforms), and
``reduce(params, values)`` assembles the figure's result structure from
the point values *in points order*.  The scheduler
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
    points: Callable[[Any], List[Any]]
    point_fn: Callable[[Any], Any]
    reduce: Callable[[Any, List[Any]], Any]
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
    from repro.core import exps
    from repro.core.exps import ablations

    builtin = [
        ("fig6", exps.fig6_points, exps.run_fig6_point, exps.reduce_fig6),
        ("fig7", exps.fig7_points, exps.run_fig7_point, exps.reduce_fig7),
        ("fig8", exps.fig8_points, exps.run_fig8_point, exps.reduce_fig8),
        ("fig9", exps.fig9_points, exps.run_fig9_point, exps.reduce_fig9),
        ("fig10", exps.fig10_points, exps.run_fig10_point,
         exps.reduce_fig10),
        ("voice", exps.voice_points, exps.run_voice_point, exps.reduce_voice),
        ("figR", exps.figr_points, exps.run_figr_point, exps.reduce_figr),
        ("figS", exps.figs_points, exps.run_figs_point, exps.reduce_figs),
        ("ablations", ablations.ablation_points,
         ablations.run_ablation_point, ablations.reduce_ablations),
    ]
    for name, points, point_fn, reduce in builtin:
        if name in SWEEPS:       # a test replaced it before first load
            continue
        register(Sweep(name=name, points=points, point_fn=point_fn,
                       reduce=reduce))
