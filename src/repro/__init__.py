"""repro — a reproduction of "Efficient and Scalable Core Multiplexing
with M3v" (Asmussen et al., ASPLOS '22).

A cycle-approximate discrete-event simulation of the M3v tiled
platform (NoC, vDTU, TileMux, controller, OS services), the M3x
baseline it improves on, and the single-tile Linux baseline — plus the
paper's workloads and a benchmark harness that regenerates every table
and figure of the evaluation.  See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Entry points:

* :func:`repro.api.build_system` — assemble any platform through the
  facade (the only construction entry point; the old ``build_m3v``/
  ``build_m3x`` shims are gone);
* :mod:`repro.core.exps` — one experiment runner per table/figure;
* :mod:`repro.linuxsim` — the Linux baseline machine.

The legacy re-exports below resolve lazily (PEP 562) so that cheap
entry points — ``repro --version``, ``repro lint`` — never pay for the
platform stack's import time.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # static-analysis view of the lazy exports
    from repro.core import M3vPlatform, M3xPlatform  # noqa: F401

__version__ = "1.1.0"

_LAZY_EXPORTS = ("M3vPlatform", "M3xPlatform")

__all__ = [*_LAZY_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from repro import core
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
