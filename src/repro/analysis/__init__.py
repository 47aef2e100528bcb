"""``repro.analysis`` — a determinism & sim-concurrency static analyzer.

The whole reproduction rests on byte-identical determinism (golden
trace digests, exact-event-count perf gates) and on subtle
sim-concurrency protocols (the section 3.7 lost-wakeup race the M3v
design avoids).  None of those properties are visible to a generic
linter: one unordered ``set`` iteration feeding the event queue, one
stray ``random.random()`` outside the seeded plumbing, or one
``id()``-based tie-break silently breaks every golden digest.  This
package is an AST-based linter purpose-built for this codebase; it
runs as ``repro lint`` and as a hard CI gate
(``scripts/check_lint.sh``).

Rule families
-------------

========  ============================================================
REP001    determinism hazards: unordered ``set``/``frozenset``/dict
          iteration in sim-critical modules, nondeterministic sources
          (``random``/``time``/``uuid``/``os.urandom``) outside the
          sanctioned host-side modules, ``id()``/``hash()`` ordering,
          float arithmetic flowing into simulated-time scheduling
REP002    sim-concurrency hazards: yielding non-``Event``/int values
          from process generators, double ``Event.succeed``/``fail``
          on one static path, non-generator callables passed to
          ``Simulator.process``, blocking host calls inside process
          bodies
REP003    layering: upward imports against the package layer order,
          and experiments bypassing the ``repro.api`` facade
========  ============================================================

Suppression
-----------

A finding on a line carrying ``# repro: noqa[REP001]`` (or a bare
``# repro: noqa``) is suppressed.  Every other finding fails the gate.
See DESIGN.md section 14.
"""

from repro.analysis.core import (
    DEFAULT_TARGETS,
    Finding,
    LintContext,
    all_rules,
    collect_files,
    run_lint,
)
from repro.analysis.report import findings_to_json, format_human

__all__ = [
    "DEFAULT_TARGETS",
    "Finding",
    "LintContext",
    "all_rules",
    "collect_files",
    "findings_to_json",
    "format_human",
    "run_lint",
]
