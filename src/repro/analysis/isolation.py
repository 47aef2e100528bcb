"""REP004 — cross-tile isolation hazards.

In M³v, tiles affect each other only through DTU messages over the NoC.
The cross-tile causality check (:mod:`repro.sim.parallel`) enforces
that rule at runtime, but only for what it can see: events carry a
home tile stamped at creation, and a push from one tile to another
inside the NoC's lookahead bound raises.  Python will happily let
model code reach into another tile's state directly, or tamper with
the stamp the check relies on — which leaves no cross-tile push to
flag.  Three sub-checks police the boundary statically:

``foreign-tile-store``
    An attribute *store* through a ``.tiles[...]`` subscript
    (``plat.tiles[tid].mux = ...``) outside :mod:`repro.core.platform`.
    Tile objects belong to their tile; mutating one from outside the
    platform constructor is a cross-tile effect that never goes through
    the NoC.  Reads are fine — construction-time wiring and test
    assertions do them everywhere.

``active-tile``
    Any reference to ``_active_tile`` outside the engine, the parallel
    module, and the NoC fabric (the one sanctioned cross-tile
    boundary).  The active tile is scoped with
    ``Simulator.tile_scope(...)``; writing the field directly bypasses
    the save/restore discipline and leaks the tile into later events.

``event-tile-store``
    Assignment to an ``Event``'s ``.home_tile`` attribute outside
    :mod:`repro.sim.engine`.  The home tile is stamped once at creation
    from the active scope; re-stamping a live event hides a cross-tile
    push from the check or invents one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintContext, Rule

RULE_ID = "REP004"

# Exact module names — prefixes would exempt sibling modules (and the
# fixture mini-tree, which deliberately lives under repro.sim).
_ACTIVE_TILE_MODULES = frozenset((
    "repro.sim.engine", "repro.sim.parallel", "repro.noc.fabric",
))
_TILE_STORE_MODULES = frozenset(("repro.core.platform",))
_EVENT_TILE_MODULES = frozenset(("repro.sim.engine",))


def check(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.is_sim_critical:
        return
    yield from _check_foreign_tile_store(ctx)
    yield from _check_active_tile(ctx)
    yield from _check_event_tile_store(ctx)


def _is_tiles_subscript(node: ast.AST) -> bool:
    """``<expr>.tiles[...]`` or ``tiles[...]``."""
    if not isinstance(node, ast.Subscript):
        return False
    value = node.value
    if isinstance(value, ast.Attribute):
        return value.attr == "tiles"
    return isinstance(value, ast.Name) and value.id == "tiles"


def _store_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target


def _check_foreign_tile_store(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _TILE_STORE_MODULES:
        return
    for node in ast.walk(ctx.tree):
        for target in _store_targets(node):
            # peel attribute chains: plat.tiles[t].dtu.stats = ...
            inner = target
            while isinstance(inner, (ast.Attribute, ast.Subscript)):
                if isinstance(inner, ast.Attribute) \
                        and _is_tiles_subscript(inner.value):
                    yield ctx.finding(
                        RULE_ID, "foreign-tile-store", target,
                        "attribute store through a .tiles[...] subscript "
                        "mutates another tile's object without going "
                        "through the NoC; wire tiles in "
                        "repro.core.platform (under tile_scope) or add "
                        "an explicit cross-tile message")
                    break
                inner = inner.value


def _check_active_tile(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _ACTIVE_TILE_MODULES:
        return
    for node in ast.walk(ctx.tree):
        name = None
        if isinstance(node, ast.Attribute) and node.attr == "_active_tile":
            name = node
        elif isinstance(node, ast.Name) and node.id == "_active_tile":
            name = node
        if name is not None:
            yield ctx.finding(
                RULE_ID, "active-tile", name,
                "_active_tile is engine-internal; scope it with "
                "Simulator.tile_scope(...) so the save/restore "
                "discipline holds")


def _check_event_tile_store(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _EVENT_TILE_MODULES:
        return
    for node in ast.walk(ctx.tree):
        for target in _store_targets(node):
            if (isinstance(target, ast.Attribute)
                    and target.attr == "home_tile"):
                yield ctx.finding(
                    RULE_ID, "event-tile-store", target,
                    "an event's home tile is stamped once at creation "
                    "from the active scope; create the event under "
                    "tile_scope(...) instead of re-stamping it")


RULE = Rule(
    id=RULE_ID,
    name="cross-tile-isolation",
    description=("tile-object stores outside the platform, _active_tile "
                 "access outside the engine, event home-tile re-stamping"),
    checker=check,
)
