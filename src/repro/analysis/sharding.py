"""REP004 — cross-shard isolation hazards.

In M³v, tiles affect each other only through DTU messages over the NoC.
The cross-shard causality check (:mod:`repro.sim.parallel`) enforces
that rule at runtime, but only for what it can see: events carry a
shard affinity stamped at creation, and a push that crosses shards
inside the NoC's lookahead bound is flagged.  Python will happily let
model code reach into another tile's state directly, or tamper with
the affinity the check relies on — which leaves no cross-shard push
to flag.  Three sub-checks police the boundary statically:

``foreign-tile-store``
    An attribute *store* through a ``.tiles[...]`` subscript
    (``plat.tiles[tid].mux = ...``) outside :mod:`repro.core.platform`.
    Tile objects belong to their shard; mutating one from outside the
    platform constructor is a cross-tile effect that never goes through
    the NoC.  Reads are fine — construction-time wiring and test
    assertions do them everywhere.

``active-shard``
    Any reference to ``_active_shard`` outside the engine, the parallel
    module, and the NoC fabric (the one sanctioned cross-shard
    boundary).  Shard affinity is scoped with
    ``Simulator.shard_scope(...)``; writing the field directly bypasses
    the save/restore discipline and leaks affinity into later events.

``event-shard-store``
    Assignment to an ``Event``'s ``.shard`` attribute outside
    :mod:`repro.sim.engine`.  Affinity is stamped once at creation from
    the active scope; re-stamping a live event hides a cross-shard push
    from the check or invents one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, LintContext, Rule

RULE_ID = "REP004"

# Exact module names — prefixes would exempt sibling modules (and the
# fixture mini-tree, which deliberately lives under repro.sim).
_ACTIVE_SHARD_MODULES = frozenset((
    "repro.sim.engine", "repro.sim.parallel", "repro.noc.fabric",
))
_TILE_STORE_MODULES = frozenset(("repro.core.platform",))
_EVENT_SHARD_MODULES = frozenset(("repro.sim.engine",))


def check(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.is_sim_critical:
        return
    yield from _check_foreign_tile_store(ctx)
    yield from _check_active_shard(ctx)
    yield from _check_event_shard_store(ctx)


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
                        "mutates another shard's tile object without "
                        "going through the NoC; wire tiles in "
                        "repro.core.platform (under shard_scope) or add "
                        "an explicit cross-shard message")
                    break
                inner = inner.value


def _check_active_shard(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _ACTIVE_SHARD_MODULES:
        return
    for node in ast.walk(ctx.tree):
        name = None
        if isinstance(node, ast.Attribute) and node.attr == "_active_shard":
            name = node
        elif isinstance(node, ast.Name) and node.id == "_active_shard":
            name = node
        if name is not None:
            yield ctx.finding(
                RULE_ID, "active-shard", name,
                "_active_shard is engine-internal; scope shard affinity "
                "with Simulator.shard_scope(...) so the save/restore "
                "discipline holds")


def _check_event_shard_store(ctx: LintContext) -> Iterator[Finding]:
    if ctx.module in _EVENT_SHARD_MODULES:
        return
    for node in ast.walk(ctx.tree):
        for target in _store_targets(node):
            if isinstance(target, ast.Attribute) and target.attr == "shard":
                yield ctx.finding(
                    RULE_ID, "event-shard-store", target,
                    "event shard affinity is stamped once at creation "
                    "from the active scope; create the event under "
                    "shard_scope(...) instead of re-stamping it")


RULE = Rule(
    id=RULE_ID,
    name="cross-shard-isolation",
    description=("tile-object stores outside the platform, _active_shard "
                 "access outside the engine, event shard re-stamping"),
    checker=check,
)
