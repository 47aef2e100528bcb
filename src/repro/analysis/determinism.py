"""REP001 — determinism hazards.

Four sub-checks, each targeting a way reproducibility has actually
been lost in discrete-event simulators:

``unordered-iter``
    Iteration over a ``set``/``frozenset`` in a sim-critical module,
    or a ``for`` loop over a dict view (``.keys()``/``.values()``/
    ``.items()``) whose body schedules events or yields.  Set order
    depends on insertion history and — for str elements — on
    ``PYTHONHASHSEED``; feeding it into the event queue reorders the
    trace.  Dict views preserve insertion order, so they are only
    flagged where the loop body visibly reaches the scheduler.
    Fix: wrap the iterable in ``sorted(...)``.

``entropy``
    Use of the process-global RNG (``random.random()`` and friends),
    wall-clock time (``time.time``/``perf_counter``/``sleep``...),
    ``uuid``, or ``os.urandom`` in library code outside the sanctioned
    host-side modules (``repro.runner`` seeding, ``repro.obs``
    profiling).  Seeded ``random.Random(seed)`` instances are the
    supported way to be random and are never flagged.

``id-ordering``
    ``id()``/``hash()`` calls in sim-critical library code (outside
    ``__repr__``/``__str__``/``__hash__``).  ``id()`` is an address —
    different every run; ``hash(str)`` is salted.  Either used as a
    tie-break or dict key that reaches trace output breaks digests.

``float-simtime``
    A float-producing expression (true division, a float literal, or
    ``float()``) flowing directly into simulated time: a ``timeout``
    argument, a ``delay=`` keyword of ``succeed``/``fail``, or a
    ``yield`` inside a process generator.  Simulated time is an
    integer (DESIGN.md section 5); floats drift and compare
    unpredictably.  Wrapping in ``round()``/``int()`` (or using
    ``//``) converts at a well-defined point and is accepted.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.core import Finding, LintContext, Rule

# random.* callables that tap the process-global RNG.  Constructing a
# seeded generator (Random/SystemRandom is its own finding elsewhere if
# misused) is fine.
_RANDOM_OK = {"Random"}
_TIME_BAD = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns", "sleep"}
_OS_BAD = {"urandom", "getrandom"}

# Callables whose result does not depend on iteration order: a set
# iterated straight into one of these is harmless.
_ORDER_INSENSITIVE = {"sum", "len", "min", "max", "any", "all", "sorted",
                      "set", "frozenset", "Counter"}

# Method names that reach the event queue or the trace stream.  A dict
# view driven loop whose body calls one of these schedules work in
# iteration order.
_SCHEDULING_NAMES = {
    "succeed", "fail", "process", "timeout", "put", "put_then", "send",
    "push", "spawn", "run_proc", "emit", "wake", "transmit", "deliver",
    "configure", "inject",
}

_REPR_LIKE = {"__repr__", "__str__", "__hash__", "__format__"}


def check(ctx: LintContext) -> Iterator[Finding]:
    yield from _check_unordered_iteration(ctx)
    yield from _check_entropy(ctx)
    yield from _check_id_ordering(ctx)
    yield from _check_float_simtime(ctx)


# -- unordered-iter -----------------------------------------------------------

def _set_like_names(tree: ast.Module) -> Set[str]:
    """Variable/attribute names this file visibly binds to sets."""
    names: Set[str] = set()

    def target_name(t: ast.AST) -> str:
        if isinstance(t, ast.Name):
            return t.id
        if isinstance(t, ast.Attribute):
            return t.attr
        return ""

    def is_set_expr(v: ast.AST) -> bool:
        if isinstance(v, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                and v.func.id in ("set", "frozenset"))

    def is_set_annotation(a: ast.AST) -> bool:
        if isinstance(a, ast.Name):
            return a.id in ("set", "frozenset")
        if isinstance(a, ast.Subscript):
            base = a.value
            if isinstance(base, ast.Name):
                return base.id in ("set", "frozenset", "Set", "FrozenSet")
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            return a.value.lstrip().startswith(("set", "Set", "frozenset",
                                                "FrozenSet"))
        return False

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_set_expr(node.value):
            for t in node.targets:
                n = target_name(t)
                if n:
                    names.add(n)
        elif isinstance(node, ast.AnnAssign):
            n = target_name(node.target)
            if n and (is_set_annotation(node.annotation)
                      or (node.value is not None and is_set_expr(node.value))):
                names.add(n)
    return names


def _is_set_iterable(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in set_names:
        return True
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items"))


def _body_schedules(node: ast.For) -> str:
    """The first scheduling construct in the loop body, or ''."""
    for stmt in node.body + node.orelse:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return "yield"
            if isinstance(sub, ast.Call):
                f = sub.func
                name = (f.attr if isinstance(f, ast.Attribute)
                        else f.id if isinstance(f, ast.Name) else "")
                if name in _SCHEDULING_NAMES:
                    return f"{name}()"
    return ""


def _order_insensitive_consumers(tree: ast.Module) -> Set[int]:
    """ids of comprehension/genexp nodes passed straight to an
    order-insensitive callable (``sum(x for x in s)`` and friends)."""
    ok: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE):
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.SetComp)):
                    ok.add(id(arg))
    return ok


def _check_unordered_iteration(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.is_sim_critical:
        return
    set_names = _set_like_names(ctx.tree)
    benign = _order_insensitive_consumers(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            if _is_set_iterable(node.iter, set_names):
                yield ctx.finding(
                    "REP001", "unordered-iter", node.iter,
                    "iteration over a set in a sim-critical module; "
                    "wrap in sorted(...) to fix the order")
            elif _is_dict_view(node.iter):
                sched = _body_schedules(node)
                if sched:
                    attr = node.iter.func.attr  # type: ignore[union-attr]
                    yield ctx.finding(
                        "REP001", "unordered-iter", node.iter,
                        f"loop over .{attr}() schedules events ({sched}) "
                        f"in iteration order; iterate sorted(...) so the "
                        f"event-queue order cannot depend on insertion "
                        f"history")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            if id(node) in benign or isinstance(node, ast.SetComp):
                continue
            for comp in node.generators:
                if _is_set_iterable(comp.iter, set_names):
                    yield ctx.finding(
                        "REP001", "unordered-iter", comp.iter,
                        "comprehension over a set in a sim-critical "
                        "module produces order-dependent results; wrap "
                        "in sorted(...)")


# -- entropy ------------------------------------------------------------------

def _entropy_import_aliases(tree: ast.Module) -> dict:
    """Local names bound to nondeterministic callables via imports."""
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random" and alias.name not in _RANDOM_OK:
                aliases[bound] = f"random.{alias.name}"
            elif node.module == "time" and alias.name in _TIME_BAD:
                aliases[bound] = f"time.{alias.name}"
            elif node.module == "uuid" and alias.name.startswith("uuid"):
                aliases[bound] = f"uuid.{alias.name}"
            elif node.module == "os" and alias.name in _OS_BAD:
                aliases[bound] = f"os.{alias.name}"
            elif (node.module == "datetime"
                  and alias.name in ("datetime", "date")):
                aliases[bound] = f"datetime.{alias.name}"
    return aliases


def _check_entropy(ctx: LintContext) -> Iterator[Finding]:
    # Scoped to library code: tests/examples may use seeded randomness
    # however they like; host-side modules own the process RNG/clock.
    if not ctx.is_library_code or ctx.is_host_module:
        return
    aliases = _entropy_import_aliases(ctx.tree)
    seen_lines = set()

    def emit(node: ast.AST, what: str) -> Finding:
        seen_lines.add(node.lineno)
        return ctx.finding(
            "REP001", "entropy", node,
            f"{what} is a nondeterministic source; simulation code must "
            f"draw randomness from a seeded random.Random and never read "
            f"the host clock (allowed only in repro.runner/repro.obs)")

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            mod, attr = node.value.id, node.attr
            if node.lineno in seen_lines:
                continue
            if mod == "random" and attr not in _RANDOM_OK \
                    and attr[:1].islower():
                yield emit(node, f"random.{attr}")
            elif mod == "time" and attr in _TIME_BAD:
                yield emit(node, f"time.{attr}")
            elif mod == "uuid" and attr.startswith("uuid"):
                yield emit(node, f"uuid.{attr}")
            elif mod == "os" and attr in _OS_BAD:
                yield emit(node, f"os.{attr}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in aliases and node.lineno not in seen_lines:
                yield emit(node, aliases[node.id])


# -- id-ordering --------------------------------------------------------------

def _check_id_ordering(ctx: LintContext) -> Iterator[Finding]:
    if not (ctx.is_sim_critical and ctx.is_library_code):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("id", "hash")):
            continue
        qual = ctx.qualname_at(node.lineno)
        leaf = qual.rsplit(".", 1)[-1] if qual else ""
        if leaf in _REPR_LIKE:
            continue
        yield ctx.finding(
            "REP001", "id-ordering", node,
            f"{node.func.id}() varies across runs (addresses / salted "
            f"hashes); never use it for ordering, tie-breaks, or keys "
            f"that can reach trace output")


# -- float-simtime ------------------------------------------------------------

def _float_hazard(expr: ast.AST) -> str:
    """'' if ``expr`` stays integral, else a description of the hazard.

    ``round()``/``int()`` calls and floor division produce ints, so
    their subtrees are not descended into.
    """
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("int", "round", "len"):
                continue  # result is integral; arguments may be float
            if isinstance(f, ast.Name) and f.id == "float":
                return "float() call"
            # other calls: unknown return type, do not descend
            continue
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return "true division (/)"
            stack.extend((node.left, node.right))
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        stack.extend(ast.iter_child_nodes(node))
    return ""


def _check_float_simtime(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.is_sim_critical:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Yield) and node.value is not None:
            hazard = _float_hazard(node.value)
            if hazard:
                yield ctx.finding(
                    "REP001", "float-simtime", node,
                    f"{hazard} in a yielded delay: simulated time is an "
                    f"integer; convert with round()/int() or use //")
        elif isinstance(node, ast.Call):
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else f.id if isinstance(f, ast.Name) else "")
            if name == "timeout" and node.args:
                hazard = _float_hazard(node.args[0])
                if hazard:
                    yield ctx.finding(
                        "REP001", "float-simtime", node.args[0],
                        f"{hazard} in a timeout() delay: simulated time "
                        f"is an integer; convert with round()/int() or "
                        f"use //")
            elif name in ("succeed", "fail"):
                for kw in node.keywords:
                    if kw.arg == "delay":
                        hazard = _float_hazard(kw.value)
                        if hazard:
                            yield ctx.finding(
                                "REP001", "float-simtime", kw.value,
                                f"{hazard} in a {name}(delay=...) value: "
                                f"simulated time is an integer; convert "
                                f"with round()/int() or use //")


RULE = Rule(
    id="REP001",
    name="determinism-hazards",
    description=("unordered set/dict iteration, nondeterministic sources, "
                 "id()/hash() ordering, float simulated time"),
    checker=check,
)
