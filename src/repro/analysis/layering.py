"""REP003 — layering violations.

The package stack is layered (DESIGN.md section 4): the simulation
kernel knows nothing about hardware models, hardware models know
nothing about the OS layer, and everything reaches experiments through
the ``repro.api`` facade.  Two sub-checks:

``upward-import``
    An import whose target package ranks *above* the importing package
    in :data:`repro.analysis.core.LAYER_RANKS` — e.g. ``repro.sim``
    importing from ``repro.dtu``.  Upward imports create cycles,
    defeat differential testing of the kernel, and let hardware-model
    details leak into the scheduler.  Imports guarded by
    ``if TYPE_CHECKING:`` are annotation-only and exempt.

``facade-bypass``
    Experiments, examples, or benchmarks constructing systems through
    the removed legacy builders (``build_m3v``/``build_m3``/
    ``build_m3x``) or by instantiating the platform classes directly
    instead of going through ``repro.api.build_system``.  The shims
    themselves are deleted; the name check stays so stale code fails
    review with a pointer to the facade, not an AttributeError.
    White-box unit tests under ``tests/`` are exempt — they
    legitimately poke platform internals.

``env-config``
    A ``repro.*`` module reading a ``REPRO_*`` environment variable
    directly (``os.environ[...]``, ``os.environ.get``, ``os.getenv``)
    instead of going through :func:`repro.sim.envcfg.raw`.  Scattered
    environment reads are how configuration precedence rules rot;
    ``repro.sim.envcfg`` is the single declared home.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import LAYER_RANKS, Finding, LintContext, Rule

RULE_ID = "REP003"

_LEGACY_BUILDERS = {"build_m3v", "build_m3", "build_m3x"}
_PLATFORM_CLASSES = {"M3vPlatform", "M3Platform", "M3xPlatform",
                     "LinuxMachine"}

# Modules allowed to touch the builders/platform classes: the facade
# itself, the layer that defines them, and the package root's legacy
# re-exports.
_FACADE_ALLOWED_PREFIXES = ("repro.core", "repro.api", "repro.linuxsim")
_FACADE_ALLOWED_MODULES = ("repro", "repro.__init__")


def check(ctx: LintContext) -> Iterator[Finding]:
    yield from _check_upward_imports(ctx)
    yield from _check_facade_bypass(ctx)
    yield from _check_env_config(ctx)


# -- upward-import ------------------------------------------------------------

def _type_checking_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (test.id if isinstance(test, ast.Name)
                else test.attr if isinstance(test, ast.Attribute) else "")
        if name == "TYPE_CHECKING":
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines


def _package_of(module: str) -> str:
    """Second dotted component of a repro module ('' otherwise)."""
    parts = module.split(".")
    if parts[0] != "repro":
        return ""
    return parts[1] if len(parts) > 1 else "__init__"


def _check_upward_imports(ctx: LintContext) -> Iterator[Finding]:
    src_pkg = _package_of(ctx.module)
    if src_pkg not in LAYER_RANKS:
        return
    src_rank = LAYER_RANKS[src_pkg]
    annotation_only = _type_checking_lines(ctx.tree)
    for node in ast.walk(ctx.tree):
        targets = []
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            if node.module == "repro":
                # `from repro import faults` imports the submodule, not
                # the package root; resolve each alias that names a
                # known layer
                targets = [f"repro.{a.name}" for a in node.names
                           if a.name in LAYER_RANKS]
            else:
                targets = [node.module]
        for target in targets:
            if not target.startswith("repro"):
                continue
            tgt_pkg = _package_of(target)
            tgt_rank = LAYER_RANKS.get(tgt_pkg)
            if tgt_rank is None or tgt_pkg == src_pkg:
                continue
            if tgt_rank > src_rank and node.lineno not in annotation_only:
                yield ctx.finding(
                    RULE_ID, "upward-import", node,
                    f"repro.{src_pkg} (layer {src_rank}) imports "
                    f"{target} (layer {tgt_rank}): lower layers must "
                    f"not depend on higher ones; invert the dependency "
                    f"or gate it behind TYPE_CHECKING")


# -- facade-bypass ------------------------------------------------------------

def _facade_applies(ctx: LintContext) -> bool:
    top = ctx.path.split("/", 1)[0]
    if top == "tests":
        return False
    if ctx.module.startswith(_FACADE_ALLOWED_PREFIXES):
        return False
    if ctx.module in _FACADE_ALLOWED_MODULES:
        return False
    return True


def _check_facade_bypass(ctx: LintContext) -> Iterator[Finding]:
    if not _facade_applies(ctx):
        return
    annotation_only = _type_checking_lines(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro") and not node.level:
            if node.lineno in annotation_only:
                continue
            for alias in node.names:
                if alias.name in _LEGACY_BUILDERS:
                    yield ctx.finding(
                        RULE_ID, "facade-bypass", node,
                        f"import of deprecated builder {alias.name}; "
                        f"construct systems via repro.api.build_system("
                        f"SystemConfig(...)) so every layer is attached "
                        f"uniformly")
        elif isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else "")
            if name in _LEGACY_BUILDERS:
                # the import was flagged above; flagging the call too
                # would double-report, so only catch attribute-style
                # calls (repro.core.build_m3v(...)) here
                if isinstance(f, ast.Attribute):
                    yield ctx.finding(
                        RULE_ID, "facade-bypass", node,
                        f"call to deprecated builder {name}; use "
                        f"repro.api.build_system(SystemConfig(...))")
            elif name in _PLATFORM_CLASSES and isinstance(f, ast.Name):
                yield ctx.finding(
                    RULE_ID, "facade-bypass", node,
                    f"direct {name}(...) construction bypasses the "
                    f"repro.api facade; use build_system(SystemConfig("
                    f"kind=...)) instead")


# -- env-config ---------------------------------------------------------------

# The single module allowed to read REPRO_* variables directly.
_ENV_HOME = "repro.sim.envcfg"


def _is_os_environ(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _repro_var(node: ast.expr) -> str:
    """The REPRO_* name if ``node`` is such a string constant, else ''."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.startswith("REPRO_"):
        return node.value
    return ""


def _check_env_config(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro.") or ctx.module == _ENV_HOME:
        return
    for node in ast.walk(ctx.tree):
        var = ""
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value) \
                and isinstance(node.ctx, ast.Load):
            var = _repro_var(node.slice)
        elif isinstance(node, ast.Call) and node.args:
            f = node.func
            if isinstance(f, ast.Attribute) and (
                    (f.attr == "get" and _is_os_environ(f.value))
                    or (f.attr == "getenv" and isinstance(f.value, ast.Name)
                        and f.value.id == "os")):
                var = _repro_var(node.args[0])
        if var:
            yield ctx.finding(
                RULE_ID, "env-config", node,
                f"direct read of {var}; all REPRO_* environment "
                f"access goes through repro.sim.envcfg.raw() so the "
                f"declared-knob list and precedence rules stay in one "
                f"place")


RULE = Rule(
    id=RULE_ID,
    name="layering",
    description=("upward imports against the package layer order; "
                 "system construction bypassing the repro.api facade; "
                 "REPRO_* env reads outside repro.sim.envcfg"),
    checker=check,
)
