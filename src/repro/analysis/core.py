"""Analyzer infrastructure: findings, policy, suppressions, the runner.

Everything here is stdlib-only and import-cheap — the CI gate invokes
``repro lint`` on every push, so startup must not drag the experiment
stack in (see ``tests/test_cli_light.py``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DEFAULT_TARGETS",
    "Finding",
    "LintContext",
    "all_rules",
    "collect_files",
    "run_lint",
]


# -- policy -------------------------------------------------------------------
#
# The rules need to know which modules *matter* for determinism.  Two
# orthogonal classifications:
#
# * sim-critical — modules that schedule events or emit trace records;
#   an unordered iteration here can reorder the event queue and break
#   every golden digest.
# * host-side — modules that legitimately touch wall-clock time or the
#   process RNG: the runner's per-point seeding, the bench harness'
#   fingerprinting/timing, and the observability layer's self-profiler.
#
# Examples build platforms and schedule events, so they count as
# sim-critical; tests are sim-critical for iteration hazards but may use
# seeded randomness freely (the entropy check is scoped to library code
# under src/).

SIM_CRITICAL_PREFIXES = (
    "repro.sim", "repro.dtu", "repro.noc", "repro.mux", "repro.kernel",
    "repro.tiles", "repro.services", "repro.apps", "repro.posix",
    "repro.linuxsim", "repro.core.exps", "repro.faults", "repro.workloads",
    "repro.testing",
)

HOST_MODULE_PREFIXES = (
    "repro.runner", "repro.obs", "repro.analysis",
    "repro.cli", "repro.hw", "repro.core.report",
)

# Package layer order for REP003: an import whose target ranks *above*
# the importing package goes upward through the stack and is flagged.
# Equal ranks may import each other (kernel <-> mux <-> services form
# the OS layer; core <-> api <-> testing form the experiment layer).
LAYER_RANKS = {
    "sim": 0,
    "noc": 1, "obs": 1,
    "dtu": 2,
    "tiles": 3, "hw": 3, "linuxsim": 3,
    "kernel": 4, "mux": 4, "services": 4, "posix": 4, "workloads": 4,
    "faults": 5, "apps": 5,
    "core": 6, "api": 6, "testing": 6,
    "runner": 7,
    "cli": 8, "analysis": 8, "__main__": 8, "__init__": 8,
}

# Default lint targets, relative to the repo root.
DEFAULT_TARGETS = ("src", "tests", "examples", "scripts")

# Directories never collected when walking the default targets (fixture
# files *are* lintable when named explicitly — the tests do exactly
# that).
EXCLUDED_DIR_NAMES = {
    "__pycache__", ".git", ".repro-cache", ".pytest_cache",
    "lint_fixtures", "golden",
}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule family, sub-check, and precise location."""

    rule: str          # e.g. "REP001"
    check: str         # e.g. "unordered-iter"
    path: str          # repo-relative posix path
    line: int
    col: int
    message: str
    symbol: str = ""   # enclosing def/class qualname

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class LintContext:
    """Everything a rule needs to analyze one file."""

    def __init__(self, path: Path, root: Path, source: str):
        self.abs_path = path
        self.root = root
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = path
        self.path = rel.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.module = module_name_for(self.path)
        self._scopes = _scope_spans(self.tree)

    # -- policy queries -------------------------------------------------------

    @property
    def is_sim_critical(self) -> bool:
        if self.module.startswith(SIM_CRITICAL_PREFIXES):
            return True
        top = self.path.split("/", 1)[0]
        return top in ("examples", "tests")

    @property
    def is_host_module(self) -> bool:
        return self.module.startswith(HOST_MODULE_PREFIXES)

    @property
    def is_library_code(self) -> bool:
        """True for modules under ``src/repro`` (the shipped library)."""
        return self.module.startswith("repro")

    # -- helpers --------------------------------------------------------------

    def qualname_at(self, line: int) -> str:
        """Innermost def/class qualname containing ``line`` ('' = module)."""
        best = ""
        best_span = None
        for start, end, name in self._scopes:
            if start <= line <= end:
                if best_span is None or (end - start) < best_span:
                    best, best_span = name, end - start
        return best

    def finding(self, rule: str, check: str, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule=rule, check=check, path=self.path, line=line,
                       col=col, message=message,
                       symbol=self.qualname_at(line))

    def suppressed_rules(self, line: int) -> Optional[Set[str]]:
        """Rule IDs silenced on ``line`` (empty set = all), or None."""
        if not (1 <= line <= len(self.lines)):
            return None
        m = _NOQA_RE.search(self.lines[line - 1])
        if m is None:
            return None
        rules = m.group("rules")
        if rules is None:
            return set()
        return {r.strip().upper() for r in rules.split(",") if r.strip()}

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressed_rules(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule in rules


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``; files outside
    ``src`` keep their top directory as the root package
    (``tests.test_noc``, ``examples.quickstart``).
    """
    p = Path(rel_path)
    parts = list(p.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scope_spans(tree: ast.Module) -> List[Tuple[int, int, str]]:
    spans: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno)
                spans.append((child.lineno, end, qual))
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


# -- rule registry ------------------------------------------------------------

@dataclass
class Rule:
    """One rule family: an ID, a description, and a checker callable."""

    id: str
    name: str
    description: str
    checker: object = field(repr=False, default=None)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return self.checker(ctx)


_REGISTRY: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> Dict[str, Rule]:
    """The registry (id -> Rule), loading the rule modules on demand."""
    if not _REGISTRY:
        from repro.analysis import concurrency, determinism, isolation, layering

        register(determinism.RULE)
        register(concurrency.RULE)
        register(layering.RULE)
        register(isolation.RULE)
    return dict(_REGISTRY)


# -- collection and the runner ------------------------------------------------

def collect_files(targets: Sequence[str], root: Path) -> List[Path]:
    """Python files under ``targets`` (files or directories).

    Directory walks skip ``EXCLUDED_DIR_NAMES``; explicitly named files
    are always included, which is how the fixture tests lint
    known-bad snippets that live inside an excluded directory.
    """
    files: List[Path] = []
    seen = set()
    for target in targets:
        p = Path(target)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            if p not in seen:
                seen.add(p)
                files.append(p)
            continue
        if not p.is_dir():
            continue
        for f in sorted(p.rglob("*.py")):
            # exclusion is judged below the walk target, so a fixture
            # mini-tree can be linted by naming it as the target even
            # though default walks skip it
            if any(part in EXCLUDED_DIR_NAMES
                   for part in f.relative_to(p).parts):
                continue
            if f not in seen:
                seen.add(f)
                files.append(f)
    return files


def run_lint(targets: Sequence[str] = DEFAULT_TARGETS,
             root: Optional[Path] = None,
             select: Optional[Iterable[str]] = None,
             ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run every enabled rule over ``targets``; returns sorted findings.

    ``select`` keeps only the named rule IDs; ``ignore`` drops the
    named ones.  ``# repro: noqa`` suppressions are applied here, so
    callers only ever see actionable findings.
    """
    root = Path.cwd() if root is None else Path(root)
    rules = all_rules()
    enabled = set(rules)
    if select is not None:
        wanted = {s.upper() for s in select}
        unknown = wanted - enabled
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        enabled &= wanted
    if ignore is not None:
        enabled -= {s.upper() for s in ignore}

    findings: List[Finding] = []
    for path in collect_files(targets, root):
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError):
            continue
        try:
            ctx = LintContext(path, root, source)
        except SyntaxError:
            findings.append(Finding(
                rule="REP000", check="syntax-error", path=str(path), line=1,
                col=1, message="file does not parse; skipped"))
            continue
        for rule_id in sorted(enabled):
            for finding in rules[rule_id].check(ctx):
                if not ctx.is_suppressed(finding):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.check))
    return findings
