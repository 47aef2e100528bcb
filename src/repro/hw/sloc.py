"""Software complexity (section 6.1).

The paper reports source lines of code as a complexity proxy: the M3v
controller is 11.5k SLOC of Rust (900 unsafe), TileMux adds 1.7k (50
unsafe), and the NOVA microkernel — comparable to the controller — is
about 9k SLOC of C++.  We record those numbers and provide a counter
for this reproduction's own components, so the *ratio* between
controller and tile-local multiplexer can be compared.
"""

from __future__ import annotations

import os
from typing import Dict

# the paper's measurements (cargo-count)
PAPER_SLOC: Dict[str, Dict[str, object]] = {
    "controller": {"sloc": 11_500, "unsafe": 900, "language": "Rust"},
    "tilemux": {"sloc": 1_700, "unsafe": 50, "language": "Rust"},
    "nova": {"sloc": 9_000, "unsafe": None, "language": "C++"},
}

# which of our packages/modules play which role.  The tilemux role is
# the tile-local M3v multiplexer and its activity library — NOT the M3x
# baseline machinery (mostly controller-side by design), which would
# inflate the paper's complexity claim.
ROLE_PACKAGES = {
    "controller": ["repro.kernel"],
    "tilemux": ["repro.mux.tilemux", "repro.mux.api", "repro.mux.mediated",
                "repro.mux.recovery"],
}


def count_module_sloc(path: str) -> int:
    """Source lines: non-blank, non-comment (docstrings counted as code
    the way cargo-count counts Rust doc comments... it does not — so we
    skip pure comment lines only)."""
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def count_package_sloc(package_name: str) -> int:
    """SLOC of one of this repo's packages or single modules."""
    import importlib

    package = importlib.import_module(package_name)
    if not hasattr(package, "__path__"):   # a plain module, not a package
        return count_module_sloc(package.__file__)
    root = os.path.dirname(package.__file__)
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(".py"):
                total += count_module_sloc(os.path.join(dirpath, filename))
    return total


def complexity_report() -> Dict[str, Dict[str, object]]:
    """Paper vs this reproduction, per role; includes the key ratio
    (TileMux is a small fraction of the controller's complexity)."""
    report: Dict[str, Dict[str, object]] = {}
    for role, packages in ROLE_PACKAGES.items():
        ours = sum(count_package_sloc(p) for p in packages)
        report[role] = {
            "paper_sloc": PAPER_SLOC[role]["sloc"],
            "ours_sloc": ours,
        }
    report["tilemux_to_controller_ratio"] = {
        "paper": PAPER_SLOC["tilemux"]["sloc"] / PAPER_SLOC["controller"]["sloc"],
        "ours": (report["tilemux"]["ours_sloc"]
                 / max(1, report["controller"]["ours_sloc"])),
    }
    return report
