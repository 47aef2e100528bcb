"""The published numbers come from the committed results file.

EXPERIMENTS.md is written by hand.  These tests tie it to
``experiment_results.json``: every cell of the Figure S tables must
equal the committed value at the precision it is printed with, and the
committed results must pass every shape check of
:func:`repro.core.report.shape_checks`.
"""

import json
from pathlib import Path

from repro.core.report import shape_checks

ROOT = Path(__file__).resolve().parent.parent

#: column-header arm prefix -> figS arm
ARMS = {"M³v": "m3v", "M³x": "m3x"}
#: column header (arm prefix removed, lower case) -> path into a figS row
FIELDS = {
    "goodput (rps)": ("goodput_rps",),
    "p99 (µs)": ("p99_us",),
    "gold p99 (µs)": ("tenants", "gold", "p99_us"),
    "completed": ("completed",),
    "slo met": ("slo_met",),
    "shed": ("shed",),
    "migrations": ("migrations",),
}


def _results():
    return json.loads((ROOT / "experiment_results.json").read_text())


def _section(title: str) -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _tables(section: str):
    """Each markdown table as (header cells, body rows of cells)."""
    tables, rows = [], []
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|")
                         .split("|")])
        elif rows:
            tables.append((rows[0], rows[2:]))
            rows = []
    return tables


def _column(header: str):
    """(arm or None, row path) for a value column."""
    arm = None
    for label, name in ARMS.items():
        if header.startswith(label + " "):
            arm, header = name, header[len(label) + 1:]
    return arm, FIELDS[header.lower()]


def _figs_cells():
    """(arm, load, header, printed, committed) per table cell."""
    figs = _results()["figS"]
    cells = []
    for header, body in _tables(_section("Figure S")):
        for values in body:
            row = dict(zip(header, values))
            load = row.pop("Offered load").rstrip("×")
            row_arm = row.pop("Arm", "").strip("`") or None
            for col, printed in row.items():
                arm, path = _column(col)
                arm = arm or row_arm
                value = figs[arm][load]
                for key in path:
                    value = value[key]
                cells.append((arm, load, col, printed, value))
    return cells


def _at_precision(printed: str, value):
    """(printed digits, committed value rounded to the same places)."""
    digits = printed.replace("*", "").replace(",", "")
    places = len(digits.partition(".")[2])
    return digits, f"{value:.{places}f}"


def test_figs_tables_match_committed_results():
    seen, wrong = set(), []
    for arm, load, col, printed, value in _figs_cells():
        seen.add((arm, load))
        shown, committed = _at_precision(printed, value)
        if shown != committed:
            wrong.append(f"{arm}@{load} {col}: doc {printed}, "
                         f"results {committed}")
    assert wrong == []
    # every committed figS point is published, and nothing else is
    committed = {(arm, load) for arm, ys in _results()["figS"].items()
                 for load in ys}
    assert seen == committed


def test_committed_results_pass_shape_checks():
    assert shape_checks(_results()) == []
