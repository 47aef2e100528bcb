"""The published numbers come from the committed results file.

EXPERIMENTS.md and README's headline table are written by hand.
These tests tie them to ``experiment_results.json``: every reproduced
cell of the Table 1, Section 6.1, Figure 6–10, Section 6.5.1, Figure S
and Ablations tables, and every number of README's "This repro"
column, must equal the committed value at the precision it is printed
with, and the committed results must pass every shape check of
:func:`repro.core.report.shape_checks`.  Each shape check must also
fire when a copy of the committed results violates its claim.
"""

import copy
import json
import re
from pathlib import Path

import pytest

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


def _section(title: str, doc: str = "EXPERIMENTS.md") -> str:
    text = (ROOT / doc).read_text()
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


def _at_precision(printed: str, value):
    """(printed digits, committed value rounded to the same places)."""
    digits = printed.replace("*", "").replace(",", "")
    places = len(digits.partition(".")[2])
    return digits, f"{value:.{places}f}"


def _mismatches(cells):
    """Each (where, printed, committed) cell whose printed digits are
    not the committed value at the same precision."""
    wrong = []
    for where, printed, value in cells:
        shown, committed = _at_precision(printed, value)
        if shown != committed:
            wrong.append(f"{where}: doc {printed}, results {committed}")
    return wrong


# -- Figure S -------------------------------------------------------------------

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


def test_figs_tables_match_committed_results():
    cells = _figs_cells()
    assert _mismatches((f"{arm}@{load} {col}", printed, value)
                       for arm, load, col, printed, value in cells) == []
    seen = {(arm, load) for arm, load, *_ in cells}
    # every committed figS point is published, and nothing else is
    committed = {(arm, load) for arm, ys in _results()["figS"].items()
                 for load in ys}
    assert seen == committed


def test_committed_results_pass_shape_checks():
    assert shape_checks(_results()) == []


#: (path into the results, factor, the shape check it must trip): each
#: plant scales one committed value past the claim's bound
PLANTS = [
    (("fig6", "m3v_local", "kcycles"), 1.6,
     "fig6: M3v local RPC ~ two Linux yields"),
    (("fig7", "m3v_write_shared"), 0.2,
     "fig7: M3v write beats Linux even shared"),
    (("fig7", "linux_write"), 1.2,
     "fig7: writes slower than reads on Linux"),
    (("fig7", "m3v_write_isolated"), 1.3,
     "fig7: writes slower than reads on M3v"),
    (("fig7", "m3v_read_shared"), 1.2,
     "fig7: tile sharing costs read throughput"),
    (("fig8", "m3v_isolated"), 1.3,
     "fig8: isolated placement beats shared"),
    (("fig8", "m3v_shared"), 1.3,
     "fig8: M3v shared competitive with Linux"),
    (("fig8", "m3v_shared"), 0.45,
     "fig8: M3v shared competitive with Linux"),
    (("fig9", "find", "m3x", "1"), 1.5,
     "fig9/find: ~2x single-tile advantage"),
    (("fig9", "find", "m3x", "1"), 0.5,
     "fig9/find: ~2x single-tile advantage"),
    (("fig9", "sqlite", "m3x", "1"), 1.1,
     "fig9/sqlite: ~2x single-tile advantage"),
    (("fig9", "find", "m3v", "12"), 0.75,
     "fig9/find: near-linear M3v scaling"),
    (("fig9", "sqlite", "m3v", "12"), 0.95,
     "fig9/sqlite: near-linear M3v scaling"),
    (("fig9", "sqlite", "m3x", "12"), 1.25,
     "fig9/sqlite: M3x plateaus"),
    (("fig9", "sqlite", "m3x", "12"), 1.2,
     "fig9/sqlite: M3v dominates M3x at 12 tiles"),
    (("fig10", "read", "m3v_shared", "total_s"), 0.85,
     "fig10/read: M3v shared no faster than isolated"),
    (("fig10", "scan", "linux", "total_s"), 0.95,
     "fig10: Linux loses on scans"),
    (("fig10", "mixed", "linux", "total_s"), 0.45,
     "fig10/mixed: M3v shared competitive with Linux"),
    (("fig10", "read", "linux", "user_s"), 1.2,
     "fig10: M3v accounts more user time than Linux"),
    (("ablations", "mediated", "mediated"), 0.6,
     "ablations: mediated vDTU access costs ~10x per RPC"),
    (("ablations", "extent", "16"), 0.4,
     "ablations: larger extents raise m3fs read throughput"),
    (("ablations", "timeslice", "10000", "switches"), 14,
     "ablations: shorter timeslices switch more"),
    (("ablations", "timeslice", "10000", "makespan_ms"), 1.05,
     "ablations: shorter timeslices do not shorten the makespan"),
    (("ablations", "tlb", "128", "us_per_send"), 2,
     "ablations: a TLB smaller than the working set slows sends"),
    (("ablations", "tlb", "8", "misses"), 0,
     "ablations: a TLB smaller than the working set misses"),
]


@pytest.mark.parametrize("path,factor,claim", PLANTS,
                         ids=[f"{'.'.join(path)}*{factor}"
                              for path, factor, _ in PLANTS])
def test_shape_check_fires_on_a_planted_violation(path, factor, claim):
    results = copy.deepcopy(_results())
    *parents, leaf = path
    row = results
    for key in parents:
        row = row[key]
    row[leaf] *= factor
    assert claim in shape_checks(results)


# -- Section 6.1, Figure 6 and Figure 9 ------------------------------------------

#: Section 6.1 component -> path into ``table1.sloc``
SLOC_ROWS = {
    "Controller": ("controller", "ours_sloc"),
    "TileMux": ("tilemux", "ours_sloc"),
    "TileMux / controller ratio": ("tilemux_to_controller_ratio", "ours"),
}
NUMBER = re.compile(r"[\d,]+(?:\.\d+)?")
#: every number printed in a cell, in order
NUMBERS = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")


def _number(cell: str) -> str:
    """The first number printed in ``cell``."""
    number = NUMBER.search(cell)
    assert number, cell
    return number.group()


#: Figure 6 primitive -> fig6 row; any other row has no committed value
FIG6_ROWS = {
    "Linux yield (2×)": "linux_yield_2x",
    "Linux syscall": "linux_syscall",
    "M³v local RPC": "m3v_local",
    "M³v remote RPC": "m3v_remote",
}
FIG6_CELL = re.compile(r"([\d.]+) k cycles / ([\d.]+) µs")
NO_VALUE = "no committed value"

#: the Figure 9 tables, in document order
FIG9_TRACES = ("find", "sqlite")
FIG9_ROW = re.compile(r"\*\*(M³v|M³x)\*\* (.+)")
NOT_COMMITTED = "not in the results file"


def test_sloc_table_matches_committed_results():
    sloc = _results()["table1"]["sloc"]
    (_, body), = _tables(_section("Section 6.1"))
    assert [row[0] for row in body] == list(SLOC_ROWS)
    cells = []
    for component, _paper, ours in body:
        group, key = SLOC_ROWS[component]
        cells.append((component, _number(ours), sloc[group][key]))
    assert _mismatches(cells) == []


def test_fig6_table_matches_committed_results():
    fig6 = _results()["fig6"]
    (_, body), = _tables(_section("Figure 6"))
    cells, seen = [], set()
    for primitive, _paper, reproduced in body:
        if primitive not in FIG6_ROWS:
            assert reproduced.startswith(NO_VALUE), primitive
            continue
        row = fig6[FIG6_ROWS[primitive]]
        seen.add(FIG6_ROWS[primitive])
        match = FIG6_CELL.fullmatch(reproduced)
        assert match, f"{primitive}: {reproduced}"
        kcycles, us = match.groups()
        cells += [(f"{primitive} kcycles", kcycles, row["kcycles"]),
                  (f"{primitive} µs", us, row["us"])]
    assert _mismatches(cells) == []
    assert seen == set(fig6)


def test_fig9_tables_match_committed_results():
    fig9 = _results()["fig9"]
    tables = _tables(_section("Figure 9"))
    assert len(tables) == len(FIG9_TRACES)
    cells, seen = [], set()
    for trace, (header, body) in zip(FIG9_TRACES, tables):
        for label, *values in body:
            system, kind = FIG9_ROW.fullmatch(label).groups()
            if kind == "paper" or NOT_COMMITTED in kind:
                continue
            assert kind == "repro", label
            arm = ARMS[system]
            for tiles, printed in zip(header[1:], values):
                cells.append((f"{trace} {arm}@{tiles}", printed,
                              fig9[trace][arm][tiles]))
                seen.add((trace, arm, tiles))
    assert _mismatches(cells) == []
    committed = {(trace, arm, tiles) for trace, arms in fig9.items()
                 for arm, ys in arms.items() for tiles in ys}
    assert seen == committed


# -- Table 1, Figures 7, 8 and 10, Section 6.5.1 ---------------------------------

#: Table 1 quantity -> ``table1`` fraction, printed as a percentage
TABLE1_ROWS = {
    "vDTU / BOOM LUTs": "vdtu_of_boom",
    "vDTU / Rocket LUTs": "vdtu_of_rocket",
    "Virtualization overhead (priv. IF)": "virt_overhead",
}
#: Table 1 rows without a committed value
TABLE1_UNCHECKED = {"Structural identities"}
#: the "vDTU size" row's numbers, in print order -> ``table1`` keys
TABLE1_SIZE = ("vdtu_kluts", "vdtu_kffs", "vdtu_brams")

#: Section 6.5.1 quantity -> ``voice`` key
VOICE_ROWS = {
    "isolated": "isolated_ms",
    "shared": "shared_ms",
    "sharing overhead": "overhead_pct",
}


def _key(label: str) -> str:
    """A bar or arm label as its results key: ``M³v read shared`` ->
    ``m3v_read_shared``."""
    return label.replace("M³v", "m3v").lower().replace(" ", "_")


def test_table1_ratios_match_committed_results():
    table1 = _results()["table1"]
    (_, body), = _tables(_section("Table 1"))
    cells = [(quantity, _number(reproduced),
              table1[TABLE1_ROWS[quantity]] * 100)
             for quantity, _paper, reproduced in body
             if quantity != "vDTU size" and quantity not in TABLE1_UNCHECKED]
    assert [c[0] for c in cells] == list(TABLE1_ROWS)
    assert _mismatches(cells) == []


def test_table1_vdtu_size_matches_committed_results():
    table1 = _results()["table1"]
    (_, body), = _tables(_section("Table 1"))
    (reproduced,) = [reproduced for quantity, _paper, reproduced in body
                     if quantity == "vDTU size"]
    printed = NUMBERS.findall(reproduced)
    assert len(printed) == len(TABLE1_SIZE), reproduced
    assert _mismatches([(f"vDTU size {key}", number, table1[key])
                        for key, number in zip(TABLE1_SIZE, printed)]) == []


def test_fig7_and_fig8_bars_match_committed_results():
    results = _results()
    for fig, title in (("fig7", "Figure 7"), ("fig8", "Figure 8")):
        (_, body), = _tables(_section(title))
        cells = [(f"{fig} {bar}", _number(reproduced),
                  results[fig][_key(bar)])
                 for bar, _paper, reproduced in body]
        assert {_key(bar) for bar, *_ in body} == set(results[fig])
        assert _mismatches(cells) == []


def test_fig10_runtimes_match_committed_results():
    fig10 = _results()["fig10"]
    (header, body), = _tables(_section("Figure 10"))
    arms = [_key(h) for h in header[1:-1]]      # last column: paper shape
    cells = [(f"{mix} {arm}", printed, fig10[mix][arm]["total_s"])
             for mix, *values in body
             for arm, printed in zip(arms, values)]
    assert {(mix, arm) for mix, *_ in body for arm in arms} == {
        (mix, arm) for mix, ys in fig10.items() for arm in ys}
    assert _mismatches(cells) == []


def test_voice_table_matches_committed_results():
    voice = _results()["voice"]
    (_, body), = _tables(_section("Section 6.5.1"))
    cells = [(quantity, _number(reproduced), voice[VOICE_ROWS[quantity]])
             for quantity, _paper, reproduced in body]
    assert [c[0] for c in cells] == list(VOICE_ROWS)
    assert _mismatches(cells) == []


# -- Ablations -------------------------------------------------------------------


def _ablation_numbers(ablations):
    """Ablation -> the numbers its "Reproduced" cell prints, in order."""
    def rows(name):
        return sorted(((int(k), v) for k, v in ablations[name].items()),
                      key=lambda kv: kv[0])

    def settings(rows_):
        return [setting for setting, _ in rows_]

    def column(rows_, key=None):
        return [row if key is None else row[key] for _, row in rows_]

    mediated = ablations["mediated"]
    extent, slices, tlb = rows("extent"), rows("timeslice"), rows("tlb")
    (short, short_row), *_, (long, long_row) = slices
    return {
        "TileMux-mediated vDTU (§3.5)": [
            mediated["direct"], mediated["mediated"],
            mediated["mediated"] / mediated["direct"]],
        "m3fs extent cap (§6.3)": settings(extent) + column(extent),
        "TileMux timeslice (§4.2)": (
            settings(slices) + column(slices, "switches")
            + [short_row["switches"] / long_row["switches"], short, long]
            + column(slices, "makespan_ms")),
        "vDTU TLB capacity (§3.6)": (
            settings(tlb) + column(tlb, "us_per_send")
            + column(tlb, "misses")),
    }


def test_ablations_table_matches_committed_results():
    expected = _ablation_numbers(_results()["ablations"])
    (_, body), = _tables(_section("Ablations"))
    assert [row[0] for row in body] == list(expected)
    cells = []
    for ablation, _paper, reproduced in body:
        printed = NUMBERS.findall(reproduced)
        assert len(printed) == len(expected[ablation]), ablation
        cells += [(f"{ablation} number {i}", shown, value)
                  for i, (shown, value)
                  in enumerate(zip(printed, expected[ablation]))]
    assert _mismatches(cells) == []


# -- README's headline table -----------------------------------------------------

#: README headline rows without a committed value
HEADLINE_UNCHECKED = {"§6.2: M³x local RPC"}


def _headline_numbers(results):
    """Headline row -> the committed values its "This repro" cell
    prints, in order."""
    fig6 = results["fig6"]
    m3v, m3x = results["fig9"]["find"]["m3v"], results["fig9"]["find"]["m3x"]
    scan = {arm: row["total_s"]
            for arm, row in results["fig10"]["scan"].items()}
    mediated = results["ablations"]["mediated"]
    return {
        "Fig. 6: M³v remote RPC": [fig6["m3v_remote"]["kcycles"],
                                   fig6["linux_syscall"]["kcycles"]],
        "Fig. 6: M³v local RPC": [fig6["m3v_local"]["kcycles"],
                                  fig6["linux_yield_2x"]["kcycles"]],
        "Fig. 9: M³v vs M³x @ 1 tile": [m3v["1"], m3x["1"],
                                        m3v["1"] / m3x["1"]],
        "Fig. 9: scaling to 12 tiles": [m3v["12"] / m3v["1"],
                                        m3x["12"] / m3x["1"]],
        "Fig. 7: fs throughput": [],
        "Fig. 10: YCSB scans": [scan["linux"] / scan["m3v_shared"],
                                scan["linux"] / scan["m3v_isolated"]],
        "§6.5.1: voice sharing overhead": [results["voice"]["overhead_pct"]],
        "§3.5: mediated vDTU": [mediated["mediated"] / mediated["direct"]],
    }


def test_readme_headline_numbers_match_committed_results():
    expected = _headline_numbers(_results())
    (_, body), = _tables(_section("Headline results", "README.md"))
    assert [row[0] for row in body
            if row[0] not in HEADLINE_UNCHECKED] == list(expected)
    cells = []
    for experiment, _paper, reproduced in body:
        if experiment in HEADLINE_UNCHECKED:
            assert reproduced.startswith(NO_VALUE), experiment
            continue
        printed = NUMBERS.findall(reproduced)
        assert len(printed) == len(expected[experiment]), experiment
        cells += [(f"{experiment} number {i}", shown, value)
                  for i, (shown, value)
                  in enumerate(zip(printed, expected[experiment]))]
    assert _mismatches(cells) == []
