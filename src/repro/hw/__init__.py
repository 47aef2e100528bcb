"""Hardware-complexity models: FPGA area (Table 1) and SLOC (section 6.1)."""

from repro.hw.area import (
    AreaRecord,
    Table1Model,
    estimate_vdtu_area,
    table1,
)
from repro.hw.sloc import PAPER_SLOC, complexity_report, count_package_sloc

__all__ = [
    "AreaRecord",
    "Table1Model",
    "table1",
    "estimate_vdtu_area",
    "PAPER_SLOC",
    "count_package_sloc",
    "complexity_report",
]
