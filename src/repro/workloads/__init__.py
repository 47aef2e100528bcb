"""Workload generators: YCSB, Zipfian keys, and syscall traces."""

from repro.workloads.traces import (
    TraceCall,
    find_trace,
    sqlite_trace,
)
from repro.workloads.ycsb import (
    WORKLOAD_MIXES,
    YcsbOp,
    YcsbWorkload,
    make_workload,
)
from repro.workloads.zipfian import ZipfianGenerator

__all__ = [
    "ZipfianGenerator",
    "YcsbOp",
    "YcsbWorkload",
    "WORKLOAD_MIXES",
    "make_workload",
    "TraceCall",
    "find_trace",
    "sqlite_trace",
]
