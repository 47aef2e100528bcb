"""The Yahoo! Cloud Serving Benchmark workloads of section 6.5.2.

The paper's setup: 200 records created first, then 200 operations with
Zipfian key popularity.  Five mixes:

* read-heavy / insert-heavy / update-heavy: 80-10-10 over
  {read, insert, update} (no scans),
* scan-heavy: 80-10-10 over {scan, read, insert} (no updates),
* mixed: 50-10-30-10 over reads, inserts, updates, scans.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.workloads.zipfian import ZipfianGenerator

DEFAULT_RECORDS = 200
DEFAULT_OPERATIONS = 200
FIELD_BYTES = 100          # YCSB default: 10 fields x 100 B; we scale to
N_FIELDS = 4               # 4 fields to keep FPGA-scale records modest
SCAN_MAX_LEN = 40


class YcsbOp(enum.Enum):
    READ = "read"
    INSERT = "insert"
    UPDATE = "update"
    SCAN = "scan"


# mix name -> proportions
WORKLOAD_MIXES: Dict[str, Dict[YcsbOp, float]] = {
    "read":   {YcsbOp.READ: 0.8, YcsbOp.INSERT: 0.1, YcsbOp.UPDATE: 0.1},
    "insert": {YcsbOp.INSERT: 0.8, YcsbOp.READ: 0.1, YcsbOp.UPDATE: 0.1},
    "update": {YcsbOp.UPDATE: 0.8, YcsbOp.READ: 0.1, YcsbOp.INSERT: 0.1},
    "scan":   {YcsbOp.SCAN: 0.8, YcsbOp.READ: 0.1, YcsbOp.INSERT: 0.1},
    "mixed":  {YcsbOp.READ: 0.5, YcsbOp.INSERT: 0.1, YcsbOp.UPDATE: 0.3,
               YcsbOp.SCAN: 0.1},
}


@dataclass(frozen=True)
class YcsbRequest:
    op: YcsbOp
    key: str
    value: Optional[bytes] = None
    scan_len: int = 0


@dataclass
class YcsbWorkload:
    name: str
    records: List[Tuple[str, bytes]]
    requests: List[YcsbRequest]


def _key(i: int) -> str:
    return f"user{i:08d}"


def _value(rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(FIELD_BYTES * N_FIELDS))


def make_workload(mix: str, records: int = DEFAULT_RECORDS,
                  operations: int = DEFAULT_OPERATIONS,
                  seed: int = 1) -> YcsbWorkload:
    """Build one of the paper's five workloads deterministically."""
    if mix not in WORKLOAD_MIXES:
        raise ValueError(f"unknown mix {mix!r}; have {sorted(WORKLOAD_MIXES)}")
    rng = random.Random(seed)
    zipf = ZipfianGenerator(records, seed=seed + 1)
    load = [( _key(i), _value(rng)) for i in range(records)]

    proportions = WORKLOAD_MIXES[mix]
    ops, weights = zip(*proportions.items())
    next_insert = records
    requests: List[YcsbRequest] = []
    for _ in range(operations):
        op = rng.choices(ops, weights=weights)[0]
        if op is YcsbOp.INSERT:
            requests.append(YcsbRequest(op, _key(next_insert), _value(rng)))
            next_insert += 1
        elif op is YcsbOp.UPDATE:
            requests.append(YcsbRequest(op, _key(zipf.next()), _value(rng)))
        elif op is YcsbOp.READ:
            requests.append(YcsbRequest(op, _key(zipf.next())))
        else:  # SCAN
            requests.append(YcsbRequest(op, _key(zipf.next()),
                                        scan_len=1 + rng.randrange(SCAN_MAX_LEN)))
    return YcsbWorkload(mix, load, requests)
