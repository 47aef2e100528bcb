#!/usr/bin/env python3
"""The cloud side of the voice pipeline: YCSB on a LevelDB-like store.

Runs the section 6.5.2 scenario on all three configurations — M3v with
a tile per component, M3v with everything multiplexed onto one tile,
and the single-tile Linux baseline — for one YCSB mix, and prints the
user/system split like Figure 10.

Run:  python examples/cloud_kvstore.py [mix]
(mix is one of read, insert, update, mixed, scan; default: scan —
the workload where Linux loses to M3v.)
"""

import sys

from repro.core.exps.fig10 import fig10_points
from repro.runner import Runner

RECORDS = OPERATIONS = 80


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "scan"
    print(f"YCSB '{mix}'-heavy workload, {RECORDS} records / "
          f"{OPERATIONS} operations\n")

    points = fig10_points(mixes=[mix], records=RECORDS,
                          operations=OPERATIONS, runs=1, warmup=0)
    results = Runner().run_sweep("fig10", points)[mix]
    print(f"{'configuration':16s} {'total':>9s} {'user':>9s} {'system':>9s}")
    for system, row in results.items():
        print(f"{system:16s} {row['total_s']:8.3f}s {row['user_s']:8.3f}s "
              f"{row['sys_s']:8.3f}s")

    if mix == "scan":
        linux = results["linux"]["total_s"]
        m3v = results["m3v_shared"]["total_s"]
        print(f"\nLinux / M3v(shared) for scans: {linux / m3v:.2f}x — "
              "frequent syscalls evict the app's working set from the "
              "16 kB L1 i-cache (section 6.5.2)")


if __name__ == "__main__":
    main()
