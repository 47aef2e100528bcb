#!/usr/bin/env python3
"""The headline experiment (Figure 9): M3v vs M3x scalability.

One traceplayer + one file-system instance per tile; every fs call is
a tile-local RPC.  On M3v TileMux switches contexts locally; on M3x
every switch and every message to a non-running activity crosses the
single-threaded controller.

Run:  python examples/scalability_sweep.py
(uses a shortened find trace so it finishes in ~30 s;
``scripts/run_experiments.py --only fig9`` runs the full trace)
"""

from repro.core.exps.fig9 import Fig9Point, run_fig9_point

SHORT_TRACE = dict(find_dirs=6, find_files=10, runs=2)


def main() -> None:
    tiles = [1, 2, 4, 8, 12]
    print("find-trace throughput (runs/s), shortened trace:\n")
    print(f"{'tiles':>6s} {'M3x':>9s} {'M3v':>9s} {'M3v/M3x':>8s}")
    m3v_1 = None
    for n in tiles:
        m3v = run_fig9_point(Fig9Point("m3v", n, **SHORT_TRACE))
        m3x = run_fig9_point(Fig9Point("m3x", n, **SHORT_TRACE))
        if m3v_1 is None:
            m3v_1 = m3v
        print(f"{n:6d} {m3x:9.0f} {m3v:9.0f} {m3v / m3x:7.1f}x")
    print("\nM3v scales almost linearly (scheduling is tile-local);")
    print("M3x plateaus once the single controller saturates (section 6.4).")


if __name__ == "__main__":
    main()
