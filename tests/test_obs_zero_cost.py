"""Metrics must be free when off and cheap when on.

Off: the committed golden digests already pin simulated behaviour
(``test_api_facade``, ``test_trace_determinism``); here we additionally
check the canonical event stream is *byte-identical* with and without a
registry installed.  On: fig6 at golden scale must stay within 10% of
the unmetered wall-clock (interleaved min-of-N, which is robust to
scheduler noise).
"""

import time

import pytest

from repro.obs import capture_metrics

ROUNDS = 5


def _fig6_golden_point():
    from repro.core.exps.fig6 import Fig6Point

    return Fig6Point("m3v_local", iterations=10, warmup=2)


def test_metered_run_is_byte_identical_to_unmetered():
    from repro.core.exps.fig6 import run_fig6_point
    from repro.sim.trace import capture
    from repro.testing.golden import canonical_json

    pt = _fig6_golden_point()
    with capture(exclude=("evq_pop",)) as plain:
        run_fig6_point(pt)
    with capture(exclude=("evq_pop",)) as metered_tracer:
        with capture_metrics() as m:
            run_fig6_point(pt)
    assert m.counter_value("dtu/sends") > 0
    assert canonical_json(plain) == canonical_json(metered_tracer)


@pytest.mark.slow
def test_metrics_overhead_within_ten_percent():
    from repro.core.exps.fig6 import run_fig6_point

    pt = _fig6_golden_point()
    run_fig6_point(pt)                      # warm imports and caches

    def timed(metered: bool) -> float:
        start = time.perf_counter()
        if metered:
            with capture_metrics():
                run_fig6_point(pt)
        else:
            run_fig6_point(pt)
        return time.perf_counter() - start

    # interleave so frequency scaling / noisy neighbours hit both arms
    off = on = float("inf")
    for _ in range(ROUNDS):
        off = min(off, timed(False))
        on = min(on, timed(True))
    assert on <= off * 1.10 + 0.010, \
        f"metrics overhead too high: {off * 1e3:.1f}ms off, " \
        f"{on * 1e3:.1f}ms on ({on / off:.2f}x)"
