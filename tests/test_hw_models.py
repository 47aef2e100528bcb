"""Tests for the Table 1 area model, the SLOC complexity report and
the core cost model."""

import dataclasses
import pickle

import pytest

from repro.dtu.params import DtuParams
from repro.hw import (
    PAPER_SLOC,
    complexity_report,
    count_package_sloc,
    estimate_vdtu_area,
    table1,
)
from repro.tiles.costs import BOOM, ROCKET, X86_GEM5, CoreClock, CoreCosts


def test_table1_headline_numbers():
    t = table1()
    assert t["BOOM"].kluts == 143.8
    assert t["Rocket"].kluts == 46.6
    assert t["vDTU"].kluts == 15.2
    assert t["vDTU"].brams == 0.5


def test_vdtu_children_sum_to_vdtu():
    t = table1()
    assert t.check_additivity("vDTU")


def test_cmd_ctrl_is_unpriv_plus_priv():
    t = table1()
    assert t.check_additivity("CMD CTRL")
    assert t.check_additivity("Control Unit")


def test_vdtu_fraction_of_cores_matches_paper():
    """Section 6.1: 10.6% of BOOM, 32.6% of Rocket."""
    t = table1()
    assert t.vdtu_fraction_of("BOOM") == pytest.approx(0.106, abs=0.002)
    assert t.vdtu_fraction_of("Rocket") == pytest.approx(0.326, abs=0.002)


def test_virtualization_costs_about_six_percent():
    """Section 6.1: the privileged interface grows the DTU logic ~6%."""
    t = table1()
    assert t.virtualization_overhead() == pytest.approx(0.063, abs=0.01)


def test_dtu_variants_shrink():
    t = table1()
    plain = t.dtu_area()
    memory = t.dtu_area(memory_tile=True)
    assert memory < plain < t["vDTU"].kluts


def test_brams_negligible_vs_cores():
    """The vDTU holds no memories: BRAMs are negligible next to cores."""
    t = table1()
    assert t["vDTU"].brams / t["Rocket"].brams < 0.01


def test_table_rows_are_indented_hierarchy():
    rows = table1().table_rows()
    names = [r["component"] for r in rows]
    assert "vDTU" in names
    assert any(n.startswith("    ") for n in names)  # nested sub-components


def test_estimator_reproduces_measured_config():
    assert estimate_vdtu_area(DtuParams()) == pytest.approx(15.2, abs=0.01)
    # the measured sheet's 128-endpoint configuration, exactly
    assert estimate_vdtu_area(DtuParams(num_endpoints=128)) \
        == round(table1()["vDTU"].kluts, 4)


def test_estimator_scales_with_endpoints():
    small = estimate_vdtu_area(DtuParams(num_endpoints=32))
    big = estimate_vdtu_area(DtuParams(num_endpoints=256))
    assert small < 15.2 < big


def test_estimator_scales_with_tlb():
    assert estimate_vdtu_area(DtuParams(tlb_entries=8)) \
        < estimate_vdtu_area(DtuParams(tlb_entries=64))


def test_sloc_counter_counts_this_repo():
    kernel = count_package_sloc("repro.kernel")
    mux = count_package_sloc("repro.mux")
    assert kernel > 500
    assert mux > 300


def test_complexity_report_has_both_ratios():
    report = complexity_report()
    assert report["controller"]["paper_sloc"] == 11_500
    assert report["tilemux"]["paper_sloc"] == 1_700
    ratio = report["tilemux_to_controller_ratio"]
    # the tile-local multiplexer is a small fraction of the controller
    assert ratio["paper"] < 0.25
    assert 0 < ratio["ours"] < 1.5


def test_paper_sloc_constants():
    assert PAPER_SLOC["nova"]["sloc"] == 9_000


@pytest.mark.parametrize("preset", [ROCKET, BOOM, X86_GEM5],
                         ids=lambda p: p.name)
def test_core_clock_period_behaves_as_a_derived_value(preset):
    def period(mhz):
        return round(1e12 / (mhz * 1e6))

    clock = preset.clock
    assert clock.period_ps == period(preset.freq_mhz)
    assert clock == CoreClock(preset.freq_mhz)
    assert hash(clock) == hash(CoreClock(preset.freq_mhz))
    assert repr(clock) == f"CoreClock(freq_mhz={preset.freq_mhz})"
    assert pickle.loads(pickle.dumps(clock)).period_ps == clock.period_ps
    doubled = dataclasses.replace(clock, freq_mhz=2 * preset.freq_mhz)
    assert doubled.period_ps == period(2 * preset.freq_mhz)


@pytest.mark.parametrize("field", ["lib_send", "lib_ack", "lib_poll"])
def test_core_costs_reject_nonpositive_library_charges(field):
    # the activity library yields each lib_* as one timeout, which only
    # matches compute(lib_*) for a positive charge
    for cycles in (0, -1):
        with pytest.raises(ValueError, match=field):
            CoreCosts(**{field: cycles})
