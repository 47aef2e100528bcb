"""Tests for the mediated-vDTU ablation (section 3.5)."""

from repro.core.exps.ablations import RPC_WARMUP, RPCS, measure_rpc


def test_mediated_api_traps_on_every_command():
    _, traps = measure_rpc(mediated=True)
    # per RPC: send, fetch(es), ack on both sides all trap
    assert traps > (RPC_WARMUP + RPCS) * 4


def test_mediation_costs_an_order_of_magnitude():
    direct, _ = measure_rpc(mediated=False)
    mediated, _ = measure_rpc(mediated=True)
    assert mediated > 5 * direct


def test_direct_api_never_traps_for_mediation():
    _, traps = measure_rpc(mediated=False)
    assert traps == 0
