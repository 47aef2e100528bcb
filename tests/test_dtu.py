"""Integration tests for DTU / vDTU message passing and DMA."""

import pytest

from repro.dtu import (
    ACT_TILEMUX,
    DtuError,
    DtuFault,
    DtuParams,
    MemoryDtu,
    MemoryEndpoint,
    Perm,
    ReceiveEndpoint,
    SendEndpoint,
    VDtu,
)
from repro.dtu.dtu import Dtu, ExtOp, ExtRequest
from repro.noc import NocFabric, StarMeshTopology
from repro.noc.packet import Packet, PacketKind
from repro.sim import Simulator

MEM_TILE = 9


class Harness:
    """Two vDTU compute tiles + one memory tile on a star-mesh."""

    def __init__(self, params=None):
        self.sim = Simulator()
        topo = StarMeshTopology(range(10))
        self.fabric = NocFabric(self.sim, topo)
        self.params = params or DtuParams()
        self.d0 = VDtu(self.sim, 0, self.fabric, params=self.params)
        self.d1 = VDtu(self.sim, 1, self.fabric, params=self.params)
        self.mem = MemoryDtu(self.sim, MEM_TILE, self.fabric,
                             dram_size=1 << 20, params=self.params)

    def channel(self, act_src=1, act_dst=1, credits=1, slots=8,
                src_ep=4, dst_ep=4, reply_ep=None):
        """Wire a send EP on d0 to a receive EP on d1."""
        self.d1.configure(dst_ep, ReceiveEndpoint(act=act_dst, slots=slots))
        self.d0.configure(src_ep, SendEndpoint(
            act=act_src, dst_tile=1, dst_ep=dst_ep, label=7,
            credits=credits, max_credits=credits))
        if reply_ep is not None:
            self.d0.configure(reply_ep, ReceiveEndpoint(act=act_src))
        self.d0.cur_act = act_src
        self.d1.cur_act = act_dst

    def run(self, gen):
        return self.sim.run_until_event(self.sim.process(gen), limit=10**12)


def test_send_deposits_message():
    h = Harness()
    h.channel()

    def sender():
        yield from h.d0.cmd_send(4, data="ping", size=16)
        msg = yield from h.d1.cmd_fetch(4)
        return msg

    msg = h.run(sender())
    assert msg.data == "ping" and msg.label == 7


def test_send_takes_time():
    h = Harness()
    h.channel()

    def sender():
        yield from h.d0.cmd_send(4, data="x", size=64)

    h.run(sender())
    # 5 MMIO accesses alone are 600ns
    assert h.sim.now > 600_000


def test_send_on_foreign_activity_ep_fails_uniformly():
    h = Harness()
    h.channel(act_src=2)      # EP owned by act 2
    h.d0.cur_act = 3          # but act 3 is running

    def sender():
        yield from h.d0.cmd_send(4, data="x", size=8)

    with pytest.raises(DtuFault) as exc:
        h.run(sender())
    assert exc.value.error is DtuError.UNKNOWN_EP


def test_send_invalid_ep_same_error_as_foreign():
    h = Harness()

    def sender():
        yield from h.d0.cmd_send(60, data="x", size=8)

    with pytest.raises(DtuFault) as exc:
        h.run(sender())
    assert exc.value.error is DtuError.UNKNOWN_EP


def test_send_without_credits_fails():
    h = Harness()
    h.channel(credits=1)

    def sender():
        yield from h.d0.cmd_send(4, data="a", size=8)
        yield from h.d0.cmd_send(4, data="b", size=8)  # no credit left

    with pytest.raises(DtuFault) as exc:
        h.run(sender())
    assert exc.value.error is DtuError.MISSING_CREDITS


def test_message_too_large_rejected_locally():
    h = Harness()
    h.channel()

    def sender():
        yield from h.d0.cmd_send(4, data="x", size=4096)

    with pytest.raises(DtuFault) as exc:
        h.run(sender())
    assert exc.value.error is DtuError.MSG_TOO_LARGE


def test_receive_buffer_full_yields_error_and_restores_credit():
    h = Harness()
    h.channel(credits=4, slots=1)

    def sender():
        yield from h.d0.cmd_send(4, data="a", size=8)
        with pytest.raises(DtuFault) as exc:
            yield from h.d0.cmd_send(4, data="b", size=8)
        assert exc.value.error is DtuError.RECV_FULL
        return h.d0.eps[4].credits

    credits = h.run(sender())
    assert credits == 3  # one message in flight, failed send refunded


def test_reply_roundtrip_returns_credit():
    h = Harness()
    h.channel(credits=1, reply_ep=5)

    def rpc():
        yield from h.d0.cmd_send(4, data="req", size=16, reply_ep=5)
        req = yield from h.d1.cmd_fetch(4)
        assert req.data == "req"
        yield from h.d1.cmd_reply(4, req, data="resp", size=16)
        resp = None
        while resp is None:
            resp = yield from h.d0.cmd_fetch(5)
        yield from h.d0.cmd_ack(5, resp)
        return resp.data, h.d0.eps[4].credits

    data, credits = h.run(rpc())
    assert data == "resp"
    assert credits == 1  # credit returned by the reply


def test_ack_without_reply_returns_credit():
    h = Harness()
    h.channel(credits=1)

    def flow():
        yield from h.d0.cmd_send(4, data="oneway", size=8)
        msg = yield from h.d1.cmd_fetch(4)
        yield from h.d1.cmd_ack(4, msg)
        # wait for the credit-return packet to arrive back
        while h.d0.eps[4].credits == 0:
            yield h.sim.timeout(1000)
        return h.d0.eps[4].credits

    assert h.run(flow()) == 1


def test_fetch_order_is_arrival_order():
    h = Harness()
    h.channel(credits=4)

    def flow():
        for tag in ("a", "b", "c"):
            yield from h.d0.cmd_send(4, data=tag, size=8)
        got = []
        for _ in range(3):
            msg = yield from h.d1.cmd_fetch(4)
            got.append(msg.data)
            yield from h.d1.cmd_ack(4, msg)
        return got

    assert h.run(flow()) == ["a", "b", "c"]


def test_fetch_empty_returns_none():
    h = Harness()
    h.channel()

    def flow():
        return (yield from h.d1.cmd_fetch(4))

    assert h.run(flow()) is None


# -- memory endpoints and DMA ----------------------------------------------------


def memory_ep(act=1, base=0, size=4096, perm=Perm.RW):
    return MemoryEndpoint(act=act, dst_tile=MEM_TILE, base=base,
                          size=size, perm=perm)


def test_write_then_read_roundtrip():
    h = Harness()
    h.d0.configure(8, memory_ep())
    h.d0.cur_act = 1

    def flow():
        yield from h.d0.cmd_write(8, offset=100, data=b"hello dram")
        return (yield from h.d0.cmd_read(8, offset=100, size=10))

    assert h.run(flow()) == b"hello dram"


def test_read_out_of_bounds_rejected():
    h = Harness()
    h.d0.configure(8, memory_ep(size=128))
    h.d0.cur_act = 1

    def flow():
        yield from h.d0.cmd_read(8, offset=100, size=64)

    with pytest.raises(DtuFault) as exc:
        h.run(flow())
    assert exc.value.error is DtuError.OUT_OF_BOUNDS


def test_write_to_readonly_ep_rejected():
    h = Harness()
    h.d0.configure(8, memory_ep(perm=Perm.R))
    h.d0.cur_act = 1

    def flow():
        yield from h.d0.cmd_write(8, offset=0, data=b"x")

    with pytest.raises(DtuFault) as exc:
        h.run(flow())
    assert exc.value.error is DtuError.NO_PERM


def test_dma_larger_transfer_takes_longer():
    h = Harness()
    h.d0.configure(8, memory_ep(size=1 << 16))
    h.d0.cur_act = 1
    times = []

    def flow(size):
        start = h.sim.now
        yield from h.d0.cmd_read(8, offset=0, size=size)
        times.append(h.sim.now - start)

    h.run(flow(64))
    h.run(flow(4096))
    assert times[1] > times[0]


# -- vDTU translation (section 3.6) -----------------------------------------------


def test_send_with_virt_addr_faults_without_tlb_entry():
    h = Harness()
    h.channel()

    def flow():
        yield from h.d0.cmd_send(4, data="x", size=32, virt_addr=0x5000)

    with pytest.raises(DtuFault) as exc:
        h.run(flow())
    assert exc.value.error is DtuError.TRANSLATION_FAULT


def test_send_succeeds_after_tlb_insert():
    h = Harness()
    h.channel()

    def flow():
        yield from h.d0.priv_insert_tlb(1, virt_page=5, phys_page=42, perm=Perm.R)
        yield from h.d0.cmd_send(4, data="x", size=32, virt_addr=0x5000)

    h.run(flow())  # no fault


def test_page_boundary_crossing_rejected():
    h = Harness()
    h.channel()

    def flow():
        yield from h.d0.priv_insert_tlb(1, 5, 42, Perm.R)
        yield from h.d0.priv_insert_tlb(1, 6, 43, Perm.R)
        yield from h.d0.cmd_send(4, data="x", size=64, virt_addr=0x5FF0)

    with pytest.raises(DtuFault) as exc:
        h.run(flow())
    assert exc.value.error is DtuError.PAGE_BOUNDARY


# -- CUR_ACT, message counting, core requests (sections 3.7, 3.8) ------------------


def test_cur_act_counts_messages_for_running_activity():
    h = Harness()
    h.channel(credits=4)

    def flow():
        yield from h.d0.cmd_send(4, data="a", size=8)
        yield from h.d0.cmd_send(4, data="b", size=8)
        return (yield from h.d1.priv_read_cur_act())

    act, msgs = h.run(flow())
    assert (act, msgs) == (1, 2)


def test_fetch_decrements_message_count():
    h = Harness()
    h.channel(credits=2)

    def flow():
        yield from h.d0.cmd_send(4, data="a", size=8)
        yield from h.d1.cmd_fetch(4)
        return (yield from h.d1.priv_read_cur_act())

    assert h.run(flow()) == (1, 0)


def test_message_for_non_running_activity_raises_core_request():
    h = Harness()
    h.channel(act_dst=2)      # receive EP owned by act 2
    h.d1.cur_act = 3          # act 3 runs on the tile
    irqs = []
    h.d1.irq_handler = lambda: irqs.append(h.sim.now)

    def flow():
        yield from h.d0.cmd_send(4, data="x", size=8)
        return (yield from h.d1.priv_fetch_core_req())

    req = h.run(flow())
    assert req is not None and req.act == 2 and req.ep_id == 4
    assert len(irqs) == 1
    # message is nevertheless already deposited (fast path!)
    assert h.d1.eps[4].unread == 1


def test_xchg_act_returns_old_state_and_installs_new():
    h = Harness()
    h.channel(credits=2)

    def flow():
        yield from h.d0.cmd_send(4, data="a", size=8)
        old = yield from h.d1.priv_xchg_act(5, new_msgs=3)
        new = yield from h.d1.priv_read_cur_act()
        return old, new

    old, new = h.run(flow())
    assert old == (1, 1)
    assert new == (5, 3)


def test_core_request_queue_overrun_backpressure():
    params = DtuParams(core_req_queue_depth=2)
    h = Harness(params=params)
    h.channel(act_dst=2, credits=8)
    h.d1.cur_act = 3

    def flow():
        for i in range(4):
            yield from h.d0.cmd_send(4, data=i, size=8)

    proc = h.sim.process(flow())
    h.sim.run(until=10**9)
    # sender stalls: only queue_depth requests fit before backpressure
    assert len(h.d1._core_reqs) == 2
    assert proc.is_alive

    def drain():
        for _ in range(4):
            yield from h.d1.priv_ack_core_req()

    h.sim.process(drain())
    h.sim.run(until=2 * 10**9)
    assert not proc.is_alive  # all sends completed after acks


def test_ack_core_req_reraises_irq_when_queue_nonempty():
    h = Harness()
    h.channel(act_dst=2, credits=4)
    h.d1.cur_act = 3
    irqs = []
    h.d1.irq_handler = lambda: irqs.append(h.sim.now)

    def flow():
        yield from h.d0.cmd_send(4, data="a", size=8)
        yield from h.d0.cmd_send(4, data="b", size=8)
        yield from h.d1.priv_ack_core_req()

    h.run(flow())
    # one IRQ per deposit-into-empty-queue plus the re-raise after ack
    assert len(irqs) >= 2


# -- PMP (section 4.1) -------------------------------------------------------------


def test_pmp_check_allows_configured_window():
    h = Harness()
    h.d0.configure(0, MemoryEndpoint(act=ACT_TILEMUX, dst_tile=MEM_TILE,
                                     base=0, size=1 << 20, perm=Perm.RW))
    assert h.d0.pmp_check(0x1000, 64, Perm.R)
    assert not h.d0.pmp_check((1 << 20) + 10, 64, Perm.R)  # beyond window


def test_pmp_selects_by_upper_bits():
    h = Harness()
    h.d0.configure(1, MemoryEndpoint(act=1, dst_tile=MEM_TILE,
                                     base=0, size=4096, perm=Perm.R))
    addr_in_ep1 = (1 << 30) + 100
    assert h.d0.pmp_check(addr_in_ep1, 4, Perm.R)
    assert not h.d0.pmp_check(addr_in_ep1, 4, Perm.W)
    assert not h.d0.pmp_check(100, 4, Perm.R)  # EP 0 not configured


# -- external interface / M3x save-restore -----------------------------------------


def test_ext_config_and_inval_roundtrip():
    h = Harness()
    ctrl = Dtu(h.sim, 2, h.fabric)  # plays the controller

    def flow():
        req = Packet(PacketKind.EXT_REQ, src=2, dst=1, size=32, tag=999,
                     payload=ExtRequest(ExtOp.CONFIG_EP, {
                         "ep_id": 10,
                         "endpoint": ReceiveEndpoint(act=7)}))
        yield from ctrl._await_response(req)
        assert h.d1.eps[10].act == 7
        req = Packet(PacketKind.EXT_REQ, src=2, dst=1, size=16, tag=1000,
                     payload=ExtRequest(ExtOp.INVAL_EP, {"ep_id": 10}))
        yield from ctrl._await_response(req)

    h.run(flow())
    assert h.d1.eps[10].kind.value == "invalid"


def test_ext_read_write_eps_save_restore():
    h = Harness()
    ctrl = Dtu(h.sim, 2, h.fabric)
    h.d1.configure(4, ReceiveEndpoint(act=1, slots=4))
    h.d1.configure(5, SendEndpoint(act=1, dst_tile=0, dst_ep=4, credits=2,
                                   max_credits=2))

    def flow():
        req = Packet(PacketKind.EXT_REQ, src=2, dst=1, size=16, tag=1001,
                     payload=ExtRequest(ExtOp.SWAP_EPS, {"ep_ids": [4, 5]}))
        saved = yield from ctrl._await_response(req)
        # the swap saved and invalidated both; restore them
        assert h.d1.eps[4].kind.value == "invalid"
        assert h.d1.eps[5].kind.value == "invalid"
        req = Packet(PacketKind.EXT_REQ, src=2, dst=1, size=64, tag=1002,
                     payload=ExtRequest(ExtOp.WRITE_EPS, {"eps": saved}))
        yield from ctrl._await_response(req)

    h.run(flow())
    assert h.d1.eps[4].kind.value == "receive"
    assert h.d1.eps[5].credits == 2
