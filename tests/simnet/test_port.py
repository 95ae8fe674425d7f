"""Egress port: queueing, priorities, pause semantics, callbacks."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.packet import FlowKey, PacketKind, make_control_packet, \
    make_data_packet
from repro.simnet.port import EgressPort
from repro.simnet.units import gbps


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_port(sim, cap=None, bandwidth=gbps(100), delay=1000.0):
    port = EgressPort(sim, "n0", 0, bandwidth, delay,
                      data_queue_cap_bytes=cap)
    delivered = []
    port.deliver_fn = lambda pkt, ingress: delivered.append((sim.now, pkt))
    port.peer_node_id, port.peer_port_id = "n1", 0
    return port, delivered


def data_packet(seq=0, payload=1184):
    key = FlowKey("h0", "h1", 1, 2)
    return make_data_packet(key, seq, payload, 0.0)  # 1250 B on wire


def test_serialization_plus_propagation_timing(sim):
    port, delivered = make_port(sim)
    port.enqueue(data_packet())  # 1250 B @ 100 Gbps = 100 ns
    sim.run()
    assert len(delivered) == 1
    assert delivered[0][0] == pytest.approx(100 + 1000)


def test_fifo_order_within_class(sim):
    port, delivered = make_port(sim)
    for seq in range(3):
        port.enqueue(data_packet(seq))
    sim.run()
    assert [p.seq for _, p in delivered] == [0, 1, 2]


def test_control_preempts_queued_data(sim):
    port, delivered = make_port(sim)
    for seq in range(2):
        port.enqueue(data_packet(seq))
    ctrl = make_control_packet(PacketKind.ACK, None, "h0", "h1", 0.0)
    port.enqueue(ctrl)
    sim.run()
    kinds = [p.kind for _, p in delivered]
    # the first data packet is already serializing; control jumps the
    # rest of the data queue
    assert kinds == [PacketKind.DATA, PacketKind.ACK, PacketKind.DATA]


def test_pause_blocks_data_only(sim):
    port, delivered = make_port(sim)
    port.pause(1_000_000)
    port.enqueue(data_packet())
    port.enqueue(make_control_packet(PacketKind.ACK, None, "h0", "h1", 0.0))
    sim.run(until=10_000)
    assert [p.kind for _, p in delivered] == [PacketKind.ACK]


def test_pause_timeout_releases(sim):
    port, delivered = make_port(sim)
    port.pause(5_000)
    port.enqueue(data_packet())
    sim.run()
    assert len(delivered) == 1
    assert delivered[0][0] >= 5_000


def test_resume_releases_early(sim):
    port, delivered = make_port(sim)
    port.pause(1_000_000)
    port.enqueue(data_packet())
    sim.schedule(2_000, port.resume)
    sim.run()
    assert delivered and delivered[0][0] < 10_000


def test_pause_refresh_extends(sim):
    port, delivered = make_port(sim)
    port.pause(5_000)
    sim.schedule(4_000, port.pause, 5_000)  # refresh before expiry
    port.enqueue(data_packet())
    sim.run()
    assert delivered[0][0] >= 9_000


def test_in_flight_packet_completes_despite_pause(sim):
    port, delivered = make_port(sim)
    port.enqueue(data_packet(0))
    port.enqueue(data_packet(1))
    sim.schedule(10, port.pause, 100_000)  # mid-serialization of pkt 0
    sim.run(until=50_000)
    assert [p.seq for _, p in delivered] == [0]


def test_queue_cap_drops(sim):
    port, _ = make_port(sim, cap=2_000)
    assert port.enqueue(data_packet(0))       # fits
    assert not port.enqueue(data_packet(1, payload=2_000))  # over cap


def test_data_queue_has_room(sim):
    port, _ = make_port(sim, cap=1_500)
    assert port.data_queue_has_room(1_400)
    port.pause(1_000_000)  # keep the packet queued
    port.enqueue(data_packet(0))
    assert not port.data_queue_has_room(1_400)


def test_uncapped_queue_never_drops(sim):
    port, _ = make_port(sim)
    for seq in range(100):
        assert port.enqueue(data_packet(seq))


def test_on_departure_callback(sim):
    port, _ = make_port(sim)
    departed = []
    port.on_departure = departed.append
    port.enqueue(data_packet())
    sim.run()
    assert len(departed) == 1


def test_on_departure_is_for_the_data_class_only(sim):
    port, delivered = make_port(sim)
    departed = []
    port.on_departure = departed.append
    port.enqueue(make_control_packet(PacketKind.ACK, None, "a", "b", 0.0))
    port.enqueue(data_packet())
    sim.run()
    assert len(delivered) == 2
    assert [p.kind for p in departed] == [PacketKind.DATA]


def test_on_space_callback_fires_per_dequeue(sim):
    port, _ = make_port(sim)
    kicks = []
    port.on_space = kicks.append
    port.enqueue(data_packet(0))
    port.enqueue(data_packet(1))
    sim.run()
    assert len(kicks) == 2


def test_tx_counters(sim):
    port, delivered = make_port(sim)
    port.enqueue(data_packet(0))
    port.enqueue(data_packet(1))
    sim.run()
    assert [packet.size for _, packet in delivered] == [1250, 1250]


def test_queue_depth_reflects_data_only(sim):
    port, _ = make_port(sim)
    port.pause(1_000_000)
    port.enqueue(data_packet(0))
    port.enqueue(make_control_packet(PacketKind.ACK, None, "a", "b", 0.0))
    sim.run(until=1_000)
    assert port.data_queue_depth == 1
