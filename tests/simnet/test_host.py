"""Host node: dispatch, registration, late ACKs, auto receivers."""

import pytest

from repro.simnet.network import Network
from repro.simnet.packet import (
    FlowKey,
    PacketKind,
    make_control_packet,
    make_data_packet,
)
from repro.simnet.topology import build_dumbbell
from repro.simnet.units import ms, us


@pytest.fixture
def net() -> Network:
    return Network(build_dumbbell(1))


def test_sender_registration_lifecycle(net):
    flow = net.create_flow("h0", "h1", 100_000)
    host = net.hosts["h0"]
    flow.start()
    net.run(until=us(1))
    assert flow.key in host.active_senders
    net.run_until_quiet(max_time=ms(10))
    assert flow.key not in host.active_senders   # done -> deregistered
    assert flow.key in host.all_senders          # but still resolvable


def test_unknown_receiver_autocreated(net):
    """A flow the destination was never told about still lands (size
    learned from the packet payload)."""
    key = FlowKey("h0", "h1", 7777, 4791)
    packet = make_data_packet(key, 0, 1000, 0.0)
    packet.payload["msg_bytes"] = 1000
    net.hosts["h0"].send_packet(packet)
    net.run_until_quiet(max_time=ms(5))
    receiver = net.hosts["h1"].receivers.get(key)
    assert receiver is not None
    assert receiver.completed
    assert receiver.expected_bytes == 1000


def test_ack_for_unknown_flow_ignored(net):
    stray = make_control_packet(PacketKind.ACK, None, "h0", "h1", 0.0)
    stray.orig_flow = FlowKey("h1", "h0", 9, 9)
    stray.ack_seq, stray.data_send_time = 0, 0.0
    net.hosts["h0"].send_packet(stray)
    net.run_until_quiet(max_time=ms(2))  # must not raise


def test_cnp_after_completion_ignored(net):
    flow = net.create_flow("h0", "h1", 50_000)
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert flow.completed
    rate_before = flow.dcqcn.rc
    cnp = make_control_packet(PacketKind.CNP, None, "h1", "h0", net.sim.now)
    cnp.orig_flow = flow.key
    net.hosts["h1"].send_packet(cnp)
    net.run_until_quiet(max_time=net.sim.now + ms(2))
    assert flow.dcqcn.rc == rate_before


def test_expect_flow_prewires_callback(net):
    done = []
    key = net.new_flow_key("h0", "h1")
    net.hosts["h1"].expect_flow(key, expected_bytes=2000,
                                on_receive_complete=lambda r:
                                done.append(r.received_bytes))
    for seq, size in enumerate((1000, 1000)):
        packet = make_data_packet(key, seq, size, net.sim.now)
        net.hosts["h0"].send_packet(packet)
    net.run_until_quiet(max_time=ms(5))
    assert done == [2000]


def test_port_space_kick_unblocks_sender(net):
    """A flow larger than the NIC queue cap must still drain fully via
    the on_space kick path."""
    net.hosts["h0"].ports[0].data_queue_cap_bytes = 16_000  # tiny NIC queue
    flow = net.create_flow("h0", "h1", 400_000)
    flow.start()
    net.run_until_quiet(max_time=ms(20))
    assert flow.completed


def test_receiver_duplicate_completion_fires_once(net):
    done = []
    key = net.new_flow_key("h0", "h1")
    net.hosts["h1"].expect_flow(
        key, expected_bytes=1000,
        on_receive_complete=lambda r: done.append(1))
    packet = make_data_packet(key, 0, 1000, 0.0)
    net.hosts["h0"].send_packet(packet)
    net.run_until_quiet(max_time=ms(2))
    # duplicate delivery of the same final packet
    dup = make_data_packet(key, 0, 1000, net.sim.now)
    net.hosts["h0"].send_packet(dup)
    net.run_until_quiet(max_time=net.sim.now + ms(2))
    assert done == [1]


def test_notify_handlers_all_called(net):
    hits = []
    net.hosts["h1"].notify_handlers.append(lambda p: hits.append("a"))
    net.hosts["h1"].notify_handlers.append(lambda p: hits.append("b"))
    net.send_notify("h0", "h1", {"kind": "x"})
    net.run_until_quiet(max_time=ms(2))
    assert sorted(hits) == ["a", "b"]
