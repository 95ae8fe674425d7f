"""Packet and flow-key types."""

import pytest

from repro.simnet.packet import (
    CONTROL_PACKET_BYTES,
    HEADER_BYTES,
    FlowKey,
    Packet,
    PacketKind,
    Priority,
    make_control_packet,
    make_data_packet,
)


@pytest.fixture
def key() -> FlowKey:
    return FlowKey("h0", "h1", 10000, 4791)


def test_flow_key_reversed(key):
    rev = key.reversed()
    assert rev.src == "h1" and rev.dst == "h0"
    assert rev.src_port == 4791 and rev.dst_port == 10000
    assert rev.reversed() == key


def test_flow_key_short(key):
    assert key.short() == "h0:10000->h1:4791"


def test_flow_key_hashable(key):
    assert key in {key}


def test_data_packet_includes_header(key):
    packet = make_data_packet(key, seq=3, payload_bytes=4096, now=5.0)
    assert packet.size == 4096 + HEADER_BYTES
    assert packet.kind is PacketKind.DATA
    assert packet.priority is Priority.DATA
    assert packet.seq == 3
    assert packet.create_time == 5.0


def test_data_packet_ecn_capable(key):
    packet = make_data_packet(key, 0, 1000, 0.0)
    assert packet.ecn_capable and not packet.ecn_marked


def test_control_packet_defaults(key):
    packet = make_control_packet(PacketKind.ACK, key.reversed(),
                                 "h1", "h0", 1.0)
    assert packet.size == CONTROL_PACKET_BYTES
    assert packet.priority is Priority.CONTROL
    assert not packet.ecn_capable


def test_control_packet_payload(key):
    packet = make_control_packet(PacketKind.POLL, key, "h0", "h1", 0.0,
                                 payload={"poll_id": "x"})
    assert packet.payload["poll_id"] == "x"


def test_packet_rejects_nonpositive_size(key):
    with pytest.raises(ValueError):
        Packet(kind=PacketKind.DATA, flow=key, src="h0", dst="h1", size=0)


def test_priority_ordering():
    assert Priority.CONTROL < Priority.DATA
