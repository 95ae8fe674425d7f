"""ECMP routing, overrides, base-RTT estimation."""

import pytest

from repro.simnet.packet import FlowKey
from repro.simnet.routing import (RTT_ACK_BYTES, RTT_PACKET_BYTES,
                                 EcmpRouting, RoutingError)
from repro.simnet.topology import build_dumbbell, build_fat_tree


@pytest.fixture
def fat_routing() -> EcmpRouting:
    return EcmpRouting(build_fat_tree(4))


def test_path_endpoints(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    path = fat_routing.path(key)
    assert path[0] == "h0" and path[-1] == "h15"


def test_same_tor_path_is_two_hops(fat_routing):
    key = FlowKey("h0", "h1", 1, 2)
    assert fat_routing.path(key) == ["h0", "e0", "h1"]


def test_cross_pod_path_length(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    # h -> edge -> agg -> core -> agg -> edge -> h
    assert len(fat_routing.path(key)) == 7


def test_intra_pod_cross_tor_path_length(fat_routing):
    key = FlowKey("h0", "h2", 1, 2)
    # h -> edge -> agg -> edge -> h
    assert len(fat_routing.path(key)) == 5


def test_path_stable_for_same_flow(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    assert fat_routing.path(key) == fat_routing.path(key)


def test_different_flows_spread_over_paths(fat_routing):
    paths = {tuple(fat_routing.path(FlowKey("h0", "h15", p, 2)))
             for p in range(40)}
    assert len(paths) > 1, "ECMP should use multiple equal-cost paths"


def test_ecmp_candidates_all_shortest(fat_routing):
    candidates = fat_routing.ecmp_candidates("e0", "h15")
    assert set(candidates) == {"a0", "a1"}


def test_ecmp_candidate_at_destination_tor(fat_routing):
    assert fat_routing.ecmp_candidates("e7", "h15") == ["h15"]


def test_next_hop_at_destination_raises(fat_routing):
    key = FlowKey("h0", "h1", 1, 2)
    with pytest.raises(RoutingError):
        fat_routing.next_hop("h1", key)


def test_override_changes_next_hop(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    original = fat_routing.next_hop("e0", key)
    alternative = ({"a0", "a1"} - {original}).pop()
    fat_routing.set_override("e0", key, alternative)
    assert fat_routing.next_hop("e0", key) == alternative
    fat_routing.clear_override("e0", key)
    assert fat_routing.next_hop("e0", key) == original


def test_override_requires_neighbor(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    with pytest.raises(RoutingError):
        fat_routing.set_override("e0", key, "c0")


def test_override_loop_detected_by_path(fat_routing):
    key = FlowKey("h0", "h15", 1, 2)
    path = fat_routing.path(key)
    agg = path[2]
    # bounce the flow from the agg back down to its edge switch
    fat_routing.set_override(agg, key, "e0")
    with pytest.raises(RoutingError):
        fat_routing.path(key)
    fat_routing.clear_override(agg, key)
    assert fat_routing.path(key)[0] == "h0"


def test_seed_changes_hash_selection():
    topo = build_fat_tree(4)
    keys = [FlowKey("h0", "h15", p, 2) for p in range(30)]
    paths_a = [tuple(EcmpRouting(topo, seed=1).path(k)) for k in keys]
    paths_b = [tuple(EcmpRouting(topo, seed=2).path(k)) for k in keys]
    assert paths_a != paths_b


def test_base_rtt_increases_with_distance(fat_routing):
    near = fat_routing.base_rtt_ns("h0", "h1")
    mid = fat_routing.base_rtt_ns("h0", "h2")
    far = fat_routing.base_rtt_ns("h0", "h15")
    assert near < mid < far


def test_base_rtt_dumbbell_value():
    routing = EcmpRouting(build_dumbbell(1))
    # 3 links, 2 us each way = 12 us propagation plus serialization of
    # one full packet out and one ACK back
    assert (RTT_PACKET_BYTES, RTT_ACK_BYTES) == (4162, 64)
    rtt = routing.base_rtt_ns("h0", "h1")
    prop = 2 * 3 * 2_000
    serial = 3 * (4162 + 64) * 8 / 100e9 * 1e9
    assert rtt == pytest.approx(prop + serial)


def test_unreachable_destination_raises():
    from repro.simnet.topology import NodeKind, Topology

    topo = Topology("t")
    topo.add_node("h0", NodeKind.HOST)
    topo.add_node("h1", NodeKind.HOST)
    topo.add_node("s0", NodeKind.SWITCH)
    topo.add_node("s1", NodeKind.SWITCH)
    topo.add_link("h0", "s0")
    topo.add_link("h1", "s1")  # two islands
    routing = EcmpRouting(topo)
    with pytest.raises(RoutingError):
        routing.next_hop("s0", FlowKey("h0", "h1", 1, 2))
