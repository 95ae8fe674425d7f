"""Network assembly, accounting, polls and notifications."""

import pytest

from repro.simnet.network import Network, NetworkConfig
from repro.simnet.packet import MTU_PAYLOAD_BYTES
from repro.simnet.topology import build_dumbbell, build_fat_tree
from repro.simnet.units import ms, us


def test_node_partition():
    net = Network(build_fat_tree(4))
    assert len(net.hosts) == 16
    assert len(net.switches) == 20
    assert set(net.hosts) | set(net.switches) == set(net.topology.nodes)


def test_ports_wired_symmetrically():
    net = Network(build_dumbbell(1))
    s0 = net.switches["s0"]
    s1 = net.switches["s1"]
    port = s0.port_toward("s1")
    assert port.peer_node_id == "s1"
    peer = s1.ports[port.peer_port_id]
    assert peer.peer_node_id == "s0"
    assert peer.peer_port_id == port.port_id


def test_every_node_has_port_per_neighbor():
    net = Network(build_fat_tree(4))
    for node_id in net.topology.nodes:
        node = net.node(node_id)
        assert len(node.ports) == net.topology.degree(node_id)


def test_host_ports_capped_switch_ports_not():
    net = Network(build_dumbbell(1))
    assert net.hosts["h0"].ports[0].data_queue_cap_bytes is not None
    assert net.switches["s0"].ports[0].data_queue_cap_bytes is None


def test_create_flow_validations():
    net = Network(build_dumbbell(1))
    with pytest.raises(KeyError):
        net.create_flow("s0", "h1", 1000)   # switches can't be endpoints
    with pytest.raises(ValueError):
        net.create_flow("h0", "h0", 1000)   # self-flow


def test_flow_keys_unique():
    net = Network(build_dumbbell(1))
    a = net.new_flow_key("h0", "h1")
    b = net.new_flow_key("h0", "h1")
    assert a != b
    assert a.dst_port == 4791  # RoCEv2 UDP port


def test_effective_window_override():
    net = Network(build_dumbbell(1), config=NetworkConfig(window_bytes=12345))
    assert net.effective_window_bytes() == 12345


def test_effective_window_auto_positive():
    net = Network(build_fat_tree(4))
    window = net.effective_window_bytes()
    assert window >= 4 * MTU_PAYLOAD_BYTES


def test_poll_flow_counts_and_travels():
    net = Network(build_dumbbell(1))
    flow = net.create_flow("h0", "h1", 200_000)
    flow.start()
    net.run(until=us(20))
    poll_id = net.poll_flow(flow.key)
    net.run_until_quiet(max_time=ms(5))
    assert net.poll_packets >= 1
    assert net.poll_bytes > 0
    assert poll_id.startswith("h0#")
    # both switches on the path reported
    switches = {r.switch_id for r in net.collected_reports}
    assert {"s0", "s1"} <= switches


def test_reports_counted_and_delivered_with_delay():
    net = Network(build_dumbbell(1))
    flow = net.create_flow("h0", "h1", 100_000)
    flow.start()
    net.run(until=us(10))
    net.poll_flow(flow.key)
    before = net.sim.now
    net.run_until_quiet(max_time=ms(5))
    assert net.report_count == len(net.collected_reports)
    assert net.report_bytes > 0
    assert all(r.time >= before for r in net.collected_reports)


def test_custom_report_sink():
    net = Network(build_dumbbell(1))
    got = []
    net.set_report_sink(got.append)
    flow = net.create_flow("h0", "h1", 100_000)
    flow.start()
    net.run(until=us(10))
    net.poll_flow(flow.key)
    net.run_until_quiet(max_time=ms(5))
    assert got and not net.collected_reports


def test_notify_delivery_and_accounting():
    net = Network(build_dumbbell(1))
    seen = []
    net.hosts["h1"].notify_handlers.append(
        lambda pkt: seen.append(pkt.payload))
    net.send_notify("h0", "h1", {"kind": "detection_opportunities",
                                 "count": 2})
    net.run_until_quiet(max_time=ms(1))
    assert seen == [{"kind": "detection_opportunities", "count": 2}]
    assert net.notify_packets == 1
    assert net.notify_bytes > 0


def test_overhead_properties_compose():
    net = Network(build_dumbbell(1))
    flow = net.create_flow("h0", "h1", 300_000)
    flow.start()
    net.run(until=us(10))
    net.poll_flow(flow.key)
    net.send_notify("h0", "h1", {})
    net.run_until_quiet(max_time=ms(5))
    assert net.processing_overhead_bytes == net.report_bytes
    assert net.bandwidth_overhead_bytes == \
        net.poll_bytes + net.notify_bytes + net.report_bytes


def test_deterministic_given_seed():
    def fct(seed):
        net = Network(build_fat_tree(4), config=NetworkConfig(seed=seed))
        f1 = net.create_flow("h0", "h13", 500_000)
        f2 = net.create_flow("h4", "h13", 500_000)
        f1.start()
        f2.start()
        net.run_until_quiet(max_time=ms(20))
        return (f1.stats.complete_time, f2.stats.complete_time)

    assert fct(7) == fct(7)
