"""Switch internals: polling machinery, ECN, PFC accounting invariants."""

from repro.simnet.network import Network, NetworkConfig
from repro.simnet.packet import (
    MTU_PAYLOAD_BYTES,
    PacketKind,
    make_control_packet,
    make_data_packet,
)
from repro.simnet.switch import ECN_KMAX_BYTES, MAX_CHASE_DEPTH
from repro.simnet.topology import build_dumbbell, build_fat_tree, build_linear
from repro.simnet.units import KB, ms, us


# ----------------------------------------------------------------------
# ingress accounting
# ----------------------------------------------------------------------
def test_ingress_usage_drains_to_zero():
    net = Network(build_fat_tree(4))
    flows = [net.create_flow(f"h{i}", "h15", 500_000) for i in (0, 4, 8)]
    for flow in flows:
        flow.start()
    net.run_until_quiet(max_time=ms(50))
    assert all(f.completed for f in flows)
    for switch in net.switches.values():
        for port, usage in switch.ingress_usage.items():
            assert usage == 0, f"{switch.node_id} port {port} leaked"


def test_upstream_paused_flags_clear():
    config = NetworkConfig(pfc_xoff_bytes=48 * KB, pfc_xon_bytes=24 * KB)
    net = Network(build_fat_tree(4), config=config)
    for i in (4, 8, 12, 2):
        net.create_flow(f"h{i}", "h0", 1_000_000).start()
    net.run_until_quiet(max_time=ms(50))
    for switch in net.switches.values():
        assert not any(switch.upstream_paused.values())


def test_pause_refresh_under_sustained_congestion():
    """A long incast must refresh PAUSE frames, not fire just once."""
    config = NetworkConfig(pfc_xoff_bytes=32 * KB, pfc_xon_bytes=16 * KB)
    net = Network(build_fat_tree(4), config=config)
    for i in (4, 8, 12, 2, 6, 10):
        net.create_flow(f"h{i}", "h0", 3_000_000).start()
    net.run_until_quiet(max_time=ms(60))
    tor = net.switches["e0"]
    sent = tor.telemetry.pause_log.sent
    assert len(sent) > 2, "sustained congestion should refresh pauses"


# ----------------------------------------------------------------------
# ECN marking
# ----------------------------------------------------------------------
def test_no_ecn_marks_below_kmin():
    net = Network(build_dumbbell(1))
    flow = net.create_flow("h0", "h1", 200_000)
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert flow.stats.cnps_received == 0, \
        "an uncontended flow should see no congestion marks"


def test_ecn_marks_above_kmax_always():
    """Hold the bottleneck egress paused until two senders fill its
    queue past KMAX: the next ECN-capable arrival is marked."""
    net = Network(build_dumbbell(2),
                  config=NetworkConfig(window_bytes=1_000_000))
    s0 = net.switches["s0"]
    egress = s0.ports[s0.neighbor_port["s1"]]
    egress.pause(ms(1))
    f1 = net.create_flow("h0", "h2", 500_000)
    f2 = net.create_flow("h1", "h3", 500_000)
    f1.start()
    f2.start()
    net.run(until=us(100))
    assert egress.data_queue_bytes >= ECN_KMAX_BYTES
    probe = make_data_packet(f1.key, 0, MTU_PAYLOAD_BYTES, net.sim.now)
    s0.receive(probe, s0.neighbor_port["h0"])
    assert probe.ecn_marked


# ----------------------------------------------------------------------
# polling machinery
# ----------------------------------------------------------------------
def contended_fat_tree():
    net = Network(build_fat_tree(4))
    cf = net.create_flow("h0", "h15", 1_500_000)
    bf = net.create_flow("h1", "h15", 1_500_000)
    cf.start()
    bf.start()
    return net, cf, bf


def test_poll_reports_scoped_to_flow_egress():
    net, cf, _ = contended_fat_tree()
    net.run(until=us(40))
    net.poll_flow(cf.key)
    net.run_until_quiet(max_time=ms(20))
    path = net.routing.path(cf.key)
    for report in net.collected_reports:
        if report.switch_id in net.switches:
            assert report.switch_id in path
            # flow-scoped: exactly one port entry per transit switch
            assert len(report.ports) <= 2


def test_poll_id_propagates_to_all_reports():
    net, cf, _ = contended_fat_tree()
    net.run(until=us(40))
    poll_id = net.poll_flow(cf.key)
    net.run_until_quiet(max_time=ms(20))
    assert net.collected_reports
    assert all(r.poll_id == poll_id for r in net.collected_reports)


def pfc_linear():
    """Three switches in a chain, three senders incast at h5 under
    shallow PFC thresholds, 120 us in; (network, victim flow)."""
    config = NetworkConfig(pfc_xoff_bytes=32 * KB, pfc_xon_bytes=16 * KB)
    net = Network(build_linear(3, hosts_per_switch=2), config=config)
    victim = net.create_flow("h0", "h5", 1_000_000)
    victim.start()
    for src in ("h2", "h4", "h3"):
        net.create_flow(src, "h5", 2_000_000).start()
    net.run(until=us(120))
    return net, victim


def test_chase_poll_visits_pause_sender():
    """Under PFC, polling must fan out to the pausing switch."""
    net, victim = pfc_linear()
    net.poll_flow(victim.key)
    net.run_until_quiet(max_time=ms(30))
    switches = {r.switch_id for r in net.collected_reports}
    # the flow path covers s0..s2; chase must at least reach s1/s2
    assert "s1" in switches or "s2" in switches


def test_chase_depth_bounded():
    """A switch whose recently paused ports would be chased reports at
    MAX_CHASE_DEPTH but sends no chase poll; one hop shallower it does."""
    net, _ = pfc_linear()
    now = net.sim.now
    switch, scope = next(
        (switch, scope) for switch in net.switches.values()
        for scope in [{port for port in switch.ports
                       if switch.telemetry.recent_pauses_on_port(now, port)}]
        if scope)
    polls, reports = net.poll_packets, net.report_count
    switch._report_and_chase(scope, "deep", set(), MAX_CHASE_DEPTH)
    assert net.report_count == reports + 1
    assert net.poll_packets == polls
    switch._report_and_chase(scope, "shallow", set(), MAX_CHASE_DEPTH - 1)
    assert net.poll_packets > polls


def test_chase_poll_packet_is_consumed_at_target():
    """Chase polls addressed to a switch must not leak to hosts."""
    config = NetworkConfig(pfc_xoff_bytes=32 * KB, pfc_xon_bytes=16 * KB)
    net = Network(build_linear(3, hosts_per_switch=2), config=config)
    seen_at_hosts = []
    for host in net.hosts.values():
        host.poll_handlers.append(
            lambda pkt, h=host: seen_at_hosts.append(
                (h.node_id, pkt.payload.get("chase"))))
    victim = net.create_flow("h0", "h5", 1_000_000)
    victim.start()
    for src in ("h2", "h4", "h3"):
        net.create_flow(src, "h5", 2_000_000).start()
    net.run(until=us(120))
    net.poll_flow(victim.key)
    net.run_until_quiet(max_time=ms(30))
    assert all(not chase for _, chase in seen_at_hosts)


def test_notify_packet_reaches_only_destination():
    net = Network(build_fat_tree(4))
    received = {}
    for node, host in net.hosts.items():
        host.notify_handlers.append(
            lambda pkt, n=node: received.setdefault(n, 0))

    def count(node):
        def handler(pkt):
            received[node] = received.get(node, 0) + 1
        return handler

    received.clear()
    net.hosts["h7"].notify_handlers.append(count("h7"))
    net.hosts["h3"].notify_handlers.append(count("h3"))
    net.send_notify("h0", "h7", {"kind": "x"})
    net.run_until_quiet(max_time=ms(5))
    assert received.get("h7") == 1
    assert received.get("h3") is None


def test_ttl_expiry_drops_and_counts():
    net = Network(build_dumbbell(1))
    net.create_flow("h0", "h1", 50_000)
    packet = make_control_packet(PacketKind.NOTIFY, None, "h0", "h1", 0.0)
    packet.ttl = 1
    net.hosts["h0"].send_packet(packet)
    net.run_until_quiet(max_time=ms(2))
    assert net.ttl_drops == 1
