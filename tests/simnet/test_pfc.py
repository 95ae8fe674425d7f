"""PFC generation, propagation, storm injection."""

from repro.simnet.network import Network, NetworkConfig
from repro.simnet.pfc import PfcStormInjector, PortRef
from repro.simnet.topology import build_dumbbell, build_fat_tree, build_linear
from repro.simnet.units import KB, ms, us
from tests.simnet.test_flow import fct


def incast_net(xoff=64 * KB) -> Network:
    config = NetworkConfig(pfc_xoff_bytes=xoff, pfc_xon_bytes=xoff // 2)
    return Network(build_fat_tree(4), config=config)


def drive_incast(net, target="h0", sources=("h4", "h8", "h12", "h2"),
                 size=1_500_000):
    flows = [net.create_flow(src, target, size) for src in sources]
    for flow in flows:
        flow.start()
    net.run_until_quiet(max_time=ms(50))
    return flows


def test_incast_triggers_pauses():
    net = incast_net()
    flows = drive_incast(net)
    assert all(f.completed for f in flows)
    total_pauses = sum(len(s.telemetry.pause_log.sent)
                       for s in net.switches.values())
    assert total_pauses > 0


def test_pause_originates_at_target_tor():
    net = incast_net()
    drive_incast(net, target="h0")
    tor = net.switches["e0"]
    assert tor.telemetry.pause_log.sent, \
        "the incast target's ToR should emit PAUSE frames"


def test_pause_events_are_genuine_and_justified():
    net = incast_net()
    drive_incast(net)
    for switch in net.switches.values():
        for event in switch.telemetry.pause_log.sent:
            assert event.genuine
            assert event.buffer_bytes_at_send >= \
                net.config.pfc_xoff_bytes


def test_resume_follows_pause():
    net = incast_net()
    drive_incast(net)
    tor = net.switches["e0"]
    assert tor.telemetry.pause_log.resumes_sent, \
        "XON crossing should emit RESUME"


def test_pause_received_recorded_at_victim():
    net = incast_net()
    drive_incast(net)
    received = sum(len(s.telemetry.pause_log.received)
                   for s in net.switches.values())
    assert received > 0


def test_multihop_backpressure_in_chain():
    """Linear topology: incast at the tail propagates pauses upstream."""
    config = NetworkConfig(pfc_xoff_bytes=32 * KB, pfc_xon_bytes=16 * KB)
    net = Network(build_linear(3, hosts_per_switch=2), config=config)
    # h0,h1 on s0; h2,h3 on s1; h4,h5 on s2.  Converge on h5: the local
    # sender h4 plus the chain traffic overload s2's host port, so the
    # pause tree roots at s2 and climbs upstream.
    flows = [net.create_flow(src, "h5", 2_000_000)
             for src in ("h0", "h2", "h1", "h4")]
    for f in flows:
        f.start()
    net.run_until_quiet(max_time=ms(60))
    assert all(f.completed for f in flows)
    senders = {s.node_id for s in net.switches.values()
               if s.telemetry.pause_log.sent}
    assert "s2" in senders
    # backpressure should reach at least one upstream switch
    assert len(senders) >= 2


def test_storm_injector_sends_ungrounded_pauses():
    net = Network(build_dumbbell(1))
    injector = PfcStormInjector(net, "s0", 0, start_ns=0.0,
                                duration_ns=us(500), refresh_ns=us(100))
    injector.arm()
    net.run_until_quiet(max_time=ms(2))
    assert injector.frames_sent == 5
    events = net.switches["s0"].telemetry.pause_log.sent
    assert events and all(not e.genuine for e in events)


def test_storm_halts_victim_flow():
    net = Network(build_dumbbell(1))
    flow = net.create_flow("h0", "h1", 1_000_000)
    # storm at s0's ingress from h0 halts h0's NIC
    s0 = net.switches["s0"]
    port = s0.neighbor_port["h0"]
    PfcStormInjector(net, "s0", port, start_ns=us(10),
                     duration_ns=us(400), refresh_ns=us(100)).arm()
    flow.start()
    net.run_until_quiet(max_time=ms(20))
    clean = Network(build_dumbbell(1))
    ref = clean.create_flow("h0", "h1", 1_000_000)
    ref.start()
    clean.run_until_quiet(max_time=ms(20))
    assert flow.completed
    assert fct(flow) > fct(ref) + us(200)


def test_storm_source_ref():
    net = Network(build_dumbbell(1))
    injector = PfcStormInjector(net, "s0", 2, 0.0, us(100))
    assert injector.source_ref == PortRef("s0", 2)


def test_storm_arm_idempotent():
    net = Network(build_dumbbell(1))
    injector = PfcStormInjector(net, "s0", 0, 0.0, us(200), refresh_ns=us(50))
    injector.arm()
    injector.arm()
    net.run_until_quiet(max_time=ms(1))
    assert injector.frames_sent == 4


def test_control_traffic_unaffected_by_pause():
    """ACK/CNP class must keep flowing through paused ports."""
    net = Network(build_dumbbell(1))
    s1 = net.switches["s1"]
    # pause s1's egress toward h1 (DATA only)
    s1.port_toward("h1").pause(ms(5))
    flow = net.create_flow("h0", "h1", 200_000)
    flow.start()
    net.run_until_quiet(max_time=ms(20))
    assert flow.completed
    # data waited for the pause to lapse
    assert fct(flow) > ms(4)


def test_pause_log_queries():
    net = incast_net()
    drive_incast(net)
    tor = net.switches["e0"]
    log = tor.telemetry.pause_log
    first = log.sent[0]
    assert first.sender.node == tor.node_id
    assert [e.time for e in log.sent] == sorted(e.time for e in log.sent)
