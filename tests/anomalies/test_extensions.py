"""Extension anomalies (§V): forwarding loops and PFC deadlock."""

from repro.anomalies.extensions import (
    build_deadlock_network,
    inject_transient_loop,
)
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.diagnosis import AnomalyType, diagnose
from repro.core.provenance import build_provenance
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import (
    RING_SWITCHES,
    build_fat_tree,
    build_switch_ring,
)
from repro.simnet.units import ms, us

NODES = ["h0", "h4", "h8", "h12"]


def test_switch_ring_topology():
    topo = build_switch_ring(hosts_per_switch=1)
    assert len(topo.switches) == RING_SWITCHES
    assert len(topo.hosts) == RING_SWITCHES
    # it is a cycle: every switch has 2 switch neighbors + 1 host
    for s in topo.switches:
        assert topo.degree(s) == 3


def test_transient_loop_heals_and_collective_completes():
    net = Network(build_fat_tree(4))
    net.config.rto_ns = us(400)  # recover quickly after healing
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    VedrfolnirSystem(net, runtime)
    runtime.start()
    injection = inject_transient_loop(net, runtime, NODES[0],
                                      heal_after_ns=ms(1))
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    assert net.ttl_drops > 0
    flow = runtime.flows[(NODES[0], 0)]
    assert flow.stats.retransmissions > 0
    assert injection.flow == flow.key


def test_loop_diagnosed_from_collected_telemetry():
    net = Network(build_fat_tree(4))
    net.config.rto_ns = us(400)
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    inject_transient_loop(net, runtime, NODES[0], heal_after_ns=ms(1))
    net.run_until_quiet(max_time=ms(200))
    diagnosis = system.analyze()
    loops = diagnosis.result.of_type(AnomalyType.FORWARDING_LOOP)
    assert loops, "stall-triggered polls should surface the TTL drops"


def test_deadlock_network_forms_pause_cycle():
    net, flows = build_deadlock_network()
    net.run(until=ms(2))
    # harvest full telemetry from all three ring switches
    reports = [s.telemetry.make_report(net.sim.now, s.ports)
               for s in net.switches.values()]
    graph = build_provenance(reports, [], net.config.pfc_xoff_bytes)
    cycles = graph.port_port_cycles()
    assert cycles, "the rigged ring should close a PFC wait cycle"
    result = diagnose(graph)
    assert result.has(AnomalyType.PFC_DEADLOCK)


def test_deadlock_forced_routes_take_long_way():
    net, flows = build_deadlock_network()
    for flow in flows:
        path = net.routing.path(flow.key)
        switches = [n for n in path if n in net.switches]
        assert len(switches) == 3, "forced the long way around the ring"
