"""Small uncovered paths across modules."""

from repro.core.diagnosis import AnomalyType
from repro.core.monitor import HostMonitor, WaitingState
from repro.core.reports import RECOMMENDED_ACTIONS
from repro.collective.ring import ring_allgather
from repro.simnet.engine import Simulator
from repro.simnet.packet import FlowKey, PacketKind, make_control_packet
from repro.simnet.port import EgressPort
from repro.simnet.telemetry import WINDOW_NS, WindowedCounter
from repro.simnet.units import gbps


def test_every_anomaly_type_has_a_runbook_action():
    for anomaly_type in AnomalyType:
        assert anomaly_type in RECOMMENDED_ACTIONS
        assert RECOMMENDED_ACTIONS[anomaly_type]


def test_control_queue_bytes_accounting():
    sim = Simulator()
    port = EgressPort(sim, "n", 0, gbps(100), 1000.0)
    port.deliver_fn = lambda pkt, ingress: None
    packet = make_control_packet(PacketKind.ACK, None, "a", "b", 0.0)
    port.enqueue(packet)
    # packet may already be serializing; total accounted bytes is
    # either still queued (0 after pop) — drain and check steady state
    sim.run()
    assert port.control_queue_bytes == 0


def test_windowed_counter_exact_boundary():
    counter = WindowedCounter()
    counter.add(0.0, "k", 1)
    # exactly one window later: previous epoch must still be visible
    assert counter.snapshot(WINDOW_NS) == {"k": 1.0}
    # exactly two windows later: gone
    assert counter.snapshot(2 * WINDOW_NS) == {}


def test_monitor_degenerate_send_ahead_state():
    """send > recv should never happen, but the monitor must not
    misreport it as non-waiting."""
    schedule = ring_allgather(["a", "b", "c"], 100)
    monitor = HostMonitor("a", schedule)
    monitor.send_steps_completed = 1
    monitor.recv_steps_completed = 0
    assert monitor.waiting_state() is WaitingState.WAITING


def test_flow_key_protocol_default():
    key = FlowKey("a", "b", 1, 2)
    assert key.protocol == "UDP"
    assert key.reversed().protocol == "UDP"


def test_port_repr_and_event_repr_smoke():
    sim = Simulator()
    port = EgressPort(sim, "n", 0, gbps(100), 1000.0)
    assert "EgressPort" in repr(port)
    event = sim.schedule(5, lambda: None)
    assert "Event" in repr(event)


def test_simulator_run_with_no_events_is_noop():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.events_processed == 0


def test_waiting_vertex_str():
    from repro.core.waiting_graph import WaitingVertex

    vertex = WaitingVertex("h3", 2, "end")
    assert str(vertex) == "F[h3]S2.end"


def test_port_ref_str():
    from repro.simnet.pfc import PortRef

    assert str(PortRef("e0", 3)) == "e0.p3"


def test_packet_repr_smoke():
    from repro.simnet.packet import make_data_packet

    packet = make_data_packet(FlowKey("a", "b", 1, 2), 0, 100, 0.0)
    assert "data" in repr(packet)
