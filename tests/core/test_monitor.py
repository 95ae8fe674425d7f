"""Host monitor: SSQ/RSQ and Table I waiting states."""

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.monitor import HostMonitor, WaitingState
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

NODES = ["h0", "h4", "h8", "h12"]


def test_ssq_holds_send_targets():
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h0", schedule)
    assert monitor.ssq == ["h4", "h4", "h4"]


def test_rsq_holds_waited_sources():
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h4", schedule)
    assert monitor.rsq == [None, "h0", "h0"]


def test_initial_state_first_step_without_dep_is_non_waiting():
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h0", schedule)
    assert monitor.waiting_state() is WaitingState.NON_WAITING


def test_waiting_when_send_equals_recv():
    """Table I row 1: Send Steps == Recv Steps -> waiting."""
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h0", schedule)
    monitor.send_steps_completed = 1
    monitor.recv_steps_completed = 1
    assert monitor.waiting_state() is WaitingState.WAITING


def test_non_waiting_when_recv_ahead():
    """Table I row 2: Send Steps < Recv Steps -> non-waiting."""
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h0", schedule)
    monitor.send_steps_completed = 1
    monitor.recv_steps_completed = 2
    assert monitor.waiting_state() is WaitingState.NON_WAITING


def test_non_waiting_after_collective_done():
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h0", schedule)
    monitor.send_steps_completed = 3
    monitor.recv_steps_completed = 3
    assert monitor.waiting_state() is WaitingState.NON_WAITING


def test_waited_for_source_lookup():
    schedule = ring_allgather(NODES, 1000)
    monitor = HostMonitor("h4", schedule)
    assert monitor.waited_for_source() is None  # step 0: own chunk
    monitor.send_steps_completed = 1
    assert monitor.waited_for_source() == "h0"
    monitor.send_steps_completed = 99
    assert monitor.waited_for_source() is None


def run_with_monitors():
    net = Network(build_fat_tree(4))
    schedule = ring_allgather(NODES, 150_000)
    runtime = CollectiveRuntime(net, schedule)
    reported = []
    monitors = {n: HostMonitor(n, schedule, report_fn=reported.append)
                for n in NODES}
    for monitor in monitors.values():
        monitor.attach(runtime)
    runtime.start()
    net.run_until_quiet(max_time=ms(100))
    return runtime, monitors, reported


def test_monitors_record_own_steps_only():
    runtime, monitors, _ = run_with_monitors()
    for node, monitor in monitors.items():
        assert len(monitor.records) == 3
        assert all(r.node == node for r in monitor.records)


def test_monitor_counts_advance():
    _, monitors, _ = run_with_monitors()
    for monitor in monitors.values():
        assert monitor.send_steps_completed == 3
        assert monitor.recv_steps_completed == 3


def test_report_fn_receives_every_record():
    runtime, _, reported = run_with_monitors()
    assert len(reported) == len(runtime.records)


def test_active_flow_cleared_after_completion():
    _, monitors, _ = run_with_monitors()
    for monitor in monitors.values():
        assert monitor.active_step is None
