"""Analyzer and VedrfolnirSystem end-to-end on small scenarios."""

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.provenance import build_provenance
from repro.core.system import VedrfolnirConfig, VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

NODES = ["h0", "h4", "h8", "h12"]


def run_system(background=(), chunk=200_000, config=None):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, chunk))
    system = VedrfolnirSystem(net, runtime, config=config)
    runtime.start()
    flows = []
    for src, dst, size in background:
        flow = net.create_flow(src, dst, size)
        flow.start()
        flows.append(flow)
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    return net, runtime, system, flows


def test_quiet_run_produces_clean_diagnosis():
    _, _, system, _ = run_system()
    diagnosis = system.analyze()
    assert diagnosis.result.findings == []
    assert diagnosis.bottleneck_steps == []
    assert diagnosis.collective_scores == {}
    assert len(diagnosis.waiting_graph.records) == 12


def test_contended_run_detects_background_flow():
    _, _, system, flows = run_system(
        background=[("h1", "h4", 2_000_000), ("h5", "h4", 2_000_000)])
    diagnosis = system.analyze()
    assert diagnosis.result.findings
    detected = diagnosis.detected_flows
    assert any(f.key in detected for f in flows)


def test_contributor_scores_positive_for_culprits():
    _, _, system, flows = run_system(
        background=[("h1", "h4", 3_000_000)])
    diagnosis = system.analyze()
    key = flows[0].key
    assert diagnosis.collective_scores.get(key, 0.0) > 0.0
    top = diagnosis.top_contributors(1)
    assert top and top[0][0] == key


def test_bottleneck_steps_identified_under_load():
    _, _, system, _ = run_system(
        background=[("h1", "h4", 4_000_000), ("h5", "h4", 4_000_000)])
    diagnosis = system.analyze()
    assert diagnosis.bottleneck_steps


def weighed_steps(diagnosis, runtime, reports) -> tuple[set, set]:
    """The steps Eq. 3 weighs (critical flow known, slower than
    expected) that saw telemetry, and every step that saw telemetry."""
    waiting = diagnosis.waiting_graph
    weighed, seen = set(), set()
    for idx, node in waiting.critical_flows_by_step().items():
        start, end = waiting.windows[idx]
        if not any(start <= r.time <= end for r in reports):
            continue
        seen.add(idx)
        expected = runtime.expected_step_time_ns(
            runtime.schedule.step(node, idx))
        if (node, idx) in runtime.flow_keys \
                and waiting.durations[(node, idx)] > expected:
            weighed.add(idx)
    return weighed, seen


def test_step_provenance_sliced_by_window():
    """A step graph is built for each step Eq. 3 weighs that saw
    telemetry, and for no other; each is the provenance of the reports
    in that step's window."""
    _, runtime, system, _ = run_system(
        background=[("h1", "h4", 2_000_000)])
    diagnosis = system.analyze()
    reports = system.analyzer.reports
    weighed, seen = weighed_steps(diagnosis, runtime, reports)
    assert weighed < seen      # one step saw telemetry Eq. 3 ignores
    assert set(diagnosis.step_provenance) == weighed
    windows = diagnosis.waiting_graph.windows
    for idx, graph in diagnosis.step_provenance.items():
        start, end = windows[idx]
        assert graph == build_provenance(
            [r for r in reports if start <= r.time <= end],
            runtime.collective_flow_keys, system.analyzer.pfc_xoff_bytes)


def test_summary_is_readable():
    _, _, system, _ = run_system(
        background=[("h1", "h4", 2_000_000)])
    text = system.analyze().summary()
    assert "critical path" in text
    assert "findings" in text


def test_monitoring_disabled_collects_nothing():
    net, runtime, system, _ = run_system(
        config=VedrfolnirConfig(monitoring_enabled=False))
    assert not system.monitors
    assert not system.agents
    assert net.poll_packets == 0
    assert net.notify_packets == 0


def test_monitors_deployed_per_node():
    _, _, system, _ = run_system()
    assert set(system.monitors) == set(NODES)
    assert set(system.agents) == set(NODES)


def test_total_triggers_aggregates():
    _, _, system, _ = run_system(
        background=[("h1", "h4", 3_000_000), ("h5", "h4", 3_000_000)])
    assert system.total_triggers == sum(
        len(agent.triggers) for agent in system.agents.values())


def test_critical_path_nonempty():
    _, _, system, _ = run_system()
    diagnosis = system.analyze()
    assert diagnosis.critical_path
    ends = [e.end_time for e in diagnosis.critical_path]
    assert ends == sorted(ends)
