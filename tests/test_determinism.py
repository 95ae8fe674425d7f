"""End-to-end determinism: identical inputs give identical outputs.

Determinism is what makes every scenario case, figure and trace in this
repo reproducible; these tests pin it at the system level (the engine
and network layers have their own finer-grained checks).
"""

import json

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import TraceRecorder
from repro.traces.serialize import encode_step_record

NODES = ["h0", "h4", "h8", "h12"]


def run_and_capture(tmp_path, tag):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    system = VedrfolnirSystem(net, runtime)
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_500_000).start()
    net.run_until_quiet(max_time=ms(100))
    path = tmp_path / f"{tag}.jsonl"
    recorder.write(path)
    return path, runtime, system


def test_identical_runs_produce_identical_traces(tmp_path):
    path_a, _, _ = run_and_capture(tmp_path, "a")
    path_b, _, _ = run_and_capture(tmp_path, "b")
    assert path_a.read_text() == path_b.read_text()


def test_identical_runs_produce_identical_diagnoses(tmp_path):
    _, _, system_a = run_and_capture(tmp_path, "a")
    _, _, system_b = run_and_capture(tmp_path, "b")
    diag_a, diag_b = system_a.analyze(), system_b.analyze()
    assert diag_a.summary() == diag_b.summary()
    assert diag_a.collective_scores == diag_b.collective_scores


def test_step_records_identical_across_runs(tmp_path):
    _, runtime_a, _ = run_and_capture(tmp_path, "a")
    _, runtime_b, _ = run_and_capture(tmp_path, "b")
    records_a = [json.dumps(encode_step_record(r))
                 for r in runtime_a.records]
    records_b = [json.dumps(encode_step_record(r))
                 for r in runtime_b.records]
    assert records_a == records_b


def test_scenario_cases_reproducible_end_to_end():
    """The same case id injects the same anomaly, twice."""
    config = ScenarioConfig(scale=0.002)
    truths = []
    for _ in range(2):
        case = make_cases("pfc_storm", 1, config)[0]
        net, runtime = case.build_network()
        runtime.start()
        truths.append(case.inject(net, runtime))
    assert truths[0].root_port == truths[1].root_port


def test_different_network_seeds_change_ecmp_placement():
    from repro.simnet.network import NetworkConfig
    from repro.simnet.packet import FlowKey

    def paths(seed):
        net = Network(build_fat_tree(4),
                      config=NetworkConfig(seed=seed))
        return [tuple(net.routing.path(FlowKey("h0", "h15", p, 4791)))
                for p in range(20)]

    assert paths(1) != paths(99)
