"""Shared fleet fixtures: one recorded scenario trace per session."""

from __future__ import annotations

import pytest


def record_scenario_trace(path, scenario="flow_contention", nodes=8):
    """A scenario capture — by default the flow-contention one the
    checkpoint tests replay: a few hundred data events, enough for
    rolling merges, budgets, and mid-stream kill points."""
    from repro.anomalies.scenarios import ScenarioConfig, make_cases
    from repro.experiments.harness import make_system
    from repro.traces import TraceRecorder

    config = ScenarioConfig(scale=0.002, base_seed=42,
                            num_collective_nodes=nodes)
    case = make_cases(scenario, 1, config)[0]
    system = make_system("vedrfolnir")
    network, runtime = case.build_network()
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    assert runtime.completed
    recorder.write(path)
    return path


@pytest.fixture(scope="session")
def trace_path(tmp_path_factory):
    """One recorded trace shared by every fleet test module (the
    recording itself is the slow part)."""
    return record_scenario_trace(
        tmp_path_factory.mktemp("fleet") / "fc.jsonl")


#: the end-to-end benchmark's corpus: four 8-node mice, one 12-node
#: elephant, case seed 42
CORPUS = (("flow_contention", 8), ("incast", 8), ("pfc_storm", 8),
          ("pfc_backpressure", 8), ("incast", 12))
LABELS = [f"{scenario}-n{nodes}" for scenario, nodes in CORPUS]
ELEPHANT = LABELS[-1]
MICE = LABELS[:-1]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory, trace_path):
    """label -> (trace path, stream events); the session's
    flow-contention capture is the corpus's first case."""
    from repro.traces import open_trace

    root = tmp_path_factory.mktemp("corpus")
    traces = {}
    for (scenario, nodes), label in zip(CORPUS, LABELS):
        path = trace_path if (scenario, nodes) == CORPUS[0] \
            else record_scenario_trace(root / f"{label}.jsonl",
                                       scenario, nodes)
        with open_trace(path) as opened:
            traces[label] = (str(path), opened.data_records)
    return traces


@pytest.fixture(scope="session")
def trace_events(trace_path):
    """The trace pre-decoded once: (header, list of events)."""
    from repro import traces

    return (traces.read_header(trace_path),
            list(traces.trace_events(trace_path)))
