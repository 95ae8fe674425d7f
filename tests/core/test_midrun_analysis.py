"""Mid-run (online) analysis: the analyzer works on partial data."""

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms, us

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture
def midrun():
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 400_000))
    system = VedrfolnirSystem(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 3_000_000).start()
    # stop roughly mid-collective
    net.run(until=us(120))
    assert not runtime.completed
    return net, runtime, system


def test_partial_analysis_does_not_crash(midrun):
    _, runtime, system = midrun
    diagnosis = system.analyze()
    assert 0 < len(diagnosis.waiting_graph.records) \
        < len(runtime.flow_keys)


def test_partial_critical_path_is_consistent(midrun):
    _, _, system = midrun
    diagnosis = system.analyze()
    path = diagnosis.critical_path
    if path:
        ends = [e.end_time for e in path]
        assert ends == sorted(ends)


def test_analysis_is_repeatable_and_pure(midrun):
    """analyze() must not mutate analyzer state: running it twice gives
    the same result, and the run can continue afterwards."""
    net, runtime, system = midrun
    first = system.analyze().summary()
    second = system.analyze().summary()
    assert first == second
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    final = system.analyze()
    assert len(final.waiting_graph.records) == len(runtime.flow_keys)


def test_final_analysis_supersedes_partial(midrun):
    net, runtime, system = midrun
    partial = system.analyze()
    net.run_until_quiet(max_time=ms(200))
    final = system.analyze()
    assert len(final.waiting_graph.records) >= \
        len(partial.waiting_graph.records)
    assert final.result.findings  # contention must be diagnosed by now
