"""Scenario generators: determinism, ground truth, collision placement."""

import pytest

from repro.anomalies.scenarios import (
    PAPER_CASE_COUNTS,
    ScenarioConfig,
    collective_paths,
    find_colliding_flow,
    make_cases,
    _switch_links,
)
from repro.simnet.units import ms


@pytest.fixture(scope="module")
def config() -> ScenarioConfig:
    return ScenarioConfig(scale=0.002)


def test_paper_case_counts():
    assert PAPER_CASE_COUNTS["flow_contention"] == 60
    assert PAPER_CASE_COUNTS["incast"] == 60
    assert PAPER_CASE_COUNTS["pfc_storm"] == 40
    assert PAPER_CASE_COUNTS["pfc_backpressure"] == 60


def test_paper_scenarios_exclude_extensions():
    from repro.anomalies.scenarios import _INJECTORS, SCENARIOS

    assert SCENARIOS == ("flow_contention", "incast", "pfc_storm",
                         "pfc_backpressure")
    assert "load_imbalance" in _INJECTORS
    assert make_cases("load_imbalance", 1)[0].scenario == "load_imbalance"


def test_make_cases_unknown_scenario():
    with pytest.raises(ValueError):
        make_cases("martian_interference")


def test_case_seeds_differ_by_id(config):
    cases = make_cases("flow_contention", 5, config)
    assert len({c.seed for c in cases}) == 5


def test_case_seed_stable(config):
    a = make_cases("incast", 1, config)[0]
    b = make_cases("incast", 1, config)[0]
    assert a.seed == b.seed


def test_chunk_bytes_scaled(config):
    assert config.chunk_bytes == int(360e6 * 0.002)


def test_collective_nodes_spread_with_rtt_diversity(config):
    nodes = config.collective_nodes()
    assert len(nodes) == 8
    tors = {int(n[1:]) // 2 for n in nodes}
    # spread across many ToRs, but h0/h1 share one (diverse base RTTs)
    assert len(tors) == 7
    assert {"h0", "h1"} <= set(nodes)


def test_build_network_fresh_instances(config):
    case = make_cases("flow_contention", 1, config)[0]
    net1, rt1 = case.build_network()
    net2, rt2 = case.build_network()
    assert net1 is not net2
    assert rt1.schedule.nodes == rt2.schedule.nodes


def test_inject_requires_started_runtime(config):
    case = make_cases("flow_contention", 1, config)[0]
    net, runtime = case.build_network()
    with pytest.raises(RuntimeError):
        case.inject(net, runtime)


def test_contention_flows_collide_with_collective(config):
    case = make_cases("flow_contention", 3, config)[2]
    net, runtime = case.build_network()
    runtime.start()
    truth = case.inject(net, runtime)
    assert 1 <= len(truth.injected_flows) <= 6
    assert truth.expects_flow_detection
    links = set()
    for path in collective_paths(net, runtime).values():
        links |= _switch_links(path, net)
    for key in truth.injected_flows:
        bg_links = _switch_links(net.routing.path(key), net)
        assert bg_links & links, f"{key.short()} does not collide"


def test_incast_ground_truth(config):
    case = make_cases("incast", 1, config)[0]
    net, runtime = case.build_network()
    runtime.start()
    truth = case.inject(net, runtime)
    assert 3 <= len(truth.injected_flows) <= 8
    destinations = {f.dst for f in truth.injected_flows}
    assert len(destinations) == 1
    assert destinations <= set(config.collective_nodes())
    starts = {net.flows[k].stats.start_time
              for k in truth.injected_flows}
    assert len(starts) == 1, "incast flows start simultaneously"


def test_storm_ground_truth_on_collective_path(config):
    case = make_cases("pfc_storm", 1, config)[0]
    net, runtime = case.build_network()
    runtime.start()
    truth = case.inject(net, runtime)
    assert truth.root_port is not None
    assert truth.root_port.node in net.switches
    paths = collective_paths(net, runtime)
    on_path = any(truth.root_port.node in path for path in paths.values())
    assert on_path


def test_backpressure_target_off_collective(config):
    case = make_cases("pfc_backpressure", 1, config)[0]
    net, runtime = case.build_network()
    runtime.start()
    truth = case.inject(net, runtime)
    members = set(config.collective_nodes())
    assert all(f.dst not in members for f in truth.injected_flows)
    assert truth.root_port is not None
    # root is the ToR egress toward the incast target
    target = next(iter(truth.injected_flows)).dst
    tor = next(iter(net.topology.neighbors(target)))
    assert truth.root_port.node == tor


def test_backpressure_rejects_a_ring_covering_every_host():
    full = ScenarioConfig(scale=0.002, num_collective_nodes=16)
    case = make_cases("pfc_backpressure", 1, full)[0]
    net, runtime = case.build_network()
    runtime.start()
    with pytest.raises(ValueError,
                       match=r"pfc_backpressure.*16-node ring.*k=4"):
        case.inject(net, runtime)


def test_same_seed_same_injection(config):
    def injected(case):
        net, runtime = case.build_network()
        runtime.start()
        truth = case.inject(net, runtime)
        return sorted((k.src, k.dst) for k in truth.injected_flows)

    case_a = make_cases("flow_contention", 1, config)[0]
    case_b = make_cases("flow_contention", 1, config)[0]
    assert injected(case_a) == injected(case_b)


def test_find_colliding_flow_shares_a_collective_link(config):
    import random

    case = make_cases("flow_contention", 1, config)[0]
    net, runtime = case.build_network()
    runtime.start()
    links = set()
    for path in collective_paths(net, runtime).values():
        links |= _switch_links(path, net)
    key = find_colliding_flow(net, links, random.Random(1))
    assert key is not None
    assert _switch_links(net.routing.path(key), net) & links


def test_run_deadline_scales(config):
    assert config.run_deadline_ns() == pytest.approx(
        ms(2_000) * 0.002)
