"""Contributor rating: Eqs. 1-3 against hand-computed values."""

import pytest

from repro.core.provenance import ProvenanceGraph
from repro.core.rating import (
    contribution_to_collective,
    contribution_to_flow,
    contribution_to_port,
)
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PortRef

CF = FlowKey("h0", "h1", 1, 4791)
BF = FlowKey("h8", "h3", 2, 4791)
P1 = PortRef("s0", 0)
P2 = PortRef("s1", 0)
P3 = PortRef("s2", 0)


def make_graph() -> ProvenanceGraph:
    graph = ProvenanceGraph(collective_flows={CF})
    graph.flows = {CF, BF}
    graph.ports = {P1, P2, P3}
    return graph


def test_eq1_local_term_only():
    graph = make_graph()
    graph.port_flow[(P1, BF)] = 7.0
    assert contribution_to_port(graph, BF, P1) == 7.0


def test_eq1_recurses_downstream():
    """R(f, p1) = w(p1,f) + R(f, p2) * w(p1,p2)  (paper's example)."""
    graph = make_graph()
    graph.port_flow[(P1, BF)] = 2.0
    graph.port_flow[(P2, BF)] = 10.0
    graph.port_port[(P1, P2)] = 0.5
    assert contribution_to_port(graph, BF, P2) == 10.0
    assert contribution_to_port(graph, BF, P1) == 2.0 + 10.0 * 0.5


def test_eq1_three_level_chain():
    graph = make_graph()
    graph.port_flow[(P3, BF)] = 8.0
    graph.port_port[(P1, P2)] = 1.0
    graph.port_port[(P2, P3)] = 0.25
    assert contribution_to_port(graph, BF, P1) == \
        pytest.approx(8.0 * 0.25 * 1.0)


def test_eq1_branches_sum():
    graph = make_graph()
    graph.port_flow[(P2, BF)] = 4.0
    graph.port_flow[(P3, BF)] = 6.0
    graph.port_port[(P1, P2)] = 0.5
    graph.port_port[(P1, P3)] = 0.5
    assert contribution_to_port(graph, BF, P1) == \
        pytest.approx(4.0 * 0.5 + 6.0 * 0.5)


def test_eq1_cycle_guard_terminates():
    graph = make_graph()
    graph.port_flow[(P1, BF)] = 1.0
    graph.port_flow[(P2, BF)] = 2.0
    graph.port_port[(P1, P2)] = 1.0
    graph.port_port[(P2, P1)] = 1.0
    score = contribution_to_port(graph, BF, P1)
    assert score == pytest.approx(1.0 + (2.0 + 1.0))  # one lap, no loop


def test_eq2_direct_contention_uses_pairwise_weight():
    """When f and cf contend at p, the direct term swaps in w(cf, f)."""
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 20.0
    graph.flow_port[(BF, P1)] = 3.0        # indicator true
    graph.port_flow[(P1, BF)] = 5.0
    graph.pairwise[(P1, CF, BF)] = 12.0    # w(cf, f_i) at P1
    # Eq. 2: (w(cf,fi) - w(pk,fi)) * 1 + R(fi, pk) where R = w(p1,fi)
    assert contribution_to_flow(graph, BF, CF) == \
        pytest.approx((12.0 - 5.0) + 5.0)


def test_eq2_indicator_false_keeps_port_term():
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 20.0
    graph.port_flow[(P1, BF)] = 5.0  # contributes but doesn't wait
    assert contribution_to_flow(graph, BF, CF) == pytest.approx(5.0)


def test_eq2_adds_transitive_pfc_impact():
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 20.0
    graph.port_port[(P1, P2)] = 1.0
    graph.port_flow[(P2, BF)] = 9.0
    assert contribution_to_flow(graph, BF, CF) == pytest.approx(9.0)


def test_eq2_sums_over_cf_ports():
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 20.0
    graph.flow_port[(CF, P2)] = 20.0
    graph.port_flow[(P1, BF)] = 3.0
    graph.port_flow[(P2, BF)] = 4.0
    assert contribution_to_flow(graph, BF, CF) == pytest.approx(7.0)


def test_eq2_self_contribution_zero():
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 20.0
    graph.port_flow[(P1, CF)] = 5.0
    assert contribution_to_flow(graph, CF, CF) == 0.0


def test_eq3_weights_by_excess_time():
    graph_a = make_graph()
    graph_a.flow_port[(CF, P1)] = 1.0
    graph_a.port_flow[(P1, BF)] = 10.0
    graph_b = make_graph()
    graph_b.flow_port[(CF, P1)] = 1.0
    graph_b.port_flow[(P1, BF)] = 30.0
    step_graphs = {0: graph_a, 1: graph_b}
    critical = {0: CF, 1: CF}
    exec_times = {0: 150.0, 1: 300.0}
    expect_times = {0: 100.0, 1: 100.0}
    # excesses: 50 and 200 -> weights 0.2 and 0.8
    score = contribution_to_collective(BF, step_graphs, critical,
                                       exec_times, expect_times)
    assert score == pytest.approx(10.0 * 0.2 + 30.0 * 0.8)


def test_eq3_zero_when_no_excess():
    graph = make_graph()
    graph.flow_port[(CF, P1)] = 1.0
    graph.port_flow[(P1, BF)] = 10.0
    score = contribution_to_collective(
        BF, {0: graph}, {0: CF}, {0: 90.0}, {0: 100.0})
    assert score == 0.0


def test_eq3_skips_steps_without_excess():
    graph_a = make_graph()
    graph_a.flow_port[(CF, P1)] = 1.0
    graph_a.port_flow[(P1, BF)] = 10.0
    graph_b = make_graph()
    graph_b.flow_port[(CF, P1)] = 1.0
    graph_b.port_flow[(P1, BF)] = 99.0
    score = contribution_to_collective(
        BF, {0: graph_a, 1: graph_b}, {0: CF, 1: CF},
        {0: 200.0, 1: 100.0}, {0: 100.0, 1: 100.0})
    assert score == pytest.approx(10.0)  # step 1 had no excess
