"""Property-based tests on the diagnosis-side math (Eqs. 1-3,
provenance merging)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.provenance import ProvenanceGraph, build_provenance
from repro.core.rating import (
    contribution_to_flow,
    contribution_to_port,
)
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport

CF = FlowKey("h0", "h1", 1, 4791)
BF = FlowKey("h8", "h3", 2, 4791)

ports = st.integers(min_value=0, max_value=3).map(
    lambda i: PortRef(f"s{i}", 0))
weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def random_graph(draw):
    """A random small provenance graph with non-negative weights and an
    acyclic port-port layer."""
    graph = ProvenanceGraph(collective_flows={CF})
    graph.flows = {CF, BF}
    num_ports = draw(st.integers(min_value=1, max_value=5))
    port_list = [PortRef(f"s{i}", 0) for i in range(num_ports)]
    graph.ports = set(port_list)
    for port in port_list:
        if draw(st.booleans()):
            graph.flow_port[(CF, port)] = draw(weights)
        if draw(st.booleans()):
            graph.flow_port[(BF, port)] = draw(weights)
        if draw(st.booleans()):
            graph.port_flow[(port, BF)] = draw(weights)
        if draw(st.booleans()):
            graph.pairwise[(port, CF, BF)] = draw(weights)
    # forward-only port-port edges keep the layer acyclic
    for i in range(num_ports):
        for j in range(i + 1, num_ports):
            if draw(st.booleans()):
                graph.port_port[(port_list[i], port_list[j])] = \
                    draw(st.floats(min_value=0.0, max_value=1.0))
    return graph


@given(random_graph())
@settings(max_examples=60)
def test_eq1_nonnegative(graph):
    for port in graph.ports:
        assert contribution_to_port(graph, BF, port) >= 0.0


@given(random_graph())
@settings(max_examples=60)
def test_eq1_at_least_local_term(graph):
    for port in graph.ports:
        local = graph.port_flow.get((port, BF), 0.0)
        assert contribution_to_port(graph, BF, port) >= local


@given(random_graph())
@settings(max_examples=60)
def test_eq2_self_score_zero(graph):
    assert contribution_to_flow(graph, CF, CF) == 0.0


@given(random_graph())
@settings(max_examples=60)
def test_eq1_monotone_in_local_weight(graph):
    """Raising w(p, f) can only raise every R(f, ...) upstream."""
    target = next(iter(graph.ports))
    before = {p: contribution_to_port(graph, BF, p)
              for p in graph.ports}
    graph.port_flow[(target, BF)] = \
        graph.port_flow.get((target, BF), 0.0) + 100.0
    for port in graph.ports:
        after = contribution_to_port(graph, BF, port)
        assert after >= before[port] - 1e-9


# ----------------------------------------------------------------------
# provenance merging
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1,
                max_size=6))
@settings(max_examples=40)
def test_duplicate_reports_never_inflate_weights(values):
    """Merging N duplicate reports must yield the max, not the sum."""
    reports = []
    for i, value in enumerate(values):
        reports.append(SwitchReport(
            switch_id="s0", time=float(i), poll_id=f"p{i}",
            ports=[PortTelemetryEntry(
                port=0, qdepth_pkts=5, qdepth_bytes=20_000,
                paused=False, flow_pkts={CF: 10.0},
                inqueue_flow_pkts={},
                wait_weights={(CF, BF): value})],
            port_meters={}, pause_received=[], pause_sent=[],
            ttl_drops={}, size_bytes=100))
    graph = build_provenance(reports, [CF], 262_144)
    port = PortRef("s0", 0)
    assert graph.pairwise[(port, CF, BF)] == pytest.approx(max(values))
