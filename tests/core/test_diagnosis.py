"""Signature detectors over synthetic provenance graphs (§III-D2)."""

from repro.core.diagnosis import (
    AnomalyType,
    DiagnosisResult,
    detect_flow_contention,
    detect_forwarding_loop,
    detect_incast,
    detect_pfc_anomalies,
    detect_pfc_deadlock,
    diagnose,
)
from repro.core.provenance import ProvenanceGraph
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef

CF = FlowKey("h0", "h1", 1, 4791)
BF = FlowKey("h8", "h3", 2, 4791)
BF2 = FlowKey("h9", "h3", 3, 4791)
P0 = PortRef("s0", 0)
P1 = PortRef("s1", 0)
P2 = PortRef("s2", 2)


def graph_with(**kwargs) -> ProvenanceGraph:
    graph = ProvenanceGraph(collective_flows={CF})
    graph.flows = {CF, BF, BF2}
    for name, value in kwargs.items():
        setattr(graph, name, value)
    return graph


# ----------------------------------------------------------------------
# contention & incast
# ----------------------------------------------------------------------
def test_contention_signature():
    graph = graph_with(flow_port={(CF, P0): 10.0, (BF, P0): 5.0})
    findings = detect_flow_contention(graph)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.type is AnomalyType.FLOW_CONTENTION
    assert finding.culprit_flows == {BF}
    assert finding.victim_flows == {CF}
    assert finding.victim_ports == [P0]


def test_no_contention_without_collective_flow():
    graph = graph_with(flow_port={(BF, P0): 5.0, (BF2, P0): 3.0})
    assert detect_flow_contention(graph) == []


def test_no_contention_when_collective_alone():
    graph = graph_with(flow_port={(CF, P0): 5.0})
    assert detect_flow_contention(graph) == []


def test_contention_includes_port_flow_contributors():
    graph = graph_with(flow_port={(CF, P0): 10.0},
                       port_flow={(P0, BF): 4.0})
    findings = detect_flow_contention(graph)
    assert findings and findings[0].culprit_flows == {BF}


def test_collective_self_contention_not_reported():
    cf2 = FlowKey("h2", "h3", 9, 4791)
    graph = graph_with(flow_port={(CF, P0): 10.0, (cf2, P0): 5.0})
    graph.collective_flows = {CF, cf2}
    assert detect_flow_contention(graph) == []


def test_incast_requires_shared_destination():
    graph = graph_with(flow_port={(CF, P0): 10.0, (BF, P0): 5.0,
                                  (BF2, P0): 4.0})
    findings = detect_incast(graph)
    assert len(findings) == 1  # BF and BF2 both target h3
    assert findings[0].type is AnomalyType.INCAST


def test_no_incast_for_single_culprit():
    graph = graph_with(flow_port={(CF, P0): 10.0, (BF, P0): 5.0})
    assert detect_incast(graph) == []


def test_no_incast_for_diverse_destinations():
    other = FlowKey("h9", "h5", 3, 4791)
    graph = graph_with(flow_port={(CF, P0): 10.0, (BF, P0): 5.0,
                                  (other, P0): 4.0})
    graph.flows = {CF, BF, other}
    assert detect_incast(graph) == []


# ----------------------------------------------------------------------
# PFC backpressure and storm
# ----------------------------------------------------------------------
def backpressure_graph() -> ProvenanceGraph:
    """CF waits at P0; P0 -> P1 -> P2 PFC chain; BF congests P2."""
    return graph_with(
        flow_port={(CF, P0): 10.0, (BF, P2): 1.0},
        port_port={(P0, P1): 1.0, (P1, P2): 1.0},
        port_flow={(P2, BF): 8.0},
        pause_events=[
            PauseEvent(1.0, sender=PortRef("s1", 8), victim=P0,
                       buffer_bytes_at_send=300_000),
            PauseEvent(2.0, sender=PortRef("s2", 8), victim=P1,
                       buffer_bytes_at_send=300_000),
        ])


def test_backpressure_traces_to_terminal():
    findings = detect_pfc_anomalies(backpressure_graph())
    assert len(findings) == 1
    finding = findings[0]
    assert finding.type is AnomalyType.PFC_BACKPRESSURE
    assert finding.root_ports == [P2]
    assert BF in finding.culprit_flows
    assert CF in finding.victim_flows


def test_storm_classification_overrides_backpressure():
    graph = backpressure_graph()
    storm_source = PortRef("s1", 8)
    graph.ungrounded_pause_sources = {storm_source}
    findings = detect_pfc_anomalies(graph)
    assert len(findings) == 1
    assert findings[0].type is AnomalyType.PFC_STORM
    assert findings[0].root_ports == [storm_source]


def test_paused_port_without_chain_uses_pause_sender():
    graph = graph_with(
        flow_port={(CF, P0): 10.0},
        paused_ports={P0},
        pause_events=[PauseEvent(1.0, sender=PortRef("s1", 8),
                                 victim=P0,
                                 buffer_bytes_at_send=300_000)])
    findings = detect_pfc_anomalies(graph)
    assert len(findings) == 1
    assert findings[0].root_ports == [PortRef("s1", 8)]


def test_no_pfc_finding_without_cf_involvement():
    graph = graph_with(
        flow_port={(BF, P0): 10.0},
        port_port={(P0, P1): 1.0},
        pause_events=[PauseEvent(1.0, sender=PortRef("s1", 8),
                                 victim=P0,
                                 buffer_bytes_at_send=300_000)])
    assert detect_pfc_anomalies(graph) == []


def test_multiple_cfs_merge_into_one_finding():
    graph = backpressure_graph()
    cf2 = FlowKey("h2", "h3", 7, 4791)
    graph.collective_flows = {CF, cf2}
    graph.flows.add(cf2)
    graph.flow_port[(cf2, P0)] = 4.0
    findings = detect_pfc_anomalies(graph)
    assert len(findings) == 1
    assert findings[0].victim_flows == {CF, cf2}


# ----------------------------------------------------------------------
# loop and deadlock
# ----------------------------------------------------------------------
def test_loop_signature():
    graph = graph_with(ttl_drop_flows={BF})
    findings = detect_forwarding_loop(graph)
    assert len(findings) == 1
    assert findings[0].type is AnomalyType.FORWARDING_LOOP
    assert findings[0].culprit_flows == {BF}


def test_loop_on_collective_flow_is_victim():
    graph = graph_with(ttl_drop_flows={CF})
    findings = detect_forwarding_loop(graph)
    assert findings[0].victim_flows == {CF}
    assert not findings[0].culprit_flows


def test_no_loop_without_drops():
    assert detect_forwarding_loop(graph_with()) == []


def test_deadlock_signature():
    graph = graph_with(port_port={(P0, P1): 1.0, (P1, P0): 1.0})
    findings = detect_pfc_deadlock(graph)
    assert len(findings) == 1
    assert findings[0].type is AnomalyType.PFC_DEADLOCK
    assert set(findings[0].root_ports) == {P0, P1}


def test_no_deadlock_on_acyclic_chain():
    assert detect_pfc_deadlock(backpressure_graph()) == []


# ----------------------------------------------------------------------
# aggregate
# ----------------------------------------------------------------------
def test_diagnose_runs_all_detectors():
    graph = backpressure_graph()
    graph.ttl_drop_flows = {BF2}
    result = diagnose(graph)
    assert result.has(AnomalyType.PFC_BACKPRESSURE)
    assert result.has(AnomalyType.FORWARDING_LOOP)
    assert not result.has(AnomalyType.PFC_DEADLOCK)


def test_result_detected_flows_union():
    graph = graph_with(flow_port={(CF, P0): 10.0, (BF, P0): 5.0})
    result = diagnose(graph)
    assert BF in result.detected_flows


def test_result_of_type_filter():
    result = DiagnosisResult()
    assert result.of_type(AnomalyType.INCAST) == []
    assert result.detected_flows == set()
    assert result.root_ports == set()
