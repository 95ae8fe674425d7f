"""The §V Discussion's size claims, as exact counts.

The paper states the waiting graph costs O(N_n x S) (nodes x steps) and
the provenance graph O(N_s x T) (switches x reports).  Both are pinned
here by what each structure holds and how often it is touched, not by
wall time:

* the waiting graph of an N-node ring has exactly 2·N·S vertices and
  N·S + 2·N·(S−1) edges (S = N − 1 steps);
* building provenance merges each report exactly once, and repeated
  reports of the same ports grow no vertex, edge or pause event.
"""

from __future__ import annotations

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import StepRecord
from repro.core.provenance import ProvenanceAccumulator, build_provenance
from repro.core.waiting_graph import EdgeKind, WaitingGraph
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport


def ring_records(num_nodes: int):
    nodes = [f"n{i}" for i in range(num_nodes)]
    records = [StepRecord(
        node=node, step_index=idx,
        flow_key=FlowKey(node, "x", idx, 4791), size_bytes=1000,
        start_time=idx * 100.0, end_time=idx * 100.0 + 90.0,
        recv_source=None, binding_dependency="prev_send")
        for idx in range(num_nodes - 1) for node in nodes]
    return ring_allgather(nodes, 1000), records


@pytest.mark.parametrize("num_nodes", [8, 16, 32, 64])
def test_waiting_graph_size_is_nodes_times_steps(num_nodes):
    schedule, records = ring_records(num_nodes)
    steps = num_nodes - 1
    full = WaitingGraph(schedule, records, mode="full")
    assert len(full.vertices) == 2 * num_nodes * steps
    kinds = [edge.kind for edge in full.edges]
    # one execution edge per record; one intra-flow and one data edge
    # per record after a node's first step
    assert kinds.count(EdgeKind.EXECUTION) == num_nodes * steps
    assert kinds.count(EdgeKind.INTRA_FLOW) == num_nodes * (steps - 1)
    assert kinds.count(EdgeKind.DATA_DEP) == num_nodes * (steps - 1)
    assert len(kinds) == num_nodes * steps + 2 * num_nodes * (steps - 1)
    # every record binds on its previous send: binding mode keeps the
    # intra-flow edge and drops the data edge
    binding = WaitingGraph(schedule, records)
    assert len(binding.vertices) == 2 * num_nodes * steps
    assert len(binding.edges) == num_nodes * steps \
        + num_nodes * (steps - 1)
    assert len(binding.critical_path()) == steps


def switch_reports(num_switches: int, reports_each: int):
    """Every switch reports the same port, flows, meter and PAUSE
    ``reports_each`` times, one poll apart."""
    cf = FlowKey("h0", "h1", 1, 4791)
    bf = FlowKey("h2", "h3", 2, 4791)
    reports = [SwitchReport(
        switch_id=f"s{s}", time=float(t), poll_id=f"p{t}",
        ports=[PortTelemetryEntry(
            port=0, qdepth_pkts=5, qdepth_bytes=20_000, paused=False,
            flow_pkts={cf: 10.0, bf: 5.0}, inqueue_flow_pkts={cf: 2},
            wait_weights={(cf, bf): 8.0})],
        port_meters={(1, 0): 1e6},
        pause_received=[PauseEvent(
            0.0, PortRef(f"s{(s + 1) % num_switches}", 1),
            PortRef(f"s{s}", 0), 300_000)],
        pause_sent=[], ttl_drops={}, size_bytes=200)
        for s in range(num_switches) for t in range(reports_each)]
    return [cf], reports


def graph_size(graph) -> tuple:
    return (len(graph.ports), len(graph.flows), len(graph.flow_port),
            len(graph.port_flow), len(graph.port_port),
            len(graph.pairwise), len(graph.pause_events))


@pytest.mark.parametrize("num_switches,reports_each",
                         [(8, 8), (16, 16), (32, 32)])
def test_provenance_merges_each_report_once(monkeypatch, num_switches,
                                            reports_each):
    merges = 0
    merge = ProvenanceAccumulator.merge

    def counted(self, prepared) -> None:
        nonlocal merges
        merges += 1
        merge(self, prepared)

    monkeypatch.setattr(ProvenanceAccumulator, "merge", counted)
    cf_keys, reports = switch_reports(num_switches, reports_each)
    graph = build_provenance(reports, cf_keys, 262_144)
    assert merges == num_switches * reports_each
    # repeated polls of the same ports are max-merged away: the graph
    # one poll per switch builds is the graph every poll builds
    _, once = switch_reports(num_switches, 1)
    assert graph_size(graph) \
        == graph_size(build_provenance(once, cf_keys, 262_144))
    assert len(graph.ports) >= num_switches
