"""Contributor rating (§III-D3, Eqs. 1-3).

Quantifies how much each non-collective flow contributed to the slowdown
of a collective flow (Eq. 2) and of the whole collective (Eq. 3), so an
operator knows which background traffic to act on first.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.provenance import ProvenanceGraph
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PortRef


def contribution_to_port(graph: ProvenanceGraph, flow: FlowKey,
                         port: PortRef,
                         _memo: Optional[dict] = None,
                         _visiting: Optional[set] = None) -> float:
    """Eq. 1: R(f_i, p_j) = w(p_j, f_i) + Σ R(f_i, p_k) * w(p_j, p_k)
    over PFC-causality edges e(p_j, p_k).

    Computed by memoized traversal along the direction of being waited
    for; cycles (PFC deadlock) contribute only their local term.
    """
    return _port_score(graph, graph.adjacency().downstream, flow, port,
                       _memo if _memo is not None else {},
                       _visiting if _visiting is not None else set())


def _port_score(graph: ProvenanceGraph,
                downstream: dict[PortRef, list[PortRef]], flow: FlowKey,
                port: PortRef, memo: dict, visiting: set) -> float:
    key = (flow, port)
    if key in memo:
        return memo[key]
    total = graph.port_flow.get((port, flow), 0.0)
    if port in visiting:       # cycle guard
        return total
    targets = downstream.get(port)
    if targets:
        visiting.add(port)
        for target in targets:
            total += graph.port_port[(port, target)] * _port_score(
                graph, downstream, flow, target, memo, visiting)
        visiting.discard(port)
    memo[key] = total
    return total


def contribution_to_flow(graph: ProvenanceGraph, flow: FlowKey,
                         cf: FlowKey) -> float:
    """Eq. 2: contribution of ``flow`` to collective flow ``cf``.

    Over cf's neighboring ports P_cf: when ``flow`` and ``cf`` directly
    contend at p_k (indicator), the direct impact is the pairwise
    queueing-ahead weight w(cf, f_i) instead of the port-level
    w(p_k, f_i); the transitive impact R(f_i, p_k) is always added.
    """
    if flow == cf:
        return 0.0
    index = graph.adjacency()
    downstream = index.downstream
    memo: dict = {}
    visiting: set = set()
    total = 0.0
    for port in index.ports_of_flow.get(cf, ()):
        total += _port_score(graph, downstream, flow, port, memo, visiting)
        if (flow, port) in graph.flow_port:   # I(e(f_i, p_k) ∈ E)
            w_cf_fi = graph.pairwise.get((port, cf, flow), 0.0)
            w_pk_fi = graph.port_flow.get((port, flow), 0.0)
            total += w_cf_fi - w_pk_fi
    return total


def step_excess(steps: Iterable[int], exec_times: dict[int, float],
                expect_times: dict[int, float]
                ) -> tuple[dict[int, float], float]:
    """Eq. 3's weights: each step's excess execution time (zero for a
    step no slower than expected) and their total."""
    excess = {i: max(0.0, exec_times.get(i, 0.0) - expect_times.get(i, 0.0))
              for i in steps}
    return excess, sum(excess.values())


def weigh_step_scores(score_of_step: Callable[[int, FlowKey], float],
                      critical_flow_keys: dict[int, FlowKey],
                      excess: dict[int, float],
                      denominator: float) -> float:
    """Eq. 3 over per-step Eq. 2 scores ``score_of_step(i, cf_i)``."""
    if denominator <= 0:
        return 0.0
    total = 0.0
    for i, excess_i in excess.items():
        cf_i = critical_flow_keys.get(i)
        if cf_i is None or excess_i <= 0:
            continue
        total += score_of_step(i, cf_i) * excess_i / denominator
    return total


def contribution_to_collective(
        flow: FlowKey,
        step_graphs: dict[int, ProvenanceGraph],
        critical_flow_keys: dict[int, FlowKey],
        exec_times: dict[int, float],
        expect_times: dict[int, float]) -> float:
    """Eq. 3: weight per-step contributions by each step's share of the
    total excess execution time.

    ``critical_flow_keys[i]`` is cf_i, the critical flow of step ``i``;
    steps that ran no slower than expected get zero weight.
    """
    excess, denominator = step_excess(step_graphs, exec_times,
                                      expect_times)
    return weigh_step_scores(
        lambda i, cf_i: contribution_to_flow(step_graphs[i], flow, cf_i),
        critical_flow_keys, excess, denominator)


def score_row(graph: ProvenanceGraph, cf: FlowKey) -> dict[FlowKey, float]:
    """The non-zero Eq. 2 scores against ``cf`` over ``graph``.

    Every other flow scores exactly 0.0 — Eq. 2 only has terms for a
    flow that waits at one of cf's ports or feeds a port PFC-reachable
    from them, and a flow the graph never saw has neither — so
    ``row.get(flow, 0.0)`` stands in for :func:`contribution_to_flow`
    once the graph is gone."""
    index = graph.adjacency()
    ports = index.ports_of_flow.get(cf, ())
    candidates: set[FlowKey] = set()
    reached: set[PortRef] = set()
    stack = list(ports)
    while stack:
        port = stack.pop()
        if port not in reached:
            reached.add(port)
            candidates.update(index.flows_at_port.get(port, ()))
            stack.extend(index.downstream.get(port, ()))
    for port in ports:
        candidates.update(index.waiting_at_port[port])
    row = {}
    for flow in candidates - graph.collective_flows:
        score = contribution_to_flow(graph, flow, cf)
        if score:
            row[flow] = score
    return row


def score_table(graph: ProvenanceGraph
                ) -> dict[FlowKey, dict[FlowKey, float]]:
    """:func:`score_row` for every collective flow with a non-empty
    one.  A collective flow has none when no port it waits at has a
    non-collective flow waiting there, feeding its queue or feeding a
    port PFC-reachable from it: Eq. 2 then has no flow to score."""
    index = graph.adjacency()
    collective = graph.collective_flows
    upstream: dict[PortRef, list[PortRef]] = {}
    for port, targets in index.downstream.items():
        for target in targets:
            upstream.setdefault(target, []).append(port)
    reached: set[PortRef] = set()
    stack = [port for port, flows in index.flows_at_port.items()
             if not collective.issuperset(flows)]
    while stack:
        port = stack.pop()
        if port not in reached:
            reached.add(port)
            stack.extend(upstream.get(port, ()))
    reached.update(port for port, flows in index.waiting_at_port.items()
                   if not collective.issuperset(flows))
    table = {}
    for cf in collective.intersection(index.ports_of_flow):
        if reached.isdisjoint(index.ports_of_flow[cf]):
            continue
        row = score_row(graph, cf)
        if row:
            table[cf] = row
    return table

