"""Delta-driven detectors against from-scratch ones on random telemetry.

An accumulator keeps, between snapshots, its derived layer (pause-victim
edges, port-port weights) and each port's by-port row, findings and
PFC evidence, and looks again at what a merged report may have moved
(the dirty-port rule of ``ProvenanceAccumulator._mark_stale``).  Here a
small universe of switches, hosts, flows and pauses — host-side pause
victims, ungrounded senders, meters arriving after the pause they
explain — is reported in random order, and after *every* report the
diagnosis of the kept accumulator's snapshot must equal the diagnosis
of a graph built from nothing.
"""

import random
from dataclasses import fields

import pytest

from repro.core.diagnosis import _port_sharing, diagnose
from repro.core.provenance import (ProvenanceAccumulator, ProvenanceGraph,
                                   build_provenance)
from repro.core.rating import score_row
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport

XOFF = 1000
HOSTS = [f"h{i}" for i in range(4)]
SWITCHES = [f"s{i}" for i in range(3)]
FLOWS = [FlowKey(src, dst, 10 + i, 4791)
         for i, (src, dst) in enumerate(
             (s, d) for s in HOSTS for d in HOSTS if s != d)]
CF = set(FLOWS[::3])


def random_report(rng: random.Random, time: float) -> SwitchReport:
    switch = rng.choice(SWITCHES)
    entries = []
    for port in rng.sample(range(3), rng.randint(0, 2)):
        flows = rng.sample(FLOWS, rng.randint(0, 4))
        entries.append(PortTelemetryEntry(
            port=port, qdepth_pkts=rng.randint(0, 9), qdepth_bytes=0,
            paused=rng.random() < 0.2,
            flow_pkts={f: float(rng.randint(1, 9)) for f in flows},
            inqueue_flow_pkts={f: 1 for f in flows[:rng.randint(0, 2)]},
            wait_weights={(a, b): float(rng.randint(0, 5))
                          for a in flows[:2] for b in flows[1:3]
                          if a != b}))
    sent, received = [], []
    for _ in range(rng.randint(0, 2)):
        here = PortRef(switch, rng.randrange(3))
        there = PortRef(rng.choice(HOSTS), 0) if rng.random() < 0.3 \
            else PortRef(rng.choice(SWITCHES), rng.randrange(3))
        # sent: this switch pauses an upstream port; received: another
        # switch's pause halted one of this switch's egress ports
        sender, victim, log = (here, there, sent) if rng.random() < 0.6 \
            else (there, here, received)
        log.append(PauseEvent(
            time=float(rng.randint(0, int(time))),
            sender=sender, victim=victim,
            buffer_bytes_at_send=100 if rng.random() < 0.1 else 5000))
    return SwitchReport(
        switch_id=switch, time=time, poll_id=None, ports=entries,
        port_meters={(rng.randrange(3), rng.randrange(3)):
                     float(rng.randint(0, 3))
                     for _ in range(rng.randint(0, 2))},
        pause_received=received, pause_sent=sent,
        ttl_drops={rng.choice(FLOWS): 1} if rng.random() < 0.05 else {})


def hand_filled(graph: ProvenanceGraph) -> ProvenanceGraph:
    """The same graph built field by field, with no accumulator's index."""
    return ProvenanceGraph(**{f.name: getattr(graph, f.name)
                              for f in fields(ProvenanceGraph) if f.init})


def mutual_flags(graph: ProvenanceGraph) -> list[bool]:
    """Per port, the load-imbalance flag ``_port_sharing`` keeps, checked
    against its definition: two collective flows wait at the port and
    one queues behind the other (every ordered pair probed)."""
    flags = []
    for _name, port, victims, _others, mutual, *_ in _port_sharing(graph):
        assert mutual == (len(victims) > 1 and any(
            graph.pairwise.get((port, a, b), 0.0) > 0
            for a in victims for b in victims if a != b)), port
        flags.append(mutual)
    return flags


def table_by_definition(graph: ProvenanceGraph) -> dict:
    """Every non-empty :func:`score_row` of a collective flow."""
    rows = {cf: score_row(graph, cf) for cf in graph.collective_flows
            if graph.ports_of_flow(cf)}
    return {cf: row for cf, row in rows.items() if row}


def assert_same_order(kept: ProvenanceGraph,
                      scratch: ProvenanceGraph) -> None:
    """Insertion order is summation order (Eqs. 1-2) and chase order:
    the patched derived layer lists what a from-scratch build lists, in
    the same order, out-of-order pauses and all."""
    assert list(kept.flow_port.items()) == list(scratch.flow_port.items())
    assert list(kept.port_port.items()) == list(scratch.port_port.items())
    assert kept.pause_events == scratch.pause_events
    for flow in scratch.flows | scratch.collective_flows:
        assert kept.ports_of_flow(flow) == scratch.ports_of_flow(flow)
    for port in scratch.ports:
        assert kept.waiting_flows_at_port(port) \
            == scratch.waiting_flows_at_port(port)
        assert kept.downstream_ports(port) == scratch.downstream_ports(port)
        assert kept.adjacency().pause_senders.get(port) \
            == scratch.adjacency().pause_senders.get(port)


@pytest.mark.parametrize("seed", range(12))
def test_kept_rows_and_evidence_equal_from_scratch(seed):
    rng = random.Random(seed)
    reports = [random_report(rng, float(t)) for t in range(1, 41)]
    kept = ProvenanceAccumulator(CF, XOFF)
    kinds = set()
    for count, report in enumerate(reports, 1):
        kept.fold(report)
        if rng.random() < 0.3:
            continue                 # several reports between snapshots
        snapshot = kept.snapshot()
        scratch = build_provenance(reports[:count], CF, XOFF)
        assert snapshot == scratch
        assert_same_order(snapshot, scratch)
        assert diagnose(snapshot) == diagnose(scratch)
        assert table_by_definition(snapshot) \
            == table_by_definition(scratch)
        assert mutual_flags(snapshot) == mutual_flags(scratch) \
            == mutual_flags(hand_filled(scratch))
        kinds.update(f.type.value for f in diagnose(scratch).findings)
    assert "flow_contention" in kinds
    assert kinds & {"pfc_backpressure", "pfc_storm"}
