"""Provenance graph construction from synthetic reports (§III-D1)."""

import json

import pytest

from repro.core.provenance import build_provenance
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport

XOFF = 256_000

CF = FlowKey("h0", "h1", 1, 4791)
BF = FlowKey("h8", "h1", 2, 4791)
BF2 = FlowKey("h9", "h1", 3, 4791)


def entry(port=0, qdepth=10, paused=False, flow_pkts=None,
          inqueue=None, wait_weights=None) -> PortTelemetryEntry:
    return PortTelemetryEntry(
        port=port, qdepth_pkts=qdepth, qdepth_bytes=qdepth * 4096,
        paused=paused,
        flow_pkts=flow_pkts or {},
        inqueue_flow_pkts=inqueue or {},
        wait_weights=wait_weights or {})


def report(switch="s0", ports=None, meters=None, pauses_recv=None,
           pauses_sent=None, ttl_drops=None, time=100.0) -> SwitchReport:
    return SwitchReport(
        switch_id=switch, time=time, poll_id="p#0",
        ports=ports or [],
        port_meters=meters or {},
        pause_received=pauses_recv or [],
        pause_sent=pauses_sent or [],
        ttl_drops=ttl_drops or {},
        size_bytes=100)


def test_flow_port_weight_sums_pairwise():
    rep = report(ports=[entry(
        wait_weights={(CF, BF): 30.0, (CF, BF2): 12.0, (BF, CF): 5.0})])
    graph = build_provenance([rep], [CF], XOFF)
    port = PortRef("s0", 0)
    assert graph.flow_port[(CF, port)] == 42.0
    assert graph.flow_port[(BF, port)] == 5.0


def test_port_flow_weight_formula():
    """w(p, f) = pkt_num(f)/pkt_num(p) x qdepth(p)."""
    rep = report(ports=[entry(qdepth=20,
                              flow_pkts={CF: 30.0, BF: 10.0})])
    graph = build_provenance([rep], [CF], XOFF)
    port = PortRef("s0", 0)
    assert graph.port_flow[(port, CF)] == pytest.approx(30 / 40 * 20)
    assert graph.port_flow[(port, BF)] == pytest.approx(10 / 40 * 20)


def test_duplicate_reports_merge_by_max():
    first = report(ports=[entry(wait_weights={(CF, BF): 10.0})])
    second = report(ports=[entry(wait_weights={(CF, BF): 25.0})],
                    time=200.0)
    graph = build_provenance([first, second], [CF], XOFF)
    assert graph.pairwise[(PortRef("s0", 0), CF, BF)] == 25.0


def test_paused_port_flows_get_edges():
    rep = report(ports=[entry(paused=True, qdepth=0,
                              flow_pkts={CF: 5.0})])
    graph = build_provenance([rep], [CF], XOFF)
    assert (CF, PortRef("s0", 0)) in graph.flow_port
    assert PortRef("s0", 0) in graph.paused_ports


def test_port_port_edges_from_pause_plus_meters():
    """Upstream victim a0.p1 halted by s0's ingress 2; s0's meters say
    ingress 2 fed egress 0 (100%) -> edge (a0.p1 -> s0.p0) weight 1."""
    pause = PauseEvent(time=90.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1),
                       buffer_bytes_at_send=XOFF + 1000)
    rep = report(meters={(2, 0): 500_000.0}, pauses_sent=[pause])
    graph = build_provenance([rep], [CF], XOFF)
    assert graph.port_port[(PortRef("a0", 1), PortRef("s0", 0))] == 1.0


def test_port_port_weight_is_traffic_share():
    pause = PauseEvent(time=90.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1),
                       buffer_bytes_at_send=XOFF + 1000)
    rep = report(meters={(2, 0): 300_000.0, (3, 0): 100_000.0},
                 pauses_sent=[pause])
    graph = build_provenance([rep], [CF], XOFF)
    assert graph.port_port[(PortRef("a0", 1), PortRef("s0", 0))] \
        == pytest.approx(0.75)


def test_ungrounded_pause_marks_storm_source():
    storm = PauseEvent(time=50.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1),
                       buffer_bytes_at_send=0, genuine=False)
    rep = report(pauses_sent=[storm])
    graph = build_provenance([rep], [CF], XOFF)
    assert PortRef("s0", 2) in graph.ungrounded_pause_sources


def test_grounded_pause_not_marked():
    pause = PauseEvent(time=50.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1),
                       buffer_bytes_at_send=XOFF + 5)
    rep = report(pauses_sent=[pause])
    graph = build_provenance([rep], [CF], XOFF)
    assert not graph.ungrounded_pause_sources


def test_pause_events_deduplicated():
    pause = PauseEvent(time=50.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1),
                       buffer_bytes_at_send=XOFF)
    rep1 = report(pauses_sent=[pause])
    rep2 = report(pauses_recv=[pause], time=120.0)
    graph = build_provenance([rep1, rep2], [CF], XOFF)
    assert len(graph.pause_events) == 1


def test_pause_victim_flows_attached():
    """Flows seen at the victim port in the window become waiters."""
    pause = PauseEvent(time=50.0, sender=PortRef("s1", 0),
                       victim=PortRef("s0", 0),
                       buffer_bytes_at_send=XOFF)
    rep = report(ports=[entry(port=0, flow_pkts={CF: 3.0})],
                 pauses_recv=[pause])
    graph = build_provenance([rep], [CF], XOFF)
    assert (CF, PortRef("s0", 0)) in graph.flow_port


def test_pause_victim_host_nic_attaches_src_flows():
    pause = PauseEvent(time=50.0, sender=PortRef("s0", 2),
                       victim=PortRef("h0", 0),
                       buffer_bytes_at_send=0, genuine=False)
    rep = report(pauses_sent=[pause])
    graph = build_provenance([rep], [CF], XOFF)  # CF originates at h0
    assert (CF, PortRef("h0", 0)) in graph.flow_port


def test_ttl_drops_collected():
    rep = report(ttl_drops={BF: 3})
    graph = build_provenance([rep], [CF], XOFF)
    assert BF in graph.ttl_drop_flows


def test_background_flows_property():
    rep = report(ports=[entry(wait_weights={(CF, BF): 1.0})])
    graph = build_provenance([rep], [CF], XOFF)
    assert graph.background_flows() == {BF}


def test_port_port_cycle_detection():
    p1, p2 = PortRef("s0", 0), PortRef("s1", 0)
    pauses = [
        PauseEvent(time=1.0, sender=PortRef("s1", 9), victim=p1,
                   buffer_bytes_at_send=XOFF),
        PauseEvent(time=2.0, sender=PortRef("s0", 9), victim=p2,
                   buffer_bytes_at_send=XOFF),
    ]
    rep1 = report(switch="s1", meters={(9, 0): 100.0},
                  pauses_sent=[pauses[0]])
    rep2 = report(switch="s0", meters={(9, 0): 100.0},
                  pauses_sent=[pauses[1]])
    graph = build_provenance([rep1, rep2], [CF], XOFF)
    cycles = graph.port_port_cycles()
    assert cycles and set(cycles[0]) == {p1, p2}


def test_query_helpers():
    rep = report(ports=[entry(qdepth=10, flow_pkts={CF: 1.0, BF: 1.0},
                              wait_weights={(CF, BF): 2.0})])
    graph = build_provenance([rep], [CF], XOFF)
    port = PortRef("s0", 0)
    assert port in graph.ports_of_flow(CF)
    assert CF in graph.flows_at_port(port)
    assert CF in graph.adjacency().waiting_at_port[port]
    assert graph.pairwise[port, CF, BF] == 2.0


# the graph's edge order in a subprocess: what another hash seed sees
_DUMP = """
import json, sys
from repro.core.provenance import build_provenance
from repro.traces import TraceRuntime, load_trace
trace = load_trace(sys.argv[1])
graph = build_provenance(trace.reports,
                         TraceRuntime(trace).collective_flow_keys,
                         trace.pfc_xoff_bytes)
waiting = graph.adjacency().waiting_at_port
print(json.dumps([[str(key) for key in graph.flow_port],
                  [[str(port), [str(flow) for flow in waiting[port]]]
                   for port in waiting]]))
"""


@pytest.mark.parametrize("scenario", ["flow_contention", "pfc_storm"])
def test_edge_order_does_not_follow_the_hash_seed(scenario, tmp_path):
    """Eq. 2 sums a flow's terms in ``flow_port`` order, and the PFC
    chase reads ``waiting_at_port`` in list order: neither may follow
    a set's iteration order, which moves with ``PYTHONHASHSEED``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from tests.fleet.conftest import record_scenario_trace

    path = record_scenario_trace(tmp_path / "run.jsonl", scenario)
    src = str(Path(repro.__file__).parent.parent)
    dumps = [subprocess.run(
        [sys.executable, "-c", _DUMP, str(path)], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
    ).stdout for seed in ("0", "1")]
    assert dumps[0] == dumps[1]
    assert len(json.loads(dumps[0])[1]) > 1       # not vacuous
