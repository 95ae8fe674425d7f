"""``PortRef`` is a tuple: what that buys, and what it must not leak.

A ``NamedTuple`` hashes and compares in C, which is why every
``(port, f_i, f_j)`` key of the provenance graphs got cheap — and it
JSON-encodes *silently* as a bare list, which is why every serialiser
has to keep encoding it explicitly.  The serialiser tests therefore
pin bytes, not round-trip equality.
"""

import json
import multiprocessing
import pickle
from pathlib import Path

from repro.fleet.service import ShardRuntime
from repro.fleet.tenancy import TenantPolicy, TenantRuntime
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport
from repro.traces import serialize

CF = FlowKey("h0", "h1", 1, 4791)


def echo(ref: PortRef):
    """Runs in a spawned child: what the child sees of the pickle."""
    return ref, type(ref).__name__, str(ref), repr(ref), ref.node, ref.port


def test_value_semantics():
    ref = PortRef("e0", 3)
    assert ref == PortRef("e0", 3) and ref != PortRef("e0", 4)
    assert hash(ref) == hash(PortRef("e0", 3)) == hash(("e0", 3))
    assert str(ref) == "e0.p3"
    assert repr(ref) == "PortRef(node='e0', port=3)"
    assert (ref.node, ref.port) == ("e0", 3) == tuple(ref)
    assert {ref: 1}[PortRef("e0", 3)] == 1
    # composite graph keys are plain nested tuples all the way down
    assert {(ref, CF, CF): 2.0}[(PortRef("e0", 3), CF, CF)] == 2.0
    try:
        ref.port = 4
    except AttributeError:
        pass
    else:  # pragma: no cover - the assertion
        raise AssertionError("PortRef must stay immutable")


def test_pickles_across_the_spawn_boundary():
    ref = PortRef("a3", 1)
    assert pickle.loads(pickle.dumps(ref)) == ref
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        back, kind, text, shown, node, port = pool.apply(echo, (ref,))
    assert back == ref and isinstance(back, PortRef)
    assert (kind, text, node, port) == ("PortRef", "a3.p1", "a3", 1)
    assert shown == repr(ref)


def pause_report() -> SwitchReport:
    pause = PauseEvent(time=90.0, sender=PortRef("s0", 2),
                       victim=PortRef("a0", 1), buffer_bytes_at_send=300_000)
    return SwitchReport(
        switch_id="s0", time=100.0, poll_id="p#0",
        ports=[PortTelemetryEntry(
            port=0, qdepth_pkts=4, qdepth_bytes=16384, paused=True,
            flow_pkts={CF: 3.0}, inqueue_flow_pkts={CF: 1},
            wait_weights={})],
        port_meters={(2, 0): 1000.0}, pause_received=[],
        pause_sent=[pause], ttl_drops={}, size_bytes=100)


def tuples_in(value, path="$"):
    """Paths of every tuple inside a to-be-JSON structure: a tuple
    there is a value some encoder forgot (JSON writes it as a list)."""
    if isinstance(value, tuple):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from tuples_in(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from tuples_in(item, f"{path}[{i}]")


def test_report_encoding_bytes():
    encoded = serialize.encode_switch_report(pause_report())
    assert list(tuples_in(encoded)) == []
    assert json.dumps(encoded["pause_sent"], sort_keys=True) == (
        '[{"buffer": 300000, "genuine": true, "sender": ["s0", 2], '
        '"time": 90.0, "victim": ["a0", 1]}]')
    decoded = serialize.decode_switch_report(
        json.loads(json.dumps(encoded)))
    assert decoded == pause_report()
    assert type(decoded.pause_sent[0].victim) is PortRef


def test_golden_trace_bytes(golden_capture):
    """The recorded pfc_storm trace is full of pause events; its bytes
    are the fixture's, to the digest."""
    fixture = Path(__file__).resolve().parents[1] / "fixtures"
    pinned = json.loads((fixture / "golden_digests.json").read_text())[
        "pfc_storm_case0"]["trace_sha256"]
    captured, directory = golden_capture
    assert captured["pfc_storm_case0"]["trace_sha256"] == pinned
    trace = directory / "pfc_storm.jsonl"
    assert b'"sender": ["' in trace.read_bytes()

    tenant = TenantRuntime("t", 0, TenantPolicy(checkpoint_every=0),
                           trace=str(trace))
    tenant.step(0)
    report = ShardRuntime(0, [tenant]).report(final=True)
    assert list(tuples_in(report.to_dict())) == []
    assert "pfc_storm" in report.to_dict()["tenants"][0]["findings"]
