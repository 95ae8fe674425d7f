"""Columnar trace store: round-trip losslessness, stream/format
equivalence, zero-copy queries, cross-format cursor resume, the two
column-native codecs against their object-path references, and what a
corrupt file ends in.

The seeded generator below synthesizes traces covering all six record
kinds plus the hostile shapes the store must preserve byte-exactly:
blank lines, unknown-kind lines and (under an error sink) malformed
lines.  Property tests drive it through random seeds and assert the
JSONL -> columnar -> JSONL identity and query/scan agreement.
"""

import hashlib
import io
import itertools
import json
import mmap
import random
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import (
    TraceEvent,
    TraceRecorder,
    columnar,
    load_trace,
    read_header,
    serialize,
    trace_events,
)
from repro.traces.store import Trace, TraceFormatError
from repro.traces.stream import TraceHeader
from repro.traces.columnar import (
    ColumnarTrace,
    content_address,
    iter_jsonl_lines,
    jsonl_digest,
    sniff_format,
    write_columnar,
    write_jsonl,
)

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A real recorder-written trace (the equivalence ground truth)."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    VedrfolnirSystem(net, runtime)
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_000_000).start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("columnar") / "run.jsonl"
    recorder.write(path)
    return path


@pytest.fixture(scope="module")
def columnar_path(trace_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("columnar-conv") / "run.vcol"
    return write_columnar(trace_path, out)


# ----------------------------------------------------------------------
# seeded synthetic traces (all six kinds + hostile lines)
# ----------------------------------------------------------------------
def _flow(rng: random.Random) -> FlowKey:
    return FlowKey(f"h{rng.randrange(8)}", f"h{rng.randrange(8)}",
                   rng.randrange(1024, 65536), 4791, "RoCEv2")


def _pause(rng: random.Random, time: float) -> PauseEvent:
    return PauseEvent(
        time=time, sender=PortRef(f"sw{rng.randrange(4)}",
                                  rng.randrange(8)),
        victim=PortRef(f"sw{rng.randrange(4)}", rng.randrange(8)),
        buffer_bytes_at_send=rng.randrange(1 << 20),
        genuine=rng.random() < 0.5)


def _port_entry(rng: random.Random) -> PortTelemetryEntry:
    flows = [_flow(rng) for _ in range(rng.randrange(3))]
    return PortTelemetryEntry(
        port=rng.randrange(16),
        qdepth_pkts=rng.randrange(512),
        qdepth_bytes=rng.randrange(1 << 22),
        paused=rng.random() < 0.2,
        flow_pkts={f: float(rng.randrange(64)) for f in flows},
        inqueue_flow_pkts={f: rng.randrange(64) for f in flows},
        wait_weights={(fi, fj): rng.random() * 10
                      for fi, fj in itertools.permutations(flows, 2)})


def synthesize_trace(path, seed: int, records: int = 40,
                     unknown: bool = True, blank: bool = True) -> None:
    """A schedule-bearing JSONL trace with per-kind sorted times (the
    recorder invariant the merge order depends on)."""
    rng = random.Random(seed)
    schedule = ring_allgather(NODES, 100_000 + seed % 7)
    lines = [
        json.dumps({"kind": "meta", "version": 1,
                    "pfc_xoff_bytes": 65536, "topology": "synthetic",
                    "sim_time_ns": 1.0e6 + seed}) + "\n",
        json.dumps({"kind": "schedule", "schedule":
                    serialize.encode_schedule(schedule)}) + "\n",
    ]
    for idx, node in enumerate(NODES):
        lines.append(json.dumps({
            "kind": "flow_key", "node": node, "step": idx % 3,
            "flow": serialize.encode_flow_key(_flow(rng))}) + "\n")
        lines.append(json.dumps({
            "kind": "expected", "node": node, "step": idx % 3,
            "time_ns": rng.random() * 1e5}) + "\n")
    step_t, report_t = 0.0, 0.0
    for i in range(records):
        if rng.random() < 0.5:
            step_t += rng.random() * 1e4
            record = StepRecord(
                node=rng.choice(NODES), step_index=rng.randrange(4),
                flow_key=_flow(rng),
                size_bytes=rng.randrange(1, 1 << 20),
                start_time=step_t - rng.random() * 1e3,
                end_time=step_t,
                recv_source=rng.choice([None, rng.randrange(4)]),
                binding_dependency=rng.choice(
                    [None, rng.randrange(4)]))
            payload = serialize.encode_step_record(record)
            kind = "step_record"
        else:
            report_t += rng.random() * 1e4
            report = SwitchReport(
                switch_id=f"sw{rng.randrange(4)}", time=report_t,
                poll_id=rng.choice([None, i]),
                ports=[_port_entry(rng)
                       for _ in range(rng.randrange(3))],
                port_meters={(rng.randrange(8), rng.randrange(8)):
                             rng.random() * 100
                             for _ in range(rng.randrange(3))},
                pause_received=[_pause(rng, report_t - 1.0)
                                for _ in range(rng.randrange(2))],
                pause_sent=[_pause(rng, report_t - 0.5)
                            for _ in range(rng.randrange(2))],
                ttl_drops={_flow(rng): rng.randrange(1, 9)
                           for _ in range(rng.randrange(2))},
                size_bytes=rng.randrange(1 << 12))
            payload = serialize.encode_switch_report(report)
            kind = "switch_report"
        lines.append(json.dumps({"kind": kind, **payload}) + "\n")
        if unknown and rng.random() < 0.1:
            lines.append(json.dumps({
                "kind": f"custom_{rng.randrange(3)}",
                "blob": [rng.randrange(100)]}) + "\n")
        if blank and rng.random() < 0.08:
            lines.append(rng.choice(["\n", "  \n"]))
    path.write_text("".join(lines))


def _event_tuples(events):
    return [(e.kind, e.time, e.line_no, e.payload)
            for e in events]


# ----------------------------------------------------------------------
# round-trip losslessness
# ----------------------------------------------------------------------
def test_recorder_trace_round_trips_byte_exact(trace_path,
                                               columnar_path,
                                               tmp_path):
    back = write_jsonl(columnar_path, tmp_path / "back.jsonl")
    assert back.read_bytes() == trace_path.read_bytes()
    assert jsonl_digest(columnar_path) == jsonl_digest(trace_path)
    assert content_address(columnar_path) == content_address(trace_path)


def test_sniff_format(trace_path, columnar_path):
    assert sniff_format(trace_path) == "jsonl"
    assert sniff_format(columnar_path) == "columnar"


def test_columnar_writer_is_deterministic(trace_path, tmp_path):
    a = write_columnar(trace_path, tmp_path / "a.vcol")
    b = write_columnar(trace_path, tmp_path / "b.vcol")
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_round_trip_lossless(tmp_path_factory, seed):
    """All six kinds + quarantined unknown-kind + blank lines survive
    JSONL -> columnar -> JSONL bit-for-bit."""
    tmp = tmp_path_factory.mktemp("prop")
    src = tmp / "t.jsonl"
    synthesize_trace(src, seed)
    col = write_columnar(src, tmp / "t.vcol")
    back = write_jsonl(col, tmp / "t.back.jsonl")
    assert back.read_bytes() == src.read_bytes()
    assert jsonl_digest(col) == hashlib.sha256(
        src.read_bytes()).hexdigest()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_event_streams_equivalent(tmp_path_factory, seed):
    """Both formats yield identical merged event streams, including
    identical quarantine callbacks for unknown-kind lines."""
    tmp = tmp_path_factory.mktemp("prop-ev")
    src = tmp / "t.jsonl"
    synthesize_trace(src, seed)
    col = write_columnar(src, tmp / "t.vcol")
    want = _event_tuples(reference_events(src))
    for path in (src, col):
        errors = []
        got = _event_tuples(trace_events(
            path, on_error=lambda *a: errors.append(a)))
        assert got == want
        assert errors == []


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_queries_match_full_scan(tmp_path_factory, seed):
    tmp = tmp_path_factory.mktemp("prop-q")
    src = tmp / "t.jsonl"
    synthesize_trace(src, seed, unknown=False, blank=False)
    col = write_columnar(src, tmp / "t.vcol")
    with ColumnarTrace(col) as trace:
        times = {
            "step_record": [trace.step_record(i).end_time for i
                            in range(trace.counts["step_record"])],
            "switch_report": [trace.switch_report(i).time for i
                              in range(trace.counts["switch_report"])]}
        for kind, column in times.items():
            if column:
                lo = column[len(column) // 4]
                hi = column[(3 * len(column)) // 4]
                want = [i for i, t in enumerate(column)
                        if lo <= t <= hi]
                assert trace.time_range(kind, lo, hi) == want


# ----------------------------------------------------------------------
# the column-native codecs against their object-path references
# ----------------------------------------------------------------------
class ReferenceBuilder(columnar._Builder):
    """The builder before ingest went column-native: decode the JSON
    object into a ``StepRecord`` / ``SwitchReport`` through
    :mod:`repro.traces.serialize`, then take the object apart.  What
    the direct path must equal byte for byte."""

    def add_step_record(self, entry, line_no):
        record = serialize.decode_step_record(entry)
        c, strings = self.cols, self.strings
        c["s.end"].append(record.end_time)
        c["s.start"].append(record.start_time)
        c["s.node"].append(strings[record.node])
        c["s.step"].append(record.step_index)
        c["s.flow"].append(self.flows[tuple(record.flow_key)])
        c["s.bytes"].append(record.size_bytes)
        c["s.recv"].append(self.string(record.recv_source))
        c["s.bind"].append(self.string(record.binding_dependency))
        c["s.line"].append(line_no)

    def string(self, value):
        return -1 if value is None else self.strings[value]

    def add_switch_report(self, entry, line_no):
        report = serialize.decode_switch_report(entry)
        c, strings, flows = self.cols, self.strings, self.flows
        c["r.time"].append(report.time)
        c["r.switch"].append(strings[report.switch_id])
        c["r.poll"].append(self.string(report.poll_id))
        c["r.size"].append(report.size_bytes)
        c["r.line"].append(line_no)
        for port in report.ports:
            c["p.port"].append(port.port)
            c["p.qpk"].append(port.qdepth_pkts)
            c["p.qby"].append(port.qdepth_bytes)
            c["p.paused"].append(1 if port.paused else 0)
            for flow, count in port.flow_pkts.items():
                c["fp.flow"].append(flows[tuple(flow)])
                c["fp.val"].append(count)
            for flow, count in port.inqueue_flow_pkts.items():
                c["iq.flow"].append(flows[tuple(flow)])
                c["iq.val"].append(count)
            for (fi, fj), weight in port.wait_weights.items():
                c["ww.fi"].append(flows[tuple(fi)])
                c["ww.fj"].append(flows[tuple(fj)])
                c["ww.val"].append(weight)
            c["p.fp"].append(len(c["fp.flow"]))
            c["p.iq"].append(len(c["iq.flow"]))
            c["p.ww"].append(len(c["ww.val"]))
        for (inp, out), value in report.port_meters.items():
            c["mt.in"].append(inp)
            c["mt.out"].append(out)
            c["mt.val"].append(value)
        for prefix, pauses in (("pr", report.pause_received),
                               ("ps", report.pause_sent)):
            for pause in pauses:
                c[f"{prefix}.time"].append(pause.time)
                c[f"{prefix}.sn"].append(strings[pause.sender.node])
                c[f"{prefix}.sp"].append(pause.sender.port)
                c[f"{prefix}.vn"].append(strings[pause.victim.node])
                c[f"{prefix}.vp"].append(pause.victim.port)
                c[f"{prefix}.buf"].append(pause.buffer_bytes_at_send)
                c[f"{prefix}.gen"].append(1 if pause.genuine else 0)
        for flow, count in report.ttl_drops.items():
            c["ttl.flow"].append(flows[tuple(flow)])
            c["ttl.val"].append(count)
        c["r.ports"].append(len(c["p.port"]))
        c["r.mt"].append(len(c["mt.val"]))
        c["r.pr"].append(len(c["pr.time"]))
        c["r.ps"].append(len(c["ps.time"]))
        c["r.ttl"].append(len(c["ttl.val"]))


def reference_entries(path, bad=None):
    """The JSONL reader the tree had before :func:`repro.traces.
    open_trace`, at its plainest and sharing nothing with it:
    ``json.loads`` per line, then :mod:`repro.traces.serialize`.
    Yields ``(line_no, kind, decoded)`` for every line that holds a
    record; the line numbers of those that hold neither a record nor
    whitespace go to ``bad`` (which, absent, makes them raise)."""
    decoders = {
        "schedule": lambda entry:
            serialize.decode_schedule(entry["schedule"]),
        "flow_key": lambda entry: (
            (entry["node"], int(entry["step"])),
            serialize.decode_flow_key(entry["flow"])),
        "expected": lambda entry: (
            (entry["node"], int(entry["step"])),
            float(entry["time_ns"])),
        "step_record": serialize.decode_step_record,
        "switch_report": serialize.decode_switch_report,
    }
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, 1):
            text = raw.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                entry = json.loads(text)
                kind = str(entry.get("kind"))
                if kind in decoders:
                    entry = decoders[kind](entry)
            except Exception:
                if bad is None:
                    raise
                bad.append(line_no)
                continue
            yield line_no, kind, entry


def reference_events(path, bad=None) -> list:
    """The completion-time stream of a JSONL, independently: a stable
    sort of the decoded data records by ``(time, kind rank,
    line_no)``."""
    rank = {"step_record": 0, "switch_report": 1}
    events = []
    for line_no, kind, payload in reference_entries(path, bad):
        if kind in rank:
            time = payload.end_time if kind == "step_record" \
                else payload.time
            events.append(TraceEvent(kind, time, payload, line_no))
    return sorted(events,
                  key=lambda e: (e.time, rank[e.kind], e.line_no))


def reference_trace(path) -> Trace:
    """A whole JSONL as a :class:`Trace`, independently."""
    by_kind = {}
    for _line_no, kind, decoded in reference_entries(path):
        by_kind.setdefault(kind, []).append(decoded)
    meta = by_kind["meta"][-1]
    return Trace(
        schedule=by_kind["schedule"][-1],
        flow_keys=dict(by_kind.get("flow_key", ())),
        expected_step_times=dict(by_kind.get("expected", ())),
        step_records=by_kind.get("step_record", []),
        reports=by_kind.get("switch_report", []),
        pfc_xoff_bytes=int(meta.get("pfc_xoff_bytes", 0)),
        meta=meta)


def reference_lines(trace: ColumnarTrace) -> list:
    """The line emitter before reconstruction went column-native:
    decode every record, re-encode it through ``serialize.encode_*``
    and ``json.dumps`` — which is still how the recorder writes."""
    entries = sorted(
        [(line_no, 0, i)
         for i, line_no in enumerate(trace.col("raw.line"))]
        + [(line_no, 1, i)
           for i, line_no in enumerate(trace.col("s.line"))]
        + [(line_no, 2, i)
           for i, line_no in enumerate(trace.col("r.line"))])
    raw_off, raw_len = trace.col("raw.off"), trace.col("raw.len")
    lines = []
    for _line_no, tag, i in entries:
        if tag == 0:
            lines.append(bytes(
                trace._raw_blob[raw_off[i]:raw_off[i] + raw_len[i]]))
            continue
        if tag == 1:
            entry = {"kind": "step_record",
                     **serialize.encode_step_record(
                         trace.step_record(i))}
        else:
            entry = {"kind": "switch_report",
                     **serialize.encode_switch_report(
                         trace.switch_report(i))}
        lines.append((json.dumps(entry) + "\n").encode("utf-8"))
    return lines


def _vcol_bytes(src, on_error=None) -> bytes:
    sink = io.BytesIO()
    with src.open("rb") as handle:
        columnar._emit(columnar._build_from_jsonl(handle, on_error),
                       sink)
    return sink.getvalue()


def _reference_vcol_bytes(src, on_error=None) -> bytes:
    with mock.patch.object(columnar, "_Builder", ReferenceBuilder):
        return _vcol_bytes(src, on_error)


PROLOGUE = [
    {"kind": "meta", "version": 1, "pfc_xoff_bytes": 65536},
    {"kind": "schedule", "schedule":
     serialize.encode_schedule(ring_allgather(NODES, 100_000))},
]


def check_against_references(tmp, entries, lenient=False) -> bytes:
    """Write ``entries`` as JSONL; both codecs must produce the bytes
    their references do.  Returns the ``.vcol`` bytes."""
    src = tmp / "case.jsonl"
    src.write_text("".join(json.dumps(entry) + "\n"
                           for entry in PROLOGUE + entries))
    got_errors, want_errors = [], []
    got = _vcol_bytes(
        src, (lambda *a: got_errors.append(a[0])) if lenient else None)
    want = _reference_vcol_bytes(
        src, (lambda *a: want_errors.append(a[0])) if lenient else None)
    assert got == want
    assert got_errors == want_errors
    col = tmp / "case.vcol"
    col.write_bytes(got)
    with ColumnarTrace(col) as trace:
        assert list(iter_jsonl_lines(trace)) == reference_lines(trace)
    return got


HOSTS = st.sampled_from(["h0", "h1", "sw-é", 'q"uote', "back\\slash",
                         "tab\there", "☃\U0001f600", "nul\x00", ""])
IDS = st.one_of(HOSTS, st.text(max_size=4))
#: two spellings of one transport port intern to one flow id
PORTS = st.sampled_from([1234, "1234", 1234.0, 4791, "4791", True])
FLOWS = st.tuples(HOSTS, HOSTS, PORTS, PORTS,
                  st.sampled_from(["RoCEv2", "UDP"])).map(list)
REALS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                     1e16, 9999999999999998.0, 1e21, 1e22, 1.5e-07,
                     float("inf"), float("-inf"), float("nan"),
                     139, 7, True]),
    st.floats(), st.integers(-10**9, 10**9))
#: what lands in a signed 64-bit column: ints, and floats int() floors
COUNTS = st.one_of(st.integers(-2**40, 2**40),
                   st.sampled_from([62.0, 139.0, 0.5, -3.7, True]))
#: what lands in an unsigned 32-bit column
UNSIGNED = st.one_of(st.integers(0, 2**31),
                     st.sampled_from([62.0, 3.7, False]))
TRUTHY = st.sampled_from([True, False, 0, 1, "", "x", None])
OPTIONAL_ID = st.one_of(st.none(), IDS, st.integers(0, 3))


@st.composite
def step_entries(draw):
    entry = {"kind": "step_record", "node": draw(IDS),
             "step": draw(UNSIGNED), "flow": draw(FLOWS),
             "bytes": draw(COUNTS), "start": draw(REALS),
             "end": draw(REALS)}
    if draw(st.booleans()):   # both keys are optional on read
        entry["recv_source"] = draw(OPTIONAL_ID)
        entry["binding"] = draw(OPTIONAL_ID)
    return entry


PAUSES = st.fixed_dictionaries({
    "time": REALS, "sender": st.tuples(IDS, COUNTS).map(list),
    "victim": st.tuples(IDS, COUNTS).map(list), "buffer": COUNTS,
    "genuine": TRUTHY})
PORT_ENTRIES = st.fixed_dictionaries({
    "port": UNSIGNED, "qdepth_pkts": COUNTS, "qdepth_bytes": COUNTS,
    "paused": TRUTHY,
    # few hosts and ports, so a flow repeats inside one list
    "flow_pkts": st.lists(st.tuples(FLOWS, REALS).map(list),
                          max_size=4),
    "inqueue": st.lists(st.tuples(FLOWS, COUNTS).map(list), max_size=3),
    "wait_weights": st.lists(st.tuples(FLOWS, FLOWS, REALS).map(list),
                             max_size=4)})
METER_PORTS = st.sampled_from([0, 1, "1", 1.0, 2])
REPORTS = st.fixed_dictionaries({
    "kind": st.just("switch_report"), "switch": IDS, "time": REALS,
    "poll_id": OPTIONAL_ID,
    "ports": st.lists(PORT_ENTRIES, max_size=3),
    "meters": st.lists(
        st.tuples(METER_PORTS, METER_PORTS, REALS).map(list),
        max_size=4),
    "pause_received": st.lists(PAUSES, max_size=2),
    "pause_sent": st.lists(PAUSES, max_size=2),
    "ttl_drops": st.lists(st.tuples(FLOWS, COUNTS).map(list),
                          max_size=2),
    "size_bytes": COUNTS})


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(step_entries(), REPORTS), max_size=5))
def test_property_codecs_equal_their_references(tmp_path_factory,
                                                entries):
    check_against_references(
        tmp_path_factory.mktemp("codec"), entries)


FLOW_A = ["h0", "h1", 1234, 4791, "RoCEv2"]
FLOW_A_SPELLED = ["h0", "h1", "1234", "4791", "RoCEv2"]
FLOW_B = ["sw-é", 'q"uote', 1, 2, "UDP"]


def _named_cases_report(**overrides) -> dict:
    report = {
        "kind": "switch_report", "switch": "tab\there",
        "time": 1e22, "poll_id": "☃",
        "ports": [{
            "port": 3, "qdepth_pkts": 62.0, "qdepth_bytes": 9000,
            "paused": 1,
            # FLOW_A twice, once respelled: last value, first position
            "flow_pkts": [[FLOW_A, 139], [FLOW_B, -0.0],
                          [FLOW_A_SPELLED, 5e-324]],
            "inqueue": [[FLOW_B, 4.0], [FLOW_B, 7]],
            "wait_weights": [[FLOW_A, FLOW_B, float("inf")],
                             [FLOW_B, FLOW_A, 1e16],
                             [FLOW_A_SPELLED, FLOW_B, float("nan")]],
        }],
        "meters": [[1, 2, 0.1], ["1", 2.0, 1e21], [2, 1, 3]],
        "pause_received": [{"time": float("-inf"),
                            "sender": ["nul\x00", 1.0],
                            "victim": ["", "2"], "buffer": 77.9,
                            "genuine": 0}],
        "pause_sent": [],
        "ttl_drops": [[FLOW_A_SPELLED, 2], [FLOW_A, 3.0]],
        "size_bytes": 120.0,
    }
    report.update(overrides)
    return report


def test_codecs_equal_their_references_on_the_named_cases(tmp_path):
    """Every shape the direct paths could plausibly get wrong, in one
    trace: escape-needing and non-ASCII ids, the float repr
    boundaries and non-finite floats, ints in float fields and floats
    in int fields, 0 / 1 for booleans, duplicate keys, respelled port
    numbers."""
    data = check_against_references(tmp_path, [
        {"kind": "step_record", "node": "back\\slash", "step": 2.0,
         "flow": FLOW_A_SPELLED, "bytes": 4096.0, "start": -0.0,
         "end": 9999999999999998.0, "recv_source": 3},
        _named_cases_report(),
        {"kind": "step_record", "node": "\U0001f600", "step": 0,
         "flow": FLOW_A, "bytes": 1, "start": 2.2250738585072014e-308,
         "end": float("nan"), "recv_source": None, "binding": "h1"},
    ])
    with ColumnarTrace(_write(tmp_path / "named.vcol", data)) as trace:
        assert [tuple(flow) for flow in trace.flows] == [
            tuple(FLOW_A), tuple(FLOW_B)]
        port = trace.switch_report(0).ports[0]
        assert list(port.flow_pkts.items()) == [
            (trace.flows[0], 5e-324), (trace.flows[1], -0.0)]
        assert port.qdepth_pkts == 62 and port.paused is True
        assert trace.switch_report(0).port_meters[(1, 2)] == 1e21


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


def test_lenient_failed_record_leaves_nothing_behind(tmp_path):
    """A report that fails in its third port is quarantined whole: no
    column row, and neither the flow nor the strings only it carried
    stay in the file dictionaries — a later record that names them
    interns them as if for the first time."""
    only_here = ["h7", "h7", 7, 7, "UDP"]
    bad = _named_cases_report(switch="only-here", ports=[
        {"port": 1, "qdepth_pkts": 1, "qdepth_bytes": 1, "paused": 0,
         "flow_pkts": [[only_here, 1]], "inqueue": [[only_here, 1]],
         "wait_weights": [[only_here, FLOW_A, 1.0]]},
        {"port": 2, "qdepth_pkts": 2, "qdepth_bytes": 2, "paused": 0,
         "flow_pkts": [], "inqueue": [], "wait_weights": []},
        {"port": 3, "qdepth_pkts": "many", "qdepth_bytes": 3,
         "paused": 0, "flow_pkts": [], "inqueue": [],
         "wait_weights": []}])
    entries = [
        _named_cases_report(),
        bad,
        {"kind": "step_record", "node": "only-here", "step": 0,
         "flow": only_here, "bytes": 1, "start": 0.0, "end": 1.0},
    ]
    data = check_against_references(tmp_path, entries, lenient=True)
    with ColumnarTrace(_write(tmp_path / "q.vcol", data)) as trace:
        assert trace.counts == {"step_record": 1, "switch_report": 1,
                                "raw": 3}
        assert list(trace.col("raw.cls"))[-1] == columnar.RAW_MALFORMED
        assert trace.strings.index("only-here") == len(trace.strings) - 1
        assert tuple(trace.flows[-1]) == tuple(only_here)
    with pytest.raises(TraceFormatError, match=r"line 4"):
        check_against_references(tmp_path, entries)


def test_lenient_column_overflow_is_quarantined_whole(tmp_path):
    """A value every coercion accepts but its column cannot hold
    (a negative step index) fails half-way through the appends; the
    rows already appended are taken back."""
    src = tmp_path / "overflow.jsonl"
    lines = [json.dumps(entry) + "\n" for entry in PROLOGUE + [
        _named_cases_report(),
        {"kind": "step_record", "node": "new-node", "step": -1,
         "flow": ["h9", "h9", 9, 9, "UDP"], "bytes": 1, "start": 0.0,
         "end": 1.0},
        _named_cases_report(size_bytes=2**63),
        {"kind": "step_record", "node": "h0", "step": 1,
         "flow": FLOW_A, "bytes": 1, "start": 0.0, "end": 2.0},
    ]]
    src.write_text("".join(lines))
    errors = []
    col = write_columnar(src, tmp_path / "overflow.vcol",
                         on_error=lambda *a: errors.append(a[0]))
    assert errors == [4, 5]
    with ColumnarTrace(col) as trace:
        assert "new-node" not in trace.strings
        assert len(trace.flows) == 2
        assert len(list(trace.iter_events())) == 2
    back = write_jsonl(col, tmp_path / "overflow.back")
    kept = back.read_text().splitlines(keepends=True)
    assert len(kept) == len(lines) and kept[3:5] == lines[3:5]


# ----------------------------------------------------------------------
# corrupt files: TraceFormatError, and no mapping left open
# ----------------------------------------------------------------------
_TRAILER = columnar._TRAILER


def rewrite_directory(src, dst, mutate):
    """Copy a valid columnar file with ``mutate`` applied to its
    directory: the prologue, every column and the trailer stay
    well-formed."""
    data = src.read_bytes()
    offset, magic = _TRAILER.unpack(data[-_TRAILER.size:])
    directory = json.loads(data[offset:-_TRAILER.size])
    directory = mutate(directory) or directory
    dst.write_bytes(data[:offset]
                    + json.dumps(directory).encode("utf-8")
                    + _TRAILER.pack(offset, magic))
    return dst


def _set(path: list, value):
    def mutate(directory):
        target = directory
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _drop(key):
    def mutate(directory):
        del directory[key]
    return mutate


CORRUPT_DIRECTORIES = {
    "no-counts": _drop("counts"),
    "directory-is-a-list": lambda directory: [directory],
    "unknown-typecode": _set(["columns", "s.end", 2], "Z"),
    "another-columns-typecode": _set(["columns", "s.bytes", 2], "d"),
    "length-not-a-multiple-of-itemsize":
        lambda d: _set(["columns", "r.time", 1],
                       d["columns"]["r.time"][1] - 3)(d),
    "count-beyond-its-columns":
        _set(["counts", "switch_report"], 10**6),
    "column-beyond-the-file": _set(["columns", "s.line", 1], 10**9),
    "offset-column-not-one-longer":
        lambda d: _set(["columns", "r.ports", 1],
                       d["columns"]["r.ports"][1] - 8)(d),
    "empty-string-dictionary": _set(["strings"], []),
    "malformed-flow-dictionary": _set(["flows"], [[1]]),
    "column-missing": lambda d: d["columns"].pop("mg.idx") and None,
    "raw-blob-beyond-the-file": _set(["raw_blob"], [8, 10**9]),
}


@pytest.mark.parametrize("probe", sorted(CORRUPT_DIRECTORIES))
def test_corrupt_directory_ends_in_trace_format_error(
        probe, columnar_path, tmp_path):
    bad = rewrite_directory(columnar_path, tmp_path / "bad.vcol",
                            CORRUPT_DIRECTORIES[probe])
    with pytest.raises(TraceFormatError, match="bad.vcol"):
        load_trace(bad)
    with pytest.raises(TraceFormatError, match="bad.vcol"):
        list(trace_events(bad))
    with pytest.raises(TraceFormatError, match="bad.vcol"):
        jsonl_digest(bad)


def test_identity_rewrite_still_loads(columnar_path, trace_path,
                                      tmp_path):
    """The probe harness itself: an untouched directory re-serialised
    is a valid file."""
    same = rewrite_directory(columnar_path, tmp_path / "same.vcol",
                             lambda directory: None)
    assert jsonl_digest(same) == jsonl_digest(trace_path)


def test_data_corruption_is_reported_by_the_query_layer(
        columnar_path, tmp_path):
    """An offset column that points past its child column is something
    only the data can reveal: open accepts the file, the reads end in
    ``TraceFormatError``."""
    data = bytearray(columnar_path.read_bytes())
    with ColumnarTrace(columnar_path) as trace:
        # the first report now ends far past its ports and ttl drops
        for name in ("r.ports", "r.ttl"):
            start = trace.directory["columns"][name][0]
            struct.pack_into("<Q", data, start + 8, 2**40)
    bad = _write(tmp_path / "bad.vcol", bytes(data))
    with ColumnarTrace(bad) as trace:
        with pytest.raises(TraceFormatError, match="bad.vcol"):
            list(trace.iter_events())
    with pytest.raises(TraceFormatError, match="bad.vcol"):
        load_trace(bad)


def test_failed_open_closes_its_mapping(columnar_path, tmp_path,
                                        monkeypatch):
    """No reliance on ``gc``: the mapping handed to a failing open was
    closed by the time the exception left ``__init__``."""
    mappings = []

    class RecordingMap(mmap.mmap):
        closed_explicitly = False

        def __new__(cls, *args, **kwargs):
            mapping = super().__new__(cls, *args, **kwargs)
            mappings.append(mapping)
            return mapping

        def close(self):
            self.closed_explicitly = True
            super().close()

    monkeypatch.setattr(columnar.mmap, "mmap", RecordingMap)
    for probe in ("no-counts", "column-beyond-the-file"):
        bad = rewrite_directory(columnar_path, tmp_path / "bad.vcol",
                                CORRUPT_DIRECTORIES[probe])
        with pytest.raises(TraceFormatError):
            ColumnarTrace(bad)
        assert mappings.pop().closed_explicitly
    truncated = _write(tmp_path / "short.vcol",
                       columnar_path.read_bytes()[:-5])
    with pytest.raises(TraceFormatError, match="trailer"):
        ColumnarTrace(truncated)
    assert mappings.pop().closed_explicitly
    with ColumnarTrace(columnar_path) as trace:
        assert not mappings[0].closed_explicitly
        assert trace.counts["step_record"]
    assert mappings.pop().closed_explicitly


# ----------------------------------------------------------------------
# lazy open
# ----------------------------------------------------------------------
def test_open_casts_and_interns_nothing(columnar_path):
    with ColumnarTrace(columnar_path) as trace:
        assert not trace._views
        assert {"flows", "step_record",
                "switch_report"}.isdisjoint(vars(trace))
        trace.time_range("switch_report", 0.0, 1.0)
        assert set(trace._views) == {"r.time"}
        assert "flows" not in vars(trace)
        trace.step_record(0)
        assert "flows" in vars(trace) and "step_record" in vars(trace)


@pytest.mark.parametrize("bound_first", [True, False])
def test_closed_trace_refuses_decodes_bound_or_not(columnar_path,
                                                   bound_first):
    trace = ColumnarTrace(columnar_path)
    if bound_first:
        trace.switch_report(0)
    trace.close()
    for decode in (trace.step_record, trace.switch_report):
        with pytest.raises(ValueError, match="trace is closed"):
            decode(0)


# ----------------------------------------------------------------------
# hostile inputs
# ----------------------------------------------------------------------
def test_malformed_line_raises_without_sink(trace_path, tmp_path):
    src = tmp_path / "bad.jsonl"
    lines = trace_path.read_text().splitlines(keepends=True)
    lines.insert(len(lines) - 2, "{not json}\n")
    src.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="line"):
        write_columnar(src, tmp_path / "bad.vcol")


def test_malformed_line_preserved_with_sink(trace_path, tmp_path):
    src = tmp_path / "bad.jsonl"
    lines = trace_path.read_text().splitlines(keepends=True)
    lines.insert(len(lines) - 2, "{not json}\n")
    src.write_text("".join(lines))
    errors = []
    col = write_columnar(src, tmp_path / "bad.vcol",
                         on_error=lambda *a: errors.append(a))
    assert len(errors) == 1
    back = write_jsonl(col, tmp_path / "bad.back.jsonl")
    assert back.read_bytes() == src.read_bytes()
    # replaying the columnar file reports the preserved line again
    replay_errors = []
    list(trace_events(col,
                      on_error=lambda *a: replay_errors.append(a)))
    assert [e[0] for e in replay_errors] == [errors[0][0]]
    # and raises without a sink, like the strict JSONL reader
    with pytest.raises(TraceFormatError) as strict:
        list(trace_events(col))
    assert strict.value.line_no == errors[0][0]


def test_cli_convert_preserves_malformed_lines(trace_path, tmp_path,
                                               capsys):
    """``repro trace convert`` must not die on a quarantinable line:
    it preserves it byte-exact, warns, and still verifies the digest."""
    from repro.cli import main

    src = tmp_path / "bad.jsonl"
    lines = trace_path.read_text().splitlines(keepends=True)
    lines.insert(len(lines) - 2, "{not json}\n")
    src.write_text("".join(lines))
    col = tmp_path / "bad.vcol"
    assert main(["trace", "convert", str(src), str(col)]) == 0
    captured = capsys.readouterr()
    assert "1 malformed line(s) preserved byte-exact" in captured.err
    assert "digest verified" in captured.out
    back = tmp_path / "bad.back.jsonl"
    assert main(["trace", "convert", str(col), str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()


def test_unknown_kinds_quarantined_like_jsonl(tmp_path):
    src = tmp_path / "t.jsonl"
    synthesize_trace(src, seed=7)
    col = write_columnar(src, tmp_path / "t.vcol")
    with pytest.warns(UserWarning, match="unknown trace record kind"):
        jsonl_trace = load_trace(src)
    with pytest.warns(UserWarning, match="unknown trace record kind"):
        columnar_trace = load_trace(col)  # load_trace sniffs format
    jq = [(e.line_no, e.reason)
          for e in jsonl_trace.quarantine.entries]
    cq = [(e.line_no, e.reason)
          for e in columnar_trace.quarantine.entries]
    assert jq == cq and jq


# ----------------------------------------------------------------------
# batch / header parity
# ----------------------------------------------------------------------
def test_load_trace_parity_across_formats(trace_path, columnar_path):
    want = reference_trace(trace_path)
    for path in (trace_path, columnar_path):
        got = load_trace(path)
        assert got.meta == want.meta
        assert got.schedule == want.schedule
        assert got.flow_keys == want.flow_keys
        assert got.expected_step_times == want.expected_step_times
        assert got.pfc_xoff_bytes == want.pfc_xoff_bytes
        assert got.step_records == want.step_records
        assert got.reports == want.reports


def test_read_header_dispatches(trace_path, columnar_path):
    want = reference_header(trace_path)
    assert read_header(trace_path) == want
    assert read_header(columnar_path) == want


# ----------------------------------------------------------------------
# mmap lifetime
# ----------------------------------------------------------------------
def test_closed_trace_refuses_decodes(columnar_path):
    trace = ColumnarTrace(columnar_path)
    record = trace.step_record(0)
    trace.close()
    with pytest.raises(ValueError, match="closed"):
        trace.step_record(0)
    # decoded records are owning objects and survive the close
    assert record.node


def test_decoded_records_intern_flow_keys(columnar_path):
    with ColumnarTrace(columnar_path) as trace:
        first = trace.step_record(0)
        again = trace.step_record(0)
        assert first.flow_key is again.flow_key


# ----------------------------------------------------------------------
# bit-equal diagnosis across formats (batch / live / fleet)
# ----------------------------------------------------------------------
def _diagnosis_json(trace) -> str:
    from repro.core.reports import render_json
    from repro.traces import analyze_trace

    return json.dumps(render_json(analyze_trace(trace)),
                      sort_keys=True)


def reference_header(path) -> TraceHeader:
    trace = reference_trace(path)
    return TraceHeader(trace.schedule, trace.flow_keys,
                       trace.expected_step_times, trace.pfc_xoff_bytes,
                       trace.meta)


def test_batch_diagnosis_bit_equal(trace_path, columnar_path):
    want = _diagnosis_json(reference_trace(trace_path))
    assert _diagnosis_json(load_trace(trace_path)) == want
    assert _diagnosis_json(load_trace(columnar_path)) == want


def test_live_replay_bit_equal(trace_path, columnar_path):
    from repro.live import LivePipeline, PipelineConfig
    from repro.live.checkpoint import TraceReplayer

    def final_json(header, events) -> str:
        pipeline = LivePipeline.from_header(
            header, PipelineConfig(snapshot_every=16))
        final = TraceReplayer(pipeline, events).run()
        return json.dumps(final.to_dict(), sort_keys=True)

    want = final_json(reference_header(trace_path),
                      reference_events(trace_path))
    for path in (trace_path, columnar_path):
        assert final_json(read_header(path), trace_events(path)) == want


def test_fleet_tenant_bit_equal(trace_path, columnar_path, tmp_path):
    from repro.fleet.tenancy import TenantPolicy, TenantRuntime

    def digest(**source) -> str:
        tenant = TenantRuntime(
            "tenant", shard_id=0,
            policy=TenantPolicy(snapshot_every=32, checkpoint_every=0),
            **source)
        while not tenant.done:
            tenant.step(64)
        return json.dumps(tenant.finalize().to_dict(), sort_keys=True)

    want = digest(header=reference_header(trace_path),
                  events=iter(reference_events(trace_path)))
    assert digest(trace=str(trace_path)) == want
    assert digest(trace=str(columnar_path)) == want


def test_golden_gate_digest_survives_convert(tmp_path, golden_capture):
    """The golden trace_sha256 pin is reachable from the columnar
    form: convert the gate capture and reconstruct the digest."""
    golden = golden_capture[0]["ring_allgather_k4"]
    src = golden_capture[1] / "ring_allgather_k4.jsonl"
    col = write_columnar(src, tmp_path / "gate.vcol")
    assert jsonl_digest(col) == golden["trace_sha256"]
    back = write_jsonl(col, tmp_path / "gate.back.jsonl")
    assert hashlib.sha256(back.read_bytes()).hexdigest() \
        == golden["trace_sha256"]
