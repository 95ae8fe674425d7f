"""The one trace reader over JSONL: header scan, completion-time
order, strict / lenient, the truncated tail, and what a hostile file
ends in from every entry point."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import (
    TraceFormatError,
    TraceRecorder,
    TraceTruncated,
    load_trace,
    open_trace,
    read_header,
    trace_events,
    write_columnar,
)
from tests.traces.test_columnar import (
    _event_tuples,
    reference_events,
    synthesize_trace,
)

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    VedrfolnirSystem(net, runtime)  # triggers switch telemetry
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_000_000, tag="background").start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("stream") / "run.jsonl"
    recorder.write(path)
    return path


def test_header_matches_full_load(trace_path):
    header = read_header(trace_path)
    trace = load_trace(trace_path)
    assert header.schedule.nodes == trace.schedule.nodes
    assert header.flow_keys == trace.flow_keys
    assert header.expected_step_times == trace.expected_step_times
    assert header.pfc_xoff_bytes == trace.pfc_xoff_bytes
    assert header.meta["topology"] == trace.meta["topology"]


def test_stream_yields_same_events_as_load(trace_path):
    trace = load_trace(trace_path)
    events = list(trace_events(trace_path))
    by_line = sorted(events, key=lambda e: e.line_no)
    assert [e.payload for e in by_line
            if e.kind == "step_record"] == trace.step_records
    assert [e.payload for e in by_line
            if e.kind == "switch_report"] == trace.reports
    assert all(e.line_no > 0 for e in events)


def test_merged_events_are_time_sorted(trace_path):
    times = [e.time for e in trace_events(trace_path)]
    assert times == sorted(times)
    with open_trace(trace_path) as trace:
        assert trace.data_records == len(times)


def test_header_requires_schedule(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"kind": "meta", "version": 1}\n')
    with pytest.raises(TraceFormatError, match="no schedule"):
        read_header(path)


def test_header_rejects_future_version(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text('{"kind": "meta", "version": 99}\n')
    # from either reader, and even from a lenient one
    for read in (read_header, open_trace):
        for on_error in (None, lambda *_: None):
            with pytest.raises(TraceFormatError,
                               match="found 99, expected 1") as info:
                read(path, on_error)
            assert info.value.line_no == 1


def test_strict_stream_raises_with_line_number(trace_path, tmp_path):
    corrupt = tmp_path / "bad.jsonl"
    text = trace_path.read_text()
    corrupt.write_text(text + "{broken\n")
    bad_line = text.count("\n") + 1
    with pytest.raises(TraceFormatError) as excinfo:
        list(trace_events(corrupt))
    assert excinfo.value.line_no == bad_line
    assert f"line {bad_line}" in str(excinfo.value)


def test_quarantined_stream_skips_and_reports(trace_path, tmp_path):
    corrupt = tmp_path / "bad.jsonl"
    text = trace_path.read_text()
    corrupt.write_text(text + "{broken\n[]\n")
    first_bad = text.count("\n") + 1
    errors = []
    events = list(trace_events(
        corrupt, on_error=lambda n, r, s: errors.append((n, s))))
    assert errors == [(first_bad, "{broken"), (first_bad + 1, "[]")]
    assert _event_tuples(events) == \
        _event_tuples(reference_events(trace_path))


def test_header_stops_at_first_data_record(trace_path, tmp_path):
    # a trace whose prologue is followed by garbage that read_header
    # must never reach
    lines = trace_path.read_text().splitlines()
    first_data = next(i for i, line in enumerate(lines)
                      if json.loads(line)["kind"] in
                      ("step_record", "switch_report"))
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text(
        "\n".join(lines[:first_data + 1]) + "\nTRAILING GARBAGE\n")
    header = read_header(clipped)
    assert header.schedule.nodes == NODES


def test_truncated_tail_raises_with_resume_offset(trace_path,
                                                  tmp_path):
    data = trace_path.read_bytes()
    body = data.rstrip(b"\n")
    last_start = body.rfind(b"\n") + 1
    cut = last_start + (len(body) - last_start) // 2
    broken = tmp_path / "truncated.jsonl"
    broken.write_bytes(data[:cut])

    with pytest.raises(TraceTruncated) as info:
        list(trace_events(broken))
    assert info.value.byte_offset == last_start
    assert "resume at byte" in str(info.value)
    assert isinstance(info.value, TraceFormatError)


def test_truncated_tail_quarantined_with_callback(trace_path,
                                                  tmp_path):
    data = trace_path.read_bytes()
    broken = tmp_path / "truncated.jsonl"
    broken.write_bytes(data[:-5])

    errors = []
    events = list(trace_events(
        broken, on_error=lambda n, r, s: errors.append(r)))
    assert len(errors) == 1
    assert "TraceTruncated" in errors[0]
    assert len(events) == len(reference_events(trace_path)) - 1


# ----------------------------------------------------------------------
# a hostile file ends in one exception, with its line number, from
# every entry point
# ----------------------------------------------------------------------
def _replay(path):
    return list(trace_events(path))


def _convert(path):
    return write_columnar(path, path.with_suffix(".vcol"))


#: the data-region file goes to the first three, the prologue-region
#: file to ``read_header`` (which never reads past the prologue)
ENTRY_POINTS = {"load_trace": load_trace, "trace_events": _replay,
                "write_columnar": _convert, "read_header": read_header}

HOSTILE = {
    "non-object": lambda line: b"[1, 2]\n",
    "garbage": lambda line: b"{not json \xff\n",
    "missing-field": lambda line: json.dumps(
        {key: value for key, value in json.loads(line).items()
         if key not in ("end", "time", "node")}).encode() + b"\n",
}


def _hostile_file(trace_path, tmp_path, case, region):
    """``trace_path`` with one line made hostile — the third data
    record, or the third ``expected`` entry of the prologue.  Returns
    ``(path, line_no, byte offset of that line)``."""
    lines = trace_path.read_bytes().splitlines(keepends=True)
    wanted = ("expected",) if region == "prologue" \
        else ("step_record", "switch_report")
    at = [i for i, line in enumerate(lines)
          if json.loads(line)["kind"] in wanted][2]
    if case == "cut-tail":
        lines = lines[:at] + [lines[at][:len(lines[at]) // 2]]
    else:
        lines[at] = HOSTILE[case](lines[at])
    path = tmp_path / f"{case}-{region}.jsonl"
    path.write_bytes(b"".join(lines))
    return path, at + 1, sum(map(len, lines[:at]))


@pytest.mark.parametrize("case", [*HOSTILE, "cut-tail"])
def test_hostile_jsonl_ends_in_trace_format_error_everywhere(
        trace_path, tmp_path, case, capsys):
    seen = set()
    for name, read in ENTRY_POINTS.items():
        region = "prologue" if name == "read_header" else "data"
        path, line_no, offset = _hostile_file(
            trace_path, tmp_path, case, region)
        with pytest.raises(TraceFormatError) as info:
            read(path)
        assert info.value.line_no == line_no, name
        assert f"(line {line_no})" in str(info.value), name
        if case == "cut-tail":
            assert info.value.byte_offset == offset, name
            assert f"resume at byte {offset}" in str(info.value)
        seen.add(type(info.value))
        # and from the command line: exit 2 and one line, no traceback
        verb = "serve" if region == "prologue" else "diagnose"
        assert main([verb, "--trace", str(path)]) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name
    assert seen == {TraceTruncated if case == "cut-tail"
                    else TraceFormatError}


# ----------------------------------------------------------------------
# fuzz: one line of a good trace, mutated
# ----------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
#: the fields every decoder coerces (``int()`` / ``float()`` / index /
#: iterate), against values none of those accept
COERCED = ["step", "bytes", "start", "end", "flow", "time",
           "size_bytes", "ports", "meters", "ttl_drops"]
WRONG = st.sampled_from([None, "x", 7.5, {"a": 1}])


@st.composite
def mutations(draw):
    """``line -> bytes``: one way of breaking, or merely changing, a
    JSONL line (never its terminating newline)."""
    how = draw(st.sampled_from(
        ["truncate", "bytes", "value", "drop", "retype"]))
    if how == "bytes":
        junk = draw(st.binary(max_size=40)).replace(b"\n", b" ")
        return lambda line: junk + b"\n"
    if how == "value":
        text = json.dumps(draw(JSON_VALUES)).encode()
        return lambda line: text + b"\n"
    pick = draw(st.integers(0, 10**6))
    if how == "truncate":
        return lambda line: line[:1 + pick % (len(line) - 2)] + b"\n"
    wrong = draw(WRONG)

    def edit(line: bytes) -> bytes:
        entry = json.loads(line)
        if how == "drop":
            keys = sorted(entry)
        else:
            keys = [key for key in COERCED if key in entry] \
                or sorted(entry)
        key = keys[pick % len(keys)]
        if how == "drop":
            del entry[key]
        else:
            entry[key] = wrong
        return json.dumps(entry).encode() + b"\n"

    return edit


def _names_data_kind(line: bytes) -> bool:
    try:
        return json.loads(line)["kind"] in ("step_record",
                                            "switch_report")
    except (ValueError, TypeError, KeyError):
        return False


@pytest.mark.filterwarnings("ignore:skipping unknown trace record")
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 50), st.integers(0, 10**6), mutations())
def test_fuzz_one_mutated_line(tmp_path_factory, seed, pick, mutate):
    """Strict reads end in ``TraceFormatError`` naming that line and in
    nothing else; lenient reads never raise, report exactly that line
    (when the independent reader rejects it too), and yield every other
    record as the independent reader decodes it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    src = tmp / "t.jsonl"
    synthesize_trace(src, seed, records=12)
    lines = src.read_bytes().splitlines(keepends=True)
    prologue = sum(json.loads(line)["kind"] in
                   ("meta", "schedule", "flow_key", "expected")
                   for line in lines if line.strip())
    at = prologue + pick % (len(lines) - prologue)
    if not lines[at].strip():
        return      # a blank line: nothing to mutate
    lines[at] = mutate(lines[at])
    src.write_bytes(b"".join(lines))

    bad: list = []
    want = _event_tuples(reference_events(src, bad))
    assert bad in ([], [at + 1])

    errors: list = []
    got = _event_tuples(trace_events(
        src, on_error=lambda n, r, s: errors.append(n)))
    assert errors == bad
    assert got == want
    col = write_columnar(src, tmp / "t.vcol",
                         on_error=lambda *_: None)
    errors.clear()
    assert _event_tuples(trace_events(
        col, on_error=lambda n, r, s: errors.append(n))) == want
    assert errors == bad

    # the header scan ends at the first line that names a data kind
    first_data = next(i for i, line in enumerate(lines)
                      if _names_data_kind(line))
    for name, read in ENTRY_POINTS.items():
        if not bad or name == "read_header" and first_data <= at:
            read(src)
        else:
            with pytest.raises(TraceFormatError) as info:
                read(src)
            assert info.value.line_no == at + 1, name
