"""Columnar trace store, and the one trace reader.

The JSONL trace format keeps the capture greppable, but a consumer that
reads it pays ``json.loads`` per line per pass.  This module is the
read-optimized sibling format: the same records, stored as per-kind
columns of ``array``-module values so a replay decodes values straight
out of an ``mmap`` with no JSON in the path.

It is also the only reader either format has.  :func:`open_trace`
sniffs a file once and returns a :class:`ColumnarTrace`: the mapped
file for a ``.vcol``, or, for a JSONL, the same class over the bytes
the converter would have written — :func:`_build_from_jsonl`, the one
JSONL line loop in the tree, parses each line once into columns and
:func:`_emit` lays them out in memory.  A JSONL is therefore read at
the cost of its columns, not in O(1) memory; what it buys is that
header, replay, batch load, resume and conversion all see one decoder
and answer a hostile file the same way (:class:`TraceFormatError` with
the line number, :class:`TraceTruncated` with the byte the partial
record starts at).

File layout (container version ``COLUMNAR_VERSION``)::

    +0   magic  b"VCOL" | u16 version | u16 flags(0)
    +8   column blobs + raw-line blob, each 8-byte aligned
    ...  directory (UTF-8 JSON)
    EOF-16  u64 directory offset | b"VCOLTRLR"

The directory maps column names to ``[offset, byte_length, typecode]``
triples; columns are plain ``array``-module payloads read back as
``memoryview.cast`` views over the mmap — zero copies until a record
is actually decoded.  Variable-length children (port entries, per-flow
counters, pause events, meters) are flattened Parquet-style: one child
column set plus a parent offset column of length ``n + 1``, so record
``i`` owns child rows ``off[i]:off[i+1]``.

Strings (node ids, switch ids, poll ids) and flow 5-tuples are
dictionary-encoded once per file; the reader interns every flow key
through :func:`~repro.simnet.packet.intern_flow_key` when the flow
dictionary is first used, so decoded records hit the same identity
fast paths as live objects.

Both edges are column-native: ingest fills the columns straight from
each parsed JSON object (:class:`_Builder`), reconstruction prints each
line from the columns as text (:func:`_line_encoders`), and neither
builds a ``StepRecord`` / ``SwitchReport`` on the way.  Opening a file
parses and checks its directory and nothing else.

Losslessness: the prologue (``meta`` / ``schedule`` / ``flow_key`` /
``expected``), blank lines, and any unknown-kind or undecodable lines
are preserved **byte-exact** in a raw-line blob with their original
line numbers; data records are re-printed in the form the
:class:`~repro.traces.store.TraceRecorder` writes
(:mod:`repro.traces.serialize` through ``json.dumps`` defaults).  For
any recorder-written capture the JSONL -> columnar -> JSONL round trip
is therefore byte-identical, which ``repro trace convert`` verifies by
SHA-256 by default.

Replay order: the completion-time merge (time, then step records
before switch reports — hosts report a step's end before switches
report the window that contained it — then line number) is
*precomputed at conversion time* and stored as a permutation column,
so replay is a single sequential walk with no heap.

Lenient reads: with an ``on_error`` sink a malformed line is reported
once and skipped.  A JSONL's bad lines are found while it is built, a
``.vcol``'s preserved ones when it is opened — either way *at open*,
before the first event, not interleaved with the stream.

mmap lifetime: column views borrow the mapping.  :meth:`ColumnarTrace.
close` releases the views before closing the mmap; decoded records
(``StepRecord`` / ``SwitchReport``) copy everything out and stay valid
after close.  Do not hold raw column views past ``close()``.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import struct
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, count, islice, repeat
from math import isfinite
from operator import le
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.collective.runtime import StepRecord
from repro.core.durable import atomic_write
from repro.simnet.packet import FlowKey, intern_flow_key
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import PortTelemetryEntry, SwitchReport
from repro.traces import serialize
from repro.traces.store import FORMAT_VERSION, TraceFormatError
from repro.traces.stream import (
    DATA_KINDS,
    ErrorSink,
    TraceEvent,
    TraceHeader,
    TraceTruncated,
)

#: container version; bump on incompatible layout changes
COLUMNAR_VERSION = 1

MAGIC = b"VCOL"
TRAILER_MAGIC = b"VCOLTRLR"
_PROLOGUE = struct.Struct("<4sHH")  # magic, version, flags
_TRAILER = struct.Struct("<Q8s")    # directory offset, trailer magic

#: raw-line classes (the ``raw.cls`` column)
RAW_BLANK = 0      # whitespace-only line: skipped by every reader
RAW_PROLOGUE = 1   # meta / schedule / flow_key / expected
RAW_UNKNOWN = 2    # well-formed JSON with an unrecognized kind
RAW_MALFORMED = 3  # not JSON / failed decode (kept only when lenient)

_MERGE_RANK = {"step_record": 0, "switch_report": 1}


def sniff_format(path: Union[str, Path]) -> str:
    """``"columnar"`` or ``"jsonl"``, by magic bytes."""
    with Path(path).open("rb") as handle:
        return "columnar" if handle.read(4) == MAGIC else "jsonl"


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class _Dict(dict):
    """Insertion-ordered value -> id dictionary (deterministic): a
    lookup is one C-level ``dict`` subscript, and only a first sighting
    runs Python."""

    __slots__ = ()

    def __missing__(self, value) -> int:
        got = self[value] = len(self)
        return got

    def truncate(self, size: int) -> None:
        """Forget every value first seen after the dictionary held
        ``size`` of them."""
        for value in list(self)[size:]:
            del self[value]


class _FlowIds(dict):
    """Raw JSON 5-tuple -> flow id.

    The file dictionary is keyed by the *coerced* key (``int()`` on
    the two port numbers, as :func:`serialize.decode_flow_key` does),
    so ``"4791"`` and ``4791`` intern to one id; each raw spelling pays
    for the coercion once.
    """

    __slots__ = ("flows",)

    def __init__(self, flows: _Dict) -> None:
        self.flows = flows

    def __missing__(self, raw: tuple) -> int:
        got = self[raw] = self.flows[
            raw[0], raw[1], int(raw[2]), int(raw[3]), raw[4]]
        return got


class _Builder:
    """Accumulates columns while the converter streams the JSONL.

    ``add_step_record`` / ``add_switch_report`` fill the columns
    straight from the parsed JSON object with the coercions of
    :func:`serialize.decode_step_record` / ``decode_switch_report``
    (``int()`` / ``float()`` / truthiness, duplicate keys collapsed
    through a ``dict``: last value, first position); a record that
    fails anywhere leaves nothing behind.
    """

    def __init__(self) -> None:
        self.strings = _Dict()
        self.flows = _Dict()
        self.flow_ids = _FlowIds(self.flows)
        self.cols: dict[str, array] = {}
        for name, code in _COLUMN_TYPES.items():
            self.cols[name] = array(code)
        # offset columns start with their leading 0
        for name in _CHILD_GROUPS:
            self.cols[name].append(0)
        self.raw_blob = bytearray()
        self.meta: dict = {}
        self.schedule: Optional[dict] = None
        self.flow_keys: list = []    # [node, step, flow-5-tuple]
        self.expected: list = []     # [node, step, time_ns]
        self.unknown_kinds: dict[str, int] = {}

    def raw_line(self, cls: int, kind: Optional[str], line_no: int,
                 data: bytes) -> None:
        c = self.cols
        c["raw.cls"].append(cls)
        c["raw.kind"].append(-1 if kind is None else self.strings[kind])
        c["raw.line"].append(line_no)
        c["raw.off"].append(len(self.raw_blob))
        c["raw.len"].append(len(data))
        self.raw_blob.extend(data)

    # ------------------------------------------------------------------
    def _rollback(self, group: str, rows: int, strings: int,
                  flows: int) -> None:
        """Undo a record that failed part-way: its column rows, and
        the strings and flows only it had introduced."""
        self._truncate(group, rows)
        self.strings.truncate(strings)
        self.flows.truncate(flows)
        for raw in [raw for raw, got in self.flow_ids.items()
                    if got >= flows]:
            del self.flow_ids[raw]

    def _truncate(self, group: str, rows: int) -> None:
        for name, _code, _size, owner, extra in _COLUMN_LAYOUT:
            if owner == group:
                column = self.cols[name]
                del column[rows + extra:]
                if extra:   # an offset column: its last entry is the
                    # row count its child group is cut back to
                    self._truncate(_CHILD_GROUPS[name], column[rows])

    def add_step_record(self, entry: dict, line_no: int) -> None:
        c = self.cols
        strings = self.strings
        mark = len(c["s.line"]), len(strings), len(self.flows)
        try:
            flow = entry["flow"]
            recv = entry.get("recv_source")
            bind = entry.get("binding")
            c["s.end"].append(float(entry["end"]))
            c["s.start"].append(float(entry["start"]))
            c["s.node"].append(strings[entry["node"]])
            c["s.step"].append(int(entry["step"]))
            c["s.flow"].append(self.flow_ids[
                flow[0], flow[1], flow[2], flow[3], flow[4]])
            c["s.bytes"].append(int(entry["bytes"]))
            c["s.recv"].append(-1 if recv is None else strings[recv])
            c["s.bind"].append(-1 if bind is None else strings[bind])
            c["s.line"].append(line_no)
        except Exception:
            self._rollback("s", *mark)
            raise

    def add_switch_report(self, entry: dict, line_no: int) -> None:
        c = self.cols
        strings, flow_ids = self.strings, self.flow_ids
        mark = len(c["r.line"]), len(strings), len(self.flows)
        try:
            poll = entry.get("poll_id")
            c["r.time"].append(float(entry["time"]))
            c["r.switch"].append(strings[entry["switch"]])
            c["r.poll"].append(-1 if poll is None else strings[poll])
            c["r.size"].append(int(entry["size_bytes"]))
            for port in entry["ports"]:
                c["p.port"].append(int(port["port"]))
                c["p.qpk"].append(int(port["qdepth_pkts"]))
                c["p.qby"].append(int(port["qdepth_bytes"]))
                c["p.paused"].append(1 if port["paused"] else 0)
                counts = {flow_ids[f[0], f[1], f[2], f[3], f[4]]: float(n)
                          for f, n in port["flow_pkts"]}
                c["fp.flow"].extend(counts)
                c["fp.val"].extend(counts.values())
                counts = {flow_ids[f[0], f[1], f[2], f[3], f[4]]: int(n)
                          for f, n in port["inqueue"]}
                c["iq.flow"].extend(counts)
                c["iq.val"].extend(counts.values())
                weights = {
                    (flow_ids[fi[0], fi[1], fi[2], fi[3], fi[4]],
                     flow_ids[fj[0], fj[1], fj[2], fj[3], fj[4]]):
                    float(w) for fi, fj, w in port["wait_weights"]}
                if weights:
                    waiting, waited_on = zip(*weights)
                    c["ww.fi"].extend(waiting)
                    c["ww.fj"].extend(waited_on)
                    c["ww.val"].extend(weights.values())
                c["p.fp"].append(len(c["fp.flow"]))
                c["p.iq"].append(len(c["iq.flow"]))
                c["p.ww"].append(len(c["ww.val"]))
            meters = {(int(inp), int(out)): float(v)
                      for inp, out, v in entry["meters"]}
            if meters:
                inputs, outputs = zip(*meters)
                c["mt.in"].extend(inputs)
                c["mt.out"].extend(outputs)
                c["mt.val"].extend(meters.values())
            for prefix, pauses in (("pr", entry["pause_received"]),
                                   ("ps", entry["pause_sent"])):
                for pause in pauses:
                    sender, victim = pause["sender"], pause["victim"]
                    c[f"{prefix}.time"].append(float(pause["time"]))
                    c[f"{prefix}.sn"].append(strings[sender[0]])
                    c[f"{prefix}.sp"].append(int(sender[1]))
                    c[f"{prefix}.vn"].append(strings[victim[0]])
                    c[f"{prefix}.vp"].append(int(victim[1]))
                    c[f"{prefix}.buf"].append(int(pause["buffer"]))
                    c[f"{prefix}.gen"].append(
                        1 if pause["genuine"] else 0)
            drops = {flow_ids[f[0], f[1], f[2], f[3], f[4]]: int(n)
                     for f, n in entry["ttl_drops"]}
            c["ttl.flow"].extend(drops)
            c["ttl.val"].extend(drops.values())
            c["r.ports"].append(len(c["p.port"]))
            c["r.mt"].append(len(c["mt.val"]))
            c["r.pr"].append(len(c["pr.time"]))
            c["r.ps"].append(len(c["ps.time"]))
            c["r.ttl"].append(len(c["ttl.val"]))
            c["r.line"].append(line_no)
        except Exception:
            self._rollback("r", *mark)
            raise

    def prologue(self) -> dict:
        """The prologue in the directory's JSON form."""
        return {"meta": self.meta, "schedule": self.schedule,
                "flow_keys": self.flow_keys, "expected": self.expected}

    # ------------------------------------------------------------------
    def finish_merge(self) -> None:
        """Precompute the completion-time merge permutation."""
        c = self.cols
        order = sorted(
            [(c["s.end"][i], 0, c["s.line"][i], i)
             for i in range(len(c["s.end"]))] +
            [(c["r.time"][i], 1, c["r.line"][i], i)
             for i in range(len(c["r.time"]))])
        for _time, rank, _line, idx in order:
            c["mg.kind"].append(rank)
            c["mg.idx"].append(idx)


#: column name -> array typecode.  'I' ids index the string/flow
#: dictionaries; 'i' ids use -1 for None; offset columns are 'Q' and
#: one element longer than their parent.
_COLUMN_TYPES = {
    # step records
    "s.end": "d", "s.start": "d", "s.node": "I", "s.step": "I",
    "s.flow": "I", "s.bytes": "q", "s.recv": "i", "s.bind": "i",
    "s.line": "Q",
    # switch reports (+ child offsets)
    "r.time": "d", "r.switch": "I", "r.poll": "i", "r.size": "q",
    "r.line": "Q",
    "r.ports": "Q", "r.mt": "Q", "r.pr": "Q", "r.ps": "Q",
    "r.ttl": "Q",
    # port entries (+ per-port child offsets)
    "p.port": "I", "p.qpk": "q", "p.qby": "q", "p.paused": "B",
    "p.fp": "Q", "p.iq": "Q", "p.ww": "Q",
    # per-port flow counters
    "fp.flow": "I", "fp.val": "d",
    "iq.flow": "I", "iq.val": "q",
    "ww.fi": "I", "ww.fj": "I", "ww.val": "d",
    # per-report meters / pauses / drops
    "mt.in": "q", "mt.out": "q", "mt.val": "d",
    "pr.time": "d", "pr.sn": "I", "pr.sp": "q", "pr.vn": "I",
    "pr.vp": "q", "pr.buf": "q", "pr.gen": "B",
    "ps.time": "d", "ps.sn": "I", "ps.sp": "q", "ps.vn": "I",
    "ps.vp": "q", "ps.buf": "q", "ps.gen": "B",
    "ttl.flow": "I", "ttl.val": "q",
    # merge permutation
    "mg.kind": "B", "mg.idx": "Q",
    # raw (prologue / blank / unknown / malformed) lines
    "raw.cls": "B", "raw.kind": "i", "raw.line": "Q", "raw.off": "Q",
    "raw.len": "Q",
}

#: offset column -> the child column group whose rows it delimits
_CHILD_GROUPS = {"r.ports": "p", "r.mt": "mt", "r.pr": "pr",
                 "r.ps": "ps", "r.ttl": "ttl",
                 "p.fp": "fp", "p.iq": "iq", "p.ww": "ww"}

#: per column: (name, typecode, item size, group, elements beyond the
#: group's row count — 1 for an offset column)
_COLUMN_LAYOUT = [
    (name, code, array(code).itemsize, name.partition(".")[0],
     1 if name in _CHILD_GROUPS else 0)
    for name, code in _COLUMN_TYPES.items()]


def _is_sorted(column) -> bool:
    return all(map(le, column, islice(column, 1, None)))


def _build_from_jsonl(handle, on_error: Optional[ErrorSink] = None,
                      prologue_only: bool = False) -> _Builder:
    """Stream a JSONL trace (a binary file object) once into a column
    builder — the one JSONL line loop, and the one decoder of prologue
    entries, in the tree.

    Without ``on_error`` any malformed or undecodable line raises
    :class:`TraceFormatError` with its line number
    (:class:`TraceTruncated`, with the byte it starts at, for a final
    line cut short of its newline); with it the line is preserved
    byte-exact as a ``RAW_MALFORMED`` raw line and reported.
    ``prologue_only`` stops at the first data record, reading nothing
    past it: the header scan.
    """
    builder = _Builder()
    offset = 0
    for line_no, raw in enumerate(handle, 1):
        start = offset
        offset += len(raw)
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            builder.raw_line(RAW_BLANK, None, line_no, raw)
            continue
        kind: Optional[str] = None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise TraceFormatError(
                    f"expected a JSON object, got "
                    f"{type(entry).__name__}")
            kind = entry.get("kind")
            if kind in DATA_KINDS:
                if prologue_only:
                    break
                if kind == "step_record":
                    builder.add_step_record(entry, line_no)
                else:
                    builder.add_switch_report(entry, line_no)
            elif kind == "meta":
                if entry.get("version") != FORMAT_VERSION:
                    raise TraceFormatError(
                        f"unsupported trace version: found "
                        f"{entry.get('version')!r}, expected "
                        f"{FORMAT_VERSION!r}", line_no)
                builder.meta = entry
                builder.raw_line(RAW_PROLOGUE, kind, line_no, raw)
            elif kind == "schedule":
                # decode once so a corrupt prologue fails the
                # conversion, but store the original JSON form
                serialize.decode_schedule(entry["schedule"])
                builder.schedule = entry["schedule"]
                builder.raw_line(RAW_PROLOGUE, kind, line_no, raw)
            elif kind == "flow_key":
                serialize.decode_flow_key(entry["flow"])
                builder.flow_keys.append(
                    [entry["node"], int(entry["step"]),
                     list(entry["flow"])])
                builder.raw_line(RAW_PROLOGUE, kind, line_no, raw)
            elif kind == "expected":
                builder.expected.append(
                    [entry["node"], int(entry["step"]),
                     float(entry["time_ns"])])
                builder.raw_line(RAW_PROLOGUE, kind, line_no, raw)
            else:
                label = str(kind)
                builder.unknown_kinds[label] = \
                    builder.unknown_kinds.get(label, 0) + 1
                builder.raw_line(RAW_UNKNOWN, label, line_no, raw)
        except Exception as error:  # noqa: BLE001 - quarantine
            if kind == "meta" and isinstance(error, TraceFormatError):
                raise   # an unsupported version is never quarantined
            if not raw.endswith(b"\n") \
                    and isinstance(error, ValueError):
                # the file stops mid-record: an incomplete write, not
                # corruption
                failure = TraceTruncated(
                    "file ends mid-record", line_no, start)
                reason = f"TraceTruncated: {failure}"
            else:
                reason = f"{type(error).__name__}: {error}"
                failure = TraceFormatError(reason, line_no)
            if on_error is None:
                raise failure from error
            on_error(line_no, reason, text)
            builder.raw_line(RAW_MALFORMED, None, line_no, raw)
    if builder.schedule is None:
        raise TraceFormatError(
            f"{handle.name} contains no schedule record")
    if not prologue_only:
        builder.finish_merge()
    return builder


def _emit(builder: _Builder, sink) -> None:
    """Serialize a builder into ``sink`` (needs only ``.write``)."""
    sink.write(_PROLOGUE.pack(MAGIC, COLUMNAR_VERSION, 0))
    offset = _PROLOGUE.size
    columns: dict[str, list] = {}

    def aligned_write(data: bytes) -> tuple[int, int]:
        nonlocal offset
        pad = (-offset) % 8
        if pad:
            sink.write(b"\x00" * pad)
            offset += pad
        start = offset
        sink.write(data)
        offset += len(data)
        return start, len(data)

    for name, column in builder.cols.items():
        start, length = aligned_write(column.tobytes())
        columns[name] = [start, length, column.typecode]
    blob_start, blob_len = aligned_write(bytes(builder.raw_blob))
    directory = {
        "format": "repro-columnar",
        "version": COLUMNAR_VERSION,
        "header": builder.prologue(),
        "strings": list(builder.strings),
        "flows": [list(flow) for flow in builder.flows],
        "counts": {
            "step_record": len(builder.cols["s.end"]),
            "switch_report": len(builder.cols["r.time"]),
            "raw": len(builder.cols["raw.cls"]),
        },
        "time_sorted": {
            "step_record": _is_sorted(builder.cols["s.end"]),
            "switch_report": _is_sorted(builder.cols["r.time"]),
        },
        "unknown_kinds": builder.unknown_kinds,
        "columns": columns,
        "raw_blob": [blob_start, blob_len],
    }
    payload = json.dumps(directory,
                         separators=(",", ":")).encode("utf-8")
    directory_offset = offset
    sink.write(payload)
    sink.write(_TRAILER.pack(directory_offset, TRAILER_MAGIC))


def write_columnar(src: Union[str, Path], dst: Union[str, Path],
                   on_error: Optional[ErrorSink] = None) -> Path:
    """Convert a JSONL trace to a columnar file (atomically).

    The output is deterministic — converting the same input twice
    yields identical bytes — which is what makes
    :func:`content_address` a stable cache key.
    """
    dst = Path(dst)
    with Path(src).open("rb") as handle:
        builder = _build_from_jsonl(handle, on_error)
    with atomic_write(dst) as handle:
        _emit(builder, handle)
    return dst


class _HashSink:
    __slots__ = ("hasher",)

    def __init__(self) -> None:
        self.hasher = hashlib.sha256()

    def write(self, data: bytes) -> int:
        self.hasher.update(data)
        return len(data)


def content_address(path: Union[str, Path]) -> str:
    """SHA-256 content address of a trace *in its columnar form*.

    For a columnar file this is the digest of the file bytes; for a
    JSONL file the deterministic conversion is streamed through the
    hash without touching disk.  Both spellings of the same capture
    therefore share one address — the cache key the experiment runner
    uses for trace-derived artifacts.
    """
    path = Path(path)
    if sniff_format(path) == "columnar":
        hasher = hashlib.sha256()
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                hasher.update(chunk)
        return hasher.hexdigest()
    with path.open("rb") as handle:
        builder = _build_from_jsonl(handle)
    sink = _HashSink()
    _emit(builder, sink)
    return sink.hasher.hexdigest()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def _directory_problem(directory, data_end: int) -> Optional[str]:
    """Why ``directory`` cannot describe the ``data_end`` bytes that
    precede it, or ``None``.  O(number of columns): what only the data
    can reveal (an id beyond its dictionary, an offset beyond its child
    column) is left to the read loops."""
    if not isinstance(directory, dict):
        return f"expected an object, got {type(directory).__name__}"
    for key, kind in (("version", int), ("header", dict),
                      ("strings", list), ("flows", list),
                      ("counts", dict), ("columns", dict),
                      ("raw_blob", list), ("time_sorted", dict),
                      ("unknown_kinds", dict)):
        if not isinstance(directory.get(key), kind):
            return f"{key!r} is missing or not a JSON {kind.__name__}"
    header = directory["header"]
    if not isinstance(header.get("meta"), dict) \
            or not {"schedule", "flow_keys", "expected"} <= set(header):
        return "'header' lacks meta / schedule / flow_keys / expected"

    def inside(offset, length) -> bool:
        return (type(offset) is int and type(length) is int
                and _PROLOGUE.size <= offset and 0 <= length
                and offset + length <= data_end)

    rows: dict[str, int] = {}
    columns = directory["columns"]
    for name, code, item_size, group, extra in _COLUMN_LAYOUT:
        try:
            offset, length, typecode = columns[name]
        except (KeyError, TypeError, ValueError):
            return f"column {name!r} is missing or malformed"
        if typecode != code:
            return (f"column {name!r} has typecode {typecode!r}, "
                    f"expected {code!r}")
        if not inside(offset, length):
            return f"column {name!r} lies outside the data region"
        count, rest = divmod(length, item_size)
        if rest:
            return (f"column {name!r} is {length} bytes, not a "
                    f"multiple of its item size")
        if rows.setdefault(group, count - extra) != count - extra:
            return (f"column {name!r} holds {count - extra} rows, the "
                    f"rest of its group {rows[group]}")
    counts = directory["counts"]
    for kind, group in (("step_record", "s"), ("switch_report", "r"),
                        ("raw", "raw")):
        if counts.get(kind) != rows[group]:
            return (f"counts[{kind!r}] is {counts.get(kind)!r}, its "
                    f"columns hold {rows[group]} rows")
    if rows["mg"] != rows["s"] + rows["r"]:
        return (f"merge permutation holds {rows['mg']} rows for "
                f"{rows['s'] + rows['r']} records")
    if len(directory["raw_blob"]) != 2 \
            or not inside(*directory["raw_blob"]):
        return "'raw_blob' lies outside the data region"
    return None


def _decode_header(head: dict, path) -> TraceHeader:
    """A :class:`TraceHeader` from the prologue's directory form."""
    meta = head["meta"]
    try:
        return TraceHeader(
            schedule=serialize.decode_schedule(head["schedule"]),
            flow_keys={(node, int(step)): serialize.decode_flow_key(flow)
                       for node, step, flow in head["flow_keys"]},
            expected_step_times={(node, int(step)): float(t)
                                 for node, step, t in head["expected"]},
            pfc_xoff_bytes=int(meta.get("pfc_xoff_bytes", 0)),
            meta=meta,
        )
    except (IndexError, KeyError, TypeError, ValueError) as error:
        raise TraceFormatError(
            f"{path}: corrupt header: "
            f"{type(error).__name__}: {error}") from error


class ColumnarTrace:
    """Zero-copy reader over one trace in columnar form — the read view
    of either on-disk format (:func:`open_trace`).

    ``ColumnarTrace(path)`` maps a ``.vcol`` read-only; ``data`` is the
    file's bytes when the caller already holds them (the mapping
    :func:`open_trace` sniffed, or a JSONL's in-memory conversion).
    Opening parses the directory and checks it against the bytes
    (:func:`_directory_problem`) — nothing else.
    Column views are cast, the flow dictionary interned and the record
    decoders ``step_record(i)`` / ``switch_report(i)`` bound when first
    asked for, so an open that reads one directory field pays for one
    directory field.  Use as a context manager; see the module
    docstring for mmap lifetime rules.
    """

    def __init__(self, path: Union[str, Path], data=None) -> None:
        self.path = Path(path)
        self._views: dict[str, memoryview] = {}
        self._header: Optional[TraceHeader] = None
        self._raw_blob = memoryview(b"")
        if data is None:
            with self.path.open("rb") as handle:
                data = mmap.mmap(handle.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        # a mapping handed in is owned from here on: close() unmaps it
        self._mm = data if isinstance(data, mmap.mmap) else None
        self._buf = memoryview(data)
        try:
            self._open_directory()
        except BaseException:
            self.close()
            raise

    def _open_directory(self) -> None:
        # no slice of ``buf`` may outlive a statement here: one held by
        # a raising frame would keep the mapping open past close()
        buf, path = self._buf, self.path
        if len(buf) < _PROLOGUE.size + _TRAILER.size:
            raise TraceFormatError(f"{path}: not a columnar trace "
                                   f"(file too short)")
        magic, version, _flags = _PROLOGUE.unpack_from(buf)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != COLUMNAR_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported columnar version {version} "
                f"(expected {COLUMNAR_VERSION})")
        trailer_at = len(buf) - _TRAILER.size
        data_end, trailer = _TRAILER.unpack_from(buf, trailer_at)
        if trailer != TRAILER_MAGIC:
            raise TraceFormatError(
                f"{path}: missing trailer (truncated write?)")
        try:
            directory = json.loads(bytes(buf[data_end:trailer_at]))
        except ValueError as error:
            raise TraceFormatError(
                f"{path}: corrupt directory: {error}") from error
        problem = _directory_problem(directory, data_end)
        if problem is not None:
            raise TraceFormatError(
                f"{path}: corrupt directory: {problem}")
        self.directory = directory
        self.version = directory["version"]
        self.counts: dict[str, int] = directory["counts"]
        self.time_sorted: dict[str, bool] = directory["time_sorted"]
        self.unknown_kinds: dict[str, int] = directory["unknown_kinds"]
        self.strings: list[str] = directory["strings"]
        self._columns = directory["columns"]
        blob_start, blob_len = directory["raw_blob"]
        self._raw_blob = buf[blob_start:blob_start + blob_len]

    def __getattr__(self, name: str):
        # the record decoders are instance attributes bound at first
        # use (and replaced by refusing stubs at close())
        if name in ("step_record", "switch_report"):
            self._bind_decoders()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def data_records(self) -> int:
        """How many events a full replay yields, read off the
        directory."""
        return sum(self.counts[kind] for kind in DATA_KINDS)

    @cached_property
    def flows(self) -> list[FlowKey]:
        """The flow dictionary, interned through
        :func:`~repro.simnet.packet.intern_flow_key` so decoded records
        hit the same identity fast paths as live objects."""
        try:
            return [intern_flow_key(serialize.decode_flow_key(flow))
                    for flow in self.directory["flows"]]
        except (IndexError, KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(
                f"{self.path}: corrupt flow dictionary: "
                f"{type(error).__name__}: {error}") from error

    @contextmanager
    def _data_errors(self) -> Iterator[None]:
        """What only the data can reveal — an id beyond its dictionary,
        an offset beyond its child column — leaves a read loop as
        :class:`TraceFormatError`: one ``try`` around the loop, none
        per record."""
        try:
            yield
        except IndexError as error:
            raise TraceFormatError(
                f"{self.path}: corrupt column data: {error}") from error

    # ------------------------------------------------------------------
    def col(self, name: str) -> memoryview:
        """Zero-copy typed view of one column."""
        view = self._views.get(name)
        if view is None:
            start, length, code = self._columns[name]
            view = self._buf[start:start + length].cast(code)
            self._views[name] = view
        return view

    def close(self) -> None:
        """Release all column views, then the mapping.

        The record decoders hold views in their closure cells, so
        they are replaced by stubs here; decoded records are plain
        owning objects and stay valid.  The stubs close over the path,
        not over ``self``: a closed trace is no reference cycle, and
        refcounting frees it (and its parsed directory) when dropped.
        """
        path = self.path

        def closed(_i: int):
            raise ValueError(f"{path}: trace is closed")

        self.step_record = closed
        self.switch_report = closed
        self._views.clear()
        try:
            self._raw_blob.release()
            self._buf.release()
            if self._mm is not None:
                self._mm.close()
        except BufferError:
            # a live traceback or abandoned generator frame still
            # pins a column view; the map unmaps when it is collected
            pass
        self._mm = None

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def header(self) -> TraceHeader:
        """The prologue, decoded once and cached."""
        if self._header is None:
            self._header = _decode_header(
                self.directory["header"], self.path)
        return self._header

    # ------------------------------------------------------------------
    def _bind_decoders(self) -> None:
        """Build the record decoders as closures over pre-cast column
        views, on their first use.

        Decoding is the replay hot path; a per-field ``self.col(...)``
        dict lookup (~40 per switch report) would dominate it, so the
        views are bound once into closure cells — free-variable loads
        are the cheapest name access CPython has.  The closures are
        installed as instance attributes ``step_record`` /
        ``switch_report``.
        """
        col = self.col
        strings = self.strings
        flows = self.flows
        s_end, s_start = col("s.end"), col("s.start")
        s_node, s_step = col("s.node"), col("s.step")
        s_flow, s_bytes = col("s.flow"), col("s.bytes")
        s_recv, s_bind = col("s.recv"), col("s.bind")

        def step_record(i: int) -> StepRecord:
            """Decode step record ``i`` (a fresh, owning object)."""
            recv = s_recv[i]
            bind = s_bind[i]
            return StepRecord(
                strings[s_node[i]], s_step[i], flows[s_flow[i]],
                s_bytes[i], s_start[i], s_end[i],
                None if recv < 0 else strings[recv],
                None if bind < 0 else strings[bind])

        r_time, r_switch = col("r.time"), col("r.switch")
        r_poll, r_size = col("r.poll"), col("r.size")
        ports_off = col("r.ports")
        mt_off, pr_off = col("r.mt"), col("r.pr")
        ps_off, ttl_off = col("r.ps"), col("r.ttl")
        p_port, p_qpk = col("p.port"), col("p.qpk")
        p_qby, p_paused = col("p.qby"), col("p.paused")
        p_fp, p_iq, p_ww = col("p.fp"), col("p.iq"), col("p.ww")
        fp_flow, fp_val = col("fp.flow"), col("fp.val")
        iq_flow, iq_val = col("iq.flow"), col("iq.val")
        ww_fi, ww_fj, ww_val = col("ww.fi"), col("ww.fj"), col("ww.val")
        mt_in, mt_out, mt_val = col("mt.in"), col("mt.out"), \
            col("mt.val")
        ttl_flow, ttl_val = col("ttl.flow"), col("ttl.val")
        pr_cols = tuple(col(f"pr.{f}") for f in
                        ("time", "sn", "sp", "vn", "vp", "buf", "gen"))
        ps_cols = tuple(col(f"ps.{f}") for f in
                        ("time", "sn", "sp", "vn", "vp", "buf", "gen"))

        def pauses(cols: tuple, lo: int, hi: int) -> list[PauseEvent]:
            t, sn, sp, vn, vp, buf, gen = cols
            return [PauseEvent(t[k],
                               PortRef(strings[sn[k]], sp[k]),
                               PortRef(strings[vn[k]], vp[k]),
                               buf[k], bool(gen[k]))
                    for k in range(lo, hi)]

        # decode allocates the records via ``__new__`` + a ``__dict__``
        # literal instead of the dataclass __init__: the per-field
        # store loop is the single biggest cost at millions of child
        # entries, and the dict literal is one bytecode.  Empty child
        # ranges (most pause/ttl lists, many counter maps) skip the
        # slice+zip machinery entirely.
        new = object.__new__
        port_cls, report_cls = PortTelemetryEntry, SwitchReport

        def switch_report(i: int) -> SwitchReport:
            """Decode switch report ``i`` (a fresh, owning object)."""
            p0, p1 = ports_off[i], ports_off[i + 1]
            ports = []
            f0, q0, w0 = p_fp[p0], p_iq[p0], p_ww[p0]
            for p in range(p0, p1):
                f1, q1, w1 = p_fp[p + 1], p_iq[p + 1], p_ww[p + 1]
                entry = new(port_cls)
                entry.__dict__ = {
                    "port": p_port[p],
                    "qdepth_pkts": p_qpk[p],
                    "qdepth_bytes": p_qby[p],
                    "paused": bool(p_paused[p]),
                    "flow_pkts":
                        {flows[f]: v
                         for f, v in zip(fp_flow[f0:f1],
                                         fp_val[f0:f1])}
                        if f1 > f0 else {},
                    "inqueue_flow_pkts":
                        {flows[f]: v
                         for f, v in zip(iq_flow[q0:q1],
                                         iq_val[q0:q1])}
                        if q1 > q0 else {},
                    "wait_weights":
                        {(flows[fi], flows[fj]): v
                         for fi, fj, v in zip(ww_fi[w0:w1],
                                              ww_fj[w0:w1],
                                              ww_val[w0:w1])}
                        if w1 > w0 else {},
                }
                ports.append(entry)
                f0, q0, w0 = f1, q1, w1
            m0, m1 = mt_off[i], mt_off[i + 1]
            t0, t1 = ttl_off[i], ttl_off[i + 1]
            r0, r1 = pr_off[i], pr_off[i + 1]
            s0, s1 = ps_off[i], ps_off[i + 1]
            poll = r_poll[i]
            report = new(report_cls)
            report.__dict__ = {
                "switch_id": strings[r_switch[i]],
                "time": r_time[i],
                "poll_id": None if poll < 0 else strings[poll],
                "ports": ports,
                "port_meters":
                    {(inp, out): v
                     for inp, out, v in zip(mt_in[m0:m1],
                                            mt_out[m0:m1],
                                            mt_val[m0:m1])}
                    if m1 > m0 else {},
                "pause_received":
                    pauses(pr_cols, r0, r1) if r1 > r0 else [],
                "pause_sent":
                    pauses(ps_cols, s0, s1) if s1 > s0 else [],
                "ttl_drops":
                    {flows[f]: v
                     for f, v in zip(ttl_flow[t0:t1],
                                     ttl_val[t0:t1])}
                    if t1 > t0 else {},
                "size_bytes": r_size[i],
            }
            return report

        self.step_record = step_record
        self.switch_report = switch_report

    # ------------------------------------------------------------------
    def iter_events(self) -> Iterator[TraceEvent]:
        """All data events in completion-time order (the stored merge
        permutation)."""
        mg_kind, mg_idx = self.col("mg.kind"), self.col("mg.idx")
        s_lines, w_lines = self.col("s.line"), self.col("r.line")
        s_times, w_times = self.col("s.end"), self.col("r.time")
        step, report = self.step_record, self.switch_report
        # TraceEvent is a frozen dataclass; its __init__ routes every
        # field through object.__setattr__, which at replay volume is
        # measurable — build the instances via __dict__ directly
        # (object.__setattr__ bypasses the frozen guard)
        new = object.__new__
        setattr_ = object.__setattr__
        event_cls = TraceEvent
        with self._data_errors():
            for j in range(len(mg_kind)):
                i = mg_idx[j]
                event = new(event_cls)
                if mg_kind[j] == 0:
                    setattr_(event, "__dict__", {
                        "kind": "step_record", "time": s_times[i],
                        "payload": step(i), "line_no": s_lines[i]})
                else:
                    setattr_(event, "__dict__", {
                        "kind": "switch_report", "time": w_times[i],
                        "payload": report(i), "line_no": w_lines[i]})
                yield event

    def decode_all(self) -> tuple[list[StepRecord], list[SwitchReport]]:
        """Every step record and every switch report, in record
        order."""
        with self._data_errors():
            return ([self.step_record(i)
                     for i in range(self.counts["step_record"])],
                    [self.switch_report(i)
                     for i in range(self.counts["switch_report"])])

    def flagged_lines(self, cls: int
                      ) -> Iterator[tuple[Optional[str], int, str]]:
        """``(kind, line_no, text)`` of every preserved raw line of
        class ``cls`` (``RAW_UNKNOWN`` or ``RAW_MALFORMED``), in file
        order.  Found from the ``raw.cls`` column: the prologue and
        blank lines that make up the rest of the raw blob are never
        materialised."""
        kind_col, line_col = self.col("raw.kind"), self.col("raw.line")
        off_col, len_col = self.col("raw.off"), self.col("raw.len")
        with self._data_errors():
            for i, found in enumerate(self.col("raw.cls")):
                if found != cls:
                    continue
                kind_id = kind_col[i]
                raw = bytes(
                    self._raw_blob[off_col[i]:off_col[i] + len_col[i]])
                yield (None if kind_id < 0 else self.strings[kind_id],
                       line_col[i],
                       raw.decode("utf-8", errors="replace").strip())

    def time_range(self, kind: str, start: float, end: float
                   ) -> list[int]:
        """Record indices of ``kind`` with event time in
        ``[start, end]``, without decoding any record.

        Binary-searches the time column when the writer marked it
        sorted (always true for recorder-written traces), otherwise
        scans it.
        """
        if kind not in ("step_record", "switch_report"):
            raise ValueError(f"unknown data kind: {kind!r}")
        times = self.col("s.end" if kind == "step_record" else "r.time")
        if self.time_sorted.get(kind):
            return list(range(bisect_left(times, start),
                              bisect_right(times, end)))
        return [i for i in range(len(times))
                if start <= times[i] <= end]


# ----------------------------------------------------------------------
# columnar -> JSONL reconstruction
# ----------------------------------------------------------------------
def _line_encoders(trace: ColumnarTrace):
    """``(step_line, report_line)``: record index -> its JSONL line,
    built from the columns as text.

    Every dictionary string and every flow key is rendered to its JSON
    fragment once per file; numbers print through ``int.__repr__`` /
    ``float.__repr__`` — what ``json.dumps`` itself uses — with the
    non-finite floats (``NaN`` / ``Infinity``) left to ``json.dumps``.
    The bytes are those of ``json.dumps({"kind": ..., **serialize.
    encode_*(record)})``, the form :class:`~repro.traces.store.
    TraceRecorder` writes.
    """
    dumps = json.dumps
    col = trace.col
    text = [dumps(value) for value in trace.strings]
    flow = [dumps(key) for key in trace.flows]
    s_end, s_start = col("s.end"), col("s.start")
    s_node, s_step = col("s.node"), col("s.step")
    s_flow, s_bytes = col("s.flow"), col("s.bytes")
    s_recv, s_bind = col("s.recv"), col("s.bind")

    def step_line(i: int) -> bytes:
        start, end = s_start[i], s_end[i]
        recv, bind = s_recv[i], s_bind[i]
        return (
            f'{{"kind": "step_record", "node": {text[s_node[i]]}, '
            f'"step": {s_step[i]}, "flow": {flow[s_flow[i]]}, '
            f'"bytes": {s_bytes[i]}, "start": '
            f'{repr(start) if isfinite(start) else dumps(start)}, '
            f'"end": {repr(end) if isfinite(end) else dumps(end)}, '
            f'"recv_source": {"null" if recv < 0 else text[recv]}, '
            f'"binding": {"null" if bind < 0 else text[bind]}}}\n'
        ).encode("utf-8")

    r_time, r_switch = col("r.time"), col("r.switch")
    r_poll, r_size = col("r.poll"), col("r.size")
    ports_off = col("r.ports")
    mt_off, pr_off = col("r.mt"), col("r.pr")
    ps_off, ttl_off = col("r.ps"), col("r.ttl")
    p_port, p_qpk = col("p.port"), col("p.qpk")
    p_qby, p_paused = col("p.qby"), col("p.paused")
    p_fp, p_iq, p_ww = col("p.fp"), col("p.iq"), col("p.ww")
    fp_flow, fp_val = col("fp.flow"), col("fp.val")
    iq_flow, iq_val = col("iq.flow"), col("iq.val")
    ww_fi, ww_fj, ww_val = col("ww.fi"), col("ww.fj"), col("ww.val")
    mt_in, mt_out, mt_val = col("mt.in"), col("mt.out"), col("mt.val")
    ttl_flow, ttl_val = col("ttl.flow"), col("ttl.val")
    pr_cols = tuple(col(f"pr.{f}") for f in
                    ("time", "sn", "sp", "vn", "vp", "buf", "gen"))
    ps_cols = tuple(col(f"ps.{f}") for f in
                    ("time", "sn", "sp", "vn", "vp", "buf", "gen"))

    def pauses(cols: tuple, lo: int, hi: int) -> str:
        t, sn, sp, vn, vp, buf, gen = cols
        return ", ".join([
            f'{{"time": '
            f'{repr(t[k]) if isfinite(t[k]) else dumps(t[k])}, '
            f'"sender": [{text[sn[k]]}, {sp[k]}], '
            f'"victim": [{text[vn[k]]}, {vp[k]}], '
            f'"buffer": {buf[k]}, '
            f'"genuine": {"true" if gen[k] else "false"}}}'
            for k in range(lo, hi)])

    def port_entry(p: int) -> str:
        f0, f1 = p_fp[p], p_fp[p + 1]
        q0, q1 = p_iq[p], p_iq[p + 1]
        w0, w1 = p_ww[p], p_ww[p + 1]
        flow_pkts = ", ".join([
            f"[{flow[f]}, {repr(v) if isfinite(v) else dumps(v)}]"
            for f, v in zip(fp_flow[f0:f1], fp_val[f0:f1])]) \
            if f1 > f0 else ""
        inqueue = ", ".join([
            f"[{flow[f]}, {v}]"
            for f, v in zip(iq_flow[q0:q1], iq_val[q0:q1])]) \
            if q1 > q0 else ""
        wait_weights = ", ".join([
            f"[{flow[fi]}, {flow[fj]}, "
            f"{repr(v) if isfinite(v) else dumps(v)}]"
            for fi, fj, v in zip(ww_fi[w0:w1], ww_fj[w0:w1],
                                 ww_val[w0:w1])]) \
            if w1 > w0 else ""
        return (
            f'{{"port": {p_port[p]}, "qdepth_pkts": {p_qpk[p]}, '
            f'"qdepth_bytes": {p_qby[p]}, '
            f'"paused": {"true" if p_paused[p] else "false"}, '
            f'"flow_pkts": [{flow_pkts}], "inqueue": [{inqueue}], '
            f'"wait_weights": [{wait_weights}]}}')

    def report_line(i: int) -> bytes:
        time, poll = r_time[i], r_poll[i]
        p0, p1 = ports_off[i], ports_off[i + 1]
        m0, m1 = mt_off[i], mt_off[i + 1]
        t0, t1 = ttl_off[i], ttl_off[i + 1]
        r0, r1 = pr_off[i], pr_off[i + 1]
        s0, s1 = ps_off[i], ps_off[i + 1]
        ports = ", ".join(map(port_entry, range(p0, p1)))
        meters = ", ".join([
            f"[{inp}, {out}, {repr(v) if isfinite(v) else dumps(v)}]"
            for inp, out, v in zip(mt_in[m0:m1], mt_out[m0:m1],
                                   mt_val[m0:m1])]) \
            if m1 > m0 else ""
        ttl_drops = ", ".join([
            f"[{flow[f]}, {v}]"
            for f, v in zip(ttl_flow[t0:t1], ttl_val[t0:t1])]) \
            if t1 > t0 else ""
        return (
            f'{{"kind": "switch_report", "switch": {text[r_switch[i]]}, '
            f'"time": {repr(time) if isfinite(time) else dumps(time)}, '
            f'"poll_id": {"null" if poll < 0 else text[poll]}, '
            f'"ports": [{ports}], "meters": [{meters}], '
            f'"pause_received": '
            f'[{pauses(pr_cols, r0, r1) if r1 > r0 else ""}], '
            f'"pause_sent": '
            f'[{pauses(ps_cols, s0, s1) if s1 > s0 else ""}], '
            f'"ttl_drops": [{ttl_drops}], '
            f'"size_bytes": {r_size[i]}}}\n'
        ).encode("utf-8")

    return step_line, report_line


def iter_jsonl_lines(trace: ColumnarTrace) -> Iterator[bytes]:
    """Yield the reconstructed JSONL file line by line.

    Raw-preserved lines are emitted byte-exact; data records are
    printed from the columns (:func:`_line_encoders`) in the
    recorder's ``json.dumps`` form.  For any recorder-written source
    the concatenation equals the original file's bytes.
    """
    col = trace.col
    # (line_no, tag, idx): every line of the source, in file order
    entries = sorted(chain(
        zip(col("raw.line"), repeat(0), count()),
        zip(col("s.line"), repeat(1), count()),
        zip(col("r.line"), repeat(2), count())))
    raw_off, raw_len = col("raw.off"), col("raw.len")
    blob = trace._raw_blob
    step_line, report_line = _line_encoders(trace)
    with trace._data_errors():
        for _line_no, tag, i in entries:
            if tag == 0:
                yield bytes(blob[raw_off[i]:raw_off[i] + raw_len[i]])
            elif tag == 1:
                yield step_line(i)
            else:
                yield report_line(i)


def write_jsonl(src: Union[str, Path], dst: Union[str, Path]) -> Path:
    """Convert a columnar trace back to JSONL (atomically)."""
    dst = Path(dst)
    with ColumnarTrace(src) as trace, atomic_write(dst) as handle:
        handle.writelines(iter_jsonl_lines(trace))
    return dst


def jsonl_digest(path: Union[str, Path]) -> str:
    """SHA-256 of the trace's canonical JSONL bytes.

    For a JSONL file this is simply the file digest (matching the
    ``trace_sha256`` golden pins); for a columnar file the JSONL form
    is reconstructed through the streaming hash.
    """
    hasher = hashlib.sha256()
    path = Path(path)
    if sniff_format(path) == "jsonl":
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                hasher.update(chunk)
    else:
        with ColumnarTrace(path) as trace:
            for line in iter_jsonl_lines(trace):
                hasher.update(line)
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# the one reader
# ----------------------------------------------------------------------
def open_trace(path: Union[str, Path],
               on_error: Optional[ErrorSink] = None) -> ColumnarTrace:
    """Open a trace in either on-disk format as a
    :class:`ColumnarTrace` (close it, or use it as a context manager).

    The file is sniffed once: a ``.vcol`` is mapped; a JSONL is parsed
    line by line into columns and read back from memory through the
    same binding path.  Without ``on_error`` a malformed line — found
    while building a JSONL, or preserved in a ``.vcol`` by a lenient
    conversion — raises :class:`TraceFormatError` with its line
    number; with it each is reported once, here, and skipped.
    """
    with Path(path).open("rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            handle.seek(0)
            sink = io.BytesIO()
            _emit(_build_from_jsonl(handle, on_error), sink)
            return ColumnarTrace(path, sink.getvalue())
        trace = ColumnarTrace(path, mmap.mmap(
            handle.fileno(), 0, access=mmap.ACCESS_READ))
    try:
        for _kind, line_no, text in trace.flagged_lines(RAW_MALFORMED):
            if on_error is None:
                raise TraceFormatError(
                    "columnar trace preserves a malformed source line",
                    line_no)
            on_error(line_no, "preserved malformed line", text)
    except BaseException:
        trace.close()
        raise
    return trace


def read_header(path: Union[str, Path]) -> TraceHeader:
    """The prologue of a trace in either on-disk format.

    A ``.vcol`` decodes it straight out of the directory; a JSONL is
    scanned up to its first data record and no further, so a header
    can be read while the recorder is still appending.  A malformed
    line before that record raises.
    """
    if sniff_format(path) == "columnar":
        with ColumnarTrace(path) as trace:
            return trace.header()
    with Path(path).open("rb") as handle:
        builder = _build_from_jsonl(handle, prologue_only=True)
    return _decode_header(builder.prologue(), path)


def trace_events(path: Union[str, Path],
                 on_error: Optional[ErrorSink] = None
                 ) -> Iterator[TraceEvent]:
    """The completion-time event stream of a trace in either format —
    the one replay entry point (``repro serve``, fleet tenants,
    benchmarks).  Malformed lines go to ``on_error`` once per stream,
    at open.  A resume replays the stream from its start
    (:func:`repro.live.checkpoint.resume_or_create`), so a stream
    reports each bad line exactly once, whatever its cut.
    """
    with open_trace(path, on_error) as trace:
        yield from trace.iter_events()


assert set(_CHILD_GROUPS) <= set(_COLUMN_TYPES), \
    "offset columns must be declared"
