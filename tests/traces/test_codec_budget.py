"""The trace codec's deterministic gate: Python frames per data record.

Wall time cannot gate on a shared box; a count of ``sys.setprofile``
"call" events can, as ``test_frames_per_event_within_budget`` does for
the simulator.  One ``write_columnar`` and one ``write_jsonl`` of the
golden ``incast_case0`` capture, divided by its data records:

* the object path (``serialize.decode_*`` -> append, and decode ->
  ``serialize.encode_*`` -> ``json.dumps``) read 132.9 frames per
  record to convert and 46.1 to reconstruct on CPython 3.11;
* the column-native codec reads 16.2 and 12.5 (3.12 inlines
  comprehensions and reads lower).

The budgets sit between the two, so routing either hot path back
through the dataclasses fails here by name.

The same file gates the reader: a JSONL line is parsed once.  The two
per-kind streams of the old ``merged_events`` each ran ``json.loads``
over every line (two per data line); ``open_trace`` builds the columns
in one pass, and the source gate below keeps it the only pass there is.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.traces import (read_header, trace_events, write_columnar,
                          write_jsonl)

CONVERT_BUDGET = 60.0      # 132.9 through the dataclasses
RECONSTRUCT_BUDGET = 38.0  # 46.1 through the dataclasses


def frames(call) -> int:
    calls = 0

    def count_calls(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count_calls)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def incast(tmp_path_factory, golden_capture):
    tmp = tmp_path_factory.mktemp("codec-budget")
    source = golden_capture[1] / "incast.jsonl"
    lines = source.read_text().splitlines()
    records = sum('"kind": "step_record"' in line
                  or '"kind": "switch_report"' in line for line in lines)
    assert (records, len(lines)) == (97, 211)
    # once unmeasured: first-call work (regex caches, lazy imports)
    write_jsonl(write_columnar(source, tmp / "warm.vcol"),
                tmp / "warm.jsonl")
    return source, records


def test_convert_frames_per_record_within_budget(incast, tmp_path):
    source, records = incast
    spent = frames(lambda: write_columnar(source, tmp_path / "a.vcol"))
    assert spent / records <= CONVERT_BUDGET, \
        f"{spent / records:.1f} Python frames per converted record"


def test_reconstruct_frames_per_record_within_budget(incast, tmp_path):
    source, records = incast
    vcol = write_columnar(source, tmp_path / "a.vcol")
    back = tmp_path / "a.back.jsonl"
    spent = frames(lambda: write_jsonl(vcol, back))
    assert back.read_bytes() == source.read_bytes()
    assert spent / records <= RECONSTRUCT_BUDGET, \
        f"{spent / records:.1f} Python frames per reconstructed record"


# ----------------------------------------------------------------------
# one parse per line, one line loop
# ----------------------------------------------------------------------
def json_loads_calls(call) -> int:
    calls = 0

    def count_loads(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code is json.loads.__code__:
            calls += 1

    sys.setprofile(count_loads)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def test_a_jsonl_line_is_parsed_once(incast):
    source, records = incast
    lines = len(source.read_text().splitlines())
    # every line once, and the directory of the in-memory columnar form
    assert json_loads_calls(
        lambda: list(trace_events(source))) <= lines + 1
    # the prologue, and the data line that ends the scan
    assert json_loads_calls(
        lambda: read_header(source)) <= lines - records + 1


PROLOGUE_KINDS = {"meta", "schedule", "flow_key", "expected"}
RETIRED_READERS = {"merged_events", "stream_events", "columnar_events",
                   "load_columnar_trace", "resume_map",
                   "scan_resume_offset"}


def test_src_holds_one_prologue_ladder_and_no_retired_reader():
    """The ``meta / schedule / flow_key / expected`` ladder — a function
    that compares against all four kinds — exists once, and none of the
    readers it replaced is defined again under any module."""
    src = Path(__file__).resolve().parents[2] / "src"
    ladders, retired = [], []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                names = [target.id for target in node.targets
                         if isinstance(target, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                   ast.AsyncFunctionDef)):
                names = [node.name]
            else:
                continue
            where = f"{path.relative_to(src)}:{node.lineno}"
            retired += [f"{where} {name}" for name in names
                        if name in RETIRED_READERS]
            if isinstance(node, ast.FunctionDef):
                compared = {
                    value.value for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    for value in compare.comparators
                    if isinstance(value, ast.Constant)}
                if PROLOGUE_KINDS <= compared:
                    ladders.append(
                        (str(path.relative_to(src)), node.name))
    assert retired == []
    assert ladders == [("repro/traces/columnar.py",
                        "_build_from_jsonl")]
