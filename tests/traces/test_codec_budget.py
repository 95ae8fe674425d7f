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
"""

from __future__ import annotations

import sys

import pytest

from repro.perf.golden import golden_anomaly
from repro.traces import write_columnar, write_jsonl

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
def incast(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("codec-budget")
    golden_anomaly("incast", tmp)
    source = tmp / "incast.jsonl"
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
