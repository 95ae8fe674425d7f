"""What a user reads off a run stays put when the simulator changes:
rows of the verdict table (``tools/verdict_table.py``) against
``tests/fixtures/verdict_table.json``.  CI checks all 64 rows; this
runs one row per system and per scenario."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = json.loads(
    (ROOT / "tests" / "fixtures" / "verdict_table.json").read_text())

#: every system and every scenario once, at the corpus seed
SUBSET = ("vedrfolnir/42/flow_contention", "hawkeye-maxr/42/incast",
          "hawkeye-minr/42/pfc_storm", "full-polling/42/pfc_backpressure")


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "verdict_table", ROOT / "tools" / "verdict_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def test_a_subset_of_the_table_matches_the_fixture():
    assert not set(SUBSET) & set(FIXTURE["verdict_equivalent"])
    rows = TOOL.build_table(list(SUBSET))
    assert TOOL.compare(rows, FIXTURE) == []


def test_the_fixture_covers_the_corpus_and_exempts_only_baseline_traces():
    assert sorted(FIXTURE["rows"]) == sorted(TOOL.all_keys())
    assert len(FIXTURE["rows"]) == 64
    for key, reason in FIXTURE["verdict_equivalent"].items():
        assert key in FIXTURE["rows"] and reason
        assert not key.startswith("vedrfolnir/"), key


def test_compare_names_every_moved_column():
    key = "hawkeye-minr/7/flow_contention"
    vedrfolnir = "vedrfolnir/7/flow_contention"
    row = dict(FIXTURE["rows"][key], trace_sha256="0" * 64)
    # an exempt baseline row may move its trace, nothing else
    assert TOOL.compare({key: row}, FIXTURE) == []
    assert TOOL.compare({key: dict(row, outcome="xx")}, FIXTURE) \
        == [f"{key}: outcome 'xx' != 'tp'"]
    # a Vedrfolnir trace may never move, exempt or not
    fixture = dict(FIXTURE, verdict_equivalent={vedrfolnir: "no"})
    moved = dict(FIXTURE["rows"][vedrfolnir], trace_sha256="0" * 64)
    assert [line.split(":")[0] for line in
            TOOL.compare({vedrfolnir: moved}, fixture)] == [vedrfolnir]
