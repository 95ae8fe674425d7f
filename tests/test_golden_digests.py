"""Golden determinism digests: the fast path's licence to exist.

Each scenario's executed (time, seq, callback-label) stream, its
recorded JSONL trace and that trace's ``.vcol`` form must hash to
exactly the values captured from the seed engine and the seed codec
(tests/fixtures/golden_digests.json).  Any reordering,
timestamp drift, or dropped/duplicated event — however the engine is
optimised — fails here first.

CI also runs this file with ``REPRO_SANITIZE=1``, which routes
execution through the checked loop; the digests must be identical
either way.

Regenerate the fixture (only after an *intentional* behaviour change)
with ``PYTHONPATH=src python tools/capture_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.golden import GOLDEN_SCENARIOS

FIXTURE = Path(__file__).parent / "fixtures" / "golden_digests.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_all_scenarios(golden):
    assert set(golden) == set(GOLDEN_SCENARIOS)


@pytest.fixture(scope="module")
def captured(golden_capture) -> dict:
    return golden_capture[0]


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_digest_matches_fixture(name, golden, captured):
    recomputed = captured[name]
    expected = golden[name]
    assert recomputed["events"] == expected["events"], \
        "executed event count diverged from the seed engine"
    assert recomputed["final_time_ns"] == expected["final_time_ns"], \
        "final clock diverged (timestamp arithmetic changed?)"
    assert recomputed["stream_sha256"] == expected["stream_sha256"], \
        "event order/content diverged from the seed engine"
    assert recomputed["trace_sha256"] == expected["trace_sha256"], \
        "recorded trace diverged from the seed engine"
    assert recomputed["vcol_sha256"] == expected["vcol_sha256"], \
        "columnar form diverged: content_address is the experiment " \
        "runner's cache key"
