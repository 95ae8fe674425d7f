"""Rolling-snapshot digests: what a live replay emits, byte for byte.

Each golden trace (``repro.perf.golden``) is replayed through a fresh
``LivePipeline`` at two snapshot cadences, and one SHA-256 is taken over
every snapshot it emits, in order — each snapshot's ``canonical_json``
with every contributor listed (``test_kernel_property.everything``), so
dict insertion order, float summation order and the pipeline counters
are all pinned.  A speed-up of the live path or of the §III-D kernel
must leave every digest as it is (tests/fixtures/rolling_digests.json);
CI runs this file under two hash seeds.

Regenerate the fixture (only after an *intentional* output change)
with ``PYTHONPATH=src python -c "from tests.test_rolling_digests import
main; main()"``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.live import LivePipeline, PipelineConfig
from repro.perf.golden import (GOLDEN_SCENARIOS, golden_anomaly,
                               golden_ring_allgather)
from repro.traces import read_header, trace_events
from tests.core.test_kernel_property import everything

FIXTURE = Path(__file__).parent / "fixtures" / "rolling_digests.json"
#: the ``live_stream`` benchmark's cadence, and a dense one
CADENCES = (32, 5)


def record_golden(directory: Path) -> dict[str, Path]:
    """Every golden trace, recorded into ``directory``."""
    traces = {}
    for name in GOLDEN_SCENARIOS:
        if name == "ring_allgather_k4":
            golden_ring_allgather(directory)
            traces[name] = directory / "ring_allgather_k4.jsonl"
        else:
            scenario = name[:-len("_case0")]
            golden_anomaly(scenario, directory)
            traces[name] = directory / f"{scenario}.jsonl"
    return traces


def rolling_digest(path: Path, every: int) -> dict:
    """The snapshot count and one SHA-256 over every snapshot a replay
    of ``path`` at ``snapshot_every=every`` emits."""
    pipeline = LivePipeline.from_header(
        read_header(path), PipelineConfig(snapshot_every=every))
    digest = hashlib.sha256()
    pipeline.on_snapshot.append(
        lambda snapshot: digest.update(everything(snapshot).encode()))
    for event in trace_events(path):
        pipeline.publish(event)
    pipeline.finish()
    return {"snapshots": len(pipeline.snapshots),
            "sha256": digest.hexdigest()}


def capture(traces: dict[str, Path]) -> dict:
    return {f"{name}@{every}": rolling_digest(path, every)
            for name, path in traces.items() for every in CADENCES}


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        captured = capture(record_golden(Path(directory)))
    FIXTURE.write_text(json.dumps(captured, indent=2, sort_keys=True)
                       + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, Path]:
    return record_golden(tmp_path_factory.mktemp("rolling"))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_trace_and_cadence(pinned):
    assert set(pinned) == {f"{name}@{every}" for name in GOLDEN_SCENARIOS
                           for every in CADENCES}


@pytest.mark.parametrize("every", CADENCES)
@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_rolling_snapshots_match_fixture(name, every, traces, pinned):
    assert rolling_digest(traces[name], every) == pinned[f"{name}@{every}"]
