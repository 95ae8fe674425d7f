"""Regenerate the golden determinism fixture (tests/fixtures/golden_digests.json).

The fixture pins the engine's externally observable behaviour: the SHA-256
of the executed (time, seq, callback-label) event stream, of the JSONL
trace each golden scenario produces and of that trace's ``.vcol`` form.  The determinism test asserts the
current engine reproduces these byte-for-byte, which is what licenses the
fast-path optimisations (FIFO lane, freelist, heap compaction) to exist:
they must never reorder or drop an event.

Run from the repo root::

    PYTHONPATH=src python tools/capture_golden.py

The digest machinery lives in :mod:`repro.perf.golden` (shared with the
determinism test); this script only writes the fixture.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.perf.golden import capture_digests

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
    / "golden_digests.json"


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    with tempfile.TemporaryDirectory() as tmp:
        digests = capture_digests(Path(tmp))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name, entry in digests.items():
        print(f"{name}: {entry['events']} events, "
              f"stream {entry['stream_sha256'][:12]}..., "
              f"trace {entry['trace_sha256'][:12]}..., "
              f"vcol {entry['vcol_sha256'][:12]}...")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
