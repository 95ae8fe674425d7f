"""Print (or check) the verdict table: one row per corpus case and system.

The corpus is the four anomaly scenarios the benchmark simulates
(case 0, 8-node ring, fat-tree k=4, scale 0.002) at case seeds 1, 7, 31
and 42, each under all four diagnosis systems: 64 rows.  A row holds
what a user reads off a run — the paper's outcome (tp / fp / fn), the
finding types, the PFC root ports, the top contributor — and the
SHA-256 of the recorded JSONL trace.

A simulator change that claims to leave the verdicts alone is checked
against ``tests/fixtures/verdict_table.json``, the table taken on the
commit before it:

* the verdict columns must match on every row;
* the trace column must match on every Vedrfolnir row, and on every
  baseline row the fixture does not list under ``verdict_equivalent``
  (with the reason that baseline trace may move).

The cases and the top-contributor rule are the benchmark's own
(``benchmarks/e2e``), so the table reads what ``sim_to_verdict`` reads.
Run from the repo root::

    PYTHONPATH=src:. python tools/verdict_table.py               # print
    PYTHONPATH=src:. python tools/verdict_table.py \\
        --check tests/fixtures/verdict_table.json              # exit 1 on a diff
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e.config import MOUSE_CASES
from benchmarks.e2e.corpus import make_case, verdict_signature
from repro.experiments.harness import (
    DEFAULT_SYSTEMS,
    PFC_TYPES,
    make_system,
    run_case,
)
from repro.traces import TraceRecorder

SEEDS = (1, 7, 31, 42)
SPECS = {spec.scenario: spec for spec in MOUSE_CASES}
#: the columns that must match on every row
VERDICT_COLUMNS = ("outcome", "findings", "pfc_roots", "top")


class Recording:
    """A diagnosis system that also records the trace and keeps the
    output ``run_case`` scores."""

    def __init__(self, system_name: str) -> None:
        self.system = make_system(system_name)
        self.name = self.system.name
        self.recorder = None
        self.output = None

    def attach(self, network, runtime) -> None:
        self.system.attach(network, runtime)
        self.recorder = TraceRecorder.attach(network, runtime)

    def finalize(self):
        self.output = self.system.finalize()
        return self.output


def row_key(system: str, seed: int, scenario: str) -> str:
    return f"{system}/{seed}/{scenario}"


def all_keys() -> list[str]:
    return [row_key(system, seed, scenario) for seed in SEEDS
            for scenario in SPECS for system in DEFAULT_SYSTEMS]


def run_row(key: str, workdir: Path) -> dict:
    """Simulate one (system, seed, scenario) case and read its verdict."""
    system_name, seed, scenario = key.split("/")
    recording = Recording(system_name)
    case = run_case(make_case(SPECS[scenario], int(seed)), system_name,
                    recording)
    result = recording.output.result
    path = workdir / "trace.jsonl"
    recording.recorder.write(path)
    diagnosis = case.extras.get("diagnosis")
    return {
        "outcome": case.outcome,
        "findings": sorted({f.type.value for f in result.findings}),
        "pfc_roots": sorted({str(port) for f in result.findings
                             if f.type in PFC_TYPES for port in f.root_ports}),
        "top": None if diagnosis is None else verdict_signature(diagnosis)[3],
        "trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def build_table(keys: list[str]) -> dict:
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in keys:
            rows[key] = run_row(key, Path(tmp))
    return rows


def compare(rows: dict, fixture: dict) -> list[str]:
    """Every way ``rows`` leaves the fixture, one line each."""
    pinned = fixture["rows"]
    exempt = fixture.get("verdict_equivalent", {})
    problems = []
    for key, row in rows.items():
        want = pinned.get(key)
        if want is None:
            problems.append(f"{key}: not in the fixture")
            continue
        for column in VERDICT_COLUMNS:
            if row[column] != want[column]:
                problems.append(f"{key}: {column} {row[column]!r} "
                                f"!= {want[column]!r}")
        if row["trace_sha256"] != want["trace_sha256"] \
                and (key.startswith("vedrfolnir/") or key not in exempt):
            problems.append(f"{key}: trace {row['trace_sha256'][:12]} "
                            f"!= {want['trace_sha256'][:12]}")
    return problems


def render(rows: dict) -> str:
    lines = []
    for key, row in rows.items():
        lines.append(
            f"{key:<36} {row['outcome']:<3} "
            f"{','.join(row['findings']) or '-':<40} "
            f"{','.join(row['pfc_roots']) or '-':<12} "
            f"{row['top'] or '-':<28} {row['trace_sha256'][:16]}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path,
                        help="compare with this fixture; exit 1 on a diff")
    args = parser.parse_args(argv)
    rows = build_table(all_keys())
    print(render(rows))
    if args.check is None:
        return 0
    problems = compare(rows, json.loads(args.check.read_text()))
    for line in problems:
        print(f"MOVED {line}")
    print(f"{len(rows) - len({p.split(':')[0] for p in problems})}"
          f" of {len(rows)} rows match {args.check}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
