#!/usr/bin/env python3
"""Crash-safe diagnosis: kill the live pipeline mid-stream, resume it
from an atomic checkpoint, and prove nothing was lost.

Three acts:

1. record a trace of a flow-contention scenario (the capture any
   `repro serve` deployment would tail);
2. replay it through the live pipeline with periodic checkpoints,
   "crash" halfway, then resume from the newest snapshot — the final
   diagnosis must be bit-equal to an uninterrupted run;
3. hand the same trace to the seeded chaos harness (`repro chaos` as a
   library): five kill points plus a corrupted newest checkpoint, and
   the recovery contract still holds.

Run:  python examples/chaos_recovery.py
"""

import itertools
import json
import tempfile
from pathlib import Path

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.experiments.harness import make_system
from repro.live import (
    ChaosPlan,
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
    derive_kill_points,
    resume_or_create,
    run_chaos,
)
from repro.traces import (TraceRecorder, open_trace, read_header,
                          trace_events)


def record_trace(path: Path) -> Path:
    config = ScenarioConfig(scale=0.002, base_seed=42)
    case = make_cases("flow_contention", 1, config)[0]
    system = make_system("vedrfolnir")
    network, runtime = case.build_network()
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    recorder.write(path)
    return path


def count_events(trace: Path) -> int:
    with open_trace(trace) as opened:
        return opened.data_records


def final_json(snapshot) -> str:
    return json.dumps(snapshot.to_dict(), sort_keys=True)


def manual_crash_and_resume(trace: Path, workdir: Path) -> None:
    header = read_header(trace)
    policy = CheckpointPolicy(interval_events=32)

    # the reference: one uninterrupted run
    pipeline, cursor, _ = resume_or_create(header, None)
    baseline = TraceReplayer(pipeline, trace_events(trace),
                             cursor=cursor).run()

    # the incident: replay halts halfway ("power cord", no final flush)
    total = count_events(trace)
    manager = CheckpointManager(workdir / "ckpt", policy)
    pipeline, cursor, _ = resume_or_create(header, manager)
    TraceReplayer(pipeline,
                  itertools.islice(trace_events(trace), total // 2),
                  manager, cursor).run(finish=False)
    print(f"  crashed at event {cursor.published}/{total}; snapshots:",
          [p.name for p in manager.snapshot_paths()])

    # the restart: newest valid snapshot + the rest of the stream
    pipeline, cursor, resumed = resume_or_create(header, manager)
    assert resumed
    print(f"  resumed from event {cursor.published} "
          f"(lost {total // 2 - cursor.published} unflushed events, "
          f"re-read from the cursor's per-kind record counts)")
    recovered = TraceReplayer(
        pipeline, trace_events(trace, cursor=cursor),
        manager, cursor).run()

    match = final_json(recovered) == final_json(baseline)
    print(f"  final diagnosis bit-equal to uninterrupted run: {match}")
    assert match


def seeded_chaos(trace: Path, workdir: Path) -> None:
    plan = ChaosPlan(
        seed=11,
        kill_points=derive_kill_points(trace, 11, 5),
        corrupt_latest=True)
    print(f"  kill points (seeded): {list(plan.kill_points)}")
    report = run_chaos(trace, workdir / "chaos", plan,
                       policy=CheckpointPolicy(interval_events=32))
    for entry in report.kill_log:
        print(f"  killed at event {entry['kill_at']}, "
              f"resumed from {entry['resumed_from']}")
    print(f"  {report.summary_line()}")
    assert report.passed


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        workdir = Path(tmp)
        trace = record_trace(workdir / "run.jsonl")
        print(f"recorded {trace.name}: {count_events(trace)} data "
              f"events\n")

        print("manual crash + resume:")
        manual_crash_and_resume(trace, workdir)

        print("\nseeded chaos harness (5 kills, corrupted newest "
              "checkpoint):")
        seeded_chaos(trace, workdir)


if __name__ == "__main__":
    main()
