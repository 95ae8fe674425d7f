"""Deterministic chaos harness for the crash-safe live service.

``repro chaos`` is the executable proof of the recovery contract:

    *resume from checkpoint + remaining stream produces a final
    DiagnosisSnapshot bit-equal to an uninterrupted run.*

A :class:`ChaosPlan` is a pure function of its seed: it perturbs the
replayed stream (duplicated deliveries, bounded reordering), kills the
replay at chosen event indices via :class:`SimulatedCrash`, optionally
corrupts or truncates the newest checkpoint before each resume, and
can probe mid-record trace truncation.  :func:`run_chaos` then runs
the same perturbed stream twice — once uninterrupted, once through
every kill/resume cycle — and compares the two final snapshots
byte-for-byte (canonical JSON).  Same seed, same verdict, every time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.live.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    ReplayCursor,
    TraceReplayer,
    resume_or_create,
)
from repro.live.pipeline import PipelineConfig
from repro.traces import (
    TraceEvent,
    TraceTruncated,
    open_trace,
    read_header,
    trace_events,
)


class SimulatedCrash(RuntimeError):
    """Injected process death at a planned kill point."""

    def __init__(self, published: int) -> None:
        super().__init__(f"simulated crash after event {published}")
        self.published = published


@dataclass(frozen=True)
class ChaosPlan:
    """One reproducible chaos experiment.

    All perturbations derive from ``seed`` alone; ``kill_points`` are
    1-based cumulative published-event counts at which the replay dies
    (each fires exactly once, in ascending order).
    """

    seed: int = 0
    kill_points: tuple[int, ...] = ()
    #: flip one byte of the newest checkpoint before each resume
    corrupt_latest: bool = False
    #: truncate (instead of bit-flip) the newest checkpoint
    truncate_checkpoint: bool = False
    #: deliver every k-th data event twice (0 disables)
    duplicate_every: int = 0
    #: shuffle events inside a sliding window this wide (<=1 disables)
    reorder_window: int = 0
    #: also probe mid-record trace truncation detection/resume
    probe_truncation: bool = False


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` experiment."""

    plan: ChaosPlan
    events_total: int = 0
    kills_survived: int = 0
    resumes: int = 0
    resumes_from_scratch: int = 0
    checkpoints_written: int = 0
    checkpoints_corrupted: int = 0
    corrupt_skipped: int = 0
    fallbacks: int = 0
    baseline_digest: str = ""
    recovered_digest: str = ""
    equal: bool = False
    truncation: Optional[dict] = None
    kill_log: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        ok = self.equal
        if self.truncation is not None:
            ok = ok and self.truncation.get("detected", False) \
                and self.truncation.get("resumed_ok", False)
        return ok

    def to_dict(self) -> dict:
        return {
            "seed": self.plan.seed,
            "kill_points": list(self.plan.kill_points),
            "corrupt_latest": self.plan.corrupt_latest,
            "truncate_checkpoint": self.plan.truncate_checkpoint,
            "duplicate_every": self.plan.duplicate_every,
            "reorder_window": self.plan.reorder_window,
            "events_total": self.events_total,
            "kills_survived": self.kills_survived,
            "resumes": self.resumes,
            "resumes_from_scratch": self.resumes_from_scratch,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_corrupted": self.checkpoints_corrupted,
            "corrupt_skipped": self.corrupt_skipped,
            "fallbacks": self.fallbacks,
            "baseline_digest": self.baseline_digest,
            "recovered_digest": self.recovered_digest,
            "equal": self.equal,
            "truncation": self.truncation,
            "kill_log": list(self.kill_log),
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extras = []
        if self.fallbacks:
            extras.append(f"fallbacks={self.fallbacks}")
        if self.resumes_from_scratch:
            extras.append(f"cold-starts={self.resumes_from_scratch}")
        tail = f" {' '.join(extras)}" if extras else ""
        return (f"[{verdict}] seed={self.plan.seed} "
                f"events={self.events_total} "
                f"kills={self.kills_survived}/"
                f"{len(self.plan.kill_points)} "
                f"checkpoints={self.checkpoints_written} "
                f"bit-equal={str(self.equal).lower()}{tail}")


# ----------------------------------------------------------------------
# deterministic stream perturbation
# ----------------------------------------------------------------------
def perturbed_events(path: Union[str, Path], plan: ChaosPlan,
                     on_error=None) -> Iterator[TraceEvent]:
    """The merged data stream with the plan's seeded perturbations.

    Duplication and reordering are a pure function of ``plan.seed``
    and the event sequence, so re-creating this generator replays the
    *identical* perturbed stream — that is what lets a resumed run
    skip ``cursor.published`` events and land exactly where the dead
    process stopped.
    """
    events: Iterable[TraceEvent] = trace_events(path, on_error)
    if plan.duplicate_every > 1:
        events = _duplicated(events, plan.duplicate_every)
    if plan.reorder_window > 1:
        events = _reordered(events, plan.reorder_window,
                            random.Random(plan.seed))
    return iter(events)


def _duplicated(events: Iterable[TraceEvent],
                every: int) -> Iterator[TraceEvent]:
    for count, event in enumerate(events, start=1):
        yield event
        if count % every == 0:
            yield event


def _reordered(events: Iterable[TraceEvent], window: int,
               rng: random.Random) -> Iterator[TraceEvent]:
    buffer: list[TraceEvent] = []
    for event in events:
        buffer.append(event)
        if len(buffer) >= window:
            yield buffer.pop(rng.randrange(len(buffer)))
    while buffer:
        yield buffer.pop(rng.randrange(len(buffer)))


# ----------------------------------------------------------------------
# checkpoint corruption
# ----------------------------------------------------------------------
def corrupt_newest_checkpoint(manager: CheckpointManager,
                              rng: random.Random,
                              truncate: bool = False) -> Optional[Path]:
    """Deterministically damage the newest snapshot file.

    Either chops the file mid-document (a crash during a non-atomic
    write, were there one) or flips one byte (bit rot).  Returns the
    damaged path, or None when no snapshot exists yet.
    """
    paths = manager.snapshot_paths()
    if not paths:
        return None
    path = paths[-1]
    data = bytearray(path.read_bytes())
    if not data:
        return path
    if truncate:
        path.write_bytes(bytes(data[:max(1, len(data) // 2)]))
    else:
        position = rng.randrange(len(data))
        data[position] ^= 0xFF
        path.write_bytes(bytes(data))
    return path


# ----------------------------------------------------------------------
# trace-truncation probe
# ----------------------------------------------------------------------
def probe_trace_truncation(trace_path: Union[str, Path],
                           workdir: Union[str, Path]) -> dict:
    """Cut the trace mid-way through its final record and verify the
    reader (a) detects the partial record, (b) reports the byte it
    starts at, and (c) resumes cleanly — from a count cursor taken at
    the cut — once the writer completes the file."""
    trace_path = Path(trace_path)
    data = trace_path.read_bytes()
    body = data.rstrip(b"\n")
    last_start = body.rfind(b"\n") + 1
    cut = last_start + max(1, (len(body) - last_start) // 2)
    copy = Path(workdir) / "truncated-trace.jsonl"
    copy.write_bytes(data[:cut])

    resume_offset = None
    try:
        open_trace(copy).close()
    except TraceTruncated as error:
        resume_offset = error.byte_offset
    # a lenient reader delivers the intact prefix
    cursor = ReplayCursor()
    for event in trace_events(copy, on_error=lambda *_: None):
        cursor.advance(event)
    partial = cursor.published
    # the writer finishes the file; resume from the cursor
    copy.write_bytes(data)
    resumed = sum(1 for _ in trace_events(copy, cursor=cursor))
    with open_trace(copy) as trace:
        total = trace.data_records
    return {
        "detected": resume_offset is not None,
        "cut_at": cut,
        "resume_offset": resume_offset,
        "offset_correct": resume_offset == last_start,
        "events_before_cut": partial,
        "events_after_resume": resumed,
        "resumed_ok": resume_offset == last_start
        and partial + resumed == total,
    }


# ----------------------------------------------------------------------
# the experiment
# ----------------------------------------------------------------------
def _digest(snapshot_json: str) -> str:
    return hashlib.sha256(snapshot_json.encode("utf-8")).hexdigest()


def _final_json(snapshot) -> str:
    return json.dumps(snapshot.to_dict(), sort_keys=True)


def default_config() -> PipelineConfig:
    """Chaos default: frequent rolling snapshots so kills land between
    emissions and checkpoints carry non-trivial snapshot state."""
    return PipelineConfig(snapshot_every=32)


def run_chaos(trace_path: Union[str, Path],
              workdir: Union[str, Path],
              plan: ChaosPlan,
              config: Optional[PipelineConfig] = None,
              policy: Optional[CheckpointPolicy] = None) -> ChaosReport:
    """Execute one seeded chaos experiment; see the module docstring.

    ``workdir`` receives the checkpoint directory (``checkpoints/``)
    and any probe fixtures; reusing a dirty workdir is an error the
    caller owns (the CLI always hands a fresh one).
    """
    trace_path = Path(trace_path)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = config or default_config()
    policy = policy or CheckpointPolicy(interval_events=64,
                                        max_unflushed_events=256)
    report = ChaosReport(plan=plan)
    header = read_header(trace_path)

    # --- baseline: the same perturbed stream, never interrupted ------
    from repro.live.pipeline import LivePipeline

    baseline = LivePipeline.from_header(header, config=config)
    baseline_final = TraceReplayer(
        baseline, perturbed_events(trace_path, plan)).run()
    baseline_json = _final_json(baseline_final)
    report.baseline_digest = _digest(baseline_json)
    report.events_total = baseline.counters()["published"]

    # --- interrupted: die at each kill point, resume, repeat ---------
    manager = CheckpointManager(workdir / "checkpoints", policy)
    damage_rng = random.Random(plan.seed ^ 0x5EED)
    pending_kills = sorted(k for k in set(plan.kill_points) if k > 0)
    recovered_json: Optional[str] = None

    for attempt in range(len(pending_kills) + 1):
        pipeline, cursor, resumed = resume_or_create(
            header, manager, config=config)
        if attempt > 0:
            report.resumes += 1
            if not resumed:
                report.resumes_from_scratch += 1
            report.kill_log[-1]["resumed_from"] = cursor.published
        # perturbed streams cannot seek (the reorder RNG is part of
        # the stream state): replay from scratch and skip what the
        # cursor already consumed — deterministic, so the remainder
        # is exactly the dead process's unread tail
        events = itertools.islice(perturbed_events(trace_path, plan),
                                  cursor.published, None)
        kill_at = pending_kills[0] if pending_kills else None

        def on_publish(published: int) -> None:
            if kill_at is not None and published >= kill_at:
                raise SimulatedCrash(published)

        replayer = TraceReplayer(pipeline, events, manager, cursor,
                                 on_publish=on_publish)
        try:
            final = replayer.run()
        except SimulatedCrash as crash:
            pending_kills.pop(0)
            report.kills_survived += 1
            entry = {"kill_at": crash.published,
                     "resumed_from": None,  # set by the next attempt
                     "damaged": None}
            if plan.corrupt_latest or plan.truncate_checkpoint:
                damaged = corrupt_newest_checkpoint(
                    manager, damage_rng,
                    truncate=plan.truncate_checkpoint)
                if damaged is not None:
                    report.checkpoints_corrupted += 1
                    entry["damaged"] = damaged.name
            report.kill_log.append(entry)
            continue
        recovered_json = _final_json(final)
        break

    report.checkpoints_written = manager.written
    report.corrupt_skipped = manager.corrupt_skipped
    report.fallbacks = manager.fallbacks
    if recovered_json is not None:
        report.recovered_digest = _digest(recovered_json)
        report.equal = recovered_json == baseline_json

    if plan.probe_truncation:
        report.truncation = probe_trace_truncation(trace_path, workdir)
    return report


def derive_kill_points(trace_path: Union[str, Path], plan_seed: int,
                       kills: int,
                       duplicate_every: int = 0) -> tuple[int, ...]:
    """Spread ``kills`` seeded kill points over the stream's length
    (used by ``repro chaos --kills N`` when no explicit points are
    given)."""
    with open_trace(trace_path) as trace:
        total = trace.data_records
    if duplicate_every > 1:
        total += total // duplicate_every
    if total <= 1 or kills <= 0:
        return ()
    rng = random.Random(plan_seed)
    population = range(1, total)
    count = min(kills, len(population))
    return tuple(sorted(rng.sample(population, count)))
