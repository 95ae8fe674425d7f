"""Crash-safe checkpoint/resume for the live diagnosis service.

A killed ``repro serve`` used to lose all incremental waiting-graph
state and re-read the stream from byte 0.  This module makes the
pipeline durable:

* :class:`CheckpointManager` writes **versioned, atomic snapshots** of
  the full :class:`~repro.live.pipeline.LivePipeline` state (graph
  aggregates, watermark heap, bus queue, quarantine/degradation
  counters) keyed to a durable trace-stream cursor — per-kind record
  counts, which mean the same against a JSONL and its ``.vcol``; the
  quarantine state travels in the snapshot, so a resumed
  :func:`repro.traces.trace_events` does not report a file's bad lines
  a second time.  Writes go through
  ``tmp + fsync + rename`` so a crash mid-write never corrupts the
  latest good snapshot; loads verify a SHA-256 checksum and fall back
  through older snapshots when the newest is truncated or bit-flipped.
* :class:`CheckpointPolicy` decides *when*: every ``interval_events``
  published events (rate-limited by ``min_interval_s`` of wall clock),
  forced at ``max_unflushed_events``, retaining the last ``retain``
  snapshots for fallback.
* :class:`TraceReplayer` is the serve loop shared by ``repro serve``
  and ``repro chaos``: it feeds merged trace events into a pipeline,
  maintains the :class:`ReplayCursor`, takes due checkpoints, and on
  finish (end of stream or graceful stop) flushes a final checkpoint
  before emitting the last snapshot.

Recovery contract (tested by ``repro chaos``): *resume from checkpoint
+ remaining stream produces a final DiagnosisSnapshot bit-equal to an
uninterrupted run* — the PR-1 incremental-vs-batch equivalence, now
extended across process death.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Optional, TypeVar,
                    Union)

from repro.core.units import Seconds
from repro.live.metrics import Histogram, MetricsRegistry
from repro.live.pipeline import DiagnosisSnapshot, LivePipeline
from repro.traces.stream import TraceEvent

#: on-disk snapshot schema version; bump on incompatible state changes
CHECKPOINT_VERSION = 1

#: canonical JSON encoding the checksum is computed over
_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


class CheckpointCorrupt(RuntimeError):
    """A snapshot file failed validation (truncated, bit-flipped, or
    written by an incompatible version)."""


@dataclass
class CheckpointPolicy:
    """When to checkpoint and how many snapshots to keep.

    ``interval_events`` is the normal cadence in published events;
    ``min_interval_s`` rate-limits it under event bursts (0 disables
    the wall-clock gate, keeping tests deterministic);
    ``max_unflushed_events`` overrides the rate limit — the upper
    bound on events a crash may force the service to re-read;
    ``retain`` keeps the last K snapshots so a corrupt latest can fall
    back to an older good one.
    """

    interval_events: int = 512
    min_interval_s: Seconds = 0.0
    max_unflushed_events: int = 4096
    retain: int = 3


@dataclass
class ReplayCursor:
    """Durable position in the trace stream.

    The one resume coordinate is **per-kind record counts**: ``counts``
    maps each record kind to how many records of that kind the
    deterministic merged stream has delivered.  Because the merge
    order is a pure function of the trace contents, a count cursor
    resumes against *either* on-disk format — a checkpoint taken while
    replaying JSONL resumes against the columnar conversion of the
    same capture, and vice versa (see
    :func:`repro.traces.trace_events`).

    ``published`` counts all events delivered (both kinds), the
    checkpoint filename key.
    """

    published: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def advance(self, event: TraceEvent) -> None:
        self.published += 1
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def resume_counts(self) -> dict[str, int]:
        """Per-kind records already consumed — the resume coordinate
        for :func:`repro.traces.trace_events`."""
        return {kind: int(count)
                for kind, count in self.counts.items()}

    def to_dict(self) -> dict:
        return {"published": self.published,
                "counts": {k: int(v)
                           for k, v in sorted(self.counts.items())}}

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayCursor":
        # documents written before counts were the only coordinate
        # also carry a ``positions`` key (JSONL byte offsets): ignored
        return cls(published=int(data.get("published", 0)),
                   counts={str(k): int(v) for k, v in
                           (data.get("counts") or {}).items()})


#: what restoring a state of the wrong shape raises — a missing key, a
#: list where a dict belongs, a string where a number does
_SHAPE_ERRORS = (LookupError, TypeError, ValueError, AttributeError,
                 ArithmeticError)

T = TypeVar("T")


def _as_is(state: dict) -> dict:
    return state


def _checksum(state: dict) -> str:
    payload = json.dumps(state, **_CANONICAL).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class CheckpointManager:
    """Atomic, versioned, checksummed snapshots with retention.

    Snapshots are ``ckpt-<published>.json`` files in ``directory``;
    the newest valid one wins.  All writes are crash-safe: the payload
    lands in a temporary file that is fsynced and then atomically
    renamed over the final name, and the directory entry is fsynced so
    the rename itself survives power loss.
    """

    PREFIX = "ckpt-"
    SUFFIX = ".json"

    def __init__(self, directory: Union[str, Path],
                 policy: Optional[CheckpointPolicy] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy or CheckpointPolicy()
        # observability (registered into the serve metrics export)
        self.written = 0
        self.loaded = 0
        self.corrupt_skipped = 0
        self.fallbacks = 0
        self.pruned = 0
        self.last_bytes = 0
        self.write_seconds = Histogram(
            "live_checkpoint_write_seconds",
            "wall time to serialize + fsync one checkpoint")

    # ------------------------------------------------------------------
    def path_for(self, published: int) -> Path:
        return self.directory / \
            f"{self.PREFIX}{published:010d}{self.SUFFIX}"

    def snapshot_paths(self) -> list[Path]:
        """All snapshot files, oldest first."""
        return sorted(p for p in self.directory.glob(
            f"{self.PREFIX}*{self.SUFFIX}"))

    # ------------------------------------------------------------------
    def save(self, state: dict) -> Path:
        """Atomically persist one pipeline state dict.

        Failpoint ``checkpoint.save`` (see
        :mod:`repro.core.failpoints`) can inject an ``OSError`` or a
        delay here — the error propagates exactly like a real disk
        fault, crashing the attempt so supervision restarts it."""
        from repro.core import failpoints

        failpoints.fire("checkpoint.save")
        cursor = ReplayCursor.from_dict(state.get("cursor") or {})
        path = self.path_for(cursor.published)
        start = time.perf_counter()
        # serialize the state exactly once: the canonical payload is
        # both the checksum input and the bytes embedded on disk
        payload = json.dumps(state, **_CANONICAL)
        checksum = hashlib.sha256(
            payload.encode("utf-8")).hexdigest()
        document = (f'{{"checksum":"{checksum}",'
                    f'"state":{payload},'
                    f'"version":{CHECKPOINT_VERSION}}}\n')
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_directory()
        self.write_seconds.observe(
            max(0.0, time.perf_counter() - start))
        self.written += 1
        self.last_bytes = path.stat().st_size
        self._prune_retention()
        return path

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover  # dir fsync is best-effort on platforms without it
            pass
        finally:
            os.close(fd)

    def _prune_retention(self) -> None:
        keep = max(1, self.policy.retain)
        paths = self.snapshot_paths()
        for stale in paths[:-keep]:
            stale.unlink(missing_ok=True)
            self.pruned += 1

    # ------------------------------------------------------------------
    def load(self, path: Path) -> dict:
        """Validate and return one snapshot's state dict."""
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            raise CheckpointCorrupt(
                f"{path.name}: unreadable ({error})") from error
        if not isinstance(document, dict):
            raise CheckpointCorrupt(f"{path.name}: not an object")
        if document.get("version") != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(
                f"{path.name}: version {document.get('version')!r} "
                f"!= {CHECKPOINT_VERSION}")
        state = document.get("state")
        if not isinstance(state, dict):
            raise CheckpointCorrupt(f"{path.name}: missing state")
        if _checksum(state) != document.get("checksum"):
            raise CheckpointCorrupt(f"{path.name}: checksum mismatch")
        return state

    def load_latest(self, restore: Callable[[dict], T] = _as_is
                    ) -> Optional[T]:
        """The newest valid snapshot, passed through ``restore``,
        falling back through older snapshots past corrupt/partial ones;
        None if no valid snapshot exists.

        A checksum-valid state that ``restore`` rejects (a missing
        key, a value of the wrong type) is corrupt as well: skipped
        and counted like a bit flip."""
        paths = self.snapshot_paths()
        for rank, path in enumerate(reversed(paths)):
            try:
                restored = restore(self.load(path))
            except (CheckpointCorrupt, *_SHAPE_ERRORS):
                self.corrupt_skipped += 1
                continue
            self.loaded += 1
            if rank > 0:
                self.fallbacks += 1
            return restored
        return None

    # ------------------------------------------------------------------
    def register_metrics(self, registry: MetricsRegistry) -> None:
        registry.counter(
            "live_checkpoints_written_total",
            "atomic snapshots persisted").inc(self.written)
        registry.counter(
            "live_checkpoints_loaded_total",
            "snapshots restored on resume").inc(self.loaded)
        registry.counter(
            "live_checkpoints_corrupt_total",
            "snapshots rejected by checksum/version validation"
        ).inc(self.corrupt_skipped)
        registry.counter(
            "live_checkpoint_fallbacks_total",
            "resumes that skipped past a corrupt newest snapshot"
        ).inc(self.fallbacks)
        registry.gauge(
            "live_checkpoint_bytes",
            "size of the newest snapshot").set(self.last_bytes)
        registry.attach(self.write_seconds)


class TraceReplayer:
    """Feed a (possibly resumed) event stream into a pipeline with
    periodic atomic checkpoints.

    ``events`` must already be positioned at ``cursor`` (use
    :func:`repro.traces.trace_events` with ``cursor=cursor``, which
    skips the records the cursor has counted; or skip
    ``cursor.published`` events of a transformed stream).  Optional
    hooks:

    * ``pacing(event)`` — called before each publish (replay-speed
      sleeps in ``repro serve``);
    * ``should_stop()`` — polled each event; True breaks the loop
      (graceful SIGTERM/SIGINT drain);
    * ``admit(published, event)`` — pre-publish gate: returning False
      advances the cursor but skips the pipeline (the fleet's
      per-tenant event budgets shed load here, deterministically —
      admission depends only on the cursor, so a resumed replay sheds
      the same events).
    """

    def __init__(self, pipeline: LivePipeline,
                 events: Iterable[TraceEvent],
                 manager: Optional[CheckpointManager] = None,
                 cursor: Optional[ReplayCursor] = None,
                 pump_at: Optional[int] = None,
                 pacing: Optional[Callable[[TraceEvent], None]] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 admit: Optional[Callable[[int, TraceEvent], bool]]
                 = None) -> None:
        self.pipeline = pipeline
        self.events = events
        self._iter: Optional[Iterator[TraceEvent]] = None
        self.manager = manager
        self.cursor = cursor or ReplayCursor()
        config = pipeline.config
        if pump_at is None:
            pump_at = config.pump_batch if config.queue_capacity <= 0 \
                else min(config.pump_batch, config.queue_capacity)
        self.pump_at = max(1, pump_at)
        self.pacing = pacing
        self.should_stop = should_stop
        self.admit = admit
        self.stopped = False
        self.exhausted = False
        #: events the ``admit`` gate refused (budget sheds)
        self.shed = 0
        #: wall-clock seconds spent inside :meth:`checkpoint` this run
        #: (state capture + atomic write); checkpointing is fully
        #: synchronous, so this is exactly the time it adds to replay
        self.checkpoint_seconds: float = 0.0
        self._since_checkpoint = 0
        self._last_checkpoint_wall: Optional[float] = None

    # ------------------------------------------------------------------
    def _checkpoint_due(self) -> bool:
        if self.manager is None or self._since_checkpoint == 0:
            return False
        policy = self.manager.policy
        if self._since_checkpoint >= max(1,
                                         policy.max_unflushed_events):
            return True
        if self._since_checkpoint < max(1, policy.interval_events):
            return False
        if policy.min_interval_s > 0 \
                and self._last_checkpoint_wall is not None:
            now = self.pipeline.clock()
            if now - self._last_checkpoint_wall \
                    < policy.min_interval_s:
                return False
        return True

    def checkpoint(self) -> Optional[Path]:
        """Persist the pipeline state at the current cursor now."""
        if self.manager is None:
            return None
        start = time.perf_counter()
        path = self.manager.save(
            self.pipeline.state_dict(self.cursor.to_dict()))
        self.checkpoint_seconds += time.perf_counter() - start
        self._since_checkpoint = 0
        self._last_checkpoint_wall = self.pipeline.clock()
        return path

    # ------------------------------------------------------------------
    def step(self, max_events: int = 0) -> int:
        """Replay up to ``max_events`` events (all remaining if 0).

        Returns the number of events consumed off the stream (admitted
        or shed).  Zero means the stream is exhausted (``exhausted``)
        or a graceful stop was requested (``stopped``); fleet shards
        schedule many replayers by calling this with a bound.
        """
        if self._iter is None:
            self._iter = iter(self.events)
        pipeline = self.pipeline
        consumed = 0
        while max_events <= 0 or consumed < max_events:
            if self.should_stop is not None and self.should_stop():
                self.stopped = True
                break
            event = next(self._iter, None)
            if event is None:
                self.exhausted = True
                break
            if self.pacing is not None:
                self.pacing(event)
            admitted = self.admit is None \
                or self.admit(self.cursor.published + 1, event)
            if admitted:
                pipeline.publish(event)
            else:
                self.shed += 1
            self.cursor.advance(event)
            self._since_checkpoint += 1
            consumed += 1
            if len(pipeline.bus) >= self.pump_at:
                pipeline.pump(pipeline.config.pump_batch)
            if self._checkpoint_due():
                self.checkpoint()
        return consumed

    @property
    def done(self) -> bool:
        return self.exhausted or self.stopped

    def run(self, finish: bool = True) -> Optional[DiagnosisSnapshot]:
        """Replay to stream end (or graceful stop), then flush a final
        checkpoint and emit the last snapshot."""
        while not self.done:
            self.step()
        if not finish:
            return None
        return self.finalize()

    def finalize(self) -> DiagnosisSnapshot:
        """Flush the final checkpoint and emit the last snapshot.

        The checkpoint goes first: finish() drains the watermark, and
        a restart must resume from the pre-drain state to preserve the
        recovery contract.
        """
        if self.manager is not None and self._since_checkpoint:
            self.checkpoint()
        return self.pipeline.finish()


def resume_or_create(header, manager: Optional[CheckpointManager],
                     config=None, clock=None, fresh: bool = False
                     ) -> tuple[LivePipeline, ReplayCursor, bool]:
    """Restore the newest checkpoint that validates and restores,
    else the next older one, else start from scratch.

    Returns ``(pipeline, cursor, resumed)``; ``fresh=True`` skips the
    checkpoint lookup (an explicit cold start).
    """
    kwargs = {} if clock is None else {"clock": clock}

    def restore(state: dict) -> tuple[LivePipeline, ReplayCursor]:
        pipeline, cursor = LivePipeline.restore(
            header, state, config=config, **kwargs)
        return pipeline, ReplayCursor.from_dict(cursor)

    if manager is not None and not fresh:
        restored = manager.load_latest(restore)
        if restored is not None:
            return (*restored, True)
    pipeline = LivePipeline.from_header(header, config=config,
                                        **kwargs)
    return pipeline, ReplayCursor(), False
