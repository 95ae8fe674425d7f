"""Crash-safe checkpoint/resume for the live diagnosis service.

A killed ``repro serve`` used to lose all incremental waiting-graph
state and re-read the stream from byte 0.  The analyzer is a pure
function of the events it is fed, and the trace it reads them from is
already a durable, append-only log of them, so a checkpoint needs no
copy of the diagnosis state: it is a **cursor plus five counters**.

* :class:`CheckpointManager` writes **versioned, atomic documents**
  holding :meth:`~repro.live.pipeline.LivePipeline.state_dict` — the
  count of events published, and the pipeline's ``seq``,
  ``ingested``, ``since_snapshot``, ``snapshot_seq`` and ``dupes``.
  Writes go through ``tmp + fsync + rename`` so a crash mid-write
  never corrupts the latest good document; loads verify a SHA-256
  checksum and fall back through older documents when the newest is
  truncated, bit-flipped or fails verification.
* :func:`resume_or_create` resumes by **replaying the prefix**: a
  fresh pipeline is fed the stream's first ``published`` events
  through the same :class:`TraceReplayer` loop a live run uses, with
  no pacing, no checkpoints and no snapshot computation
  (:meth:`TraceReplayer.fast_forward`); its counters must then equal
  the document's.  A cursor past the stream's end or any disagreement
  (a document written against another trace, say) makes the document
  corrupt, exactly like a bit flip.
* :class:`CheckpointPolicy` decides *when*: every ``interval_events``
  published events, retaining the last ``retain`` documents for
  fallback.

Recovery contract (tested by ``repro chaos``): *resume from checkpoint
+ remaining stream produces a final DiagnosisSnapshot bit-equal to an
uninterrupted run* — it holds by construction, because the resumed
pipeline has been fed exactly what the killed one was.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from repro.live.metrics import Histogram, MetricsRegistry
from repro.live.pipeline import DiagnosisSnapshot, LivePipeline
from repro.traces.stream import TraceEvent

#: on-disk document schema version; bump on incompatible state changes
CHECKPOINT_VERSION = 1

#: canonical JSON encoding the checksum is computed over
_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


class CheckpointCorrupt(RuntimeError):
    """A checkpoint document failed validation (truncated,
    bit-flipped, written by an incompatible version, or not reproduced
    by replaying its stream prefix)."""


@dataclass
class CheckpointPolicy:
    """When to checkpoint and how many documents to keep.

    ``interval_events`` is the cadence in published events — the most
    a crash makes the next run replay past its newest document;
    ``retain`` keeps the last K documents so a corrupt latest can fall
    back to an older good one.
    """

    interval_events: int = 512
    retain: int = 3


#: what reading a document of the wrong shape raises — a missing key,
#: a list where a dict belongs, a string where a number does
_SHAPE_ERRORS = (LookupError, TypeError, ValueError, AttributeError,
                 ArithmeticError)

T = TypeVar("T")

#: ``events(pipeline)``: the whole stream from its first event, a fresh
#: iterator per call, reporting malformed input to ``pipeline``
EventSource = Callable[[LivePipeline], Iterable[TraceEvent]]


def _as_is(state: dict) -> dict:
    return state


def _published(state: dict) -> int:
    """The document's cursor: how many stream events its run had
    delivered.  The cursor is a ``{"published": N}`` object; documents
    of older writers also carry per-kind ``counts`` and JSONL byte
    ``positions`` there, which are ignored."""
    return int(state["cursor"]["published"])


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
        path = self.path_for(_published(state))
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

    def discard_after(self, published: int) -> None:
        """Remove every snapshot numbered above ``published``, where a
        run has chosen to start.  Each is a leftover of an earlier run
        or one the resume rejected; retention keeps the highest
        numbers, so left in place they would prune this run's own
        saves as soon as they are written."""
        start = self.path_for(published).name
        for path in self.snapshot_paths():
            if path.name > start:
                path.unlink(missing_ok=True)

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

        A checksum-valid state that ``restore`` rejects by raising
        :class:`CheckpointCorrupt` is corrupt as well: skipped and
        counted like a bit flip.  Any other exception ``restore``
        raises is a fault of the code, not of the document, and
        propagates."""
        paths = self.snapshot_paths()
        for rank, path in enumerate(reversed(paths)):
            try:
                restored = restore(self.load(path))
            except CheckpointCorrupt:
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
    """Feed an event stream into a pipeline with periodic atomic
    checkpoints.

    ``events`` starts at the stream's first event; ``published``
    counts the events delivered so far (the checkpoint's cursor).  A
    resume positions the replayer by :meth:`fast_forward` before the
    hooks are attached (see :func:`resume_or_create`).  Optional hooks:

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
                 pump_at: Optional[int] = None,
                 pacing: Optional[Callable[[TraceEvent], None]] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 admit: Optional[Callable[[int, TraceEvent], bool]]
                 = None) -> None:
        self.pipeline = pipeline
        self.events = events
        self._iter: Optional[Iterator[TraceEvent]] = None
        self.manager = manager
        #: stream events delivered (admitted or shed).  The merged
        #: stream is a pure function of the trace contents, so the
        #: count means the same against a JSONL and its ``.vcol``
        self.published = 0
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

    # ------------------------------------------------------------------
    def _checkpoint_due(self) -> bool:
        return self.manager is not None and self._since_checkpoint \
            >= max(1, self.manager.policy.interval_events)

    def checkpoint(self) -> Optional[Path]:
        """Persist the pipeline state at the current cursor now."""
        if self.manager is None:
            return None
        start = time.perf_counter()
        path = self.manager.save(
            self.pipeline.state_dict(self.published))
        self.checkpoint_seconds += time.perf_counter() - start
        self._since_checkpoint = 0
        return path

    def fast_forward(self, state: dict) -> None:
        """Replay the events ``state`` (a checkpoint document) counts
        the way the run that wrote it did: through :meth:`step`, so the
        pump cadence, the ``admit`` gate and the bus's backpressure
        behave the same, with no snapshot computation.  Call it before
        attaching ``manager``, ``pacing`` and ``should_stop``.

        Raises :class:`CheckpointCorrupt` when the document has the
        wrong shape, the stream ends before its cursor, or the
        pipeline's counters then differ from the document's.  What the
        replay itself raises propagates: it is no fault of the
        document."""
        try:
            target = _published(state)
            expected = {key: state[key]
                        for key in self.pipeline.checkpoint_counters()}
        except _SHAPE_ERRORS as error:
            raise CheckpointCorrupt(
                f"malformed checkpoint ({error!r})") from error
        if target < 0:
            raise CheckpointCorrupt(f"negative cursor {target}")
        with self.pipeline.fast_forwarding():
            if target:
                self.step(target)
        if self.published != target:
            raise CheckpointCorrupt(
                f"the stream ends at event {self.published}, "
                f"before the checkpoint's cursor at {target}")
        if self.pipeline.checkpoint_counters() != expected:
            raise CheckpointCorrupt(
                f"replaying {target} events does not reproduce the "
                f"checkpoint's counters")
        self._since_checkpoint = 0

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
                or self.admit(self.published + 1, event)
            if admitted:
                pipeline.publish(event)
            else:
                self.shed += 1
            self.published += 1
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
                     events: EventSource, config=None, clock=None,
                     fresh: bool = False, pump_at=None, pacing=None,
                     should_stop=None, admit=None
                     ) -> tuple[TraceReplayer, bool]:
    """A replayer over ``events`` positioned where the newest
    checkpoint that verifies left off, else where the next older one
    did, else at the stream's start.

    Each document tried gets a fresh pipeline, fed the first
    ``published`` events of a fresh ``events(pipeline)`` stream by
    :meth:`TraceReplayer.fast_forward`; one that does not verify is
    skipped as corrupt.  Once the start is chosen, every document
    numbered above it is discarded
    (:meth:`CheckpointManager.discard_after`) and ``manager``,
    ``pacing`` and ``should_stop`` are attached; ``pump_at`` and
    ``admit`` shape the prefix as they shaped the run that wrote the
    document (all are :class:`TraceReplayer` options).

    Returns ``(replayer, resumed)``; ``fresh=True`` skips the
    checkpoint lookup (an explicit cold start).
    """
    kwargs = {} if clock is None else {"clock": clock}

    def start() -> TraceReplayer:
        pipeline = LivePipeline.from_header(header, config=config,
                                            **kwargs)
        return TraceReplayer(pipeline, events(pipeline),
                             pump_at=pump_at, admit=admit)

    def restore(state: dict) -> TraceReplayer:
        replayer = start()
        replayer.fast_forward(state)
        return replayer

    replayer = None
    if manager is not None and not fresh:
        replayer = manager.load_latest(restore)
    resumed = replayer is not None
    if replayer is None:
        replayer = start()
    if manager is not None:
        manager.discard_after(replayer.published)
    replayer.manager = manager
    replayer.pacing = pacing
    replayer.should_stop = should_stop
    return replayer, resumed
