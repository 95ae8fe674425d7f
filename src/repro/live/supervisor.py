"""Supervised execution for the long-running diagnosis service.

The paper's monitor only earns its "always-on, negligible overhead"
claim if the host-side service survives its own failures.  This module
is the process-supervision half of that story:

* :class:`Supervisor` runs a target callable and restarts it on
  exception with **exponential backoff** (seeded jitter, capped), so a
  transiently failing pipeline recovers without hammering the host;
* :class:`CrashLoopBreaker` is the circuit breaker: more than
  ``max_restarts`` crashes inside a sliding ``WINDOW_S`` trips it, and
  the supervisor re-raises :class:`CrashLoopError` instead of spinning
  forever on a deterministic bug;
* :class:`GracefulShutdown` owns SIGTERM/SIGINT: the first signal
  requests a drain (finish in-flight work, flush a final checkpoint,
  exit 0); a second signal force-exits nonzero immediately.

Everything wall-clock is injectable (``clock`` / ``sleep``), and the
jitter RNG is seeded, so the backoff schedule is exactly reproducible
in tests.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.core.retry import RetryPolicy
from repro.core.units import Seconds

log = logging.getLogger(__name__)

T = TypeVar("T")

#: conventional exit code for a forced (double-signal) shutdown
FORCE_EXIT_CODE = 130
#: sliding window the restart budget applies to
WINDOW_S: Seconds = 60.0
#: newest crash records kept for the post-mortem report; older ones
#: are evicted so a long-lived supervisor stays bounded (RPR025) while
#: ``Supervisor.crash_count`` keeps the true total
MAX_CRASH_RECORDS = 256
#: longest single sleep of :meth:`GracefulShutdown.wait_out_grace`
GRACE_SLICE_S: Seconds = 0.05


def _default_backoff() -> RetryPolicy:
    return RetryPolicy(base_delay_s=0.5, max_delay_s=30.0)


@dataclass(slots=True)
class RestartPolicy:
    """Crash-loop budget and backoff of a :class:`Supervisor`."""

    #: crashes allowed inside ``WINDOW_S`` before the breaker trips
    max_restarts: int = 5
    #: the delay before each restart, and the seed of its jitter; its
    #: ``max_attempts`` is unused — the breaker ends supervision
    backoff: RetryPolicy = field(default_factory=_default_backoff)


class CrashLoopError(RuntimeError):
    """The supervised target keeps dying faster than the budget."""

    def __init__(self, crashes: int,
                 window_s: Seconds) -> None:
        super().__init__(
            f"crash loop: {crashes} crashes within {window_s:g}s "
            f"budget; giving up instead of spinning")
        self.crashes = crashes


@dataclass
class CrashRecord:
    """One observed crash, for the supervisor's post-mortem report."""

    attempt: int
    error: str
    at: float
    backoff_s: Seconds


class CrashLoopBreaker:
    """Sliding-window crash counter."""

    def __init__(self, max_restarts: int, window_s: Seconds,
                 clock: Callable[[], float]) -> None:
        self.max_restarts = max_restarts
        self.window_s = window_s
        self.clock = clock
        self._crash_times: list[float] = []

    def record(self) -> bool:
        """Record one crash; True when the budget is exhausted."""
        now = self.clock()
        self._crash_times.append(now)
        horizon = now - self.window_s
        self._crash_times = [t for t in self._crash_times
                             if t >= horizon]
        return len(self._crash_times) > self.max_restarts

    @property
    def recent_crashes(self) -> int:
        return len(self._crash_times)


class Supervisor:
    """Restart-on-failure wrapper around the serve loop.

    ``target`` is called with the attempt number (0 = first run); it
    is expected to resume from the latest checkpoint itself (see
    :func:`repro.live.checkpoint.resume_or_create`).  A normal return
    ends supervision; an exception triggers backoff + restart until
    the crash-loop breaker trips.  ``should_stop`` (the graceful
    shutdown flag) is honored between attempts: a requested shutdown
    is never restarted.
    """

    def __init__(self, target: Callable[[int], T],
                 policy: Optional[RestartPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 should_stop: Optional[Callable[[], bool]] = None,
                 on_crash: Optional[Callable[[CrashRecord], None]]
                 = None) -> None:
        self.target = target
        self.policy = policy or RestartPolicy()
        self.clock = clock
        self.sleep = sleep
        self.should_stop = should_stop
        self.on_crash = on_crash
        self.crashes: list[CrashRecord] = []
        #: total crashes ever seen; survives crash-record eviction
        self.crash_count = 0
        self._rng = self.policy.backoff.rng()
        self.breaker = CrashLoopBreaker(
            self.policy.max_restarts, WINDOW_S, clock)

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Deterministic (seeded) capped exponential backoff with
        jitter for the given consecutive-crash count (0-based), drawn
        from the supervisor's own RNG stream."""
        return self.policy.backoff.delay_s(attempt, self._rng)

    def run(self) -> Optional[T]:
        attempt = 0
        while True:
            try:
                return self.target(attempt)
            except Exception as error:  # noqa: BLE001 - supervision
                tripped = self.breaker.record()
                delay = 0.0 if tripped else self.backoff_delay(
                    self.crash_count)
                record = CrashRecord(
                    attempt=attempt,
                    error=f"{type(error).__name__}: {error}",
                    at=self.clock(), backoff_s=delay)
                self.crash_count += 1
                self.crashes.append(record)
                if len(self.crashes) > MAX_CRASH_RECORDS:
                    del self.crashes[:-MAX_CRASH_RECORDS]
                if self.on_crash is not None:
                    self.on_crash(record)
                if tripped:
                    raise CrashLoopError(
                        self.breaker.recent_crashes, WINDOW_S) from error
                log.warning("supervised target crashed (%s); "
                            "restarting in %.2fs", record.error, delay)
                if delay > 0:
                    self.sleep(delay)
                if self.should_stop is not None and self.should_stop():
                    return None
                attempt += 1


@dataclass
class GracefulShutdown:
    """Two-stage SIGTERM/SIGINT handling for ``repro serve``.

    First signal: set ``requested`` so the serve loop drains, flushes
    a final checkpoint and exits 0.  Second signal (impatient
    operator): ``os._exit`` with a nonzero code immediately —
    the atomic checkpoint protocol makes that safe at any instant.

    ``drain_grace_s`` keeps the consumer alive that long after the
    first signal before the drain starts, letting in-flight producers
    settle (and giving tests a deterministic force-exit window).
    """

    drain_grace_s: Seconds = 0.0
    force_exit_code: int = FORCE_EXIT_CODE
    requested: bool = field(default=False, init=False)

    def install(self) -> "GracefulShutdown":
        signal.signal(signal.SIGTERM, self._handle)
        signal.signal(signal.SIGINT, self._handle)
        return self

    def _handle(self, signum, _frame) -> None:
        if self.requested:
            # second signal: force exit, skipping interpreter
            # shutdown — the last atomic checkpoint already persisted
            os._exit(self.force_exit_code)
        self.requested = True
        # operator-facing notice; logging's lock is reentrant-safe
        # here because the handler runs on the main thread only
        log.warning("signal %d: draining (signal again to force-exit "
                    "with code %d)", signum, self.force_exit_code)

    def wait_out_grace(self,
                       sleep: Callable[[float], None] = time.sleep
                       ) -> None:
        """Sleep through ``drain_grace_s`` in small slices (so a
        second signal can still interrupt)."""
        remaining = self.drain_grace_s
        while remaining > 1e-9:
            step = min(GRACE_SLICE_S, remaining)
            sleep(step)
            remaining -= step
