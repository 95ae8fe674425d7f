"""Supervised execution for the long-running diagnosis service.

The paper's monitor only earns its "always-on, negligible overhead"
claim if the host-side service survives its own failures.  This module
is the process-supervision half of that story:

* :class:`Supervisor` runs a target callable and restarts it on
  exception with **exponential backoff** (seeded jitter, capped), so a
  transiently failing pipeline recovers without hammering the host;
* :class:`CrashLoopBreaker` is the circuit breaker: more than
  ``max_restarts`` crashes inside a sliding ``window_s`` trips it, and
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
import random
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


@dataclass
class RestartPolicy:
    """Backoff and crash-loop budget of a :class:`Supervisor`."""

    #: crashes allowed inside ``window_s`` before the breaker trips
    max_restarts: int = 5
    #: sliding window the restart budget applies to
    window_s: Seconds = 60.0
    #: first backoff delay; doubles per consecutive crash
    backoff_base_s: Seconds = 0.5
    #: multiplier between consecutive delays
    backoff_factor: float = 2.0
    #: backoff never exceeds this, jitter included
    backoff_cap_s: Seconds = 30.0
    #: uniform jitter fraction added on top of the raw delay
    jitter_frac: float = 0.1
    #: seed of the jitter RNG (deterministic restart schedule)
    seed: int = 0
    #: newest crash records kept for the post-mortem report; older
    #: ones are evicted so a long-lived supervisor stays bounded
    #: (RPR025) while ``Supervisor.crash_count`` keeps the true total
    max_crash_records: int = 256

    def retry_policy(self) -> RetryPolicy:
        """This restart policy's backoff, as the shared
        :class:`~repro.core.retry.RetryPolicy` (same formula, same
        seed semantics — the supervisor delegates its delays here)."""
        return RetryPolicy(
            max_attempts=self.max_restarts,
            base_delay_s=self.backoff_base_s,
            factor=self.backoff_factor,
            max_delay_s=self.backoff_cap_s,
            jitter_frac=self.jitter_frac,
            seed=self.seed)


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
        self._rng = random.Random(self.policy.seed)
        self.breaker = CrashLoopBreaker(
            self.policy.max_restarts, self.policy.window_s, clock)

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Deterministic (seeded) capped exponential backoff with
        jitter for the given consecutive-crash count (0-based).

        Delegates to :meth:`RestartPolicy.retry_policy`, passing the
        supervisor's own RNG — the seeded restart schedule is
        bit-identical to what this method always produced."""
        return self.policy.retry_policy().delay_s(attempt, self._rng)

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
                if len(self.crashes) > self.policy.max_crash_records:
                    del self.crashes[
                        :-self.policy.max_crash_records]
                if self.on_crash is not None:
                    self.on_crash(record)
                if tripped:
                    raise CrashLoopError(
                        self.breaker.recent_crashes,
                        self.policy.window_s) from error
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
    signals_seen: int = field(default=0, init=False)

    def install(self) -> "GracefulShutdown":
        signal.signal(signal.SIGTERM, self._handle)
        signal.signal(signal.SIGINT, self._handle)
        return self

    def _handle(self, signum, _frame) -> None:
        self.signals_seen += 1
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
                       sleep: Callable[[float], None] = time.sleep,
                       slice_s: Seconds = 0.05) -> None:
        """Sleep through ``drain_grace_s`` in small slices (so a
        second signal can still interrupt)."""
        remaining = self.drain_grace_s
        while remaining > 1e-9:
            step = min(slice_s, remaining)
            sleep(step)
            remaining -= step
