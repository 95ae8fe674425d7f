"""Retry policies and circuit breaking.

One place for the "try again, but not forever" discipline the live
and fleet layers kept reinventing:

* :class:`RetryPolicy` — seeded capped exponential backoff with
  jitter (``raw + raw * JITTER_FRAC * rng.random()``, capped); it is
  also the restart backoff of :class:`repro.live.supervisor.Supervisor`.
* :class:`CircuitBreaker` — closed / open / half-open.  Consecutive
  failures past a threshold open it; after ``reset_after_s`` one
  trial call is let through, and its outcome closes or re-opens.
* :func:`call_with_retry` — drives a callable under both.

Everything wall-clock is injectable (``clock`` / ``sleep``) and every
random draw comes from a caller-visible seeded RNG, so retry
schedules reproduce exactly in tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.core.units import Seconds

T = TypeVar("T")


#: multiplier between consecutive delays
FACTOR = 2.0
#: uniform jitter fraction added on top of the raw delay
JITTER_FRAC = 0.1


class RetryBudgetExceeded(OSError):
    """Retries exhausted (attempt cap or open breaker)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded capped exponential backoff with jitter."""

    #: attempts allowed in total (first try included); must be
    #: positive for :func:`call_with_retry`
    max_attempts: int = 5
    #: first backoff delay; grows by ``FACTOR`` per consecutive failure
    base_delay_s: Seconds = 0.05
    #: delays never exceed this, jitter included
    max_delay_s: Seconds = 1.0
    #: seed of the jitter RNG (deterministic retry schedule)
    seed: int = 0

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay_s(self, attempt: int,
                rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based count of
        consecutive failures).  With an explicit ``rng`` the caller
        owns the jitter stream (the supervisor keeps one across
        restarts)."""
        rng = rng if rng is not None else self.rng()
        raw = self.base_delay_s * FACTOR ** attempt
        jitter = raw * JITTER_FRAC * rng.random()
        return min(raw + jitter, self.max_delay_s)


class CircuitBreaker:
    """Closed / open / half-open breaker over consecutive failures.

    ``failure_threshold`` consecutive failures open it; while open,
    :meth:`allow` rejects until ``reset_after_s`` has elapsed, then
    admits exactly one trial (half-open).  A success closes the
    breaker, a failure re-opens it for another full cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5,
                 reset_after_s: Seconds = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.reset_after_s = reset_after_s
        self.clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """Whether a call may proceed right now (may transition an
        open breaker to half-open once the cooldown elapsed)."""
        if self.state == self.OPEN:
            if self.clock() - self._opened_at >= self.reset_after_s:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN \
                or self.consecutive_failures >= self.failure_threshold:
            self.state = self.OPEN
            self._opened_at = self.clock()

    def state_code(self) -> int:
        """Numeric state for metric export (0 closed, 1 half-open,
        2 open)."""
        return {self.CLOSED: 0, self.HALF_OPEN: 1, self.OPEN: 2}[
            self.state]


def call_with_retry(fn: Callable[[], T],
                    policy: Optional[RetryPolicy] = None,
                    breaker: Optional[CircuitBreaker] = None,
                    sleep: Callable[[float], None] = time.sleep,
                    rng: Optional[random.Random] = None,
                    on_retry: Optional[Callable[[int, BaseException,
                                                 float], None]] = None
                    ) -> T:
    """Call ``fn`` under a retry policy / breaker, retrying on
    ``OSError``.

    Raises :class:`RetryBudgetExceeded` when the breaker rejects the
    call outright; re-raises the last error once attempts run out, and
    ``ValueError`` for a policy without a positive ``max_attempts`` (the
    attempt cap is the only thing that ends the loop).
    ``on_retry(attempt, error, delay_s)`` observes every scheduled
    retry.
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else policy.rng()
    failures = 0
    if policy.max_attempts <= 0:
        raise ValueError(
            f"max_attempts must be positive, got {policy.max_attempts}")
    while True:
        if breaker is not None and not breaker.allow():
            raise RetryBudgetExceeded(
                "circuit breaker is open; call rejected")
        try:
            result = fn()
        except OSError as error:
            if breaker is not None:
                breaker.record_failure()
            failures += 1
            if failures >= policy.max_attempts:
                raise
            delay = policy.delay_s(failures - 1, rng)
            if on_retry is not None:
                on_retry(failures, error, delay)
            if delay > 0:
                sleep(delay)
        else:
            if breaker is not None:
                breaker.record_success()
            return result
