"""Retry policies, circuit breaking, call_with_retry."""

import random

import pytest

from repro.core.retry import (
    CircuitBreaker,
    RetryBudgetExceeded,
    RetryPolicy,
    call_with_retry,
)
from repro.live.supervisor import RestartPolicy, Supervisor


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def schedule(base: float, cap: float, seed: int, attempts: int):
    """The backoff formula, spelled out: doubling from ``base``, 10 %
    uniform jitter on top, capped at ``cap``."""
    shadow = random.Random(seed)
    delays = []
    for attempt in range(attempts):
        raw = base * 2.0 ** attempt
        delays.append(min(raw + raw * 0.1 * shadow.random(), cap))
    return delays


def test_delay_formula_is_capped_exponential_with_jitter():
    policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, seed=3)
    # with a caller-owned rng the stream is exactly reproducible
    rng = random.Random(3)
    delays = [policy.delay_s(a, rng) for a in range(8)]
    assert delays == schedule(0.1, 1.0, 3, 8)
    assert delays[-1] == 1.0  # cap reached, jitter included


def test_default_rng_restarts_the_jitter_stream():
    policy = RetryPolicy(seed=7)
    assert policy.delay_s(2) == policy.delay_s(2)


def test_supervisor_backoff_is_bit_identical_to_retry_policy():
    """The supervisor's restart schedule is its RetryPolicy's formula
    on one seeded stream across restarts, bit for bit."""
    restart = RestartPolicy(backoff=RetryPolicy(
        base_delay_s=0.25, max_delay_s=4.0, seed=21))
    supervisor = Supervisor(lambda attempt: None, policy=restart)
    assert [supervisor.backoff_delay(a) for a in range(6)] \
        == schedule(0.25, 4.0, 21, 6)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold_and_admits_one_trial():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_after_s=10.0,
                             clock=clock)
    assert breaker.state_code() == 0
    for _ in range(2):
        breaker.record_failure()
        assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.state_code() == 2
    assert not breaker.allow()
    clock.advance(9.0)
    assert not breaker.allow()  # cooldown not elapsed
    clock.advance(1.0)
    assert breaker.allow()  # the half-open trial
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.state_code() == 1
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.consecutive_failures == 0


def test_breaker_failed_trial_reopens_for_a_full_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_after_s=5.0,
                             clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()  # trial failed: straight back to open
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    clock.advance(4.9)
    assert not breaker.allow()


# ----------------------------------------------------------------------
# call_with_retry
# ----------------------------------------------------------------------
def flaky(failures: int, error=OSError):
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise error(f"boom {state['calls']}")
        return state["calls"]

    fn.state = state
    return fn


def test_retry_succeeds_and_sleeps_the_policy_schedule():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1,
                         max_delay_s=10.0, seed=0)
    slept = []
    observed = []
    result = call_with_retry(
        flaky(3), policy=policy, sleep=slept.append,
        on_retry=lambda attempt, error, delay:
        observed.append((attempt, str(error), delay)))
    assert result == 4
    expected = schedule(0.1, 10.0, 0, 3)
    assert slept == expected
    assert [(a, d) for a, _, d in observed] == list(
        zip((1, 2, 3), expected))
    assert observed[0][1] == "boom 1"


def test_retry_reraises_once_attempts_run_out():
    policy = RetryPolicy(max_attempts=3)
    slept = []
    fn = flaky(99)
    with pytest.raises(OSError, match="boom 3"):
        call_with_retry(fn, policy=policy, sleep=slept.append)
    assert fn.state["calls"] == 3
    assert len(slept) == 2  # no sleep after the final failure


def test_retry_only_catches_retry_on():
    policy = RetryPolicy(max_attempts=5)
    fn = flaky(2, error=KeyError)
    with pytest.raises(KeyError):
        call_with_retry(fn, policy=policy, sleep=lambda _s: None)
    assert fn.state["calls"] == 1  # not retried at all


@pytest.mark.parametrize("attempts", [0, -1])
def test_a_policy_without_positive_attempts_is_rejected(attempts):
    fn = flaky(0)
    with pytest.raises(ValueError, match="max_attempts must be positive"):
        call_with_retry(fn, policy=RetryPolicy(max_attempts=attempts))
    assert fn.state["calls"] == 0


def test_open_breaker_rejects_without_calling():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_after_s=60.0,
                             clock=clock)
    breaker.record_failure()
    fn = flaky(0)
    with pytest.raises(RetryBudgetExceeded):
        call_with_retry(fn, breaker=breaker, sleep=lambda _s: None)
    assert fn.state["calls"] == 0
    assert isinstance(RetryBudgetExceeded("x"), OSError)


def test_breaker_records_outcomes_through_call_with_retry():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=10, clock=clock)
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
    call_with_retry(flaky(2), policy=policy, breaker=breaker,
                    sleep=lambda _s: None)
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.consecutive_failures == 0  # success reset it
