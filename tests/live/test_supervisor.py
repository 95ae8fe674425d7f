"""Supervisor: deterministic backoff, crash-loop breaker, graceful
shutdown bookkeeping — all under injected clocks and seeded RNG."""

import random
import signal

import pytest

from repro.core.retry import RetryPolicy
from repro.live.supervisor import (
    GRACE_SLICE_S,
    MAX_CRASH_RECORDS,
    CrashLoopError,
    GracefulShutdown,
    RestartPolicy,
    Supervisor,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_success_passes_through():
    supervisor = Supervisor(lambda attempt: ("ok", attempt))
    assert supervisor.run() == ("ok", 0)
    assert supervisor.crashes == []


def test_restarts_until_success():
    clock = FakeClock()

    def flaky(attempt: int):
        if attempt < 3:
            raise RuntimeError(f"boom {attempt}")
        return attempt

    supervisor = Supervisor(flaky, RestartPolicy(max_restarts=5),
                            clock=clock, sleep=clock.sleep)
    assert supervisor.run() == 3
    assert len(supervisor.crashes) == 3
    assert [c.attempt for c in supervisor.crashes] == [0, 1, 2]
    assert "boom 0" in supervisor.crashes[0].error


def test_backoff_is_deterministic_and_exponential():
    policy = RestartPolicy(backoff=RetryPolicy(
        base_delay_s=0.5, max_delay_s=30.0, seed=1234))
    supervisor = Supervisor(lambda a: None, policy)
    delays = [supervisor.backoff_delay(i) for i in range(6)]

    rng = random.Random(1234)
    expected = []
    for i in range(6):
        raw = 0.5 * 2.0 ** i
        expected.append(min(raw + raw * 0.1 * rng.random(), 30.0))
    assert delays == expected
    # exponential up to the cap, then capped
    assert delays[:5] == sorted(delays[:5])
    for raw, delay in zip((0.5, 1.0, 2.0, 4.0, 8.0, 16.0), delays):
        assert raw <= delay <= min(raw * 1.1, 30.0)


def test_backoff_cap_applies():
    supervisor = Supervisor(
        lambda a: None,
        RestartPolicy(backoff=RetryPolicy(base_delay_s=1.0,
                                          max_delay_s=4.0)))
    assert supervisor.backoff_delay(10) == 4.0


def test_crash_loop_breaker_trips():
    clock = FakeClock()

    def always_dies(attempt: int):
        raise ValueError("persistent bug")

    supervisor = Supervisor(always_dies,
                            RestartPolicy(max_restarts=3),
                            clock=clock, sleep=clock.sleep)
    with pytest.raises(CrashLoopError) as info:
        supervisor.run()
    # max_restarts crashes restarted, the next one trips the breaker
    assert len(supervisor.crashes) == 4
    assert info.value.crashes == 4
    assert isinstance(info.value.__cause__, ValueError)


def test_breaker_window_slides():
    clock = FakeClock()
    calls = [0]

    def dies_slowly(attempt: int):
        calls[0] += 1
        if calls[0] > 6:
            return "recovered"
        # outside the window, old crashes stop counting
        clock.now += 100.0
        raise RuntimeError("slow burn")

    supervisor = Supervisor(dies_slowly,
                            RestartPolicy(max_restarts=2),
                            clock=clock, sleep=clock.sleep)
    assert supervisor.run() == "recovered"
    assert len(supervisor.crashes) == 6


def test_should_stop_prevents_restart():
    stop = [False]

    def dies_then_stop(attempt: int):
        stop[0] = True
        raise RuntimeError("dying during shutdown")

    supervisor = Supervisor(dies_then_stop,
                            RestartPolicy(max_restarts=5),
                            sleep=lambda s: None,
                            should_stop=lambda: stop[0])
    assert supervisor.run() is None
    assert len(supervisor.crashes) == 1


def test_on_crash_callback_sees_records():
    seen = []
    clock = FakeClock()

    def flaky(attempt: int):
        if attempt == 0:
            raise RuntimeError("once")
        return "done"

    Supervisor(flaky, clock=clock, sleep=clock.sleep,
               on_crash=seen.append).run()
    assert len(seen) == 1
    assert seen[0].backoff_s > 0


# ----------------------------------------------------------------------
# GracefulShutdown
# ----------------------------------------------------------------------
def test_graceful_shutdown_first_signal_requests_drain():
    shutdown = GracefulShutdown()
    previous_term = signal.getsignal(signal.SIGTERM)
    previous_int = signal.getsignal(signal.SIGINT)
    try:
        shutdown.install()
        assert not shutdown.requested
        shutdown._handle(signal.SIGTERM, None)
        assert shutdown.requested
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)


def test_graceful_shutdown_second_signal_forces_exit(monkeypatch):
    exited = []
    monkeypatch.setattr("os._exit", exited.append)
    shutdown = GracefulShutdown(force_exit_code=99)
    shutdown._handle(signal.SIGINT, None)
    assert not exited
    shutdown._handle(signal.SIGINT, None)
    assert exited == [99]


def test_wait_out_grace_slices_sleep():
    slept = []
    shutdown = GracefulShutdown(drain_grace_s=4 * GRACE_SLICE_S)
    shutdown.wait_out_grace(sleep=slept.append)
    assert len(slept) == 4
    assert sum(slept) == pytest.approx(4 * GRACE_SLICE_S)


# ----------------------------------------------------------------------
# concurrent supervision (the fleet runs one supervisor per shard
# on its own thread; restart state must never bleed across workers)
# ----------------------------------------------------------------------
def test_concurrent_supervisors_restart_independently():
    import threading

    workers = 8
    crashes_per_worker = 3
    max_restarts = crashes_per_worker + 1
    barrier = threading.Barrier(workers)
    results: dict[int, int] = {}
    supervisors: dict[int, Supervisor] = {}

    def supervise(worker: int) -> None:
        def flaky(attempt: int) -> int:
            if attempt == 0:
                barrier.wait(timeout=10)  # all first attempts collide
            if attempt < crashes_per_worker:
                raise RuntimeError(f"worker {worker} boom {attempt}")
            return worker

        supervisor = Supervisor(flaky, RestartPolicy(
            max_restarts, RetryPolicy(base_delay_s=0.0005,
                                      max_delay_s=0.005, seed=worker)))
        supervisors[worker] = supervisor
        results[worker] = supervisor.run()

    threads = [threading.Thread(target=supervise, args=(worker,))
               for worker in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(t.is_alive() for t in threads)

    assert results == {worker: worker for worker in range(workers)}
    for worker, supervisor in supervisors.items():
        records = supervisor.crashes
        assert len(records) == crashes_per_worker
        # every crash a supervisor saw is its own worker's
        assert all(f"worker {worker} " in r.error for r in records)
        assert [r.attempt for r in records] \
            == list(range(crashes_per_worker))


def test_concurrent_breakers_trip_only_the_crash_looper():
    import threading

    policy = RestartPolicy(max_restarts=2, backoff=RetryPolicy(
        base_delay_s=0.0005, max_delay_s=0.002))
    outcomes: dict[str, object] = {}

    def run_worker(name: str, always_dies: bool) -> None:
        def target(attempt: int) -> str:
            if always_dies or attempt < 1:
                raise RuntimeError(f"{name} dies")
            return name

        supervisor = Supervisor(target, policy)
        try:
            outcomes[name] = supervisor.run()
        except CrashLoopError as error:
            outcomes[name] = error

    threads = [
        threading.Thread(target=run_worker, args=("looper", True)),
        threading.Thread(target=run_worker, args=("healthy", False)),
        threading.Thread(target=run_worker, args=("healthy2", False)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    assert isinstance(outcomes["looper"], CrashLoopError)
    assert outcomes["looper"].crashes == 3
    # neighbors on other threads are untouched by the tripped breaker
    assert outcomes["healthy"] == "healthy"
    assert outcomes["healthy2"] == "healthy2"


def test_crash_records_bounded_but_count_monotonic():
    # RPR025 regression: a long-lived supervisor keeps only the
    # newest MAX_CRASH_RECORDS post-mortem entries, while crash_count
    # and the backoff schedule keep seeing the true total.
    clock = FakeClock()
    crashes = MAX_CRASH_RECORDS + 4

    def flaky(attempt: int):
        if attempt < crashes:
            raise RuntimeError(f"boom {attempt}")
        return attempt

    policy = RestartPolicy(max_restarts=crashes)
    supervisor = Supervisor(flaky, policy,
                            clock=clock, sleep=clock.sleep)
    assert supervisor.run() == crashes
    assert supervisor.crash_count == crashes
    assert len(supervisor.crashes) == MAX_CRASH_RECORDS
    assert [c.attempt for c in supervisor.crashes] \
        == list(range(4, crashes))
    # eviction keeps the newest records, and backoff kept escalating
    # off the monotonic count, not the evicted list length
    assert supervisor.crashes[-1].backoff_s \
        >= supervisor.crashes[0].backoff_s


def test_crash_records_default_bound_is_generous():
    clock = FakeClock()

    def flaky(attempt: int):
        if attempt < 3:
            raise RuntimeError("boom")
        return attempt

    supervisor = Supervisor(flaky, RestartPolicy(max_restarts=5),
                            clock=clock, sleep=clock.sleep)
    supervisor.run()
    # below the default bound nothing is evicted
    assert supervisor.crash_count == 3
    assert len(supervisor.crashes) == 3
