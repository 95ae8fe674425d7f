"""Multiprocess shard workers and their supervision.

One OS process per shard: the worker rebuilds its
:class:`~repro.fleet.service.ShardRuntime` from a primitives-only spec
dict (the same idiom as :mod:`repro.experiments.runner` — specs must
cross a ``spawn`` pickle boundary), replays its tenants, and publishes
:class:`~repro.fleet.aggregator.ShardReport` JSON atomically to a
well-known path.  The parent process never shares memory with a
shard; the report file *is* the final fan-in edge.  The one code that
starts a fleet of these workers is
:func:`~repro.fleet.transport.run_fleet_streaming`.

Supervision reuses :class:`~repro.live.supervisor.Supervisor`: the
target spawns the worker process and raises
:class:`WorkerCrashed` on a nonzero exit, so SIGKILLed shards restart
with backoff and a crash-loop budget.  Workers are spawned (never
forked) because supervision runs one thread per shard.

A spawned worker runs its whole life without the cyclic garbage
collector: :func:`worker_entry`, whose process the fleet owns, turns
it off before the shard is built.  That is safe only because the
serving path allocates no reference cycles, so refcounting frees
everything a worker drops; ``tests/fleet/test_gc_quiet.py`` is the
gate (a shard replay, with report files and with the socket channel,
leaves zero cyclic garbage).  A new cycle on this path is a leak for
the worker's lifetime, not a slowdown.  :func:`worker_main` runs in
its caller's process (tests call it in-process) and leaves the
caller's collector alone.

The chaos harness (:mod:`repro.chaos`) kills a worker by its one kill
rule: a worker given ``kill_at`` that has consumed that many events
writes its *kill flag* file and SIGKILLs itself, unfinalized.  The
flag persists, so the restarted attempt sails past the kill point —
one crash per flag, at a deterministic event count, no timing races.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import sys
import threading
from typing import TYPE_CHECKING, Optional

from repro.core import failpoints
from repro.fleet.aggregator import ShardReport
from repro.fleet.service import (FleetConfig, build_shard_runtime,
                                 publish_json)
from repro.fleet.sharding import TenantSpec

if TYPE_CHECKING:   # the supervising parent's, not a worker's
    from repro.live.supervisor import RestartPolicy


class WorkerCrashed(RuntimeError):
    """A shard worker process exited nonzero (or was signalled)."""

    def __init__(self, shard_id: int, exitcode: Optional[int]) -> None:
        super().__init__(
            f"shard {shard_id} worker exited with {exitcode}")
        self.shard_id = shard_id
        self.exitcode = exitcode


# ----------------------------------------------------------------------
# spec plumbing (primitives only — crosses the spawn pickle boundary)
# ----------------------------------------------------------------------

def make_shard_spec(config: FleetConfig, shard_id: int,
                    specs: list[TenantSpec], report_path: str,
                    kill_at: int = 0,
                    report_every_rounds: int = 8,
                    endpoint: Optional[list] = None,
                    worker_failpoints: str = "",
                    failpoint_seed: int = 0,
                    preload_traces: bool = False) -> dict:
    return {
        "shard_id": shard_id,
        "tenants": [spec.to_dict() for spec in specs],
        "policy": config.policy.to_dict(),
        "workdir": config.workdir,
        "batch_events": config.batch_events,
        "report_every_rounds": report_every_rounds,
        "report_path": report_path,
        "kill_at": kill_at,
        "kill_flag": f"{report_path}.kill",
        # streaming channel (None = report files only)
        "endpoint": endpoint,
        # worker-side fault injection (chaos; "" = none)
        "failpoints": worker_failpoints,
        "failpoint_seed": failpoint_seed,
        # decode each distinct trace once, replay from memory (bench)
        "preload_traces": preload_traces,
    }


def write_report(path: str, report: ShardReport) -> None:
    """Atomic publish (:func:`~repro.fleet.service.publish_json`).

    Failpoint site ``worker.report.write`` (``error`` fails the
    publish, ``drop`` silently skips it, ``delay`` stalls it)."""
    if failpoints.fire("worker.report.write") == "drop":
        return
    publish_json(path, report.to_dict())


def read_report(path: str) -> Optional[ShardReport]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError):
        return None
    return ShardReport.from_json(text)


# ----------------------------------------------------------------------
# worker process body
# ----------------------------------------------------------------------

def _preload_factory(tenants: list[TenantSpec]):
    """A tenant factory replaying each distinct trace from memory
    (decode once per trace file, not once per tenant) — the bench's
    in-memory idiom, available to worker processes via the
    ``preload_traces`` spec key.  Each tenant gets the list itself, so
    its shard knows the stream's length."""
    from repro.fleet.tenancy import TenantRuntime
    from repro.traces import open_trace

    cache = {}
    for spec in tenants:
        if spec.trace not in cache:
            # open_trace sniffs the on-disk format, so a fleet spec
            # can point tenants at columnar conversions for the cheap
            # decode path without any spec change
            with open_trace(spec.trace) as trace:
                cache[spec.trace] = (trace.header(),
                                     list(trace.iter_events()))

    def factory(spec, shard_id, tenant_policy, ckpt_dir):
        header, events = cache[spec.trace]
        return TenantRuntime(spec.tenant, shard_id, tenant_policy,
                             events=events, header=header,
                             checkpoint_dir=ckpt_dir)

    return factory


def worker_main(spec: dict) -> int:
    """Run one shard to completion inside the current process.

    With an ``endpoint`` in the spec, rolling reports and one heartbeat
    per round stream to the parent's :class:`~repro.fleet.transport
    .ReportListener`; a broken channel falls back to the atomic
    report file, and the **final** report is always written to the
    file regardless — the streamed copies only make the parent's
    rolling snapshots fresher, never the final diagnosis different.
    """
    from repro.fleet.tenancy import TenantPolicy

    if spec.get("failpoints"):
        failpoints.configure(spec["failpoints"],
                             seed=int(spec.get("failpoint_seed", 0)))
    else:
        failpoints.configure_from_env(
            seed=int(spec.get("failpoint_seed", 0)))

    policy = TenantPolicy.from_dict(spec["policy"])
    tenants = [TenantSpec.from_dict(t) for t in spec["tenants"]]
    factory = _preload_factory(tenants) \
        if spec.get("preload_traces") else None
    runtime = build_shard_runtime(
        spec["shard_id"], tenants, policy, spec.get("workdir"),
        tenant_factory=factory)
    batch = int(spec.get("batch_events", 64))
    report_every = max(1, int(spec.get("report_every_rounds", 8)))
    report_path = spec["report_path"]
    kill_at = int(spec.get("kill_at", 0) or 0)
    kill_flag = spec.get("kill_flag")
    endpoint = spec.get("endpoint")
    publisher = None
    if endpoint:
        from repro.fleet.transport import ReportPublisher
        publisher = ReportPublisher(endpoint, spec["shard_id"])
    rounds = 0

    def emit(final: bool) -> ShardReport:
        """Publish one report: stream when the channel works, fall
        back to (and, for final reports, always also use) the file."""
        report = runtime.report(final=final)
        report.lateness = runtime.merged_latency().state_dict()
        if publisher is not None:
            publisher.stamp(report)
        streamed = publisher.publish(report) \
            if publisher is not None else False
        if final or not streamed:
            if streamed is False and publisher is not None:
                publisher.fallbacks += 1
                publisher.stamp(report)
            write_report(report_path, report)
        return report

    try:
        while not runtime.done:
            runtime.step(batch)
            rounds += 1
            if kill_at and kill_flag \
                    and runtime.events_consumed >= kill_at \
                    and not os.path.exists(kill_flag):
                # the chaos kill rule: stop here, never finalized.  The
                # flag outlives the kill, so the restart runs through.
                with open(kill_flag, "w", encoding="utf-8") as handle:
                    handle.write(str(runtime.events_consumed))
                os.kill(os.getpid(), signal.SIGKILL)
            if publisher is not None:
                publisher.heartbeat()
            if rounds % report_every == 0:
                emit(final=False)
        runtime.finalize()
        emit(final=True)
    finally:
        if publisher is not None:
            publisher.close()
    return 0


def worker_entry(spec_json: str) -> None:
    """Spawn entrypoint (module-level: must pickle under spawn).

    The process is the fleet's, so its collector is too: off for the
    worker's life (see the module docstring for why that is safe)."""
    gc.disable()
    sys.exit(worker_main(json.loads(spec_json)))


# ----------------------------------------------------------------------
# parent-side supervision
# ----------------------------------------------------------------------

def run_worker_process(spec: dict, ctx=None) -> Optional[int]:
    """Spawn one worker attempt and wait for it.  Returns the exit
    code (negative = death by signal; a chaos kill is -9)."""
    ctx = ctx or multiprocessing.get_context("spawn")
    process = ctx.Process(target=worker_entry,
                          args=(json.dumps(spec),))
    process.start()
    try:
        process.join()
    finally:
        # a KeyboardInterrupt in the wait must not orphan the child
        if process.is_alive():
            process.kill()
        process.join()
    return process.exitcode


def run_shard_supervised(spec: dict,
                         policy: Optional[RestartPolicy] = None,
                         on_crash=None, ctx=None) -> ShardReport:
    """Run one shard under restart supervision until its final report
    lands.  Crashes (including chaos SIGKILLs) restart the worker
    with backoff; the crash-loop breaker still bounds a shard that
    dies deterministically."""
    from repro.live.supervisor import Supervisor

    shard_id = spec["shard_id"]

    def target(_attempt: int) -> None:
        exitcode = run_worker_process(spec, ctx=ctx)
        if exitcode != 0:
            raise WorkerCrashed(shard_id, exitcode)

    supervisor = Supervisor(target, policy=policy, on_crash=on_crash)
    supervisor.run()
    report = read_report(spec["report_path"])
    if report is None or not report.final:
        raise WorkerCrashed(shard_id, None)
    report.restarts = supervisor.crash_count
    return report


def run_fleet_supervised(
        specs: dict[int, dict],
        policy: Optional[RestartPolicy] = None,
        on_crash=None,
) -> dict[int, ShardReport]:
    """Run prepared shard specs under supervision, one supervising
    thread per shard, and collect the final (file-read) reports."""
    results: dict[int, ShardReport] = {}
    errors: dict[int, BaseException] = {}

    def supervise(shard_id: int) -> None:
        try:
            # each thread owns its shard_id key and every thread is
            # joined before the dicts are read, so no lock is needed
            results[shard_id] = run_shard_supervised(
                specs[shard_id], policy=policy,
                on_crash=(lambda record, s=shard_id:
                          on_crash(s, record))
                if on_crash is not None else None)
        except BaseException as error:  # noqa: BLE001 - joined below
            errors[shard_id] = error

    threads = [threading.Thread(target=supervise, args=(shard_id,),
                                name=f"fleet-shard-{shard_id}")
               for shard_id in specs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        shard_id, error = sorted(errors.items())[0]
        raise WorkerCrashed(shard_id, None) from error
    return results
