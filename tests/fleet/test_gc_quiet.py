"""The serving path allocates no reference cycles, so shard workers run
without the cycle collector.

A spawned shard worker turns the collector off for its whole life
(:func:`repro.fleet.worker.worker_entry`).  That is only safe while
refcounting alone frees everything the worker drops, so these tests
gate it deterministically: run the code under ``gc.DEBUG_SAVEALL``
with the collector off, then count what one ``gc.collect()`` finds.
Every object it finds is one a collector-less worker leaks.
"""

from __future__ import annotations

import collections
import gc
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.fleet import worker
from repro.fleet.service import FleetConfig
from repro.fleet.sharding import TenantSpec
from repro.fleet.tenancy import TenantPolicy, TenantRuntime
from repro.fleet.transport import ReportListener
from repro.live import LivePipeline, PipelineConfig
from repro.live.pipeline import PUMP_BATCH
from repro.traces import open_trace, read_header, write_columnar


def cyclic_garbage(action) -> dict[str, int]:
    """Run ``action()`` with the collector off and return, by type
    name, what a collection afterwards finds unreachable: the objects
    ``action`` left for the collector rather than for refcounting.
    The caller's collector state is restored."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return dict(collections.Counter(
            type(obj).__name__ for obj in gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def shard_traces(trace_path, tmp_path_factory):
    """The fleet trace in both on-disk formats: the preload opens the
    JSONL through its in-memory conversion and maps the ``.vcol``."""
    converted = write_columnar(
        trace_path, tmp_path_factory.mktemp("gc") / "fc.vcol")
    return [str(trace_path), str(converted)]


def shard_spec(shard_traces, report_path, endpoint=None) -> dict:
    specs = [TenantSpec(tenant=f"t{index}",
                        trace=shard_traces[index % len(shard_traces)])
             for index in range(4)]
    config = FleetConfig(shards=1, policy=TenantPolicy(
        snapshot_every=32, checkpoint_every=0))
    # rolling reports every other round, so both the report file and
    # the socket carry more than the final report
    return worker.make_shard_spec(config, 0, specs, str(report_path),
                                  report_every_rounds=2,
                                  endpoint=endpoint,
                                  preload_traces=True)


# ----------------------------------------------------------------------
# (a) the acyclicity gate: one in-process shard replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("channel", ["report-file", "socket"])
def test_a_shard_replay_leaves_no_cyclic_garbage(
        shard_traces, tmp_path, monkeypatch, channel):
    runtimes = []   # keeps the runtime alive past worker_main
    build = worker.build_shard_runtime

    def build_and_keep(*args, **kwargs):
        runtimes.append(build(*args, **kwargs))
        return runtimes[-1]

    monkeypatch.setattr(worker, "build_shard_runtime", build_and_keep)
    listener = None
    if channel == "socket":
        listener = ReportListener(on_report=lambda _report: None)
        listener.start()
    try:
        spec = shard_spec(shard_traces, tmp_path / "report.json",
                          listener.endpoint() if listener else None)
        found = cyclic_garbage(lambda: worker.worker_main(spec))
    finally:
        if listener is not None:
            listener.stop()
    assert runtimes and runtimes[0].done
    assert worker.read_report(str(tmp_path / "report.json")).final
    # before the serving path went acyclic this shard left 1,338
    # (report files) / 1,272 (socket) objects here, and a 131-tenant
    # fleet_fanin shard 5,126 / 5,060 (docs/PERFORMANCE.md §11)
    assert found == {}


# ----------------------------------------------------------------------
# (b) refcounting frees what is dropped
# ----------------------------------------------------------------------
def test_a_finished_tenant_is_freed_by_refcount(trace_path):
    def finish_and_drop() -> None:
        # a budget installs the admission gate; a trace path (no
        # preloaded events) makes the tenant own its lenient reader
        tenant = TenantRuntime("t", 0, TenantPolicy(
            event_budget=150, snapshot_every=32, checkpoint_every=0),
            trace=str(trace_path))
        while not tenant.done:
            tenant.step(64)
        assert tenant.finalize().final and tenant.events_shed > 0

    assert cyclic_garbage(finish_and_drop) == {}


def test_a_pipeline_is_freed_by_refcount(trace_path, trace_events):
    header, events = trace_events

    def replay_and_drop() -> None:
        # no explicit pump: every batch is pumped from inside publish
        pipeline = LivePipeline.from_header(
            header, PipelineConfig(snapshot_every=32))
        for event in events:
            pipeline.publish(event)
        assert pipeline.bus.stats.consumed >= PUMP_BATCH
        assert pipeline.finish().final

    assert cyclic_garbage(replay_and_drop) == {}


def test_a_closed_trace_is_freed_by_refcount(shard_traces):
    def open_read_close() -> None:
        for path in shard_traces:
            with open_trace(path) as trace:
                assert sum(1 for _ in trace.iter_events()) > 0
            read_header(path)

    assert cyclic_garbage(open_read_close) == {}


# ----------------------------------------------------------------------
# (c) who owns the collector
# ----------------------------------------------------------------------
def note_collector_state(spec_json: str, out: str) -> None:
    """Spawn target: the real worker entry point, with ``worker_main``
    wrapped to note whether the collector ran before and after the
    shard."""
    real = worker.worker_main

    def noting(spec: dict) -> int:
        before = gc.isenabled()
        code = real(spec)
        Path(out).write_text(json.dumps([before, gc.isenabled()]))
        return code

    worker.worker_main = noting
    worker.worker_entry(spec_json)


def test_a_spawned_worker_runs_without_the_collector(shard_traces,
                                                     tmp_path):
    spec = shard_spec(shard_traces, tmp_path / "report.json")
    out = tmp_path / "collector.json"
    process = multiprocessing.get_context("spawn").Process(
        target=note_collector_state, args=(json.dumps(spec), str(out)))
    process.start()
    process.join(60)
    assert process.exitcode == 0
    assert json.loads(out.read_text()) == [False, False]
    assert worker.read_report(str(tmp_path / "report.json")).final


@pytest.mark.parametrize("enabled", [True, False])
def test_worker_main_leaves_its_callers_collector_alone(
        shard_traces, tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        worker.worker_main(shard_spec(shard_traces,
                                      tmp_path / "report.json"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
