"""Workload ``live_stream``: one collective diagnosed while it streams.

The elephant trace goes through a fresh ``LivePipeline`` seven times
per round (six closed replays, one open), single-threaded, with a
rolling snapshot every 32 events:

* **closed loop** — publish, ``pump`` whenever 64 events are queued,
  ``finish``: the capacity, in rolling verdicts (snapshots) per second;
* **open loop** — events offered at a fixed rate whatever the pipeline
  does; every event is timed from its *due* time to the first snapshot
  that includes it (``on_snapshot`` + ingested counts), so a stall
  charges every event it delays, and the generator's own lag is
  reported.

This is ``core`` used the other way round from ``trace_corpus``: a
rebuild per snapshot, which is nearly all of the time, so an
incremental kernel must win here without losing on the batch
``diagnose`` there.  It bypasses ``simnet`` (set-up only) and
``fleet``.

An operation is one replay.  It fails when it raises, when its final
snapshot differs from batch ``analyze_trace`` (the comparison
``tests/live`` uses), or — open loop — when the generator ends with a
standing backlog (it never caught up with its schedule during the last
snapshot interval).
"""

from __future__ import annotations

import math
import random
import time

from benchmarks.e2e import config, corpus, harness
from benchmarks.e2e.harness import Context, Outcome, Round, clock

LATENESS_LIMIT_S = 1.0


def run(ctx: Context, load: config.LiveLoad = config.LIVE) -> Outcome:
    from repro.traces import (analyze_trace, load_trace, read_header,
                              trace_events, write_columnar)

    null = harness.NullTracer()
    base = corpus.build_corpus([load.case], ctx.workdir / "corpus",
                               null)[0]
    shifted = ctx.workdir / "stream.jsonl"
    corpus.rewrite_trace(
        base.path, shifted,
        random.Random(ctx.seed).randint(1, config.MAX_SHIFT_NS))
    stream = write_columnar(shifted, ctx.workdir / "stream.vcol")
    header = read_header(stream)
    events = list(trace_events(stream))
    batch_start = clock()
    batch = analyze_trace(load_trace(stream))
    batch_s = clock() - batch_start

    def one_round(index: int, tracer) -> Round:
        result = Round(attempted=1 + load.closed_replays)
        for _ in range(load.closed_replays):
            try:
                closed_loop(header, events, batch, load, tracer, result)
            except Exception as error:  # noqa: BLE001 - counted, reported
                result.failures.append(f"closed loop: {error!r}")
        try:
            open_loop(header, events, batch, load, tracer, result)
        except Exception as error:  # noqa: BLE001 - counted, reported
            result.failures.append(f"open loop: {error!r}")
        return result

    setup_done = clock()
    rounds = harness.run_rounds(one_round, ctx.seconds, ctx.tracer)

    def layer_metrics() -> dict:
        extra: dict = {}
        checkpoint(header, events, load, ctx, extra)
        return per_layer(rounds, batch_s, extra)

    return harness.finish(
        ctx, setup_done, rounds,
        {"corpus_digest": corpus.corpus_digest([base.path]),
         "events": len(events)}, layer_metrics)


def new_pipeline(header, load: config.LiveLoad):
    from repro.live import LivePipeline, PipelineConfig

    return LivePipeline.from_header(
        header, PipelineConfig(snapshot_every=load.snapshot_every))


def mismatch(final, batch) -> str:
    """The live == batch comparison of tests/live/test_pipeline.py."""
    def path(entries):
        return [(e.node, e.step_index) for e in entries]

    def findings(result):
        return {(f.type, tuple(sorted(map(str, f.root_ports))))
                for f in result.findings}

    if path(final.critical_path) != path(batch.critical_path):
        return "critical path"
    if final.bottleneck_steps != batch.bottleneck_steps:
        return "bottleneck steps"
    if findings(final.result) != findings(batch.result):
        return "findings"
    if final.detected_flows != batch.detected_flows:
        return "detected flows"
    if final.collective_scores.keys() != batch.collective_scores.keys():
        return "scored flows"
    for key, score in batch.collective_scores.items():
        if not math.isclose(final.collective_scores[key], score,
                            rel_tol=1e-9, abs_tol=1e-9):
            return "contributor scores"
    if final.top_contributors(1) != batch.top_contributors(1):
        return "top contributor"
    return ""


def closed_loop(header, events, batch, load, tracer,
                result: Round) -> None:
    pipeline = new_pipeline(header, load)
    costs = pipeline.snapshot_cost
    built = [0.0]   # the program's cumulative build seconds, per snapshot
    marks = []      # wall at each snapshot: the replay cut into slices

    def on_snapshot(_snapshot) -> None:
        built.append(costs.sum)
        marks.append(clock())

    pipeline.on_snapshot.append(on_snapshot)

    seconds: dict = {}

    def timed(name: str):
        return harness.timed(tracer, name, "live", "closed", seconds)

    start = clock()
    with tracer.span("live.closed_loop", "bench", "closed"):
        for event in events:
            with timed("live.publish"):
                pipeline.publish(event)
            if len(pipeline.bus) >= load.pump_at:
                with timed("live.pump"):
                    pipeline.pump()
        with timed("live.pump"):
            final = pipeline.finish()
    wall = clock() - start
    result.wall_s += wall
    edges = [start, *marks[:-1], start + wall]
    result.served.append(
        ("closed", len(pipeline.snapshots),
         [b - a for a, b in zip(edges, edges[1:])]))
    each = [b - a for a, b in zip(built, built[1:])]
    quarter = max(1, len(each) // 4)
    result.extra.setdefault("closed", []).append({
        "wall_s": wall,
        "events": len(events),
        "snapshots": len(pipeline.snapshots),
        "publish_s": seconds["live.publish"],
        "pump_s": seconds["live.pump"],
        "snapshot_build_s": costs.sum,
        "snapshot_s_first_q": sum(each[:quarter]) / quarter,
        "snapshot_s_last_q": sum(each[-quarter:]) / quarter,
        "bus_depth_max": final.counters["bus_high_watermark"],
    })
    problem = mismatch(final, batch)
    if problem:
        result.failures.append(f"closed loop: {problem} != batch")


def open_loop(header, events, batch, load, tracer,
              result: Round) -> None:
    pipeline = new_pipeline(header, load)
    marks: list[tuple[float, int]] = []   # (wall, events included)

    def on_snapshot(snapshot) -> None:
        marks.append((clock(), snapshot.step_records_ingested
                      + snapshot.switch_reports_ingested))

    pipeline.on_snapshot.append(on_snapshot)
    interval = 1.0 / load.rate_per_s
    due = []
    lags = []
    buffered_max = 0
    with tracer.span("live.open_loop", "bench", "open"):
        start = clock()
        for index, event in enumerate(events):
            due_at = start + index * interval
            wait = due_at - clock()
            if wait > 0:
                time.sleep(wait)
            lags.append(max(0.0, clock() - due_at))
            due.append(due_at)
            with tracer.span("live.offer", "live", "open"):
                pipeline.publish(event)
                pipeline.pump()
            buffered_max = max(buffered_max,
                               pipeline.watermark.buffered)
        with tracer.span("live.finish", "live", "open"):
            final = pipeline.finish()
        wall = clock() - start
    result.wall_s += wall

    lateness = []
    mark = 0
    for index, due_at in enumerate(due):
        while marks[mark][1] < index + 1:
            mark += 1
        lateness.append(marks[mark][0] - due_at)
    result.verdict_s.extend((event, (late,))
                            for event, late in enumerate(lateness))
    # a stall delays the events due during it, and the generator then
    # catches up; a standing backlog is a lag that never returns to
    # zero, so take the smallest lag of the last snapshot interval
    backlog_end = int(min(lags[-load.snapshot_every:])
                      * load.rate_per_s)
    result.extra.update({
        "lags": lags,
        "backlog_end": backlog_end,
        "watermark_buffered_max": buffered_max,
    })
    if backlog_end > 0:
        result.failures.append(
            f"open loop: a standing backlog of {backlog_end} events "
            f"at {load.rate_per_s:g}/s")
    problem = mismatch(final, batch)
    if problem:
        result.failures.append(f"open loop: {problem} != batch")


def checkpoint(header, events, load, ctx: Context, extra: dict) -> None:
    """Traced runs only: one ``CheckpointManager.save`` of the full
    pipeline state at end of stream — moves nothing end to end today,
    recorded so work shifted into checkpoints shows."""
    from repro.live import CheckpointManager

    pipeline = new_pipeline(header, load)
    for event in events:
        pipeline.publish(event)
    pipeline.pump()
    manager = CheckpointManager(ctx.workdir / "checkpoint")
    with harness.timed(ctx.tracer, "live.checkpoint_save", "live",
                       "checkpoint", extra):
        manager.save(pipeline.state_dict())
    extra["state_bytes"] = manager.last_bytes


def per_layer(rounds: list, batch_s: float, extra: dict) -> dict:
    traced = [r for r in rounds if r.traced]
    closed = [replay for r in traced for replay in r.extra["closed"]]
    n = len(closed)

    def closed_median(name: str) -> float:
        return harness.median([replay[name] for replay in closed])

    # the tails pool every round of the run, traced or not: one
    # traced replay alone leaves fewer than ten samples beyond p99
    lateness = [late for r in rounds for _event, (late,) in r.verdict_s]
    lags = [s for r in rounds for s in r.extra["lags"]]
    last = traced[-1]
    return {
        "live.events_per_s": (harness.median(
            [c["events"] / c["wall_s"] for c in closed]), n),
        "live.publish_s": (closed_median("publish_s"), n),
        "live.ingest_s": (harness.median(
            [c["pump_s"] - c["snapshot_build_s"] for c in closed]), n),
        "live.snapshot_build_s": (closed_median("snapshot_build_s"), n),
        "live.snapshots": (closed[-1]["snapshots"], 1),
        "live.snapshot_s_first_q": (
            closed_median("snapshot_s_first_q"), n),
        "live.snapshot_s_last_q": (
            closed_median("snapshot_s_last_q"), n),
        "live.vs_batch_ratio": (closed_median("wall_s") / batch_s, n),
        "live.lateness_s_p99": (
            harness.tail_percentile(lateness, 99), len(lateness)),
        "live.over_limit_share": (
            sum(1 for s in lateness if s > LATENESS_LIMIT_S)
            / len(lateness), len(lateness)),
        "live.generator_lag_s_p99": (
            harness.tail_percentile(lags, 99), len(lags)),
        "live.backlog_end": (harness.median(
            [r.extra["backlog_end"] for r in traced]), len(traced)),
        "live.bus_depth_max": (closed[-1]["bus_depth_max"], 1),
        "live.watermark_buffered_max": (
            last.extra["watermark_buffered_max"], 1),
        "live.checkpoint_save_s": (extra["live.checkpoint_save"], 1),
        "live.state_bytes": (extra["state_bytes"], 1),
    }
