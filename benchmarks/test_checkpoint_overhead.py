"""Checkpointing overhead on live replay throughput.

The acceptance bar for the durability layer: at the default
:class:`CheckpointPolicy`, replaying a trace through
:class:`TraceReplayer` with periodic atomic checkpoints must cost at
most 10% of uncheckpointed throughput.

Checkpointing is fully synchronous — every nanosecond it adds to a
replay is spent inside ``TraceReplayer.checkpoint()`` (state capture +
atomic tmp/fsync/rename write), which the replayer attributes to
``checkpoint_seconds``.  The gate therefore compares attributed
checkpoint time against the same run's replay time:

    ratio = elapsed / (elapsed - checkpoint_seconds)

This is noise-immune: an A/B wall-clock comparison of separate plain
and checkpointed runs swings far more than 10% between runs on a
loaded machine, while the within-run attribution measures exactly the
work checkpointing adds.  Best-of-N so one stalled fsync cannot fail
the gate; a plain replay still runs to assert diagnosis-state
equality and report both throughput rates.
"""

import time

from benchmarks.conftest import print_rows
from repro.collective.ring import ring_allgather
from repro.collective.runtime import StepRecord
from repro.live import LivePipeline, PipelineConfig
from repro.live.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
)
from repro.simnet.packet import FlowKey
from repro.traces.stream import TraceEvent

NUM_NODES = 32
ROUNDS = 3
#: the acceptance ceiling: (replay + checkpoint) / replay, best-of-N
MAX_OVERHEAD_RATIO = 1.10


def synthetic_stream(num_nodes: int):
    """A ring collective's step records in completion-time order."""
    nodes = [f"n{i}" for i in range(num_nodes)]
    schedule = ring_allgather(nodes, 100_000)
    expected = {}
    events = []
    for idx in range(num_nodes - 1):
        for n, node in enumerate(nodes):
            start = idx * 1000.0 + n
            end = start + 900.0
            record = StepRecord(
                node=node, step_index=idx,
                flow_key=FlowKey(node, nodes[(n + 1) % num_nodes],
                                 9000 + idx, 4791),
                size_bytes=100_000,
                start_time=start, end_time=end,
                recv_source=None, binding_dependency="prev_send")
            expected[(node, idx)] = 900.0
            events.append(TraceEvent("step_record", end, record,
                                     line_no=len(events) + 1))
    events.sort(key=lambda e: e.time)
    return schedule, expected, events


def replay_once(schedule, expected, events, manager):
    config = PipelineConfig(snapshot_every=128, prune_interval=32)
    pipeline = LivePipeline(schedule, {}, expected, 262_144,
                            config=config)
    replayer = TraceReplayer(pipeline, iter(events), manager)
    start = time.perf_counter()
    replayer.run()
    return pipeline, replayer, time.perf_counter() - start


def test_checkpoint_overhead(benchmark, tmp_path):
    schedule, expected, events = synthetic_stream(NUM_NODES)
    policy = CheckpointPolicy()  # the default serve cadence

    counter = [0]

    def make_manager():
        counter[0] += 1
        directory = tmp_path / f"ckpt-{counter[0]}"
        return CheckpointManager(directory, policy)

    def run():
        replay_once(schedule, expected, events, None)  # warm-up
        plain_pipeline, _, plain = replay_once(
            schedule, expected, events, None)
        best = None
        for _ in range(ROUNDS):
            manager = make_manager()
            pipeline, replayer, elapsed = replay_once(
                schedule, expected, events, manager)
            ratio = elapsed / (elapsed - replayer.checkpoint_seconds)
            if best is None or ratio < best[0]:
                best = (ratio, pipeline, replayer, manager, elapsed)
        return plain_pipeline, plain, best

    plain_pipeline, plain, best = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    ratio, ckpt_pipeline, replayer, manager, ckpt = best
    checkpoints = len(manager.snapshot_paths())

    rows = [{
        "events": len(events),
        "plain_s": plain,
        "ckpt_s": ckpt,
        "checkpoint_s": replayer.checkpoint_seconds,
        "ratio": ratio,
        "checkpoints": checkpoints,
        "interval_events": policy.interval_events,
        "retain": policy.retain,
        "plain_rate_eps": len(events) / plain,
        "ckpt_rate_eps": len(events) / ckpt,
    }]
    print_rows("checkpoint overhead — live replay, default policy, "
               "best-of-3", rows)

    assert ckpt_pipeline.counters() == plain_pipeline.counters()
    assert checkpoints >= 1
    assert replayer.checkpoint_seconds > 0
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"checkpointing costs {100 * (ratio - 1):.1f}% "
        f"(> {100 * (MAX_OVERHEAD_RATIO - 1):.0f}% budget)")
