"""A shard serves shortest remaining stream first, so a worker holds one
tenant's working set at a time, not all of them.

Round-robin — ``batch_events`` per tenant per round — kept every
tenant's kernel, prepared reports and step accumulators alive at once.
The scheduler is one rule (``ShardRuntime.step``), and a stream of
unknown length sorts last and takes ``batch_events`` a round, so a
shard of iterators *is* round-robin: the reference measured against
here.  Every tenant's final snapshot is independent of how its stream
is cut into steps, so the order moves memory and nothing a report says.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.fleet.service import ShardRuntime
from repro.fleet.tenancy import TenantPolicy, TenantRuntime
from repro.traces import open_trace
from tests.fleet.conftest import ELEPHANT, MICE

BATCH = 64
#: rolling reports every this many rounds, as ``fleet_fanin`` asks
REPORT_EVERY = 4
POLICY = TenantPolicy(snapshot_every=32, checkpoint_every=0)
#: the corpus's elephant and this many mice, cycling through its four
SHARD_MICE = 64
#: SRPT's peak traced heap over round-robin's on this shard, measured
#: 0.33 / 0.32 / 0.31 on Python 3.10 / 3.11 / 3.12 (4.3 of 13.7 MiB on
#: 3.11); round-robin for every tenant measures 1.0
PEAK_RATIO_BOUND = 0.375
#: KiB a finished, held mouse keeps (tenant, two snapshots, digest),
#: measured 38.2 / 32.0 / 15.3 / 30.0 on Python 3.10, 36.4 / 29.8 /
#: 14.2 / 27.3 on 3.11 and 34.2 / 29.3 / 13.9 / 26.8 on 3.12; 57.3 /
#: 50.7 / 35.0 / 48.2 on 3.11 while a held pipeline kept its fold
#: state, header tables and schedule
HELD_MOUSE_KIB = {"flow_contention-n8": 42, "incast-n8": 36,
                  "pfc_storm-n8": 18, "pfc_backpressure-n8": 33}


@pytest.fixture(scope="module")
def streams(corpus):
    """label -> (header, the decoded stream)."""
    decoded = {}
    for label, (path, _events) in corpus.items():
        with open_trace(path) as trace:
            decoded[label] = (trace.header(), list(trace.iter_events()))
    return decoded


def build_shard(streams, known: bool) -> ShardRuntime:
    """The elephant and the mice, as lists (lengths known) or as
    iterators (round-robin)."""
    labels = [ELEPHANT] + [MICE[index % len(MICE)]
                           for index in range(SHARD_MICE)]
    tenants = []
    for index, label in enumerate(labels):
        header, events = streams[label]
        tenants.append(TenantRuntime(
            f"tenant-{index:02d}", 0, POLICY, header=header,
            events=events if known else iter(events)))
    return ShardRuntime(0, tenants)


def replay(shard: ShardRuntime, on_round=None) -> str:
    """Run the shard the way a worker does; its final report's bytes."""
    rounds = 0
    while not shard.done:
        shard.step(BATCH)
        rounds += 1
        if on_round is not None:
            on_round(shard)
        if rounds % REPORT_EVERY == 0:
            shard.report(final=False)
    shard.finalize()
    report = shard.report(final=True).to_dict()
    report.pop("lateness")          # wall-clock, not the diagnosis
    return json.dumps(report, sort_keys=True)


def peak_heap(streams, known: bool) -> tuple[int, str]:
    """Peak traced heap of building and replaying one shard."""
    gc.collect()
    tracemalloc.start()
    try:
        report = replay(build_shard(streams, known))
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_srpt_peaks_at_a_fraction_of_round_robin_with_equal_reports(
        streams):
    srpt, srpt_report = peak_heap(streams, known=True)
    round_robin, round_robin_report = peak_heap(streams, known=False)
    assert srpt <= PEAK_RATIO_BOUND * round_robin, (
        f"SRPT peak {srpt / 2**20:.2f} MiB, round-robin "
        f"{round_robin / 2**20:.2f} MiB")
    assert srpt_report == round_robin_report


def test_at_most_one_known_length_tenant_is_in_flight(streams):
    def in_flight(shard: ShardRuntime) -> list[str]:
        return [t.tenant for t in shard.tenants
                if t.remaining is not None and not t.done
                and t.replayer.cursor.published > 0]

    seen = []
    replay(build_shard(streams, known=True),
           lambda shard: seen.append(in_flight(shard)))
    assert all(len(tenants) <= 1 for tenants in seen), seen
    assert len(seen) > 1
    # the mice run first, the elephant last: it is in flight at the
    # end, alone
    assert seen[-2] == ["tenant-00"]

    # the iterator shard is round-robin: every tenant starts at once
    first = []
    replay(build_shard(streams, known=False),
           lambda shard: first.append(shard.tenants) if not first
           else None)
    assert all(t.replayer.cursor.published > 0 for t in first[0])


def test_batch_events_zero_runs_every_tenant_to_its_end(streams):
    shard = build_shard(streams, known=True)
    consumed = shard.step(0)
    assert shard.done
    assert consumed == sum(len(streams[label][1])
                           for label in [ELEPHANT]
                           + [MICE[i % len(MICE)]
                              for i in range(SHARD_MICE)])


def test_a_resumed_list_is_scheduled_by_its_restored_cursor(streams,
                                                             tmp_path):
    header, events = streams[MICE[0]]
    policy = TenantPolicy(snapshot_every=32, checkpoint_every=16)
    first = TenantRuntime("t", 0, policy, events=events, header=header,
                          checkpoint_dir=str(tmp_path))
    assert first.remaining == len(events)
    first.step(40)                  # past two checkpoints, then "crash"
    second = TenantRuntime("t", 0, policy, events=events, header=header,
                           checkpoint_dir=str(tmp_path))
    assert second.resumed and 0 < second.replayer.cursor.published <= 40
    assert second.remaining \
        == len(events) - second.replayer.cursor.published
    while not second.done:
        second.step(BATCH)
    lone = TenantRuntime("t", 0, POLICY, events=events, header=header)
    while not lone.done:
        lone.step(BATCH)
    assert second.finalize().canonical_json() \
        == lone.finalize().canonical_json()


@pytest.mark.parametrize("label", MICE)
def test_a_held_mouse_keeps_little(streams, label):
    """What a finished, unpublished mouse still holds: its two
    snapshots (the rolling one reports answer until the shard ends, and
    the final one), counters and histograms — not its pipeline's fold
    state, header tables or schedule."""
    header, events = streams[label]

    def held() -> ShardRuntime:
        shard = ShardRuntime(0, [TenantRuntime(
            "t", 0, POLICY, events=events, header=header)])
        while not shard.done:
            shard.step(BATCH)
            shard.report(final=False)
        return shard

    warm = held()                   # interned keys, caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = held()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.tenants[0].done and kept.tenants[0].final is None
    assert warm.tenants[0].pipeline.reports == []
    assert size <= HELD_MOUSE_KIB[label] * 1024, f"{size / 1024:.1f} KiB"
