"""Workload ``fleet_fanin``: many tenants fanned in to one aggregator.

One round is one ``run_fleet_streaming`` fleet: process workers (one
per shard), the socket transport, ``preload_traces=True``, rolling
snapshots every 32 events and no checkpoints.  The first tenants
replay the elephant trace, the rest cycle through the mice, so key
skew is real and head-of-line blocking of a mouse behind an elephant —
invisible when every tenant replays the same trace, as ``repro bench
--fleet`` does — becomes a number.  An ``on_merge`` callback
timestamps the first merged ``FleetSnapshot`` in which each tenant is
``final``: that is when its verdict is visible at the aggregator.
The aggregator handed to the fleet also timestamps every heartbeat (a
shard sends one after each round of its tenants), which cuts the long
wait for a verdict into the slices the estimator needs.

``fleet`` scheduling, transport and merge dominate; ``simnet`` is
set-up only, and ``traces`` is touched once per worker and trace.

An operation is one tenant.  It fails when the fleet raises, when the
tenant is not ``final`` in the last snapshot, or when its
``snapshot_digest`` differs from the one a lone replay of its trace
gives.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e import config, corpus, harness
from benchmarks.e2e.harness import Context, Outcome, Round, clock

#: a mouse has at most this many events
MOUSE_EVENTS = 100


@dataclass(frozen=True)
class Fleet:
    """What every round of a run replays."""

    load: config.FleetLoad
    #: one TenantSpec per tenant
    specs: list
    #: trace path -> (snapshot digest, events) of a lone replay
    expected: dict
    workdir: Path


def tenant_plan(load: config.FleetLoad, elephant: Path,
                mice: list) -> list:
    """Tenant -> trace: elephants first, then the mice in a cycle.

    The plan does not depend on the seed (the traces' time shifts do):
    the contention mouse is 70 % of the mice's cost, so moving it
    between shards moved the slower shard's finish by several percent
    from seed to seed in sizing."""
    from repro.fleet import TenantSpec

    specs = []
    for index in range(load.tenants):
        trace = elephant if index < load.elephants \
            else mice[index % len(mice)]
        specs.append(TenantSpec(tenant=f"tenant-{index:04d}",
                                trace=str(trace)))
    return specs


def fleet_config(load: config.FleetLoad):
    from repro.fleet import FleetConfig, TenantPolicy

    return FleetConfig(
        shards=load.shards,
        policy=TenantPolicy(snapshot_every=load.snapshot_every,
                            checkpoint_every=0),
        batch_events=load.batch_events,
        merge_every_rounds=load.report_every_rounds)


def lone_digest(trace: Path, load: config.FleetLoad) -> tuple:
    """(snapshot digest, events) of one tenant replaying ``trace``
    alone, stepped the way a shard steps it."""
    from repro.fleet import TenantDigest, TenantRuntime

    wiring = fleet_config(load)
    tenant = TenantRuntime("lone", 0, wiring.policy, trace=str(trace))
    while not tenant.done:
        tenant.step(wiring.batch_events)
    digest = TenantDigest.from_snapshot(0, "lone", tenant.finalize())
    return digest.snapshot_digest, tenant.events_admitted


def run(ctx: Context, load: config.FleetLoad = config.FLEET) -> Outcome:
    from repro.traces import write_columnar

    null = harness.NullTracer()
    cases = [load.elephant, *load.mice]
    bases = corpus.build_corpus(cases, ctx.workdir / "corpus", null)
    rng = random.Random(ctx.seed)
    traces = []
    for base in bases:
        shifted = ctx.workdir / f"{base.spec.label}.shifted.jsonl"
        corpus.rewrite_trace(base.path, shifted,
                             rng.randint(1, config.MAX_SHIFT_NS))
        traces.append(write_columnar(
            shifted, ctx.workdir / f"{base.spec.label}.vcol"))
    fleet = Fleet(
        load=load, specs=tenant_plan(load, traces[0], traces[1:]),
        expected={str(trace): lone_digest(trace, load)
                  for trace in traces},
        workdir=ctx.workdir)

    def one_round(index: int, tracer) -> Round:
        return fleet_round(index, tracer, fleet)

    setup_done = clock()
    try:
        # a fleet takes most of a run, so insist on repeats: the best
        # of one sample is that sample, noise and all
        rounds = harness.run_rounds(one_round, ctx.seconds, ctx.tracer,
                                    least=load.least_rounds)
        cut_verdicts(rounds)
        return harness.finish(
            ctx, setup_done, rounds,
            {"corpus_digest": corpus.corpus_digest(
                b.path for b in bases)},
            lambda: per_layer(rounds, isolated(ctx, fleet, rounds)))
    finally:
        # a fleet that raised may leave workers behind
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


def beat_recorder(plan: dict, wiring):
    """The aggregator ``run_fleet_streaming`` would build itself, which
    also notes when each shard's heartbeats arrive."""
    from repro.fleet import FleetAggregator
    from repro.fleet.aggregator import HealthPolicy

    class BeatRecorder(FleetAggregator):
        def __init__(self) -> None:
            super().__init__(sorted(plan), wiring.mailbox_capacity,
                             health=HealthPolicy())
            #: shard -> arrival time of each of its heartbeats
            self.beats = {shard: [] for shard in self.expected}

        def heartbeat(self, shard_id: int) -> None:
            super().heartbeat(shard_id)
            self.beats[shard_id].append(clock())

    return BeatRecorder()


def stream_fleet(specs: list, load: config.FleetLoad, report_dir: Path,
                 on_merge=None):
    from repro.fleet import HashRing
    from repro.fleet.transport import run_fleet_streaming

    wiring = fleet_config(load)
    plan = HashRing(wiring.shards, wiring.vnodes).assign(specs)
    outcome = run_fleet_streaming(
        wiring, plan, str(report_dir), on_merge=on_merge,
        merge_every_s=load.merge_every_s,
        report_every_rounds=load.report_every_rounds,
        preload_traces=True, aggregator=beat_recorder(plan, wiring))
    return plan, outcome


def fleet_round(index: int, tracer, fleet: Fleet) -> Round:
    load = fleet.load
    specs = fleet.specs
    result = Round(attempted=len(specs))
    served: dict[str, float] = {}
    first_frame: list[float] = []

    def on_merge(snapshot) -> None:
        # runs on the fleet's merge thread, then once more on the
        # caller's thread for the final merge
        now = clock()
        if snapshot.shards and not first_frame:
            first_frame.append(now)
        for digest in snapshot.tenants:
            if digest.final and digest.tenant not in served:
                served[digest.tenant] = now

    start = clock()
    try:
        with tracer.span("fleet.run", "fleet", f"fleet-{index}") as span:
            plan, outcome = stream_fleet(
                specs, load, fleet.workdir / f"reports-{index}",
                on_merge)
    except Exception as error:  # noqa: BLE001 - counted, reported
        result.failures.extend(f"{spec.tenant}: fleet raised {error!r}"
                               for spec in specs)
        return result
    end = clock()
    result.wall_s = end - start

    by_tenant = {d.tenant: d for d in outcome.final.tenants}
    verdicts = []
    for spec in specs:
        digest = by_tenant.get(spec.tenant)
        want, _events = fleet.expected[spec.trace]
        if digest is None or not digest.final:
            result.failures.append(f"{spec.tenant}: not final")
        elif digest.snapshot_digest != want:
            result.failures.append(
                f"{spec.tenant}: digest differs from a lone replay")
        else:
            verdicts.append(spec.tenant)

    last_final = max(served.values(), default=end)
    first = first_frame[0] if first_frame else end
    # a verdict's wait is cut at the heartbeats of its tenant's shard
    # (see cut_verdicts); a fleet's wall into three slices
    shard_of = {spec.tenant: shard for shard, members in plan.items()
                for spec in members}
    result.extra["waits"] = [
        (tenant, start, outcome.aggregator.beats[shard_of[tenant]],
         served[tenant]) for tenant in verdicts]
    result.served.append(
        ("fleet", len(verdicts),
         (first - start, last_final - first, end - last_final)))
    if span is not None:
        # phases of the fleet's wall, rebuilt from the callback's
        # timestamps; the workers' own time is not visible from here
        tracer.add("fleet.startup", "fleet", start, first, span.id,
                   span.op)
        tracer.add("fleet.replay", "fleet", first, last_final, span.id,
                   span.op)
        tracer.add("fleet.shutdown_tail", "fleet", last_final, end,
                   span.id, span.op)
    events = {str(trace): count
              for trace, (_d, count) in fleet.expected.items()}
    shard_events = [sum(events[s.trace] for s in plan[shard])
                    for shard in sorted(plan)]
    shard_tenants = [len(plan[shard]) for shard in sorted(plan)]
    mice = [served[s.tenant] - start for s in specs
            if events[s.trace] <= MOUSE_EVENTS and s.tenant in served]
    transport = outcome.transport
    totals = outcome.final.totals
    lateness = shipped_lateness(outcome.results.values())
    result.extra.update({
        "events": totals["events_admitted"] + totals["events_shed"],
        "first_frame_s": first - start,
        "first_final_s": min(served.values(), default=end) - start,
        "last_final_s": last_final - start,
        "shutdown_tail_s": end - last_final,
        "mouse_served_s": harness.median(mice),
        "shard_tenants_skew":
            max(shard_tenants) / max(1, min(shard_tenants)),
        "shard_events_skew":
            max(shard_events) / max(1, min(shard_events)),
        "reports_received": transport["reports_received"],
        "heartbeats_received": transport["heartbeats_received"],
        "frames_received": transport["frames_received"],
        "transport_retries": totals["transport_retries"],
        "publish_fallbacks": totals["publish_fallbacks"],
        "merges": outcome.aggregator.merge_seconds.total,
        "merge_s_p50": outcome.aggregator.merge_seconds.percentile(50),
        "merge_s_p99": outcome.aggregator.merge_seconds.percentile(99),
        "lateness_p50_est": lateness.percentile(50),
        "lateness_p99_est": lateness.percentile(99),
        "final_reports": list(outcome.results.values()),
    })
    return result


def cut_verdicts(rounds: list) -> None:
    """Fill every round's ``verdict_s``: a tenant's wait from fleet
    start to its verdict, cut at its shard's heartbeats into workers
    up + first round, each later round, and finalize + final report +
    merge.  A round of a shard is the same work in every fleet, so the
    slices of repeats line up; should a (best-effort) heartbeat ever go
    missing they no longer do, and the run falls back to the uncut
    wait."""
    waits = [wait for r in rounds for wait in r.extra.get("waits", ())]
    beats_of: dict = {}
    for tenant, _start, beats, _served in waits:
        beats_of.setdefault(tenant, set()).add(len(beats))
    aligned = all(len(counts) == 1 for counts in beats_of.values())
    for result in rounds:
        for tenant, start, beats, served in result.extra.get("waits", ()):
            cuts = beats if aligned else ()
            edges = [start, *cuts, served]
            result.verdict_s.append(
                (tenant, tuple(b - a for a, b in zip(edges, edges[1:]))))


def shipped_lateness(reports):
    """The program's own ingest-to-snapshot histogram, shipped home in
    the final ShardReports: factor-2 buckets, an estimate."""
    from repro.live import Histogram

    merged = Histogram("fleet_ingest_to_snapshot_seconds")
    for report in reports:
        if report.lateness:
            merged.merge_from(
                Histogram("shard").load_state(report.lateness))
    return merged


def isolated(ctx: Context, fleet: Fleet, rounds: list) -> dict:
    """Traced runs only: the spawn floor, the in-process reference and
    the codec and merge costs on the final reports, each on its own."""
    from repro.fleet import (FleetService, HashRing, TenantRuntime,
                             merge_reports)
    from repro.fleet.transport import (FrameDecoder, decode_report,
                                       encode_report)
    from repro.traces import read_header, trace_events

    load = fleet.load
    specs = fleet.specs
    wiring = fleet_config(load)
    seconds: dict = {}

    def timed(name: str):
        return harness.timed(ctx.tracer, name, "fleet", "isolated",
                             seconds)

    # one mouse per shard: what a fleet costs before it does any work
    plan = HashRing(wiring.shards, wiring.vnodes).assign(
        specs[load.elephants:])
    floor = [plan[shard][0] for shard in sorted(plan) if plan[shard]]
    with timed("fleet.spawn_floor"):
        stream_fleet(floor, load, ctx.workdir / "reports-floor")

    # the single-process reference, fed from memory as the workers are
    decoded_traces = {trace: (read_header(trace),
                              list(trace_events(trace)))
                      for trace in fleet.expected}

    def from_memory(spec, shard_id, policy, _checkpoint_dir):
        header, events = decoded_traces[spec.trace]
        return TenantRuntime(spec.tenant, shard_id, policy,
                             events=iter(events), header=header)

    service = FleetService(wiring, specs[:load.inprocess_tenants],
                           tenant_factory=from_memory)
    with timed("fleet.inprocess"):
        final = service.run()
    inprocess_events = final.totals["events_admitted"]

    reports = [r for r in rounds if r.traced][-1].extra["final_reports"]
    with timed("fleet.frame_codec"):
        decoder = FrameDecoder()
        frames = []
        for seq, report in enumerate(reports):
            frames.extend(decoder.feed(encode_report(report, seq)))
        decoded = [decode_report(frame) for frame in frames]
    with timed("fleet.merge_reports"):
        merge_reports(decoded, sorted(r.shard_id for r in decoded),
                      final=True)
    return {
        "spawn_floor_s": seconds["fleet.spawn_floor"],
        "inprocess_events_per_s":
            inprocess_events / seconds["fleet.inprocess"],
        "frame_codec_s": seconds["fleet.frame_codec"],
        "merge_reports_s": seconds["fleet.merge_reports"],
        "report_bytes": sum(len(encode_report(r, 0)) for r in reports),
    }


def per_layer(rounds: list, extra: dict) -> dict:
    traced = [r for r in rounds if r.traced]
    n = len(traced)
    served = [sum(slices) for r in traced
              for _tenant, slices in r.verdict_s]

    def med(name: str) -> tuple:
        return (harness.median([r.extra[name] for r in traced]), n)

    metrics = {
        "fleet.wall_s": (harness.median([r.wall_s for r in traced]), n),
        "fleet.events_per_s": (harness.median(
            [r.extra["events"] / r.wall_s for r in traced]), n),
        "fleet.verdict_served_s_p95": (
            harness.tail_percentile(served, 95), len(served)),
        "fleet.mouse_served_ratio": (harness.median(
            [r.extra["mouse_served_s"] / r.extra["last_final_s"]
             for r in traced]), n),
        "fleet.ingest_to_snapshot_s_p50_est": med("lateness_p50_est"),
        "fleet.ingest_to_snapshot_s_p99_est": med("lateness_p99_est"),
    }
    for name in ("first_frame_s", "first_final_s", "last_final_s",
                 "shutdown_tail_s", "shard_tenants_skew",
                 "shard_events_skew", "reports_received",
                 "heartbeats_received", "frames_received",
                 "transport_retries", "publish_fallbacks", "merges",
                 "merge_s_p50", "merge_s_p99"):
        metrics[f"fleet.{name}"] = med(name)
    for name, value in extra.items():
        metrics[f"fleet.{name}"] = (value, 1)
    return metrics
