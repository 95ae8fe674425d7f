"""The incremental §III-D kernel against a from-scratch reference.

``DiagnosisKernel`` folds each report once and rebuilds a step's graph
only when its window's slice of reports changed; the reference below is
the algorithm as it was written before that — ``build_provenance`` over
everything seen so far, one filtered rebuild per step window, Eq. 3 by
the book — recomputed at *every* rolling snapshot of the four paper
scenarios, on clean, duplicated and reordered (late events discarded)
streams and across one checkpoint round-trip.  Equality is
byte equality of ``canonical_json`` with every contributor listed, so
dict insertion order (float summation order) is pinned too.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.anomalies.scenarios import SCENARIOS, ScenarioConfig, make_cases
from repro.chaos import _duplicated, _reordered
from repro.core.analyzer import (SLOWDOWN_FACTOR, DiagnosisKernel,
                                 StepTiming, VedrfolnirAnalyzer)
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.provenance import build_provenance
from repro.core.rating import contribution_to_flow
from repro.core.reports import contributor_entry
from repro.core.waiting_graph import WaitingGraph
from repro.experiments.harness import make_system
from repro.live import (CheckpointManager, LivePipeline, PipelineConfig,
                        resume_or_create)
from repro.traces import (TraceRecorder, TraceRuntime, analyze_trace,
                          load_trace, read_header, trace_events)
from tests.core.test_waiting_graph import (ReferenceWaitingGraph,
                                           assert_answers_equal)

def everything(snapshot) -> str:
    """``canonical_json`` with every contributor score listed, not the
    top few."""
    return json.dumps({**snapshot.to_dict(), "contributors": [
        contributor_entry(flow, score) for flow, score
        in snapshot.top_contributors(len(snapshot.collective_scores))]},
        sort_keys=True)


# ----------------------------------------------------------------------
# the reference: from scratch, every time
# ----------------------------------------------------------------------
def reference_tail(reports, cf_keys, xoff, windows, critical_flow_keys,
                   exec_times, expect_times):
    """Provenance -> signatures -> Eqs. 1-3, nothing remembered."""
    overall = build_provenance(reports, cf_keys, xoff)
    result = diagnose(overall)
    step_graphs = {}
    for idx, (start, end) in windows.items():
        step_reports = [r for r in reports if start <= r.time <= end]
        if step_reports:
            step_graphs[idx] = build_provenance(step_reports, cf_keys, xoff)
    graphs = step_graphs or {0: overall}
    excess = {i: max(0.0, exec_times.get(i, 0.0) - expect_times.get(i, 0.0))
              for i in graphs}
    denominator = sum(excess.values())
    scores = {}
    for flow in sorted(overall.background_flows(), key=lambda f: f.short()):
        total = 0.0
        if denominator > 0:
            for i, graph in graphs.items():
                cf_i = critical_flow_keys.get(i)
                if cf_i is None or excess[i] <= 0:
                    continue
                total += contribution_to_flow(graph, flow, cf_i) \
                    * excess[i] / denominator
        scores[flow] = total
    return overall, result, step_graphs, scores


def reference_snapshot(pipeline: LivePipeline, snapshot):
    """``snapshot`` with its diagnosis recomputed from the pipeline's
    raw state (call from ``on_snapshot``: the state is the snapshot's)."""
    exec_times, expect_times, critical_flow_keys = {}, {}, {}
    graph = pipeline.graph
    for idx, node in graph.critical_flows_by_step().items():
        duration = graph.durations.get((node, idx))
        if duration is not None:
            exec_times[idx] = duration
        expect_times[idx] = pipeline.expected_step_times.get(
            (node, idx), 0.0)
        flow_key = pipeline.flow_keys.get((node, idx))
        if flow_key is not None:
            critical_flow_keys[idx] = flow_key
    bottlenecks = sorted(
        idx for idx, t in exec_times.items()
        if t > SLOWDOWN_FACTOR * expect_times.get(idx, float("inf")))
    _overall, result, _graphs, scores = reference_tail(
        list(pipeline.reports), set(pipeline.flow_keys.values()),
        pipeline.pfc_xoff_bytes, graph.windows, critical_flow_keys,
        exec_times, expect_times)
    return dataclasses.replace(
        snapshot, bottleneck_steps=bottlenecks, result=result,
        collective_scores=scores)


def checked(pipeline: LivePipeline, log: list) -> LivePipeline:
    """Compare every snapshot ``pipeline`` emits with the reference."""
    def compare(snapshot) -> None:
        expected = reference_snapshot(pipeline, snapshot)
        assert everything(snapshot) == everything(expected)
        log.append(everything(snapshot))

    pipeline.on_snapshot.append(compare)
    return pipeline


# ----------------------------------------------------------------------
# the streams
# ----------------------------------------------------------------------
def record_trace(scenario: str, directory) -> str:
    """Case 0 of ``scenario`` at scale 0.002, case seed 7, as a trace."""
    config = ScenarioConfig(scale=0.002, base_seed=7)
    case = make_cases(scenario, 1, config)[0]
    system = make_system("vedrfolnir")
    network, runtime = case.build_network()
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    assert runtime.completed
    path = directory / f"{scenario}.jsonl"
    recorder.write(path)
    return path


@pytest.fixture(scope="module", params=SCENARIOS)
def trace_path(request, tmp_path_factory):
    return record_trace(request.param, tmp_path_factory.mktemp("kernel"))


def drive(pipeline: LivePipeline, events) -> LivePipeline:
    for event in events:
        pipeline.publish(event)
    return pipeline


def rolling(header, log: list) -> LivePipeline:
    return checked(LivePipeline.from_header(
        header, PipelineConfig(snapshot_every=9)), log)


def test_every_rolling_snapshot_equals_from_scratch(trace_path):
    log: list = []
    pipeline = drive(rolling(read_header(trace_path), log),
                     trace_events(trace_path))
    pipeline.finish()
    assert len(log) == len(pipeline.snapshots) > 3
    # not vacuous: the anomaly shows before the stream ends
    assert any(s.result.findings for s in pipeline.snapshots[:-1])


def test_kept_snapshots_render_as_they_were_emitted(trace_path):
    """Consecutive snapshots share every finding no report moved, so
    nothing may change a finding once ``diagnose`` handed it out: every
    snapshot a replay kept renders, at the end, byte for byte as it did
    when it was emitted."""
    pipeline = LivePipeline.from_header(
        read_header(trace_path), PipelineConfig(snapshot_every=5))
    emitted: list = []
    pipeline.on_snapshot.append(
        lambda snapshot: emitted.append(everything(snapshot)))
    drive(pipeline, trace_events(trace_path)).finish()
    assert [everything(snapshot)
            for snapshot in pipeline.snapshots] == emitted
    findings = [finding for snapshot in pipeline.snapshots
                for finding in snapshot.result.findings]
    # not vacuous: findings were handed out again, not rebuilt
    assert len({id(finding) for finding in findings}) < len(findings)


def test_duplicated_stream(trace_path):
    log: list = []
    pipeline = drive(rolling(read_header(trace_path), log),
                     _duplicated(trace_events(trace_path), 3))
    final = pipeline.finish()
    assert final.counters["duplicates"] > 0
    assert len(log) == len(pipeline.snapshots)


def test_reordered_stream_discards_late_events(trace_path):
    events = list(_reordered(trace_events(trace_path), 6,
                             random.Random(11)))
    log: list = []
    pipeline = drive(rolling(read_header(trace_path), log), events)
    final = pipeline.finish()
    assert final.counters["late_discarded"] > 0
    assert len(log) == len(pipeline.snapshots) > 3


def test_checkpoint_round_trip_mid_stream(trace_path, tmp_path):
    """A resume replays the checkpointed prefix into a fresh pipeline:
    every snapshot it emits afterwards is the uninterrupted run's."""
    header = read_header(trace_path)
    events = list(trace_events(trace_path))
    whole: list = []
    drive(rolling(header, whole), events).finish()

    cut = len(events) // 2
    resumed: list = []
    manager = CheckpointManager(tmp_path)

    def resume() -> tuple:
        # configured like ``rolling``
        return resume_or_create(
            header, manager, lambda _p: events,
            config=PipelineConfig(snapshot_every=9))

    first, _ = resume()
    checked(first.pipeline, resumed)
    first.step(cut)
    state = manager.load(first.checkpoint())
    assert "kernel" not in state        # derived, never checkpointed
    second, was_resumed = resume()
    assert was_resumed and second.published == cut
    checked(second.pipeline, resumed)
    second.run()
    assert resumed == whole


def test_flow_keys_learnt_mid_stream(trace_path):
    """A live deployment fills ``flow_keys`` in as it goes; the kernel
    is told the current collective flows at every snapshot."""
    header = read_header(trace_path)
    events = list(trace_events(trace_path))
    log: list = []
    pipeline = rolling(header, log)
    known = dict(pipeline.flow_keys)
    pipeline.flow_keys.clear()
    cut = len(events) // 2
    drive(pipeline, events[:cut])
    pipeline.flow_keys.update(known)
    drive(pipeline, events[cut:]).finish()
    assert len(log) == len(pipeline.snapshots) > 3


def test_windows_that_widen_either_way_and_critical_flows_that_move(
        trace_path):
    """The kernel alone, under harsher motion than a replay produces:
    windows appear, extend and widen *backwards* (a late record's
    ``start_time``), critical flows change under an unchanged slice,
    Eq. 3 weights come and go, and derived state is dropped between
    snapshots."""
    trace = load_trace(trace_path)
    cf_keys = TraceRuntime(trace).collective_flow_keys
    reports = sorted(trace.reports, key=lambda r: r.time)
    first, last = reports[0].time, reports[-1].time
    stride = (last - first) / 6 or 1.0
    seen = sorted({flow for report in reports for entry in report.ports
                   for flow in entry.flow_pkts if flow in cf_keys},
                  key=lambda f: f.short())
    rng = random.Random(3)
    kernel = DiagnosisKernel(trace.pfc_xoff_bytes, cf_keys)
    windows: dict = {}
    fed = 0
    for turn in range(24):
        more = rng.randint(0, max(1, len(reports) // 10))
        for report in reports[fed:fed + more]:
            kernel.add_report(report)
        fed = min(len(reports), fed + more)
        for idx in range(5):
            roll = rng.random()
            if idx not in windows:
                if roll < 0.4:
                    start = rng.uniform(first, last)
                    windows[idx] = [start,
                                    start + rng.uniform(0, stride)]
            elif roll < 0.3:
                windows[idx][1] += rng.uniform(0, stride)
            elif roll < 0.5:
                windows[idx][0] -= rng.uniform(0, stride)
        critical = {idx: rng.choice(seen) for idx in windows
                    if seen and rng.random() < 0.9}
        exec_times = {idx: rng.uniform(0.5, 3.0) for idx in windows}
        # two steps hold still while their Eq. 3 weight comes and goes:
        # 5 settles with none and then gains it; 6 has it, loses it
        # while its slice still grows, and regains it once it settled
        steps = {**windows, 5: (first + stride, first + 2 * stride),
                 6: (first, first + 3 * stride)}
        if seen:
            critical.update({5: seen[0], 6: seen[-1]})
        exec_times.update({5: 2.0 if turn >= 12 else 1.0,
                           6: 2.0 if turn < 3 or turn >= 16 else 0.5})
        expect_times = {idx: 1.0 for idx in steps}
        if rng.random() < 0.1:
            kernel.drop_derived()
        breakdown = kernel.snapshot(
            cf_keys, steps,
            StepTiming(exec_times, expect_times, critical, []))
        overall, result, _graphs, scores = reference_tail(
            reports[:fed], cf_keys, trace.pfc_xoff_bytes, steps,
            critical, exec_times, expect_times)
        assert breakdown.provenance == overall
        assert breakdown.result == result
        assert list(breakdown.collective_scores.items()) \
            == list(scores.items())


# ----------------------------------------------------------------------
# batch: the same kernel, fed everything, asked once
# ----------------------------------------------------------------------
def reference_analysis(trace, reports):
    runtime = TraceRuntime(trace)
    waiting = ReferenceWaitingGraph(trace.schedule, trace.step_records)
    exec_times = waiting.step_execution_times()
    expect_times, critical_flow_keys = {}, {}
    for idx, node in waiting.critical_flows_by_step().items():
        expect_times[idx] = runtime.expected_step_time_ns(
            trace.schedule.step(node, idx))
        if (node, idx) in runtime.flow_keys:
            critical_flow_keys[idx] = runtime.flow_keys[(node, idx)]
    overall, result, step_graphs, scores = reference_tail(
        reports, runtime.collective_flow_keys, trace.pfc_xoff_bytes,
        waiting.windows, critical_flow_keys, exec_times, expect_times)
    # the graphs of the steps Eq. 3 weighs: the only ones batch builds
    rated = {idx: graph for idx, graph in step_graphs.items()
             if idx in critical_flow_keys
             and exec_times.get(idx, 0.0) > expect_times.get(idx, 0.0)}
    return overall, result, rated, scores


def assert_same_analysis(diagnosis, reference) -> None:
    overall, result, step_graphs, scores = reference
    assert diagnosis.result == result
    assert isinstance(diagnosis.result, DiagnosisResult)
    assert list(diagnosis.collective_scores.items()) == list(scores.items())
    assert list(diagnosis.step_provenance) == list(step_graphs)
    for idx, graph in step_graphs.items():
        assert diagnosis.step_provenance[idx] == graph
    assert diagnosis.provenance == overall


def test_analyze_trace_unchanged_field_by_field(trace_path):
    trace = load_trace(trace_path)
    assert_same_analysis(analyze_trace(trace),
                         reference_analysis(trace, trace.reports))


def test_reports_out_of_time_order_fall_back_to_full_rebuild(trace_path):
    trace = load_trace(trace_path)
    shuffled = list(trace.reports)
    random.Random(5).shuffle(shuffled)
    analyzer = VedrfolnirAnalyzer(pfc_xoff_bytes=trace.pfc_xoff_bytes)
    for record in trace.step_records:
        analyzer.add_step_record(record)
    for report in shuffled:
        analyzer.add_report(report)
    assert_same_analysis(analyzer.analyze(TraceRuntime(trace)),
                         reference_analysis(trace, shuffled))


# ----------------------------------------------------------------------
# §III-B: what a diagnosis reads off the waiting graph survives the prune
# ----------------------------------------------------------------------
def test_waiting_graph_answers_survive_the_prune(trace_path):
    trace = load_trace(trace_path)
    graphs = [WaitingGraph(trace.schedule, prune_interval=every)
              for every in (0, 1, 4, 16)]
    unpruned, pruned = graphs[0], graphs[1:]
    for record in trace.step_records:
        for graph in graphs:
            graph.submit(record)
        for graph in pruned:
            assert_answers_equal(graph, unpruned)
    for graph in pruned:        # a ring only lets go near its end
        graph.prune()
    assert all(graph.pruned_total > 0 for graph in pruned)
    assert unpruned.pruned_total == 0
    reference = ReferenceWaitingGraph(trace.schedule, trace.step_records)
    for graph in graphs:
        assert_answers_equal(graph, reference)
        assert list(graph.critical_flows_by_step().items()) \
            == list(reference.critical_flows_by_step().items())


# ----------------------------------------------------------------------
# a report is digested once: PreparedReport + merge against the walk
# of the report it replaced
# ----------------------------------------------------------------------
def reference_build(reports, cf_keys, xoff):
    """``build_provenance`` as it was written when every graph walked
    every report itself: one pass over ``wait_weights`` / ``flow_pkts``
    / ``inqueue_flow_pkts`` per report, flat meters, then the two
    whole-collection derivations; flows listed in an order no hash seed
    moves (telemetry order, host groups sorted)."""
    from repro.core.provenance import ProvenanceGraph
    from repro.simnet.pfc import PortRef

    graph = ProvenanceGraph(collective_flows=set(cf_keys))
    meters, seen_pauses, window_flows = {}, set(), {}
    for report in reports:
        switch = report.switch_id
        for entry in report.ports:
            port = PortRef(switch, entry.port)
            graph.ports.add(port)
            graph.qdepth[port] = max(graph.qdepth.get(port, 0),
                                     entry.qdepth_pkts)
            if entry.paused:
                graph.paused_ports.add(port)
            waits = {}
            for (fi, fj), weight in entry.wait_weights.items():
                key = (port, fi, fj)
                graph.pairwise[key] = max(graph.pairwise.get(key, 0.0),
                                          weight)
                graph.flows.update((fi, fj))
                waits.setdefault(fi, []).append(weight)
            total = entry.total_window_pkts()
            for flow, count in entry.flow_pkts.items():
                graph.flows.add(flow)
                if total > 0 and entry.qdepth_pkts > 0:
                    key = (port, flow)
                    graph.port_flow[key] = max(
                        graph.port_flow.get(key, 0.0),
                        count / total * entry.qdepth_pkts)
            window_flows.setdefault(port, {}).update(
                dict.fromkeys(entry.flow_pkts))
            waiting = dict.fromkeys(entry.inqueue_flow_pkts)
            waiting.update(dict.fromkeys(waits))
            if entry.paused:
                waiting.update(dict.fromkeys(entry.flow_pkts))
            for flow in waiting:
                graph.flows.add(flow)
                key = (flow, port)
                graph.flow_port[key] = max(graph.flow_port.get(key, 0.0),
                                           sum(waits.get(flow, ())))
        for (inp, out), value in report.port_meters.items():
            key = (switch, inp, out)
            meters[key] = max(meters.get(key, 0.0), value)
        for pause in report.pause_received + report.pause_sent:
            dedup = (pause.time, pause.sender, pause.victim)
            if dedup in seen_pauses:
                continue
            seen_pauses.add(dedup)
            graph.pause_events.append(pause)
            if pause.buffer_bytes_at_send < xoff:
                graph.ungrounded_pause_sources.add(pause.sender)
        for flow in report.ttl_drops:
            graph.ttl_drop_flows.add(flow)
            graph.flows.add(flow)
    graph.pause_events.sort(key=lambda e: e.time)
    by_source = {}
    for flow in sorted(graph.flows | graph.collective_flows):
        by_source.setdefault(flow.src, []).append(flow)
    for victim in dict.fromkeys(e.victim for e in graph.pause_events):
        graph.ports.add(victim)
        blocked = dict.fromkeys(window_flows.get(victim, ()))
        blocked.update(dict.fromkeys(by_source.get(victim.node, ())))
        for flow in blocked:
            graph.flows.add(flow)
            graph.flow_port.setdefault((flow, victim), 0.0)
    for upstream, sender in dict.fromkeys(
            (e.victim, e.sender) for e in graph.pause_events):
        graph.ports.add(upstream)
        for (switch, inp, out), value in meters.items():
            if (switch, inp) != (sender.node, sender.port) or value <= 0:
                continue
            denominator = sum(v for (s, _i, o), v in meters.items()
                              if (s, o) == (switch, out))
            if denominator <= 0:
                continue
            downstream = PortRef(switch, out)
            key = (upstream, downstream)
            graph.port_port[key] = max(graph.port_port.get(key, 0.0),
                                       value / denominator)
            graph.ports.add(downstream)
    return graph


def assert_same_graph(graph, reference) -> None:
    assert graph == reference
    # insertion order is summation order: pin it edge dict by edge dict
    for name in ("flow_port", "port_flow", "port_port", "pairwise",
                 "qdepth"):
        assert list(getattr(graph, name).items()) \
            == list(getattr(reference, name).items()), name
    assert graph.pause_events == reference.pause_events
    for flow in reference.flows | reference.collective_flows:
        assert graph.ports_of_flow(flow) \
            == [p for f, p in reference.flow_port if f == flow]
    for port in reference.ports:
        assert graph.waiting_flows_at_port(port) \
            == [f for f, p in reference.flow_port if p == port]
        assert graph.flows_at_port(port) \
            == [f for p, f in reference.port_flow if p == port]
        assert graph.downstream_ports(port) \
            == [d for u, d in reference.port_port if u == port]
        assert graph.adjacency().pause_senders.get(port, []) \
            == [e.sender for e in reference.pause_events
                if e.victim == port]


def report_streams(trace):
    reports = list(trace.reports)
    yield "clean", reports
    yield "duplicated", [r for r in reports for _ in range(3)]
    rng = random.Random(17)
    shuffled = reports[:]
    rng.shuffle(shuffled)
    yield "reordered", shuffled
    yield "duplicated and reordered", \
        rng.sample(reports * 2, 2 * len(reports))


def test_prepared_merge_equals_walking_the_report(trace_path):
    from repro.core.provenance import (PreparedReport,
                                       ProvenanceAccumulator)

    trace = load_trace(trace_path)
    cf_keys = TraceRuntime(trace).collective_flow_keys
    xoff = trace.pfc_xoff_bytes
    for label, reports in report_streams(trace):
        reference = reference_build(reports, cf_keys, xoff)
        assert_same_graph(build_provenance(reports, cf_keys, xoff),
                          reference)
        # one prepared form, merged into two accumulators (as the
        # overall graph and a step graph share it), snapshotted at
        # every report of the first and once at the end of the second
        refs: dict = {}
        prepared = [PreparedReport(r, refs) for r in reports]
        rolling = ProvenanceAccumulator(cf_keys, xoff)
        late = ProvenanceAccumulator(cf_keys, xoff)
        every = max(1, len(prepared) // 7)
        for count, item in enumerate(prepared, 1):
            rolling.merge(item)
            if count % every == 0:
                assert_same_graph(
                    rolling.snapshot(),
                    reference_build(reports[:count], cf_keys, xoff))
        for item in prepared:
            late.merge(item)
        assert_same_graph(rolling.snapshot(), reference), label
        assert_same_graph(late.snapshot(), reference), label
        # the detectors' kept rows and evidence never outlive a report
        # that moves them: diagnose every rolling snapshot both ways
        kept = ProvenanceAccumulator(cf_keys, xoff)
        for count, item in enumerate(prepared, 1):
            kept.merge(item)
            if count % every == 0 or count == len(prepared):
                assert diagnose(kept.snapshot()) == diagnose(
                    reference_build(reports[:count], cf_keys, xoff))

