"""Workload ``trace_corpus``: the forensic / batch use of recorded traces.

Every round rewrites each corpus trace into fresh time-shifted
variants (distinct files, so no content cache can help) and takes each
variant through three separately timed phases:

* ``ingest`` — ``write_columnar`` plus the ``write_jsonl`` round trip
  with its ``jsonl_digest`` check;
* ``scan`` — ``read_header`` + a full ``trace_events`` iteration over
  the ``.vcol`` + one ``ColumnarTrace.time_range`` query;
* ``diagnose`` — ``load_trace(.vcol)`` + ``analyze_trace``.

``traces`` is written in one phase and read in another, so a read-path
gain that costs the write path shows, and ``core`` runs in its
one-shot batch form.  It bypasses ``simnet`` (set-up only), ``live``
and ``fleet``.

An operation is one variant.  It fails when a phase raises, the
round-trip digest or the event count differs, or the variant's verdict
differs from its base trace's.
"""

from __future__ import annotations

import random
from pathlib import Path

from benchmarks.e2e import config, corpus, harness
from benchmarks.e2e.harness import Context, Outcome, Round, clock

SPANS = ("traces.convert", "traces.roundtrip", "traces.read_header",
         "traces.stream_vcol", "traces.time_range", "traces.load_vcol",
         "core.analyze")
#: capture on disk -> verdict: what a forensic user waits for
VERDICT_PATH = ("traces.convert", "traces.load_vcol", "core.analyze")
#: traced runs only, once per base trace after the rounds
EXTRA_SPANS = ("traces.stream_jsonl", "traces.load_jsonl",
               "core.waiting_graph", "core.provenance", "core.diagnose",
               "core.rating", "core.analyze_base")


def run(ctx: Context,
        load: config.CorpusLoad = config.CORPUS) -> Outcome:
    from repro.traces import analyze_trace, load_trace

    null = harness.NullTracer()
    bases = corpus.build_corpus(load.bases, ctx.workdir / "corpus", null)
    reference = {}
    for base in bases:
        # the reader-side verdict of the untouched capture; also warms
        # the trace and analysis code paths before the clock starts
        reference[base.spec.label] = corpus.verdict_signature(
            analyze_trace(load_trace(base.path)))
    rng = random.Random(ctx.seed)
    variants = ctx.workdir / "variants"
    variants.mkdir()

    def one_round(index: int, tracer) -> Round:
        result = Round()
        order = [(base, v) for base in bases
                 for v in range(load.variants_per_base)]
        rng.shuffle(order)
        for base, v in order:
            stem = variants / f"r{index}-{base.spec.label}-{v}"
            source = stem.with_suffix(".jsonl")
            records = corpus.rewrite_trace(
                base.path, source, rng.randint(1, config.MAX_SHIFT_NS))
            result.attempted += 1
            start = clock()
            try:
                seconds, problem = one_variant(
                    source, records, reference[base.spec.label],
                    tracer, result)
            except Exception as error:  # noqa: BLE001 - counted, reported
                problem = repr(error)
            else:
                result.wall_s += clock() - start
                label = base.spec.label
                result.verdict_s.append(
                    (label, [seconds[name] for name in VERDICT_PATH]))
                result.served.append(
                    (label, 1, [seconds[name] for name in SPANS]))
            if problem:
                result.failures.append(f"{stem.name}: {problem}")
            for leftover in variants.glob(f"{stem.name}*"):
                leftover.unlink()
        return result

    setup_done = clock()
    rounds = harness.run_rounds(one_round, ctx.seconds, ctx.tracer)

    def layer_metrics() -> dict:
        extra: dict = {}
        for base in bases:
            slow_paths(base.path, ctx.tracer, extra)
        return per_layer(rounds, extra)

    return harness.finish(
        ctx, setup_done, rounds,
        {"corpus_digest": corpus.corpus_digest(b.path for b in bases)},
        layer_metrics)


def one_variant(source: Path, records: int, reference: tuple, tracer,
                result: Round) -> tuple[dict, str]:
    """ingest -> scan -> diagnose on one variant.  Returns the seconds
    of each step by span name, and what went wrong, if anything."""
    from repro.traces import (ColumnarTrace, analyze_trace, jsonl_digest,
                              load_trace, read_header, trace_events,
                              write_columnar, write_jsonl)

    op = source.stem
    vcol = source.with_suffix(".vcol")
    back = source.with_suffix(".back.jsonl")
    seconds: dict = {}

    def timed(name: str, layer: str):
        return harness.timed(tracer, name, layer, op, seconds)

    problems = []
    with timed("traces.convert", "traces"):
        write_columnar(source, vcol)
    with timed("traces.roundtrip", "traces"):
        write_jsonl(vcol, back)
        same = jsonl_digest(back) == jsonl_digest(source)
    if not same:
        problems.append("round-trip digest differs")

    with timed("traces.read_header", "traces"):
        read_header(vcol)
    with timed("traces.stream_vcol", "traces"):
        first = last = None
        streamed = 0
        for event in trace_events(vcol):
            if event.kind == "switch_report":
                first = event.time if first is None else first
                last = event.time
            streamed += 1
    if streamed != records:
        problems.append(f"streamed {streamed} of {records} events")
    with timed("traces.time_range", "traces"):
        with ColumnarTrace(vcol) as columnar:
            reports = columnar.counts["switch_report"]
            hits = len(columnar.time_range(
                "switch_report", first or 0.0, last or 0.0))
    if hits != reports:
        problems.append(f"time_range found {hits} of {reports}")

    with timed("traces.load_vcol", "traces"):
        trace = load_trace(vcol)
    with timed("core.analyze", "core"):
        diagnosis = analyze_trace(trace)
    if corpus.verdict_signature(diagnosis) != reference:
        problems.append("verdict differs from the base trace's")

    for name, value in seconds.items():
        result.seconds[name] = result.seconds.get(name, 0.0) + value
    result.extra["records"] = result.extra.get("records", 0) + records
    result.extra["jsonl_bytes"] = result.extra.get("jsonl_bytes", 0) \
        + source.stat().st_size
    result.extra["vcol_bytes"] = result.extra.get("vcol_bytes", 0) \
        + vcol.stat().st_size
    return seconds, "; ".join(problems)


def slow_paths(path: Path, tracer, seconds: dict) -> None:
    """Traced runs only: the JSONL read paths (the slow format kept
    honest) and ``analyze_trace`` taken apart by calling the public
    kernel functions directly on the loaded trace."""
    from repro.core.diagnosis import diagnose
    from repro.core.provenance import build_provenance
    from repro.core.rating import contribution_to_collective
    from repro.core.waiting_graph import WaitingGraph
    from repro.traces import (TraceRuntime, analyze_trace, load_trace,
                              trace_events)

    op = path.stem

    def timed(name: str, layer: str):
        return harness.timed(tracer, name, layer, op, seconds)

    with timed("traces.stream_jsonl", "traces"):
        for _ in trace_events(path):
            pass
    with timed("traces.load_jsonl", "traces"):
        trace = load_trace(path)
    with timed("core.analyze_base", "core"):
        diagnosis = analyze_trace(trace)
    runtime = TraceRuntime(trace)
    with timed("core.waiting_graph", "core"):
        waiting = WaitingGraph(trace.schedule, trace.step_records,
                               mode="binding")
        waiting.critical_path()
    with timed("core.provenance", "core"):
        overall = build_provenance(trace.reports,
                                   runtime.collective_flow_keys,
                                   trace.pfc_xoff_bytes)
    with timed("core.diagnose", "core"):
        diagnose(overall)
    exec_times = waiting.step_execution_times()
    critical = {
        idx: runtime.flow_keys[(node, idx)]
        for idx, node in waiting.critical_flows_by_step().items()
        if (node, idx) in runtime.flow_keys}
    expect = {
        idx: runtime.expected_step_time_ns(
            trace.schedule.step(node, idx))
        for idx, node in waiting.critical_flows_by_step().items()}
    graphs = diagnosis.step_provenance or {0: overall}
    with timed("core.rating", "core"):
        for flow in sorted(overall.background_flows(),
                           key=lambda f: f.short()):
            contribution_to_collective(flow, graphs, critical,
                                       exec_times, expect)


def per_layer(rounds: list, extra: dict) -> dict:
    """Seconds, bytes and rates per round; the slow paths and the
    kernel break-down per pass over the base traces."""
    traced = [r for r in rounds if r.traced]
    n = len(traced)
    metrics = {f"{name}_s": (harness.traced_seconds(rounds, name), n)
               for name in SPANS}
    last = traced[-1]
    records = last.extra["records"]
    metrics["traces.records"] = (records, 1)
    metrics["traces.vcol_bytes"] = (last.extra["vcol_bytes"], 1)
    metrics["traces.bytes_ratio"] = (
        last.extra["vcol_bytes"] / last.extra["jsonl_bytes"], 1)

    def rate(*names: str) -> tuple:
        return (harness.median(
            [r.extra["records"]
             / sum(r.seconds[name] for name in names)
             for r in traced]), n)

    metrics["traces.ingest_records_per_s"] = rate(
        "traces.convert", "traces.roundtrip")
    metrics["traces.scan_records_per_s"] = rate(
        "traces.read_header", "traces.stream_vcol", "traces.time_range")
    metrics["core.diagnose_records_per_s"] = rate(
        "traces.load_vcol", "core.analyze")
    for name in EXTRA_SPANS:
        metrics[f"{name}_s"] = (extra[name], 1)
    metrics["core.analyze_self_s"] = (
        extra["core.analyze_base"] - extra["core.waiting_graph"]
        - extra["core.provenance"] - extra["core.diagnose"]
        - extra["core.rating"], 1)
    return metrics
