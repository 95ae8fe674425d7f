"""Trace capture and offline analysis.

In deployment, Vedrfolnir's analyzer is decoupled from the hosts and
switches that produce monitoring data.  This package provides that
decoupling for the reproduction: a :class:`TraceRecorder` captures
everything a live run reports (the decomposition, per-step records,
switch telemetry reports, expected step times, PFC thresholds) into a
JSONL file, and :func:`analyze_trace` replays the full §III-D analysis
over the file later — no simulator required.

    recorder = TraceRecorder.attach(network, runtime)
    runtime.start(); network.run_until_quiet(...)
    recorder.write("run.jsonl", runtime)

    trace = load_trace("run.jsonl")
    diagnosis = analyze_trace(trace)

Two on-disk formats share one schema: the JSONL capture (greppable,
appendable, the recorder's ground truth) and the columnar store
(:mod:`repro.traces.columnar` — mmap replay, zero-copy queries, the
hot-path format).  ``repro trace convert`` moves between them
losslessly, and there is one reader for both: :func:`open_trace` sniffs
the file and returns a :class:`ColumnarTrace` (a JSONL is decoded into
columns once, at this edge).  :func:`read_header`, :func:`trace_events`
and :func:`load_trace` are thin calls over it::

    write_columnar("run.jsonl", "run.vcol")
    for event in trace_events("run.vcol"):
        pipeline.publish(event)     # a LivePipeline pumps itself
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "columnar": ("ColumnarTrace", "content_address", "jsonl_digest",
                 "open_trace", "read_header", "sniff_format",
                 "trace_events", "write_columnar", "write_jsonl"),
    "store": ("TraceRecorder", "TraceRuntime", "analyze_trace",
              "load_trace"),
    "stream": ("TraceEvent", "TraceTruncated"),
})
