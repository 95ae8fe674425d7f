"""Online streaming diagnosis service.

In deployment the analyzer is not a post-mortem script: §III-D1 has it
"queue the collected data entries in order of their completion time and
construct the waiting graph sequentially".  This package is that
service layer — an event bus the pipeline pumps itself, one batch at
a time (:mod:`repro.live.bus`), completion-time watermarking for out-of-order
and late telemetry (:mod:`repro.live.watermark`), the diagnosis
pipeline that wires both into the batch analyzer's own
:class:`~repro.core.waiting_graph.WaitingGraph` and §III-D kernel
(:mod:`repro.live.pipeline`), self-observability for the pipeline
itself (:mod:`repro.live.metrics`), and malformed-input quarantine plus
telemetry-loss degradation (:mod:`repro.live.robustness`).

Durability: the service is crash-safe.  :mod:`repro.live.checkpoint`
persists atomic, versioned documents of a stream cursor (the events
published, the same against either trace format) and five counters,
and resumes by replaying the stream up to the cursor;
:mod:`repro.live.supervisor` restarts a
crashed serve loop with capped backoff and drains gracefully on
SIGTERM; :mod:`repro.chaos` is the seeded kill/corrupt/resume harness
proving the recovery contract (resumed final snapshot bit-equal to an
uninterrupted run).

    header = read_header("run.jsonl")
    pipeline = LivePipeline.from_header(header)
    for event in trace_events("run.jsonl"):
        pipeline.publish(event)     # pumps every PUMP_BATCH events
    snapshot = pipeline.finish()        # == batch analyze_trace result
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("CheckpointManager", "CheckpointPolicy",
                   "resume_or_create"),
    "metrics": ("Histogram",),
    "pipeline": ("LivePipeline", "PipelineConfig"),
})
