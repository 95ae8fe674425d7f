"""Online streaming diagnosis service.

In deployment the analyzer is not a post-mortem script: §III-D1 has it
"queue the collected data entries in order of their completion time and
construct the waiting graph sequentially".  This package is that
service layer — a bounded event bus with explicit backpressure
(:mod:`repro.live.bus`), completion-time watermarking for out-of-order
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
        pipeline.publish(event)
    snapshot = pipeline.finish()        # == batch analyze_trace result
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.live.bus import (
    BusOverflow,
    BusPolicy,
    EventBus,
    TelemetryEvent,
)
from repro.live.checkpoint import (
    CheckpointCorrupt,
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
    resume_or_create,
)
from repro.live.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.live.pipeline import (
    DiagnosisSnapshot,
    LivePipeline,
    PipelineConfig,
)
from repro.live.robustness import DegradationTracker, Quarantine
from repro.live.watermark import WatermarkBuffer

if TYPE_CHECKING:   # a pipeline does not need it: loaded on first use
    from repro.live.supervisor import (
        CrashLoopError,
        GracefulShutdown,
        RestartPolicy,
        Supervisor,
    )

__getattr__ = lazy_exports(__name__, {
    "supervisor": ("CrashLoopError", "GracefulShutdown",
                   "RestartPolicy", "Supervisor"),
})

__all__ = [
    "BusOverflow",
    "BusPolicy",
    "EventBus",
    "TelemetryEvent",
    "WatermarkBuffer",
    "LivePipeline",
    "PipelineConfig",
    "DiagnosisSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "Quarantine",
    "DegradationTracker",
    "CheckpointCorrupt",
    "CheckpointManager",
    "CheckpointPolicy",
    "TraceReplayer",
    "resume_or_create",
    "Supervisor",
    "RestartPolicy",
    "CrashLoopError",
    "GracefulShutdown",
]
