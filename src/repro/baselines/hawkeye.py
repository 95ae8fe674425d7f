"""Hawkeye baseline (Wang et al., SIGCOMM 2025; poster 2024).

Differences from Vedrfolnir that the paper evaluates (§II-C, §IV-A):

* **fixed global RTT threshold** for every flow — the MaxR variant sets
  it to 120% of the *maximum* base RTT among the collective's flows
  (misses small-RTT flows), MinR to 120% of the *minimum* (over-triggers
  on large-RTT flows);
* **per-ACK trigger checks with no budget or interval management** —
  every threshold-crossing ACK may trigger telemetry collection;
* **50 us retention dedup**: to bound processing, only one telemetry
  burst per host is *retained* every 50 us; the discarded bursts were
  still collected (overhead incurred) but are unavailable for diagnosis
  — which is exactly how MinR loses valid data;
* no step awareness, no notification packets, no stall detection
  ("when persistent PFC halts an entire flow, no packets are sent, and
  thus no detection is triggered").

Telemetry collection and provenance/diagnosis machinery are shared with
Vedrfolnir, as in the paper's setup.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.adapter import DiagnosisSystemAdapter, SystemOutput
from repro.collective.primitives import SendStep
from repro.collective.runtime import CollectiveRuntime
from repro.core.diagnosis import diagnose
from repro.core.provenance import build_provenance
from repro.simnet.network import Network
from repro.simnet.telemetry import SwitchReport
from repro.simnet.units import us


#: the fixed threshold is this multiple of the picked base RTT
RTT_THRESHOLD_FACTOR = 1.2
#: analyzer retains one telemetry burst per host per this interval
RETENTION_NS = us(50)
#: hard floor between a host's consecutive triggers (processing limits
#: of the real agent; far below Vedrfolnir's step spacing)
MIN_TRIGGER_GAP_NS = us(10)


class HawkeyeSystem(DiagnosisSystemAdapter):
    """Hawkeye under the harness interface: ``mode`` "max" is
    Hawkeye-MaxR, "min" Hawkeye-MinR."""

    def __init__(self, mode: str) -> None:
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode}")
        super().__init__()
        self.mode = mode
        self.name = f"hawkeye-{mode}r"
        self.threshold_ns: Optional[float] = None
        self.reports: list[SwitchReport] = []
        self.retained_poll_ids: set[str] = set()
        self.discarded_polls = 0
        self.triggers = 0
        self._last_trigger: dict[str, float] = {}
        self._last_retained: dict[str, float] = {}

    # ------------------------------------------------------------------
    def attach(self, network: Network, runtime: CollectiveRuntime) -> None:
        self.network = network
        self.runtime = runtime
        self.threshold_ns = self._fixed_threshold(network, runtime)
        network.set_report_sink(self.reports.append)
        runtime.step_start_listeners.append(self._on_step_start)

    def _fixed_threshold(self, network: Network,
                         runtime: CollectiveRuntime) -> float:
        """120% of the max (MaxR) or min (MinR) base RTT over all the
        collective's step flows — computed once, never re-evaluated."""
        base_rtts = [network.routing.base_rtt_ns(step.node, step.peer)
                     for step in runtime.schedule.all_steps()]
        pick = max(base_rtts) if self.mode == "max" else min(base_rtts)
        return RTT_THRESHOLD_FACTOR * pick

    # ------------------------------------------------------------------
    def _on_step_start(self, step: SendStep, flow, waiting_source,
                       now: float) -> None:
        flow.rtt_observers.append(self._on_rtt_sample)

    def _on_rtt_sample(self, flow, rtt_ns: float, seq: int,
                       now: float) -> None:
        if rtt_ns <= self.threshold_ns:
            return
        host = flow.key.src
        if now - self._last_trigger.get(host, -1e18) \
                < MIN_TRIGGER_GAP_NS:
            return
        self._last_trigger[host] = now
        poll_id = self.network.poll_flow(flow.key)
        self.triggers += 1
        if now - self._last_retained.get(host, -1e18) \
                >= RETENTION_NS:
            self._last_retained[host] = now
            self.retained_poll_ids.add(poll_id)
        else:
            self.discarded_polls += 1

    # ------------------------------------------------------------------
    def finalize(self) -> SystemOutput:
        usable = [r for r in self.reports
                  if r.poll_id in self.retained_poll_ids]
        graph = build_provenance(
            usable, self.runtime.collective_flow_keys,
            self.network.config.pfc_xoff_bytes)
        result = diagnose(graph)
        return SystemOutput(
            result=result,
            triggers=self.triggers,
            reports_used=len(usable),
            reports_collected=len(self.reports),
            extras={
                "threshold_ns": self.threshold_ns,
                "discarded_polls": self.discarded_polls,
            },
        )
