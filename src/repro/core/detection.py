"""Step-aware adaptive anomaly detection (§III-C2, Figs. 5-8).

Per host, a :class:`DetectionAgent`:

* recomputes the RTT threshold from topology before each step starts
  (vs. Hawkeye's fixed threshold) — unless a fixed threshold is forced
  for the ablation of Fig. 13a;
* enforces a per-step detection budget and a minimum trigger spacing
  derived from the step's estimated FCT, so triggers are evenly
  distributed over the step (Fig. 5) — unless unrestricted triggering is
  forced for the ablation of Fig. 13b;
* on step completion, sends a notification packet (Fig. 6) transferring
  its unused detection opportunities to the monitor of the flow that was
  waiting on it (Fig. 7), so the slowest flow of each step accumulates
  the most opportunities;
* detects fully-stalled flows (no ACK progress) with a stall timer —
  the simple fix §V proposes for pause-type anomalies that stop all
  traffic (PFC deadlock/storm) and hence produce no RTT samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.units import Nanoseconds
from repro.collective.primitives import SendStep
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.simnet.packet import Packet
from repro.simnet.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.flow import RdmaFlow
    from repro.simnet.network import Network

#: hard floor between consecutive triggers even when unrestricted
MIN_TRIGGER_GAP_NS: Nanoseconds = us(10)
#: a flow with no ACK for this many thresholds counts as stalled
STALL_FACTOR = 5.0


@dataclass(slots=True)
class DetectionConfig:
    """Detection parameters (the knobs swept in Figs. 12-13)."""

    #: RTT threshold = factor x per-step base RTT (1.2 = the paper's 120%)
    rtt_threshold_factor: float = 1.2
    #: detections allowed per step per flow (Fig. 12 sweeps 1/3/5)
    detections_per_step: int = 3
    #: fixed absolute threshold overriding the per-step computation
    #: (Fig. 13a ablation); None = step-aware thresholds
    fixed_rtt_threshold_ns: Optional[Nanoseconds] = None
    #: transfer leftover opportunities via notification packets (Fig. 7)
    adaptive_transfer: bool = True
    #: enforce the even-spacing trigger interval (Fig. 5); False =
    #: unrestricted triggering (Fig. 13b ablation / Hawkeye-like)
    restrict_trigger_interval: bool = True


@dataclass
class TriggerEvent:
    """One anomaly-detection trigger (for tests and overhead analysis)."""

    time: Nanoseconds
    node: str
    step_index: int
    rtt_ns: Nanoseconds
    threshold_ns: Nanoseconds
    poll_id: str
    stall: bool = False


class DetectionAgent:
    """Per-host detection agent (Fig. 8's algorithmic flow)."""

    def __init__(self, network: "Network", node: str,
                 runtime: CollectiveRuntime,
                 config: Optional[DetectionConfig] = None) -> None:
        self.network = network
        self.node = node
        self.runtime = runtime
        self.config = config or DetectionConfig()
        self.budget = 0
        self.carried_in = 0          # opportunities received via NOTIFY
        self.threshold_ns: Optional[float] = None
        self.trigger_interval_ns: Optional[float] = None
        self.last_trigger_time = -1e18
        self.last_ack_time = -1e18
        self.triggers: list[TriggerEvent] = []
        self._active_step: Optional[SendStep] = None
        self._active_flow: Optional["RdmaFlow"] = None
        self._stall_event = None
        self._wire()

    def _wire(self) -> None:
        self.runtime.step_start_listeners.append(self._on_step_start)
        self.runtime.step_end_listeners.append(self._on_step_end)
        self.network.hosts[self.node].notify_handlers.append(self._on_notify)

    # ------------------------------------------------------------------
    # step lifecycle
    # ------------------------------------------------------------------
    def _on_step_start(self, step: SendStep, flow: "RdmaFlow",
                       waiting_source: Optional[str], now: float) -> None:
        if step.node != self.node:
            return
        cfg = self.config
        self._active_step = step
        self._active_flow = flow
        self.budget = cfg.detections_per_step + self.carried_in
        self.carried_in = 0
        self.threshold_ns = self._compute_threshold(step)
        estimated_fct = self.runtime.expected_step_time_ns(step)
        if cfg.restrict_trigger_interval and cfg.detections_per_step > 0:
            self.trigger_interval_ns = estimated_fct / \
                cfg.detections_per_step
        else:
            self.trigger_interval_ns = MIN_TRIGGER_GAP_NS
        self.last_ack_time = now
        flow.rtt_observers.append(self._on_rtt_sample)
        self._arm_stall_timer()

    def _compute_threshold(self, step: SendStep) -> float:
        cfg = self.config
        if cfg.fixed_rtt_threshold_ns is not None:
            return cfg.fixed_rtt_threshold_ns
        key = self.runtime.flow_keys[(step.node, step.step_index)]
        base = self.network.routing.base_rtt_ns(step.node, step.peer,
                                                flow=key)
        return cfg.rtt_threshold_factor * base

    def _on_step_end(self, record: StepRecord) -> None:
        if record.node != self.node:
            return
        if self._active_step is not None \
                and self._active_step.step_index == record.step_index:
            remaining = self.budget
            self._active_step = None
            self._active_flow = None
            self._disarm_stall_timer()
            if self.config.adaptive_transfer and remaining > 0:
                self._transfer_opportunities(record, remaining)

    def _transfer_opportunities(self, record: StepRecord,
                                remaining: int) -> None:
        """Fig. 7: hand unused opportunities to the waiting monitor."""
        step = self.runtime.schedule.step(record.node, record.step_index)
        target = step.peer
        if target == self.node:
            return
        self.network.send_notify(self.node, target, {
            "kind": "detection_opportunities",
            "count": remaining,
            "from_step": record.step_index,
        })

    def _on_notify(self, packet: Packet) -> None:
        payload = packet.payload
        if payload.get("kind") != "detection_opportunities":
            return
        count = int(payload.get("count", 0))
        if self._active_step is not None:
            self.budget += count
        else:
            self.carried_in += count

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def _on_rtt_sample(self, flow: "RdmaFlow", rtt_ns: float, seq: int,
                       now: float) -> None:
        self.last_ack_time = now
        if self._active_flow is not flow or self.threshold_ns is None:
            return
        if rtt_ns <= self.threshold_ns:
            return
        self._maybe_trigger(rtt_ns, now, stall=False)

    def _maybe_trigger(self, rtt_ns: float, now: float, stall: bool) -> None:
        if self.budget <= 0:
            return
        gap = now - self.last_trigger_time
        if gap < MIN_TRIGGER_GAP_NS:
            return
        if self.config.restrict_trigger_interval \
                and self.trigger_interval_ns is not None \
                and gap < self.trigger_interval_ns:
            return
        step = self._active_step
        if step is None:
            return
        key = self.runtime.flow_keys[(step.node, step.step_index)]
        poll_id = self.network.poll_flow(key)
        self.budget -= 1
        self.last_trigger_time = now
        self.triggers.append(TriggerEvent(
            time=now, node=self.node, step_index=step.step_index,
            rtt_ns=rtt_ns, threshold_ns=self.threshold_ns or 0.0,
            poll_id=poll_id, stall=stall))

    # ------------------------------------------------------------------
    # stall detection (§V extensibility)
    # ------------------------------------------------------------------
    def _stall_timeout_ns(self) -> float:
        threshold = self.threshold_ns or us(100)
        return STALL_FACTOR * threshold

    def _arm_stall_timer(self) -> None:
        self._disarm_stall_timer()
        self._stall_event = self.network.sim.schedule(
            self._stall_timeout_ns(), self._check_stall)

    def _disarm_stall_timer(self) -> None:
        if self._stall_event is not None:
            self._stall_event.cancel()
            self._stall_event = None

    def _check_stall(self) -> None:
        self._stall_event = None
        if self._active_flow is None:
            return
        now = self.network.sim.now
        idle = now - self.last_ack_time
        if idle >= self._stall_timeout_ns():
            self._maybe_trigger(idle, now, stall=True)
        self._arm_stall_timer()
