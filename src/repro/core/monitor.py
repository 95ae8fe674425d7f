"""Host-side performance monitoring (§III-C1).

Each host runs a :class:`HostMonitor` that

* holds the node's Send Step Queue (SSQ) and Receive Step Queue (RSQ)
  produced by the algorithm decomposition,
* tracks the indices of the active send/receive steps and derives the
  waiting state per Table I,
* records, on completion of each local flow step, the 5-tuple, data
  volume, start time, end time and the waited-for source host, and
  reports the record to the analyzer.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.collective.primitives import SendStep, StepSchedule
from repro.collective.runtime import CollectiveRuntime, StepRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.flow import RdmaFlow


class WaitingState(enum.Enum):
    """Table I: the relation between the active send and receive steps."""

    WAITING = "waiting"          # Send Steps == Recv Steps
    NON_WAITING = "non_waiting"  # Send Steps < Recv Steps


class HostMonitor:
    """Monitor for one host participating in one collective."""

    def __init__(self, node: str, schedule: StepSchedule,
                 report_fn: Optional[Callable[[StepRecord], None]] = None
                 ) -> None:
        self.node = node
        self.schedule = schedule
        self.ssq: list[str] = schedule.send_targets(node)
        self.rsq: list[Optional[str]] = schedule.recv_sources(node)
        self.send_steps_completed = 0
        self.recv_steps_completed = 0
        self.records: list[StepRecord] = []
        self.report_fn = report_fn
        self.active_step: Optional[SendStep] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, runtime: CollectiveRuntime) -> None:
        """Subscribe to the runtime's step events."""
        runtime.step_start_listeners.append(self._on_step_start)
        runtime.step_end_listeners.append(self._on_step_end)

    def _on_step_start(self, step: SendStep, flow: "RdmaFlow",
                       waiting_source: Optional[str], now: float) -> None:
        if step.node != self.node:
            return
        self.active_step = step

    def _on_step_end(self, record: StepRecord) -> None:
        if record.node == self.node:
            self.send_steps_completed += 1
            self.records.append(record)
            if self.active_step is not None \
                    and self.active_step.step_index == record.step_index:
                self.active_step = None
            if self.report_fn is not None:
                self.report_fn(record)
        # a completed step at node X delivered data to X's peer; if that
        # peer is us, our receive step advanced
        step = self.schedule.steps.get(record.node)
        if step and step[record.step_index].peer == self.node:
            self.recv_steps_completed += 1

    # ------------------------------------------------------------------
    # Table I
    # ------------------------------------------------------------------
    def waiting_state(self) -> WaitingState:
        """Determine the waiting state from the SSQ/RSQ indices.

        ``Send Steps == Recv Steps`` means the next send step is gated on
        the current receive; ``Send Steps < Recv Steps`` means the node
        can fire its next send as soon as the current one finishes.
        Nodes whose next step has no data dependency (RSQ entry None)
        are never blocked on a receive.
        """
        next_send = self.send_steps_completed
        if next_send >= len(self.ssq):
            return WaitingState.NON_WAITING  # collective finished here
        if self.rsq[next_send] is None:
            return WaitingState.NON_WAITING
        if self.send_steps_completed <= self.recv_steps_completed:
            # paper's "Send Steps < Recv Steps": receive ran ahead
            if self.send_steps_completed < self.recv_steps_completed:
                return WaitingState.NON_WAITING
            return WaitingState.WAITING
        return WaitingState.WAITING

    def waited_for_source(self) -> Optional[str]:
        """Which host the next send step is waiting on (RSQ lookup)."""
        next_send = self.send_steps_completed
        if next_send >= len(self.rsq):
            return None
        return self.rsq[next_send]
