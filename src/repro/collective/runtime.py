"""Collective runtime: executes a :class:`StepSchedule` on a network.

The runtime is the NCCL-analogue: it creates one RDMA flow per
(node, step), enforces the decomposition's dependencies — a step starts
only when the node's previous send step finished *and* the data it
forwards has arrived — and emits step start/end events that host
monitors (Vedrfolnir's or a baseline's) subscribe to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.collective.primitives import SendStep, StepSchedule
from repro.simnet.packet import FlowKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.flow import RdmaFlow
    from repro.simnet.network import Network

#: listener signatures
StepStartListener = Callable[[SendStep, "RdmaFlow", Optional[str], float], None]
StepEndListener = Callable[["StepRecord"], None]


@dataclass
class StepRecord:
    """What a host monitor reports when a step completes (§III-C1):
    5-tuple, data volume, start time, end time, and the source host the
    step waited for."""

    node: str
    step_index: int
    flow_key: FlowKey
    size_bytes: int
    start_time: float
    end_time: float
    #: RSQ entry: the source host whose data this step consumed
    recv_source: Optional[str]
    #: which dependency actually bound the start (arrived last):
    #: "recv", "prev_send", or None if neither delayed it
    binding_dependency: Optional[str]

    @property
    def duration_ns(self) -> float:
        return self.end_time - self.start_time

    @property
    def label(self) -> str:
        return f"F[{self.node}]S{self.step_index}"


class CollectiveRuntime:
    """Executes one collective operation."""

    def __init__(self, network: "Network", schedule: StepSchedule,
                 start_time: float = 0.0) -> None:
        self.network = network
        self.schedule = schedule
        self.start_time = start_time
        self.flow_keys: dict[tuple[str, int], FlowKey] = {}
        self.flows: dict[tuple[str, int], "RdmaFlow"] = {}
        self.step_start: dict[tuple[str, int], float] = {}
        self.step_end: dict[tuple[str, int], float] = {}
        #: when each dependency of a step became satisfied
        self._dep_ready: dict[tuple[str, int], dict[str, float]] = {}
        self.records: list[StepRecord] = []
        self.step_start_listeners: list[StepStartListener] = []
        self.step_end_listeners: list[StepEndListener] = []
        self.on_complete: Optional[Callable[["CollectiveRuntime"], None]] = None
        self._total_steps = sum(
            len(s) for s in schedule.steps.values())
        self._completed_steps = 0
        self._started = False
        self._dependents = self._index_dependents()
        self._binding: dict[tuple[str, int], Optional[str]] = {}
        self.complete_time: Optional[float] = None

    def _index_dependents(self) -> dict[tuple[str, int],
                                        list[tuple[str, int]]]:
        """(node, step) -> steps that data-depend on it (blue edges)."""
        dependents: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for step in self.schedule.all_steps():
            if step.depends_on is not None:
                dependents.setdefault(step.depends_on, []).append(
                    (step.node, step.step_index))
        return dependents

    # ------------------------------------------------------------------
    @property
    def collective_flow_keys(self) -> set[FlowKey]:
        """The CF set of §III-D1."""
        return set(self.flow_keys.values())

    @property
    def completed(self) -> bool:
        return self._completed_steps >= self._total_steps

    @property
    def total_time_ns(self) -> Optional[float]:
        if self.complete_time is None:
            return None
        return self.complete_time - self.start_time

    def expected_step_time_ns(self, step: SendStep) -> float:
        """Ideal (uncontended) execution time: serialization at the
        slowest link on the path plus the base RTT (Eq. 3's
        expect_time)."""
        routing = self.network.routing
        key = self.flow_keys.get((step.node, step.step_index))
        path = routing.shortest_path(step.node, step.peer, flow=key)
        min_bw = min(
            self.network.topology.link_between(path[i], path[i + 1])
            .bandwidth_bps
            for i in range(len(path) - 1))
        serialization = step.size_bytes * 8.0 / min_bw * 1e9
        rtt = routing.base_rtt_ns(step.node, step.peer, flow=key)
        return serialization + rtt

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create all flows and arm step 0 at ``start_time``."""
        if self._started:
            raise RuntimeError("collective already started")
        self._started = True
        for step in self.schedule.all_steps():
            key = self.network.new_flow_key(step.node, step.peer)
            self.flow_keys[(step.node, step.step_index)] = key
        self.network.sim.schedule(
            max(0.0, self.start_time - self.network.sim.now), self._launch)

    def _launch(self) -> None:
        now = self.network.sim.now
        for step in self.schedule.all_steps():
            ready = self._dep_ready.setdefault(
                (step.node, step.step_index), {})
            if step.step_index == 0:
                ready["prev_send"] = now
            if step.depends_on is None:
                ready["recv"] = now
        for node in self.schedule.nodes:
            steps = self.schedule.steps.get(node)
            if steps:
                self._maybe_start_step(steps[0])

    def _maybe_start_step(self, step: SendStep) -> None:
        key = (step.node, step.step_index)
        if key in self.step_start:
            return
        ready = self._dep_ready.get(key, {})
        if "prev_send" not in ready or "recv" not in ready:
            return
        now = self.network.sim.now
        self.step_start[key] = now
        binding: Optional[str] = None
        if ready["recv"] > ready["prev_send"]:
            binding = "recv"
        elif ready["prev_send"] > ready["recv"]:
            binding = "prev_send"
        self._binding[key] = binding
        flow = self.network.create_flow(
            step.node, step.peer, step.size_bytes, start_time=now,
            key=self.flow_keys[key],
            on_receive_complete=lambda recv, s=step: self._on_step_data_arrived(s),
            on_sender_complete=lambda f, s=step: self._on_send_complete(s),
        )
        self.flows[key] = flow
        waiting_source = step.depends_on[0] if step.depends_on else None
        for listener in self.step_start_listeners:
            listener(step, flow, waiting_source, now)
        flow.start()

    def _on_send_complete(self, step: SendStep) -> None:
        """Sender saw the final ACK: the node's next step may proceed."""
        now = self.network.sim.now
        steps = self.schedule.steps[step.node]
        if step.step_index + 1 < len(steps):
            next_step = steps[step.step_index + 1]
            key = (next_step.node, next_step.step_index)
            self._dep_ready.setdefault(key, {})["prev_send"] = now
            self._maybe_start_step(next_step)

    def _on_step_data_arrived(self, step: SendStep) -> None:
        """The step's data landed at its peer: the step is *done* in the
        waiting-graph sense, and blue-edge dependents may proceed."""
        now = self.network.sim.now
        key = (step.node, step.step_index)
        self.step_end[key] = now
        self._completed_steps += 1
        record = StepRecord(
            node=step.node,
            step_index=step.step_index,
            flow_key=self.flow_keys[key],
            size_bytes=step.size_bytes,
            start_time=self.step_start[key],
            end_time=now,
            recv_source=step.depends_on[0] if step.depends_on else None,
            binding_dependency=self._binding.get(key),
        )
        self.records.append(record)
        for listener in self.step_end_listeners:
            listener(record)
        for dep_key in self._dependents.get(key, ()):
            self._dep_ready.setdefault(dep_key, {})["recv"] = now
            dep_step = self.schedule.step(dep_key[0], dep_key[1])
            self._maybe_start_step(dep_step)
        if self.completed and self.complete_time is None:
            self.complete_time = now
            if self.on_complete is not None:
                self.on_complete(self)
