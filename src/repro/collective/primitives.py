"""Decomposition data model: steps, schedules, consistency checks.

A :class:`StepSchedule` is the *predefined* decomposition the paper
requires prior to execution ("the steps of the collective communication
algorithm need to be predefined prior to execution", §III-B).  Every
node's flow is a sequence of :class:`SendStep` entries; the dependency
field names the peer send step whose data must have arrived before this
step may start — precisely the blue edges of the waiting graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional


class CollectiveOp(enum.Enum):
    """The collective operation a schedule implements."""

    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    ALLREDUCE = "allreduce"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SendStep:
    """One step of one flow.

    ``depends_on`` is ``(source_node, source_step_index)`` of the send
    step (at another node) whose data this step consumes, or ``None``
    when the step only needs locally-resident data (e.g. the first ring
    step sends the node's own chunk).
    """

    node: str
    step_index: int
    peer: str
    chunk_id: int
    size_bytes: int
    depends_on: Optional[tuple[str, int]] = None

    @property
    def label(self) -> str:
        """Human-readable F_i S_j label used in waiting graphs."""
        return f"F[{self.node}]S{self.step_index}"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"step size must be positive: {self.size_bytes}")
        if self.peer == self.node:
            raise ValueError(f"step at {self.node} cannot send to itself")


@dataclass
class StepSchedule:
    """A full decomposition: per-node step lists plus metadata."""

    algorithm: str
    op: CollectiveOp
    nodes: list[str]
    steps: dict[str, list[SendStep]] = field(default_factory=dict)

    def step(self, node: str, index: int) -> SendStep:
        return self.steps[node][index]

    def all_steps(self) -> Iterator[SendStep]:
        for node in self.nodes:
            yield from self.steps.get(node, [])

    def send_targets(self, node: str) -> list[str]:
        """The Send Step Queue (SSQ) contents for ``node`` (§III-C1)."""
        return [s.peer for s in self.steps.get(node, [])]

    def recv_sources(self, node: str) -> list[Optional[str]]:
        """The Receive Step Queue (RSQ) contents for ``node``: the source
        host whose data each send step waits for (None = no data dep)."""
        return [s.depends_on[0] if s.depends_on else None
                for s in self.steps.get(node, [])]


def validate_schedule(schedule: StepSchedule) -> None:
    """Check structural consistency of a decomposition.

    Raises ``ValueError`` on: unknown nodes, dependency references to
    steps that do not exist, dependencies whose referenced send step does
    not actually deliver data to the dependent node, or non-contiguous
    step indices.
    """
    node_set = set(schedule.nodes)
    for node, steps in schedule.steps.items():
        if node not in node_set:
            raise ValueError(f"schedule contains unknown node {node!r}")
        for i, step in enumerate(steps):
            if step.node != node:
                raise ValueError(
                    f"step {step.label} filed under wrong node {node!r}")
            if step.step_index != i:
                raise ValueError(
                    f"non-contiguous step index at {node!r}: "
                    f"expected {i}, got {step.step_index}")
            if step.peer not in node_set:
                raise ValueError(
                    f"{step.label} sends to unknown node {step.peer!r}")
            if step.depends_on is not None:
                dep_node, dep_idx = step.depends_on
                dep_steps = schedule.steps.get(dep_node)
                if dep_steps is None or dep_idx >= len(dep_steps) \
                        or dep_idx < 0:
                    raise ValueError(
                        f"{step.label} depends on missing step "
                        f"({dep_node!r}, {dep_idx})")
                if dep_steps[dep_idx].peer != node:
                    raise ValueError(
                        f"{step.label} depends on {dep_steps[dep_idx].label} "
                        f"which sends to {dep_steps[dep_idx].peer!r}, "
                        f"not to {node!r}")
    _check_acyclic(schedule)


def _check_acyclic(schedule: StepSchedule) -> None:
    """Dependency + intra-flow ordering must form a DAG, or the
    collective deadlocks before it even hits the network."""
    # vertices: (node, step); edges: (node, j-1)->(node, j), dep->(node, j)
    indegree: dict[tuple[str, int], int] = {}
    edges: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for step in schedule.all_steps():
        key = (step.node, step.step_index)
        indegree.setdefault(key, 0)
        preds = []
        if step.step_index > 0:
            preds.append((step.node, step.step_index - 1))
        if step.depends_on is not None:
            preds.append(step.depends_on)
        for pred in preds:
            edges.setdefault(pred, []).append(key)
            indegree[key] = indegree.get(key, 0) + 1
    queue = [v for v, d in indegree.items() if d == 0]
    visited = 0
    while queue:
        vertex = queue.pop()
        visited += 1
        for succ in edges.get(vertex, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if visited != len(indegree):
        raise ValueError("schedule dependencies contain a cycle")
