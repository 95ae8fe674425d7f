"""The waiting graph (§III-B, Fig. 4).

Vertices are the start and end of each step of each flow (``F_i S_j``).
Directed edges point in the *waits-on* direction (A → B means "A waits
for B"), matching the paper's orientation where the end of the final
steps is the graph's source and the start of the first steps the sink:

* **dark** edges: ``end(F_i S_j) → start(F_i S_j)``, weighted by the
  step's execution time;
* **orange** edges: ``start(F_i S_j) → end(F_i S_{j-1})``, weight 0
  (intra-flow ordering);
* **blue** edges: ``start(F_i S_j) → end(F_k S_{j-1})``, weight 0
  (data dependency).

Two construction modes mirror the paper's definition vs. its runtime use:

* ``full``: every structural edge of the decomposition;
* ``binding``: only the light edge that *actually* gated each start
  (§III-C1: "F1S2 waits for both ... but actually waits for only one of
  them").  In-degree-zero pruning (Fig. 14a) and the critical path are
  computed on this mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from repro.core.units import Nanoseconds
from repro.collective.primitives import StepSchedule
from repro.collective.runtime import StepRecord


class EdgeKind(enum.Enum):
    """Edge colors from Fig. 4."""

    EXECUTION = "dark"       # end -> start of the same step
    INTRA_FLOW = "orange"    # start -> end of the node's previous step
    DATA_DEP = "blue"        # start -> end of the dependency step


class WaitingVertex(NamedTuple):
    """Start or end of one step of one flow."""

    node: str
    step_index: int
    point: str  # "start" | "end"

    @property
    def label(self) -> str:
        return f"F[{self.node}]S{self.step_index}.{self.point}"

    def __str__(self) -> str:
        return self.label


@dataclass
class WaitingEdge:
    src: WaitingVertex
    dst: WaitingVertex
    kind: EdgeKind
    weight_ns: Nanoseconds = 0.0


@dataclass
class CriticalPathEntry:
    """One step on the critical path."""

    node: str
    step_index: int
    start_time: float
    end_time: float
    #: why this step's start waited: "recv", "prev_send" or None
    entered_via: Optional[str]

    @property
    def duration_ns(self) -> float:
        return self.end_time - self.start_time


class WaitingGraph:
    """Waiting graph over a set of completed (or partial) step records."""

    def __init__(self, schedule: StepSchedule,
                 records: Iterable[StepRecord],
                 mode: str = "binding") -> None:
        if mode not in ("binding", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        self.schedule = schedule
        self.mode = mode
        self.records: dict[tuple[str, int], StepRecord] = {
            (r.node, r.step_index): r for r in records}
        #: the Fig. 4 view, drawn when first asked for: the critical
        #: path and Eq. 3's inputs read the records and the schedule
        self._vertices: Optional[set[WaitingVertex]] = None
        self._edges: list[WaitingEdge] = []

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> set[WaitingVertex]:
        if self._vertices is None:
            self._build()
        return self._vertices

    @property
    def edges(self) -> list[WaitingEdge]:
        if self._vertices is None:
            self._build()
        return self._edges

    def _vertex(self, node: str, step: int, point: str) -> WaitingVertex:
        vertex = WaitingVertex(node, step, point)
        self._vertices.add(vertex)
        return vertex

    def _build(self) -> None:
        self._vertices = set()
        for (node, idx), record in self.records.items():
            start = self._vertex(node, idx, "start")
            end = self._vertex(node, idx, "end")
            self._edges.append(WaitingEdge(
                end, start, EdgeKind.EXECUTION, record.duration_ns))
            step = self.schedule.step(node, idx)
            want_orange = idx > 0 and (node, idx - 1) in self.records
            want_blue = (step.depends_on is not None
                         and step.depends_on in self.records)
            if self.mode == "binding":
                binding = record.binding_dependency
                if binding == "recv":
                    want_orange = False
                elif binding == "prev_send":
                    want_blue = False
                # binding None: both became ready simultaneously (or at
                # launch); keep whatever structural edges exist
            if want_orange:
                prev_end = self._vertex(node, idx - 1, "end")
                self._edges.append(WaitingEdge(
                    start, prev_end, EdgeKind.INTRA_FLOW, 0.0))
            if want_blue:
                dep_node, dep_idx = step.depends_on
                dep_end = self._vertex(dep_node, dep_idx, "end")
                self._edges.append(WaitingEdge(
                    start, dep_end, EdgeKind.DATA_DEP, 0.0))

    # ------------------------------------------------------------------
    def in_degree(self) -> dict[WaitingVertex, int]:
        degrees = {v: 0 for v in self.vertices}
        for edge in self.edges:
            degrees[edge.dst] = degrees.get(edge.dst, 0) + 1
        return degrees

    def prune_unwaited(self) -> int:
        """Recursively remove vertices nobody waits on (Fig. 14a), except
        the vertex of the globally last-ending step (the completion
        point the whole collective 'waits' on).  Returns the number of
        removed vertices."""
        keep = self._latest_end_vertex()
        removed_total = 0
        while True:
            degrees = self.in_degree()
            doomed = {v for v, d in degrees.items()
                      if d == 0 and v != keep}
            if not doomed:
                return removed_total
            removed_total += len(doomed)
            self._vertices -= doomed
            self._edges = [e for e in self._edges
                           if e.src not in doomed and e.dst not in doomed]

    def _latest_end_vertex(self) -> Optional[WaitingVertex]:
        latest_key = None
        latest_time = -1.0
        for key, record in self.records.items():
            if record.end_time > latest_time:
                latest_time = record.end_time
                latest_key = key
        if latest_key is None:
            return None
        return WaitingVertex(latest_key[0], latest_key[1], "end")

    # ------------------------------------------------------------------
    def critical_path(self) -> list[CriticalPathEntry]:
        """The chain of steps that determined total execution time
        (§III-D1): walk back from the last-ending step through each
        start's binding predecessor."""
        if not self.records:
            return []
        key = max(self.records, key=lambda k: self.records[k].end_time)
        path: list[CriticalPathEntry] = []
        visited: set[tuple[str, int]] = set()
        while key is not None and key not in visited:
            visited.add(key)
            record = self.records[key]
            path.append(CriticalPathEntry(
                node=record.node,
                step_index=record.step_index,
                start_time=record.start_time,
                end_time=record.end_time,
                entered_via=record.binding_dependency,
            ))
            key = self._predecessor_of(record)
        path.reverse()
        return path

    def _predecessor_of(self, record: StepRecord
                        ) -> Optional[tuple[str, int]]:
        step = self.schedule.step(record.node, record.step_index)
        binding = record.binding_dependency
        if binding == "recv" and step.depends_on is not None:
            return step.depends_on if step.depends_on in self.records \
                else None
        if record.step_index > 0:
            prev = (record.node, record.step_index - 1)
            return prev if prev in self.records else None
        return None

    def critical_flows_by_step(self) -> dict[int, str]:
        """For each step index, the node whose flow is on the critical
        path at that step (cf_i in Eq. 3).  Falls back to the
        slowest-duration flow for step indices the critical path skips."""
        result: dict[int, str] = {}
        for entry in self.critical_path():
            result[entry.step_index] = entry.node
        slowest: dict[int, StepRecord] = {}
        for record in self.records.values():
            idx = record.step_index
            if idx not in slowest \
                    or record.duration_ns > slowest[idx].duration_ns:
                slowest[idx] = record
        for idx in set(slowest) - set(result):
            result[idx] = slowest[idx].node
        return result

    def step_execution_times(self) -> dict[int, float]:
        """exec_time(i) of Eq. 3: duration of the critical flow's step."""
        critical = self.critical_flows_by_step()
        return {idx: self.records[(node, idx)].duration_ns
                for idx, node in critical.items()
                if (node, idx) in self.records}

    def total_time_ns(self) -> float:
        if not self.records:
            return 0.0
        start = min(r.start_time for r in self.records.values())
        end = max(r.end_time for r in self.records.values())
        return end - start

    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a networkx.DiGraph for analysis or visualization."""
        import networkx as nx

        graph = nx.DiGraph()
        for vertex in self.vertices:
            graph.add_node(vertex.label, node=vertex.node,
                           step=vertex.step_index, point=vertex.point)
        for edge in self.edges:
            graph.add_edge(edge.src.label, edge.dst.label,
                           kind=edge.kind.value, weight=edge.weight_ns)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WaitingGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, mode={self.mode})")
