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

Two modes mirror the paper's definition vs. its runtime use:

* ``full``: every structural edge of the decomposition;
* ``binding``: only the light edge that *actually* gated each start
  (§III-C1: "F1S2 waits for both ... but actually waits for only one of
  them").  In-degree-zero pruning (Fig. 14a) and the critical path are
  computed on this mode.

Construction follows §III-D1 — "constructs the waiting graph
sequentially according to the queue order", "recursively prune nodes
with an in-degree of zero" — and is the same whether the batch analyzer
asks once or the live pipeline asks at every snapshot: see
:class:`WaitingGraph`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from repro.core.units import Nanoseconds
from repro.collective.primitives import StepSchedule
from repro.collective.runtime import StepRecord

StepKey = tuple[str, int]


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
    """The waiting graph over the step records submitted so far.

    Records are ingested one at a time through :meth:`submit`, in the
    order given (ordering a stream by completion time is the live
    pipeline's watermark's job), and each one moves the latest-end
    anchor, the binding chain behind it and, once a prune has counted
    it, the in-degree worklist: nothing is rebuilt per question.  With
    ``prune_interval`` > 0, every that many ingests drop the records
    nothing retained or pending waits on, the critical chain excepted.

    What a diagnosis reads survives the prune as O(steps) scalars,
    under one rule: :attr:`durations` and the slowest flow per step
    describe the *current* record of each ``(node, step)`` (a duplicate
    that differs replaces what the superseded one said), while
    :attr:`windows` only ever widen.  The Fig. 4 view
    (:attr:`vertices`, :attr:`edges`) is drawn over the retained
    records when first asked for.
    """

    def __init__(self, schedule: StepSchedule,
                 records: Iterable[StepRecord] = (),
                 mode: str = "binding",
                 prune_interval: int = 0) -> None:
        if mode not in ("binding", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        self.schedule = schedule
        self.mode = mode
        self.prune_interval = prune_interval
        #: the retained records
        self.records: dict[StepKey, StepRecord] = {}
        #: per step index, [min start, max end] over every record seen
        self.windows: dict[int, list[float]] = {}
        #: duration of every step seen, retained or pruned
        self.durations: dict[StepKey, float] = {}
        #: per step index, the slowest step seen: (duration, node)
        self._slowest: dict[int, tuple[float, str]] = {}
        self._ingested = 0
        self.pruned_total = 0
        #: the blue edge of every step of the schedule
        self._depends_on: dict[StepKey, Optional[StepKey]] = {
            (s.node, s.step_index): s.depends_on
            for s in schedule.all_steps()}
        #: steps whose records have not arrived yet
        self._expected = set(self._depends_on)
        self._forget_derived()
        for record in records:
            self.submit(record)

    def _waits_on(self, key: StepKey) -> tuple[StepKey, ...]:
        """The steps ``key``'s start structurally waits on (orange and
        blue edge targets)."""
        node, idx = key
        dep = self._depends_on[key]
        if idx == 0:
            return () if dep is None else (dep,)
        prev = (node, idx - 1)
        return (prev,) if dep is None or dep == prev else (prev, dep)

    def _forget_derived(self) -> None:
        """Everything derived from ``records`` and ``_expected``."""
        records = self.records
        #: per step, how many retained or expected steps wait on it;
        #: counted by the first prune, kept per ingest from then on
        self._waiters: Optional[dict[StepKey, int]] = None
        #: the latest-ending retained record (the earliest-kept of
        #: equals) and the binding chain behind it, oldest first
        self._anchor: Optional[StepKey] = max(
            records, key=lambda k: records[k].end_time, default=None)
        self._chain: Optional[list[StepKey]] = None
        self._vertices: Optional[set[WaitingVertex]] = None

    def _count_waiters(self) -> None:
        waiters = self._waiters = dict.fromkeys(self._depends_on, 0)
        for key in self._expected.union(self.records):
            for target in self._waits_on(key):
                waiters[target] += 1
        #: retained records nothing waits on — the prune worklist
        self._unwaited = dict.fromkeys(
            key for key in self.records if not waiters[key])

    # ------------------------------------------------------------------
    # construction (§III-D1)
    # ------------------------------------------------------------------
    def submit(self, record: StepRecord) -> None:
        """Ingest one record."""
        key = (record.node, record.step_index)
        records = self.records
        known = records.get(key)
        records[key] = record
        if known is not None:
            if known != record:      # same place in ``records``, other
                self._forget_derived()  # times: take nothing for granted
        else:
            back = key not in self._expected
            self._expected.discard(key)
            waiters = self._waiters
            if waiters is not None:
                if back:             # pruned, and back: it waits again
                    for target in self._waits_on(key):
                        waiters[target] += 1
                        self._unwaited.pop(target, None)
                if not waiters[key]:
                    self._unwaited[key] = None
            self._extend_chain(key, record)
            self._vertices = None
        self._aggregate(key, record)
        self._ingested += 1
        if self.prune_interval > 0 \
                and self._ingested % self.prune_interval == 0:
            self.prune()

    def _aggregate(self, key: StepKey, record: StepRecord) -> None:
        """Keep the per-step scalars (the class docstring has the rule)."""
        idx = record.step_index
        start, end = record.start_time, record.end_time
        window = self.windows.get(idx)
        if window is None:
            self.windows[idx] = [start, end]
        else:
            if start < window[0]:
                window[0] = start
            if end > window[1]:
                window[1] = end
        duration = end - start
        superseded = self.durations.get(key)
        self.durations[key] = duration
        slowest = self._slowest.get(idx)
        if superseded is not None and superseded != duration:
            # the step's slowest may be the one just replaced: the
            # first of the slowest, in order of first appearance
            self._slowest[idx] = max(
                ((took, node) for (node, step), took
                 in self.durations.items() if step == idx),
                key=itemgetter(0))
        elif slowest is None or duration > slowest[0]:
            self._slowest[idx] = (duration, record.node)

    def _extend_chain(self, key: StepKey, record: StepRecord) -> None:
        """Move the anchor and the chain for one newly retained record:
        a later end than every other is the new anchor, and extends the
        chain when it was bound by the old one; a record the chain's
        oldest entry was bound by re-roots it."""
        anchor, chain = self._anchor, self._chain
        if anchor is None \
                or record.end_time > self.records[anchor].end_time:
            self._anchor = key
            if chain is not None and self._bound_by(record) == anchor:
                chain.append(key)
            else:
                self._chain = None
        elif chain is not None \
                and self._bound_by(self.records[chain[0]]) == key:
            self._chain = None

    def _bound_by(self, record: StepRecord) -> Optional[StepKey]:
        """The step whose end released ``record``'s start — its binding
        edge's target, retained or not."""
        key = (record.node, record.step_index)
        dep = self._depends_on[key]
        if record.binding_dependency == "recv" and dep is not None:
            return dep
        return (record.node, record.step_index - 1) \
            if record.step_index > 0 else None

    def _critical_chain(self) -> list[StepKey]:
        """The retained binding chain behind the anchor, oldest first."""
        if self._chain is None:
            records = self.records
            chain: list[StepKey] = []
            seen: set[StepKey] = set()
            key = self._anchor
            while key in records and key not in seen:
                seen.add(key)
                chain.append(key)
                key = self._bound_by(records[key])
            chain.reverse()
            self._chain = chain
        return self._chain

    def prune(self) -> int:
        """Drop the records nothing retained or pending waits on, the
        critical chain excepted.  One layer per pass: a record this
        pass leaves unwaited goes with the next.  Returns the number of
        records dropped."""
        if not self.records:
            return 0
        if self._waiters is None:
            self._count_waiters()
        chain = set(self._critical_chain())
        doomed = [key for key in self._unwaited if key not in chain]
        for key in doomed:
            del self.records[key]
            del self._unwaited[key]
        for key in doomed:
            for target in self._waits_on(key):
                self._waiters[target] -= 1
                if not self._waiters[target] and target in self.records:
                    self._unwaited[target] = None
        self.pruned_total += len(doomed)
        self._vertices = None
        return len(doomed)

    def clear(self) -> None:
        """Let every retained record, per-step scalar and schedule edge
        go (for an owner done asking and done submitting); the counters
        stay."""
        self.records = {}
        self.windows.clear()
        self.durations.clear()
        self._slowest.clear()
        self._depends_on = {}
        self._expected = set()
        self._forget_derived()

    def stats(self) -> dict:
        """Memory-bounding effectiveness, for pipeline metrics:
        ``prune_efficiency`` is the fraction of ingested records the
        in-degree-zero prune has already discarded."""
        return {
            "retained": len(self.records),
            "pruned_total": self.pruned_total,
            "prune_efficiency": (self.pruned_total / self._ingested
                                 if self._ingested else 0.0),
        }

    # ------------------------------------------------------------------
    # what a diagnosis reads
    # ------------------------------------------------------------------
    def critical_path(self) -> list[CriticalPathEntry]:
        """The chain of steps that determined the execution time so far
        (§III-D1): from the last-ending step back through each start's
        binding predecessor, oldest first."""
        path = []
        for key in self._critical_chain():
            record = self.records[key]
            path.append(CriticalPathEntry(
                node=record.node,
                step_index=record.step_index,
                start_time=record.start_time,
                end_time=record.end_time,
                entered_via=record.binding_dependency,
            ))
        return path

    def critical_flows_by_step(self) -> dict[int, str]:
        """For each step index, the node whose flow is on the critical
        path at that step (cf_i in Eq. 3).  Falls back to the
        slowest-duration flow for step indices the critical path skips."""
        result = {idx: node for node, idx in self._critical_chain()}
        for idx, (_duration, node) in self._slowest.items():
            result.setdefault(idx, node)
        return result

    def step_execution_times(self) -> dict[int, float]:
        """exec_time(i) of Eq. 3: duration of the critical flow's step."""
        return {idx: self.durations[(node, idx)]
                for idx, node in self.critical_flows_by_step().items()}

    def total_time_ns(self) -> float:
        if not self.windows:
            return 0.0
        return max(end for _start, end in self.windows.values()) \
            - min(start for start, _end in self.windows.values())

    # ------------------------------------------------------------------
    # the Fig. 4 view
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
        self._edges: list[WaitingEdge] = []
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
        keep = WaitingVertex(*self._anchor, "end") \
            if self._anchor is not None else None
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
