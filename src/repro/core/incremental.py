"""Incremental waiting-graph construction (§III-D1).

The paper's analyzer does not wait for the collective to finish: it
"queues the collected data entries in order of their completion time and
constructs the waiting graph sequentially according to the queue order",
and "upon determining that a node is not being waited for (i.e., has an
in-degree of zero), the analyzer can recursively prune nodes with an
in-degree of zero" to bound memory.

:class:`IncrementalWaitingGraph` implements exactly that: records are
ingested one at a time (out-of-order submission is buffered and replayed
in completion-time order), each one's binding edge, the in-degrees of
the steps it waits on and the latest-ending anchor are updated as it
arrives, and periodic pruning peels the in-degree-zero worklist off
everything but the critical chain.  Nothing is rebuilt per snapshot:
:meth:`critical_path` reads the chain that ingestion kept current, and
the final critical path equals the batch-built one (tested property).
:meth:`snapshot` still yields a regular
:class:`~repro.core.waiting_graph.WaitingGraph` over the retained
records for callers that want the full vertex/edge view.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.collective.primitives import StepSchedule
from repro.collective.runtime import StepRecord
from repro.core.waiting_graph import CriticalPathEntry, WaitingGraph

StepKey = tuple[str, int]


class IncrementalWaitingGraph:
    """Streaming construction of the waiting graph.

    ``prune_interval`` controls how often (in ingested records) the
    in-degree-zero prune runs; pruning never removes a record that is
    still waited on by a retained or not-yet-complete step, nor the
    chain behind the current latest end (the live critical path).
    """

    def __init__(self, schedule: StepSchedule,
                 prune_interval: int = 16) -> None:
        self.schedule = schedule
        self.prune_interval = prune_interval
        self.records: dict[StepKey, StepRecord] = {}
        self._buffer: list[tuple[float, int, StepRecord]] = []
        self._tie = itertools.count()
        self._ingested = 0
        self.pruned_total = 0
        #: called with each record as it is ingested (in completion-time
        #: order) — the live pipeline's per-step aggregation hook
        self.ingest_listeners: list[Callable[[StepRecord], None]] = []
        #: called with the number of records each prune pass dropped
        self.prune_listeners: list[Callable[[int], None]] = []
        #: the blue edge of every step of the schedule
        self._depends_on: dict[StepKey, Optional[StepKey]] = {
            (s.node, s.step_index): s.depends_on
            for s in schedule.all_steps()}
        #: steps whose records have not arrived yet
        self._expected = set(self._depends_on)
        self._count_waiters()

    def _waits_on(self, key: StepKey) -> list[StepKey]:
        """The steps ``key``'s start structurally waits on (orange and
        blue edge targets)."""
        node, idx = key
        targets = [(node, idx - 1)] if idx > 0 else []
        dep = self._depends_on[key]
        if dep is not None and dep not in targets:
            targets.append(dep)
        return targets

    def _count_waiters(self) -> None:
        """Everything derived from ``records`` and ``_expected``."""
        records = self.records
        #: per step, how many retained or expected steps wait on it
        self._indegree = dict.fromkeys(self._depends_on, 0)
        for key in self._expected.union(records):
            for target in self._waits_on(key):
                self._indegree[target] += 1
        #: retained records nothing waits on — the prune worklist
        self._unwaited = dict.fromkeys(
            key for key in records if not self._indegree[key])
        #: the latest-ending retained record (the earliest-kept of
        #: equals) and the binding chain behind it, oldest first
        self._anchor: Optional[StepKey] = max(
            records, key=lambda k: records[k].end_time, default=None)
        self._chain: Optional[list[StepKey]] = None

    # ------------------------------------------------------------------
    def submit(self, record: StepRecord) -> None:
        """Queue a record; ingestion happens in completion-time order."""
        heapq.heappush(self._buffer,
                       (record.end_time, next(self._tie), record))
        self._drain()

    def _drain(self) -> None:
        while self._buffer:
            _, _, record = heapq.heappop(self._buffer)
            self._ingest(record)

    def _ingest(self, record: StepRecord) -> None:
        key = (record.node, record.step_index)
        waits_on = self._waits_on(key)
        records = self.records
        known = records.get(key)
        records[key] = record
        if known is not None:
            if known != record:      # same place in ``records``, other
                self._count_waiters()   # times: take nothing for granted
        else:
            if key in self._expected:
                self._expected.discard(key)
            else:                    # pruned, and back: it waits again
                for target in waits_on:
                    self._indegree[target] += 1
                    self._unwaited.pop(target, None)
            if not self._indegree[key]:
                self._unwaited[key] = None
            self._extend_chain(key, record)
        self._ingested += 1
        for listener in self.ingest_listeners:
            listener(record)
        if self.prune_interval > 0 \
                and self._ingested % self.prune_interval == 0:
            self.prune()

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

    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Drop the records nothing retained or pending waits on, the
        critical chain excepted.  One layer per pass: a record this
        pass leaves unwaited goes with the next.  Returns the number of
        records dropped."""
        if not self.records:
            return 0
        chain = set(self._critical_chain())
        doomed = [key for key in self._unwaited if key not in chain]
        for key in doomed:
            del self.records[key]
            del self._unwaited[key]
        for key in doomed:
            for target in self._waits_on(key):
                self._indegree[target] -= 1
                if not self._indegree[target] and target in self.records:
                    self._unwaited[target] = None
        self.pruned_total += len(doomed)
        for listener in self.prune_listeners:
            listener(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Let every retained record go, the critical chain included
        (for an owner done asking); the counters stay."""
        self.records = {}
        self._count_waiters()

    # ------------------------------------------------------------------
    @property
    def retained(self) -> int:
        return len(self.records)

    @property
    def ingested(self) -> int:
        return self._ingested

    @property
    def expected_remaining(self) -> int:
        """Steps of the schedule whose records have not arrived yet."""
        return len(self._expected)

    def stats(self) -> dict:
        """Memory-bounding effectiveness, for pipeline metrics:
        ``prune_efficiency`` is the fraction of ingested records the
        in-degree-zero prune has already discarded."""
        return {
            "ingested": self._ingested,
            "retained": self.retained,
            "pruned_total": self.pruned_total,
            "expected_remaining": len(self._expected),
            "prune_efficiency": (self.pruned_total / self._ingested
                                 if self._ingested else 0.0),
        }

    def snapshot(self) -> WaitingGraph:
        """A regular waiting graph over the retained records."""
        return WaitingGraph(self.schedule, self.records.values())

    def critical_path(self) -> list[CriticalPathEntry]:
        """The chain of steps that determined the execution time so
        far (:meth:`WaitingGraph.critical_path` over the retained
        records, without building one)."""
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

    # ------------------------------------------------------------------
    # checkpoint hooks (the live service's crash-safe snapshots)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the streaming construction state.

        The submit buffer is always empty between :meth:`submit` calls
        (submission drains synchronously), so only the retained
        records, the not-yet-arrived step set and the monotonic
        counters need to persist.  Records are stored **columnar**
        (one list per field) rather than as per-record objects: the
        retained set dominates checkpoint size, and the columnar form
        keeps the serialized payload — and therefore the synchronous
        checkpoint pause — small.
        """
        from repro.traces import serialize

        if self._buffer:
            raise RuntimeError(
                "cannot checkpoint mid-submit: buffer not drained")
        records = [self.records[key] for key in sorted(self.records)]
        return {
            "records": {
                "node": [r.node for r in records],
                "step": [r.step_index for r in records],
                "flow": [serialize.encode_flow_key(r.flow_key)
                         for r in records],
                "bytes": [r.size_bytes for r in records],
                "start": [r.start_time for r in records],
                "end": [r.end_time for r in records],
                "recv_source": [r.recv_source for r in records],
                "binding": [r.binding_dependency for r in records],
            },
            "expected": [[node, idx]
                         for node, idx in sorted(self._expected)],
            "ingested": self._ingested,
            "pruned_total": self.pruned_total,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Ingest listeners are *not* replayed — the owning pipeline
        restores its own aggregates from the same checkpoint.
        """
        from repro.traces import serialize

        self.records = {}
        columns = state["records"]
        for node, step, flow, size, start, end, recv, binding in zip(
                columns["node"], columns["step"], columns["flow"],
                columns["bytes"], columns["start"], columns["end"],
                columns["recv_source"], columns["binding"]):
            record = StepRecord(
                node=node,
                step_index=int(step),
                flow_key=serialize.decode_flow_key(flow),
                size_bytes=int(size),
                start_time=float(start),
                end_time=float(end),
                recv_source=recv,
                binding_dependency=binding,
            )
            self.records[(record.node, record.step_index)] = record
        self._expected = {(node, int(idx))
                          for node, idx in state["expected"]}
        self._count_waiters()
        self._buffer = []
        self._ingested = int(state["ingested"])
        self.pruned_total = int(state["pruned_total"])
