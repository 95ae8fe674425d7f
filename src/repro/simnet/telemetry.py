"""Switch-side telemetry: what Vedrfolnir/Hawkeye polling collects.

Per §III-C3, switches record flow-level telemetry (5-tuple, per-flow
packet counts, queue depth) and port-level telemetry (port-to-port
traffic meters, PFC pause counts/states).  On receiving a polling packet
the switch assembles a :class:`SwitchReport` scoped to the relevant ports
and sends it to the analyzer.

Counters are *windowed*: the store keeps a current and a previous epoch
and rotates lazily, so a report reflects roughly the last
``2 * WINDOW_NS`` of activity — enough to cover the anomaly that
triggered the poll without dragging in the whole run's history.

The queue-composition weights implement §III-D1's
``w(f_i, f_j) = Σ_{pkt ∈ f_i} x_j(pkt)`` — for every DATA packet of
``f_i`` enqueued at a port, the number of ``f_j`` packets already in that
queue — maintained incrementally in O(flows-in-queue) per enqueue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.units import Bytes, Nanoseconds
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PauseLog
from repro.simnet.units import ms, us

#: counter epoch; a report sees between one and two of them
WINDOW_NS: Nanoseconds = ms(1)
#: how recent a pause must be for a poll to chase its sender
PAUSE_RECENCY_NS: Nanoseconds = us(600)
#: per-record wire sizes used for overhead accounting
REPORT_HEADER_BYTES: Bytes = 64
PORT_ENTRY_BYTES: Bytes = 16
FLOW_ENTRY_BYTES: Bytes = 32
PAIR_ENTRY_BYTES: Bytes = 24
METER_ENTRY_BYTES: Bytes = 12
PAUSE_ENTRY_BYTES: Bytes = 16


class WindowedCounter:
    """A dict of counters that lazily rotates every ``WINDOW_NS``.

    ``snapshot`` returns the union of the current and previous epochs, so
    readers always see between one and two windows of history.
    """

    __slots__ = ("_cur", "_prev", "_epoch_start")

    def __init__(self) -> None:
        self._cur: dict[Hashable, float] = {}
        self._prev: dict[Hashable, float] = {}
        self._epoch_start = 0.0

    def _rotate(self, now: float) -> None:
        elapsed = now - self._epoch_start
        if elapsed < WINDOW_NS:
            return
        if elapsed >= 2 * WINDOW_NS:
            self._prev = {}
            self._cur = {}
        else:
            self._prev = self._cur
            self._cur = {}
        self._epoch_start = now - (elapsed % WINDOW_NS)

    def add(self, now: Nanoseconds, key: Hashable, delta: float = 1.0) -> None:
        if now - self._epoch_start >= WINDOW_NS:
            self._rotate(now)
        cur = self._cur
        cur[key] = cur.get(key, 0.0) + delta

    def snapshot(self, now: Nanoseconds) -> dict[Hashable, float]:
        self._rotate(now)
        if not self._prev:
            return dict(self._cur)
        merged = dict(self._prev)
        for key, value in self._cur.items():
            merged[key] = merged.get(key, 0.0) + value
        return merged


class WindowedGroupCounter:
    """Windowed counters partitioned by a primary group key.

    Same rotation semantics as :class:`WindowedCounter` (one shared
    epoch clock), but entries are stored two-level — ``group -> {key:
    value}`` — so per-group reads are O(group's own entries) instead of
    a scan over every group's keys.  Report assembly reads one port's
    counters at a time, which made the flat layout quadratic-ish in
    ports; this is the columnar replacement.

    Merge order in :meth:`snapshot_group` reproduces the flat layout's
    dict insertion order restricted to the group (previous-epoch keys
    first, then current-epoch-only keys, each in first-touch order), so
    serialized reports are byte-identical to the historical format.
    """

    __slots__ = ("_cur", "_prev", "_epoch_start")

    def __init__(self) -> None:
        self._cur: dict[Hashable, dict] = {}
        self._prev: dict[Hashable, dict] = {}
        self._epoch_start = 0.0

    def _rotate(self, now: float) -> None:
        elapsed = now - self._epoch_start
        if elapsed < WINDOW_NS:
            return
        if elapsed >= 2 * WINDOW_NS:
            self._prev = {}
            self._cur = {}
        else:
            self._prev = self._cur
            self._cur = {}
        self._epoch_start = now - (elapsed % WINDOW_NS)

    def bucket(self, now: Nanoseconds, group: Hashable) -> dict:
        """The current epoch's ``{key: value}`` of ``group``, for the
        caller to add into (rotated first when the window has passed)."""
        if now - self._epoch_start >= WINDOW_NS:
            self._rotate(now)
        bucket = self._cur.get(group)
        if bucket is None:
            bucket = self._cur[group] = {}
        return bucket

    def snapshot_group(self, now: Nanoseconds,
                       group: Hashable) -> dict[Hashable, float]:
        """Merged previous+current counters for one group."""
        self._rotate(now)
        prev = self._prev.get(group)
        cur = self._cur.get(group)
        if not prev:
            return dict(cur) if cur else {}
        merged = dict(prev)
        if cur:
            for key, value in cur.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def snapshot(self, now: Nanoseconds) -> dict[Hashable, float]:
        """Flat view keyed ``(group, *key)`` — debugging/tests only."""
        self._rotate(now)
        flat: dict[Hashable, float] = {}
        for epoch in (self._prev, self._cur):
            for group, bucket in epoch.items():
                for key, value in bucket.items():
                    full = (group, *key) if isinstance(key, tuple) \
                        else (group, key)
                    flat[full] = flat.get(full, 0.0) + value
        return flat


@dataclass
class PortTelemetryEntry:
    """Telemetry for one egress port in a report."""

    port: int
    qdepth_pkts: int
    qdepth_bytes: Bytes
    paused: bool
    #: per-flow packets transmitted through this port in the window
    flow_pkts: dict[FlowKey, float]
    #: per-flow packets sitting in the queue right now
    inqueue_flow_pkts: dict[FlowKey, int]
    #: w(f_i, f_j): queueing-ahead weights accumulated in the window
    wait_weights: dict[tuple[FlowKey, FlowKey], float]


@dataclass
class SwitchReport:
    """One telemetry report from one switch to the analyzer."""

    switch_id: str
    time: Nanoseconds
    poll_id: Optional[str]
    ports: list[PortTelemetryEntry]
    #: (ingress_port, egress_port) -> bytes forwarded in the window
    port_meters: dict[tuple[int, int], float]
    pause_received: list[PauseEvent]
    pause_sent: list[PauseEvent]
    ttl_drops: dict[FlowKey, int]
    size_bytes: Bytes = 0


class SwitchTelemetry:
    """Telemetry store attached to one switch."""

    def __init__(self, switch_id: str) -> None:
        self.switch_id = switch_id
        self._flow_pkts = WindowedGroupCounter()     # port -> flow
        self._wait_weights = WindowedGroupCounter()  # port -> fi, fj
        self._port_meters = WindowedCounter()        # (in, out)
        self._ttl_drops: dict[FlowKey, int] = {}
        self.pause_log = PauseLog()
        #: live per-port, per-flow in-queue packet counts
        self._inqueue: dict[int, dict[FlowKey, int]] = {}

    # ------------------------------------------------------------------
    # data-plane hooks (called by the switch)
    # ------------------------------------------------------------------
    # The two hooks below run once per DATA packet per switch: they add
    # into a port's bucket directly (one call per hook, not one per
    # key), in the first-touch order and with the ``get(key, 0.0) +
    # delta`` arithmetic that reports have always serialised.
    def on_data_enqueue(self, now: Nanoseconds, egress_port: int,
                        flow: FlowKey) -> None:
        """Record a DATA packet entering an egress queue; accumulate the
        packets-ahead weights against every other flow in the queue."""
        queue = self._inqueue.get(egress_port)
        if queue is None:
            queue = self._inqueue[egress_port] = {}
        bucket = None
        for other_flow, count in queue.items():
            if other_flow != flow and count > 0:
                if bucket is None:
                    bucket = self._wait_weights.bucket(now, egress_port)
                key = (flow, other_flow)
                bucket[key] = bucket.get(key, 0.0) + count
        queue[flow] = queue.get(flow, 0) + 1

    def on_data_departure(self, now: Nanoseconds, ingress_port: int,
                          egress_port: int, flow: FlowKey,
                          size: int) -> None:
        """Record a DATA packet leaving the switch."""
        bucket = self._flow_pkts.bucket(now, egress_port)
        bucket[flow] = bucket.get(flow, 0.0) + 1
        self._port_meters.add(now, (ingress_port, egress_port), size)
        queue = self._inqueue.get(egress_port)
        if queue is not None:
            remaining = queue.get(flow, 0) - 1
            if remaining > 0:
                queue[flow] = remaining
            else:
                queue.pop(flow, None)

    def on_ttl_drop(self, flow: FlowKey) -> None:
        self._ttl_drops[flow] = self._ttl_drops.get(flow, 0) + 1

    # ------------------------------------------------------------------
    # report generation
    # ------------------------------------------------------------------
    def make_report(self, now: Nanoseconds, ports: dict[int, "object"],
                    scope_ports: Optional[set[int]] = None,
                    poll_id: Optional[str] = None) -> SwitchReport:
        """Assemble a report for ``scope_ports`` (None = all ports).

        ``ports`` maps local port index to the live
        :class:`~repro.simnet.port.EgressPort` objects (for queue depth
        and pause state).
        """
        pause_since = now - PAUSE_RECENCY_NS
        meters = self._port_meters.snapshot(now)

        selected = sorted(scope_ports) if scope_ports is not None \
            else sorted(ports)
        entries: list[PortTelemetryEntry] = []
        for port_idx in selected:
            port = ports.get(port_idx)
            if port is None:
                continue
            per_flow = self._flow_pkts.snapshot_group(now, port_idx)
            weights = self._wait_weights.snapshot_group(now, port_idx)
            entries.append(PortTelemetryEntry(
                port=port_idx,
                qdepth_pkts=port.data_queue_depth,
                qdepth_bytes=port.data_queue_bytes,
                paused=port.paused,
                flow_pkts=per_flow,
                inqueue_flow_pkts=dict(self._inqueue.get(port_idx, {})),
                wait_weights=weights,
            ))

        scope = set(selected)
        port_meters = {key: value for key, value in meters.items()
                       if scope_ports is None or key[1] in scope
                       or key[0] in scope}
        pause_received = [e for e in self.pause_log.received
                          if e.time >= pause_since
                          and (scope_ports is None or e.victim.port in scope)]
        pause_sent = [e for e in self.pause_log.sent if e.time >= pause_since]

        report = SwitchReport(
            switch_id=self.switch_id,
            time=now,
            poll_id=poll_id,
            ports=entries,
            port_meters=port_meters,
            pause_received=pause_received,
            pause_sent=pause_sent,
            ttl_drops=dict(self._ttl_drops),
        )
        report.size_bytes = self._report_size(report)
        return report

    def _report_size(self, report: SwitchReport) -> int:
        size = REPORT_HEADER_BYTES
        for entry in report.ports:
            size += PORT_ENTRY_BYTES
            size += FLOW_ENTRY_BYTES * (len(entry.flow_pkts)
                                        + len(entry.inqueue_flow_pkts))
            size += PAIR_ENTRY_BYTES * len(entry.wait_weights)
        size += METER_ENTRY_BYTES * len(report.port_meters)
        size += PAUSE_ENTRY_BYTES * (len(report.pause_received)
                                     + len(report.pause_sent))
        size += FLOW_ENTRY_BYTES * len(report.ttl_drops)
        return size

    def recent_pauses_on_port(self, now: Nanoseconds,
                              port: int) -> list[PauseEvent]:
        """Pause frames that halted local egress ``port`` recently —
        the trigger for chasing the PFC spreading path."""
        since = now - PAUSE_RECENCY_NS
        return self.pause_log.pauses_received_since(port, since)

    def egress_ports_fed_by(self, now: Nanoseconds, ingress_port: int) -> list[int]:
        """Egress ports that ingress ``ingress_port`` forwarded traffic to
        within the meter window (the continuation of a PFC chase)."""
        meters = self._port_meters.snapshot(now)
        return sorted({out for (inp, out), value in meters.items()
                       if inp == ingress_port and value > 0})
