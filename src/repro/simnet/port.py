"""Egress ports: per-priority queues, serialization, PFC pause state.

Every unidirectional channel in the network is driven by one
:class:`EgressPort`.  The port serves its CONTROL queue strictly before
its DATA queue; PFC pause only ever gates the DATA class (control traffic
rides an unpaused priority, mirroring production RoCE deployments and the
paper's "notification packets are assigned the highest priority").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.units import BitsPerSecond, Bytes, Nanoseconds
from repro.simnet.packet import PRIO_CONTROL, PRIO_DATA, Packet
from repro.simnet.units import SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import Simulator


class EgressPort:
    """One transmit side of a link.

    The owner node enqueues packets; the port serializes them at link
    rate and delivers each to ``deliver_fn`` (installed by the network
    when wiring the topology) after the propagation delay.

    Callbacks:

    * ``on_departure(packet)`` — fires when a DATA packet finishes
      serialization and leaves the node (switches use it for PFC ingress
      accounting and port-to-port meters, which count the DATA class
      only; CONTROL packets, half of all departures, skip the call).
    * ``on_space(port)`` — fires after any dequeue (hosts use it to
      unblock flows waiting for queue space).

    A port without ``on_space`` (every switch port) has nothing to run
    when a CONTROL packet finishes serialising: a CONTROL packet it
    cuts through costs one event, its delivery, and the wire is held
    until ``_free_at`` instead of by a finish event.
    """

    __slots__ = (
        "sim", "node_id", "port_id", "bandwidth_bps", "delay_ns",
        "peer_node_id", "peer_port_id", "deliver_fn",
        "_control_queue", "_data_queue", "data_queue_bytes",
        "control_queue_bytes", "busy", "paused", "_pause_timeout_event",
        "on_departure", "on_space", "data_queue_cap_bytes", "_free_at",
    )

    def __init__(self, sim: "Simulator", node_id: str, port_id: int,
                 bandwidth_bps: BitsPerSecond, delay_ns: Nanoseconds,
                 data_queue_cap_bytes: Optional[Bytes] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.port_id = port_id
        self.bandwidth_bps = bandwidth_bps
        self.delay_ns = delay_ns
        self.peer_node_id: Optional[str] = None
        self.peer_port_id: Optional[int] = None
        self.deliver_fn: Optional[Callable[[Packet, int], None]] = None
        self._control_queue: deque[Packet] = deque()
        self._data_queue: deque[Packet] = deque()
        self.data_queue_bytes = 0
        self.control_queue_bytes = 0
        self.busy = False
        self.paused = False
        self._pause_timeout_event = None
        self.on_departure: Optional[Callable[[Packet], None]] = None
        self.on_space: Optional[Callable[["EgressPort"], None]] = None
        self.data_queue_cap_bytes = data_queue_cap_bytes
        #: until when a fused CONTROL packet holds the wire
        self._free_at = 0.0

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def data_queue_depth(self) -> int:
        """DATA packets currently queued (the provenance qdepth)."""
        return len(self._data_queue)

    def data_queue_has_room(self, size: int) -> bool:
        if self.data_queue_cap_bytes is None:
            return True
        return self.data_queue_bytes + size <= self.data_queue_cap_bytes

    # ------------------------------------------------------------------
    # enqueue / service
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission.

        Returns False (and drops) only when a DATA cap is configured and
        exceeded — with PFC enabled upstream this should not happen.

        Cut-through: a packet nothing could be served before — port not
        busy, *both* queues empty, DATA not paused — starts serialising
        without the deque round trip.  ``busy`` alone is not enough:
        ``_finish_transmit`` clears it before it runs ``on_space``, and
        a DATA packet offered from inside that hook must not overtake
        an ACK waiting in the control queue.  Nor is it while a fused
        CONTROL packet holds the wire (``now < _free_at``).
        """
        size = packet.size
        data = packet.priority is not PRIO_CONTROL
        if data:
            cap = self.data_queue_cap_bytes
            if cap is not None and self.data_queue_bytes + size > cap:
                return False
        sim = self.sim
        if self.busy or self._control_queue or self._data_queue \
                or (data and self.paused) or sim.now < self._free_at:
            if data:
                self._data_queue.append(packet)
                self.data_queue_bytes += size
            else:
                self._control_queue.append(packet)
                self.control_queue_bytes += size
            if not self.busy:
                self._try_transmit()
            return True
        if sim.sanitizer is not None:
            # the counter the round trip would have raised and lowered
            sim.sanitizer.check_occupancy(
                self.node_id, self.port_id,
                "data queue bytes" if data else "control queue bytes",
                self.data_queue_bytes if data else self.control_queue_bytes)
        # inlined serialization_delay() — identical operation order, so
        # timestamps stay bit-identical while skipping the call overhead
        tx_time = size * 8.0 / self.bandwidth_bps * SEC
        if data or self.on_space is not None or self.deliver_fn is None:
            self.busy = True
            sim.post(tx_time, self._finish_transmit, packet)
        else:
            # the finish would only post the delivery: post it now, at
            # the time the finish would have summed
            free_at = self._free_at = sim.now + tx_time
            sim.post_at(free_at + self.delay_ns, self.deliver_fn, packet,
                        self.peer_port_id)
        return True

    def _try_transmit(self) -> None:
        """Start serialising the next serviceable packet (CONTROL before
        DATA, DATA only while unpaused) unless one is on the wire."""
        if self.busy:
            return
        sim = self.sim
        if sim.now < self._free_at:
            # a fused CONTROL packet is on the wire: serve at its finish
            if self._control_queue or self._data_queue:
                self.busy = True
                sim.post_at(self._free_at, self._wake)
            return
        if self._control_queue:
            packet = self._control_queue.popleft()
            self.control_queue_bytes -= packet.size
            what, queued = "control queue bytes", self.control_queue_bytes
        elif self._data_queue and not self.paused:
            packet = self._data_queue.popleft()
            self.data_queue_bytes -= packet.size
            what, queued = "data queue bytes", self.data_queue_bytes
        else:
            return
        if sim.sanitizer is not None:
            sim.sanitizer.check_occupancy(
                self.node_id, self.port_id, what, queued)
        self.busy = True
        sim.post(packet.size * 8.0 / self.bandwidth_bps * SEC,
                 self._finish_transmit, packet)

    def _finish_transmit(self, packet: Packet) -> None:
        self.busy = False
        if self.on_departure is not None \
                and packet.priority is PRIO_DATA:
            self.on_departure(packet)
        if self.deliver_fn is not None:
            self.sim.post(self.delay_ns, self.deliver_fn, packet,
                          self.peer_port_id)
        if self.on_space is not None:
            self.on_space(self)
        if self._control_queue or self._data_queue:
            self._try_transmit()

    def _wake(self) -> None:
        """The fused CONTROL packet's wire time is over."""
        self.busy = False
        self._try_transmit()

    # ------------------------------------------------------------------
    # PFC pause state (DATA class only)
    # ------------------------------------------------------------------
    def pause(self, duration_ns: Nanoseconds) -> None:
        """Halt DATA transmission for ``duration_ns`` (refreshable)."""
        self.paused = True
        if self._pause_timeout_event is not None:
            self._pause_timeout_event.cancel()
        self._pause_timeout_event = self.sim.schedule(
            duration_ns, self._pause_timeout)

    def resume(self) -> None:
        """Lift the pause immediately (RESUME frame received)."""
        if self._pause_timeout_event is not None:
            self._pause_timeout_event.cancel()
            self._pause_timeout_event = None
        self._unpause()

    def _pause_timeout(self) -> None:
        self._pause_timeout_event = None
        self._unpause()

    def _unpause(self) -> None:
        if self.paused:
            self.paused = False
            self._try_transmit()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EgressPort({self.node_id}.p{self.port_id}->"
                f"{self.peer_node_id}, qd={self.data_queue_depth}, "
                f"paused={self.paused})")
