"""Base class shared by hosts and switches."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simnet.packet import Packet
from repro.simnet.pfc import PAUSE_QUANTA_NS
from repro.simnet.port import EgressPort

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network


class Node:
    """A device with one egress port per attached link.

    Port indices are assigned in wiring order by the network; the
    ``neighbor_port`` map translates a neighbor's node id into the local
    port index facing it (used for routing and PFC bookkeeping).
    """

    def __init__(self, network: "Network", node_id: str) -> None:
        self.network = network
        self.sim = network.sim  # hot-path alias (never reassigned)
        self.node_id = node_id
        self.ports: dict[int, EgressPort] = {}
        self.neighbor_port: dict[str, int] = {}
        self.port_neighbor: dict[int, str] = {}
        self._pseudo_flows: dict[str, object] = {}

    def attach_port(self, port: EgressPort, neighbor: str) -> None:
        self.ports[port.port_id] = port
        self.neighbor_port[neighbor] = port.port_id
        self.port_neighbor[port.port_id] = neighbor

    def port_toward(self, neighbor: str) -> EgressPort:
        try:
            return self.ports[self.neighbor_port[neighbor]]
        except KeyError:
            raise KeyError(
                f"{self.node_id} has no port toward {neighbor}") from None

    # -- interface implemented by subclasses ---------------------------
    def receive(self, packet: Packet, ingress_port: int) -> None:
        raise NotImplementedError

    def on_pause_frame(self, port_id: int, event) -> None:
        """Default: pause the local egress port named by the frame."""
        sanitizer = self.network.sim.sanitizer
        if sanitizer is not None:
            sanitizer.on_pause_delivered(self.node_id, port_id)
        port = self.ports.get(port_id)
        if port is not None:
            port.pause(PAUSE_QUANTA_NS)

    def on_resume_frame(self, port_id: int, event) -> None:
        sanitizer = self.network.sim.sanitizer
        if sanitizer is not None:
            sanitizer.on_resume_delivered(self.node_id, port_id)
        port = self.ports.get(port_id)
        if port is not None:
            port.resume()

    def pseudo_flow(self, dst: str) -> "object":
        """An interned flow key for routing flowless control packets.

        Cached per destination: control packets traverse this on every
        switch hop, and an allocation per hop shows up in profiles.
        """
        key = self._pseudo_flows.get(dst)
        if key is None:
            from repro.simnet.packet import FlowKey, intern_flow_key
            key = intern_flow_key(FlowKey(self.node_id, dst, 0, 0, "CTRL"))
            self._pseudo_flows[dst] = key
        return key
