"""Primitive anomaly injectors.

Each injector mutates a live :class:`~repro.simnet.network.Network`
(creating flows, arming storm timers, or overriding routes) and returns
the objects an experiment needs for ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.simnet.flow import RdmaFlow
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PfcStormInjector, PortRef


@dataclass(frozen=True)
class BackgroundFlowSpec:
    """One background flow to inject."""

    src: str
    dst: str
    size_bytes: int
    start_ns: float


def inject_background_flows(network: Network,
                            specs: Sequence[BackgroundFlowSpec]
                            ) -> list[RdmaFlow]:
    """Create and start the given background flows."""
    flows = []
    for spec in specs:
        flow = network.create_flow(spec.src, spec.dst, spec.size_bytes,
                                   start_time=spec.start_ns)
        flow.start()
        flows.append(flow)
    return flows


def inject_pfc_storm(network: Network, switch_id: str, port: int,
                     start_ns: float, duration_ns: float,
                     refresh_ns: Optional[float] = None) -> PfcStormInjector:
    """Arm a continuous PAUSE injection at (switch, port)."""
    injector = PfcStormInjector(network, switch_id, port, start_ns,
                                duration_ns, refresh_ns=refresh_ns)
    injector.arm()
    return injector


def inject_forwarding_loop(network: Network, flow: FlowKey,
                           at_switch: str, back_toward: str) -> None:
    """Route ``flow`` from ``at_switch`` back toward ``back_toward``,
    creating a loop (packets eventually die by TTL and show up in the
    switch's ttl-drop telemetry)."""
    network.routing.set_override(at_switch, flow, back_toward)


def inject_ecmp_imbalance(network: Network, flow_keys: Sequence[FlowKey],
                          core: str, agg_position: int,
                          half: int = 2) -> Optional[PortRef]:
    """Force the given (cross-pod) flows through one core switch.

    Models an ECMP misjudgment (§II-B): instead of spreading over
    equal-cost uplinks, every flow is pinned — at its source edge switch
    and aggregation switch — onto the path through ``core``.  Flows
    bound for the same destination pod then share the core's downlink,
    the load-imbalance congestion point.

    Returns the shared core egress port toward the destination pod (the
    diagnosis ground truth), or None if fewer than two flows converge.
    """
    dst_pods = set()
    for key in flow_keys:
        src_host = int(key.src[1:])
        dst_host = int(key.dst[1:])
        src_pod = src_host // (half * half)
        dst_pods.add(dst_host // (half * half))
        edge = f"e{src_host // half}"
        agg = f"a{src_pod * half + agg_position}"
        network.routing.set_override(edge, key, agg)
        network.routing.set_override(agg, key, core)
    if len(flow_keys) < 2 or len(dst_pods) != 1:
        return None
    dst_pod = dst_pods.pop()
    dst_agg = f"a{dst_pod * half + agg_position}"
    core_switch = network.switches[core]
    return PortRef(core, core_switch.neighbor_port[dst_agg])


def ingress_port_on_path(network: Network, key: FlowKey,
                         switch_id: str) -> Optional[PortRef]:
    """The ingress port at ``switch_id`` through which ``key``'s packets
    arrive (a storm injected there halts the flow's previous hop)."""
    path = network.routing.path(key)
    for i, node in enumerate(path):
        if node == switch_id and i > 0:
            switch = network.switches[switch_id]
            return PortRef(switch_id, switch.neighbor_port[path[i - 1]])
    return None
