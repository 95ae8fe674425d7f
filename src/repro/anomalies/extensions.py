"""Extension anomalies beyond the paper's four evaluated scenarios
(§II-B lists them; §V discusses extensibility): forwarding loops and
PFC deadlock.

Both produce signatures the diagnosis layer already understands:
TTL-expiry drops for loops, cycles in the PFC-causality edges for
deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.anomalies.injectors import inject_forwarding_loop
from repro.collective.runtime import CollectiveRuntime
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.topology import build_switch_ring
from repro.simnet.units import KB

#: bytes each of :func:`build_deadlock_network`'s three flows sends
DEADLOCK_FLOW_BYTES = 2_000_000
#: the deadlock ring's PFC XOFF threshold (XON is half of it)
DEADLOCK_XOFF_BYTES = 64 * KB

@dataclass
class LoopInjection:
    """A transient forwarding loop on one collective flow."""

    flow: FlowKey
    at_switch: str
    back_toward: str
    heal_after_ns: Optional[float]


def inject_transient_loop(network: Network, runtime: CollectiveRuntime,
                          node: str, heal_after_ns: Optional[float] = None
                          ) -> LoopInjection:
    """Bounce ``node``'s first collective flow's packets back the way
    they came (asynchronous reconfiguration gone wrong, §II-B).

    The loop forms at the second switch of the flow's path and
    optionally heals after ``heal_after_ns`` — packets caught in it die
    by TTL and the sender's go-back-N recovers once routing heals.
    """
    key = runtime.flow_keys[(node, 0)]
    path = network.routing.path(key)
    switches = [n for n in path if n in network.switches]
    if len(switches) < 2:
        raise ValueError(
            f"flow {key.short()} is single-switch; no loop possible")
    at_switch, back_toward = switches[1], switches[0]
    inject_forwarding_loop(network, key, at_switch, back_toward)
    if heal_after_ns is not None:
        network.sim.schedule(
            heal_after_ns,
            lambda: network.routing.clear_override(at_switch, key))
    return LoopInjection(flow=key, at_switch=at_switch,
                         back_toward=back_toward,
                         heal_after_ns=heal_after_ns)


def build_deadlock_network() -> tuple:
    """A three-switch ring rigged for PFC deadlock.

    Three flows are each forced the *long* way around the ring, so every
    inter-switch link carries two flows' worth of line-rate traffic.
    Queues build everywhere at once, each switch pauses its upstream
    neighbor on the ring, and the pause cycle closes — the hold-and-wait
    condition of §II-B's deadlock case.

    Returns ``(network, flows)``; drive the network yourself, then feed
    the switch telemetry to :func:`repro.core.diagnosis.diagnose` and
    look for :class:`AnomalyType.PFC_DEADLOCK`.
    """
    from repro.simnet.network import NetworkConfig

    config = NetworkConfig(pfc_xoff_bytes=DEADLOCK_XOFF_BYTES,
                           pfc_xon_bytes=DEADLOCK_XOFF_BYTES // 2,
                           window_bytes=512 * KB)
    network = Network(build_switch_ring(hosts_per_switch=2),
                      config=config)
    # hosts: h0,h1 on s0; h2,h3 on s1; h4,h5 on s2
    routes = [
        ("h0", "h4", ["s0", "s1", "s2"]),   # long way (short way: s0->s2)
        ("h2", "h0", ["s1", "s2", "s0"]),
        ("h4", "h2", ["s2", "s0", "s1"]),
    ]
    flows = []
    for src, dst, path in routes:
        key = network.new_flow_key(src, dst)
        for here, nxt in zip(path, path[1:]):
            network.routing.set_override(here, key, nxt)
        flow = network.create_flow(src, dst, DEADLOCK_FLOW_BYTES, key=key)
        flow.start()
        flows.append(flow)
    return network, flows
