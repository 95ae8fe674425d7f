"""Discrete-event, packet-level RDMA network simulator.

``repro.simnet`` is the substrate on which the Vedrfolnir diagnosis system
runs.  It models a RoCEv2-style lossless Ethernet fabric:

* a deterministic discrete-event engine (:mod:`repro.simnet.engine`),
* fat-tree and custom topologies (:mod:`repro.simnet.topology`),
* ECMP routing with static overrides (:mod:`repro.simnet.routing`),
* switches with per-priority egress queues, ingress PFC accounting and
  ECN marking (:mod:`repro.simnet.switch`),
* PFC pause/resume causality tracking (:mod:`repro.simnet.pfc`),
* DCQCN congestion control with line-rate start
  (:mod:`repro.simnet.dcqcn`),
* RDMA-like message flows with pacing, windowing and per-packet ACKs
  (:mod:`repro.simnet.flow`),
* switch telemetry and polling-packet propagation
  (:mod:`repro.simnet.telemetry`).

Every layer is deterministic by construction; the optional runtime
sanitizer (``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1``,
see :mod:`repro.checks.sanitizer`) verifies the invariants that
determinism rests on and raises :class:`InvariantViolation` —
re-exported here for ergonomic catching — when one breaks.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.checks.sanitizer import InvariantViolation, SimSanitizer

if TYPE_CHECKING:   # a trace reader needs packet / pfc / telemetry only
    from repro.simnet.dcqcn import DcqcnConfig
    from repro.simnet.engine import Event, Simulator
    from repro.simnet.flow import FlowStats, RdmaFlow
    from repro.simnet.network import Network, NetworkConfig
    from repro.simnet.packet import FlowKey, Packet, PacketKind, Priority
    from repro.simnet.routing import EcmpRouting
    from repro.simnet.telemetry import SwitchReport, TelemetryConfig
    from repro.simnet.topology import (
        NodeKind,
        Topology,
        build_dumbbell,
        build_fat_tree,
        build_linear,
    )

__getattr__ = lazy_exports(__name__, {
    "engine": ("Simulator", "Event"),
    "packet": ("Packet", "PacketKind", "FlowKey", "Priority"),
    "topology": ("Topology", "NodeKind", "build_fat_tree",
                 "build_dumbbell", "build_linear"),
    "routing": ("EcmpRouting",),
    "network": ("Network", "NetworkConfig"),
    "flow": ("RdmaFlow", "FlowStats"),
    "dcqcn": ("DcqcnConfig",),
    "telemetry": ("TelemetryConfig", "SwitchReport"),
})

__all__ = [
    "Simulator",
    "Event",
    "InvariantViolation",
    "SimSanitizer",
    "Packet",
    "PacketKind",
    "FlowKey",
    "Priority",
    "Topology",
    "NodeKind",
    "build_fat_tree",
    "build_dumbbell",
    "build_linear",
    "EcmpRouting",
    "Network",
    "NetworkConfig",
    "RdmaFlow",
    "FlowStats",
    "DcqcnConfig",
    "TelemetryConfig",
    "SwitchReport",
]
