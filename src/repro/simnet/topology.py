"""Network topologies.

The paper's simulation setup (§IV-A) is a K=4 fat-tree: 16 hosts, 8 edge
(ToR) switches, 8 aggregation switches and 4 core switches — 20 switches
total — with 100 Gbps links and 2 us propagation delay.
:func:`build_fat_tree` reproduces exactly that by default.  Dumbbell and
linear topologies are provided for unit tests and focused experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.units import BitsPerSecond, Nanoseconds
from repro.simnet.units import gbps, us

DEFAULT_BANDWIDTH_BPS = gbps(100)
DEFAULT_LINK_DELAY_NS = us(2)
#: switches in :func:`build_switch_ring`, the smallest cycle
RING_SWITCHES = 3


class NodeKind(enum.Enum):
    """Role of a topology node."""

    HOST = "host"
    SWITCH = "switch"


@dataclass(frozen=True)
class LinkSpec:
    """An undirected physical link between two nodes.

    The simulator instantiates it as two independent unidirectional
    channels with the same bandwidth and delay.
    """

    a: str
    b: str
    bandwidth_bps: BitsPerSecond = DEFAULT_BANDWIDTH_BPS
    delay_ns: Nanoseconds = DEFAULT_LINK_DELAY_NS

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node} is not an endpoint of {self}")


@dataclass
class Topology:
    """A named topology: nodes with roles plus undirected links."""

    name: str
    nodes: dict[str, NodeKind] = field(default_factory=dict)
    links: list[LinkSpec] = field(default_factory=list)

    def add_node(self, node_id: str, kind: NodeKind) -> None:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = kind

    def add_link(self, a: str, b: str,
                 bandwidth_bps: BitsPerSecond = DEFAULT_BANDWIDTH_BPS
                 ) -> None:
        for endpoint in (a, b):
            if endpoint not in self.nodes:
                raise ValueError(f"unknown node {endpoint!r}")
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        self.links.append(LinkSpec(a, b, bandwidth_bps))

    @property
    def hosts(self) -> list[str]:
        return [n for n, k in self.nodes.items() if k is NodeKind.HOST]

    @property
    def switches(self) -> list[str]:
        return [n for n, k in self.nodes.items() if k is NodeKind.SWITCH]

    def neighbors(self, node_id: str) -> Iterator[str]:
        for link in self.links:
            if link.a == node_id:
                yield link.b
            elif link.b == node_id:
                yield link.a

    def degree(self, node_id: str) -> int:
        return sum(1 for _ in self.neighbors(node_id))

    def link_between(self, a: str, b: str) -> LinkSpec:
        for link in self.links:
            if {link.a, link.b} == {a, b}:
                return link
        raise KeyError(f"no link between {a!r} and {b!r}")

    def validate(self) -> None:
        """Raise if the topology is malformed (dup links, dangling refs)."""
        seen: set[frozenset[str]] = set()
        for link in self.links:
            key = frozenset((link.a, link.b))
            if key in seen:
                raise ValueError(f"duplicate link {link.a}-{link.b}")
            seen.add(key)
        for host in self.hosts:
            if self.degree(host) != 1:
                raise ValueError(
                    f"host {host} must have exactly one uplink, "
                    f"has {self.degree(host)}")


def build_fat_tree(k: int = 4) -> Topology:
    """Standard K-ary fat-tree.

    For k=4 (the paper's setup): 16 hosts ``h0..h15``, 8 edge switches
    ``e0..e7``, 8 aggregation switches ``a0..a7``, 4 cores ``c0..c3``.
    Host ``h(k//2 * e + j)`` attaches to edge switch ``e``.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology(name=f"fat-tree-k{k}")

    num_pods = k
    num_cores = half * half
    for c in range(num_cores):
        topo.add_node(f"c{c}", NodeKind.SWITCH)
    for pod in range(num_pods):
        for i in range(half):
            topo.add_node(f"a{pod * half + i}", NodeKind.SWITCH)
            topo.add_node(f"e{pod * half + i}", NodeKind.SWITCH)
    for h in range(num_pods * half * half):
        topo.add_node(f"h{h}", NodeKind.HOST)

    for pod in range(num_pods):
        for i in range(half):
            edge = f"e{pod * half + i}"
            agg_ids = [f"a{pod * half + j}" for j in range(half)]
            for agg in agg_ids:
                topo.add_link(edge, agg)
            for j in range(half):
                host = f"h{(pod * half + i) * half + j}"
                topo.add_link(host, edge)
        for i in range(half):
            agg = f"a{pod * half + i}"
            for j in range(half):
                core = f"c{i * half + j}"
                topo.add_link(agg, core)

    topo.validate()
    return topo


def build_dumbbell(hosts_per_side: int = 2,
                   bandwidth_bps: BitsPerSecond = DEFAULT_BANDWIDTH_BPS,
                   bottleneck_bps: BitsPerSecond | None = None) -> Topology:
    """Two switches joined by one (optionally slower) bottleneck link,
    with ``hosts_per_side`` hosts hanging off each switch.

    The classic congestion unit-test topology: all cross traffic shares
    the s0-s1 link.
    """
    if hosts_per_side < 1:
        raise ValueError("need at least one host per side")
    topo = Topology(name=f"dumbbell-{hosts_per_side}")
    topo.add_node("s0", NodeKind.SWITCH)
    topo.add_node("s1", NodeKind.SWITCH)
    topo.add_link("s0", "s1", bottleneck_bps or bandwidth_bps)
    for i in range(hosts_per_side):
        left, right = f"h{i}", f"h{hosts_per_side + i}"
        topo.add_node(left, NodeKind.HOST)
        topo.add_node(right, NodeKind.HOST)
        topo.add_link(left, "s0", bandwidth_bps)
        topo.add_link(right, "s1", bandwidth_bps)
    topo.validate()
    return topo


def build_switch_ring(hosts_per_switch: int = 1) -> Topology:
    """A cycle of switches, each with local hosts.

    The only topology here on which PFC *deadlock* (§II-B) can form:
    with routes forced the long way around, every inter-switch link can
    end up paused by the next one, closing the hold-and-wait cycle.
    """
    topo = Topology(name=f"switch-ring-{RING_SWITCHES}")
    for s in range(RING_SWITCHES):
        topo.add_node(f"s{s}", NodeKind.SWITCH)
    for s in range(RING_SWITCHES):
        topo.add_link(f"s{s}", f"s{(s + 1) % RING_SWITCHES}")
    host = 0
    for s in range(RING_SWITCHES):
        for _ in range(hosts_per_switch):
            topo.add_node(f"h{host}", NodeKind.HOST)
            topo.add_link(f"h{host}", f"s{s}")
            host += 1
    topo.validate()
    return topo


def build_linear(num_switches: int = 3, hosts_per_switch: int = 1,
                 bandwidth_bps: BitsPerSecond = DEFAULT_BANDWIDTH_BPS
                 ) -> Topology:
    """A chain of switches, each with local hosts.

    Useful for PFC-propagation tests: congestion at the tail switch
    back-pressures hop by hop toward the head.
    """
    if num_switches < 1:
        raise ValueError("need at least one switch")
    topo = Topology(name=f"linear-{num_switches}")
    for s in range(num_switches):
        topo.add_node(f"s{s}", NodeKind.SWITCH)
        if s > 0:
            topo.add_link(f"s{s - 1}", f"s{s}", bandwidth_bps)
    host = 0
    for s in range(num_switches):
        for _ in range(hosts_per_switch):
            topo.add_node(f"h{host}", NodeKind.HOST)
            topo.add_link(f"h{host}", f"s{s}", bandwidth_bps)
            host += 1
    topo.validate()
    return topo
