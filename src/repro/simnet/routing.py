"""ECMP routing over shortest paths.

Switches forward by asking the routing object for the next hop given the
packet's flow key.  ECMP selection hashes the 5-tuple (plus the current
node id, as real switches effectively do via per-switch hash seeds), so a
flow follows one stable path but different flows spread across equal-cost
paths — which is exactly how the paper's load-imbalance and contention
anomalies arise.

Static per-flow overrides support the loop anomaly (§II-B): a route
override at one switch can send a flow back the way it came.
"""

from __future__ import annotations

import collections
import zlib
from typing import Optional

from repro.core.units import Bytes, Nanoseconds
from repro.simnet.packet import HEADER_BYTES, MTU_PAYLOAD_BYTES, FlowKey
from repro.simnet.topology import Topology
from repro.simnet.units import serialization_delay

#: what ``base_rtt_ns`` serialises at every hop: one full data packet
#: out and one ACK back
RTT_PACKET_BYTES: Bytes = MTU_PAYLOAD_BYTES + HEADER_BYTES
RTT_ACK_BYTES: Bytes = 64


class RoutingError(Exception):
    """Raised when no route exists for a destination."""


class EcmpRouting:
    """Shortest-path ECMP with optional static per-flow overrides."""

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        self.topology = topology
        self.seed = seed
        self._dist = self._all_pairs_distances()
        # (node_id, flow_key) -> forced next hop
        self._overrides: dict[tuple[str, FlowKey], str] = {}
        self._neighbor_cache: dict[str, list[str]] = {
            n: sorted(topology.neighbors(n)) for n in topology.nodes
        }
        #: bumped whenever an override changes.  Switches keep the
        #: per-flow answers of :meth:`next_hop` in forwarding tables and
        #: check them against this, once per packet.
        self.version = 0

    def _all_pairs_distances(self) -> dict[str, dict[str, int]]:
        """BFS from every node.  Host links count like any other hop."""
        dist: dict[str, dict[str, int]] = {}
        adjacency: dict[str, list[str]] = collections.defaultdict(list)
        for link in self.topology.links:
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
        for source in self.topology.nodes:
            level = {source: 0}
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                next_frontier = []
                for node in frontier:
                    for neighbor in adjacency[node]:
                        if neighbor not in level:
                            level[neighbor] = depth
                            next_frontier.append(neighbor)
                frontier = next_frontier
            dist[source] = level
        return dist

    def set_override(self, node_id: str, flow: FlowKey, next_hop: str) -> None:
        """Force ``flow`` to leave ``node_id`` toward ``next_hop``.

        Used by anomaly injection (forwarding loops, load imbalance).
        """
        if next_hop not in self._neighbor_cache.get(node_id, []):
            raise RoutingError(
                f"{next_hop!r} is not a neighbor of {node_id!r}")
        self._overrides[(node_id, flow)] = next_hop
        self.version += 1

    def clear_override(self, node_id: str, flow: FlowKey) -> None:
        self._overrides.pop((node_id, flow), None)
        self.version += 1

    def ecmp_candidates(self, node_id: str, dst: str) -> list[str]:
        """All neighbors on a shortest path from ``node_id`` to ``dst``."""
        dist_to_dst = self._dist[dst]
        here = dist_to_dst.get(node_id)
        if here is None:
            raise RoutingError(f"{dst!r} unreachable from {node_id!r}")
        return [n for n in self._neighbor_cache[node_id]
                if dist_to_dst.get(n, float("inf")) == here - 1]

    def next_hop(self, node_id: str, flow: FlowKey,
                 dst: Optional[str] = None) -> str:
        """Next hop for ``flow`` at ``node_id``.

        ``dst`` defaults to the flow's destination; control packets that
        travel toward arbitrary nodes pass it explicitly.
        """
        if self._overrides:
            override = self._overrides.get((node_id, flow))
            if override is not None:
                return override
        destination = dst if dst is not None else flow.dst
        if node_id == destination:
            raise RoutingError(f"packet for {destination!r} already there")
        candidates = self.ecmp_candidates(node_id, destination)
        if not candidates:
            raise RoutingError(
                f"no route from {node_id!r} to {destination!r}")
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self._ecmp_hash(node_id, flow) % len(candidates)]

    def _ecmp_hash(self, node_id: str, flow: FlowKey) -> int:
        """5-tuple hash with a per-routing seed.

        The CRC is mixed non-linearly afterwards: CRC32 alone is linear
        over GF(2), so a seed change could otherwise flip either *all*
        modulo-2 selections or none of them.
        """
        digest = zlib.crc32(
            f"{node_id}|{flow.src}|{flow.dst}|"
            f"{flow.src_port}|{flow.dst_port}|{flow.protocol}".encode())
        mixed = (digest * 2654435761 + self.seed * 40503) & 0xFFFFFFFF
        mixed ^= mixed >> 16
        mixed = (mixed * 2246822519) & 0xFFFFFFFF
        mixed ^= mixed >> 13
        return mixed

    def path(self, flow: FlowKey, src: Optional[str] = None,
             dst: Optional[str] = None, max_hops: int = 64) -> list[str]:
        """Full node path the flow's packets will take (src..dst).

        Raises :class:`RoutingError` if an override cycle prevents the
        packet from ever reaching the destination — callers probing a
        deliberately-looped flow should catch it.
        """
        source = src if src is not None else flow.src
        destination = dst if dst is not None else flow.dst
        path = [source]
        node = source
        for _ in range(max_hops):
            if node == destination:
                return path
            node = self.next_hop(node, flow, destination)
            path.append(node)
        raise RoutingError(
            f"path for {flow.short()} exceeded {max_hops} hops "
            "(forwarding loop?)")

    def shortest_path(self, src: str, dst: str,
                      flow: Optional[FlowKey] = None) -> list[str]:
        """A shortest path from the clean topology, *ignoring* static
        overrides.  This is the planned route a monitor reasons about;
        anomalies (loops) only corrupt the live forwarding state."""
        probe = flow or FlowKey(src, dst, 0, 0)
        dist_to_dst = self._dist[dst]
        if src not in dist_to_dst:
            raise RoutingError(f"{dst!r} unreachable from {src!r}")
        path = [src]
        node = src
        while node != dst:
            candidates = self.ecmp_candidates(node, dst)
            if len(candidates) == 1:
                node = candidates[0]
            else:
                node = candidates[self._ecmp_hash(node, probe)
                                  % len(candidates)]
            path.append(node)
        return path

    def base_rtt_ns(self, src: str, dst: str, flow: Optional[FlowKey] = None
                    ) -> Nanoseconds:
        """Unloaded round-trip estimate between two hosts.

        Vedrfolnir recomputes RTT thresholds from topology before each
        step (§III-C2); this is that computation: propagation both ways
        plus store-and-forward serialization of one data packet out and
        one ACK back at every hop.  Uses the clean shortest path, so it
        stays meaningful even when the live route is broken (loops).
        """
        hops = self.shortest_path(src, dst, flow=flow)
        total = 0.0
        for i in range(len(hops) - 1):
            link = self.topology.link_between(hops[i], hops[i + 1])
            total += 2 * link.delay_ns
            total += serialization_delay(RTT_PACKET_BYTES + RTT_ACK_BYTES,
                                         link.bandwidth_bps)
        return total
