"""The per-hop hot path: same order, same routes, fewer frames.

The packet-hop path (engine ``post`` -> ``EgressPort`` -> ``SwitchNode``
/ ``HostNode`` ``receive``) is written for few Python frames per event.
Every shortcut on it is admissible only because it is indistinguishable
from the long way round, so each one is pinned here against the long
way round itself:

* port order — the cut-through port against a reference port that
  keeps the append -> ``_try_transmit`` -> pop service discipline;
* forwarding table — a switch's ``flow -> EgressPort`` table against
  the routing object it caches;
* frame budget — Python frames per executed event on a golden case,
  and with the sanitizer on against off (deterministic, so it is the
  regression gate wall time cannot be);
* the two scheduling verbs — ``post`` and ``schedule`` interleaved
  execute in one ``(time, seq)`` order with exact accounting.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.anomalies.extensions import inject_transient_loop
from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.experiments.harness import make_system
from repro.perf.golden import GOLDEN_SCALE
from repro.simnet.engine import _COMPACT_MIN_PENDING, Simulator, \
    _env_sanitize
from repro.simnet.network import Network
from repro.simnet.packet import (
    FlowKey,
    PacketKind,
    Priority,
    make_control_packet,
    make_data_packet,
)
from repro.simnet.port import EgressPort
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import SEC, gbps, ms, us
from repro.traces import TraceRecorder

GOLDEN = json.loads((Path(__file__).parents[1] / "fixtures"
                     / "golden_digests.json").read_text())


# ----------------------------------------------------------------------
# (a) port order: cut-through port == reference port
# ----------------------------------------------------------------------
class ReferencePort(EgressPort):
    """The service discipline before the cut-through: every packet goes
    through its queue, and one routine pops the next one."""

    def enqueue(self, packet) -> bool:
        if packet.priority is Priority.CONTROL:
            self._control_queue.append(packet)
            self.control_queue_bytes += packet.size
        else:
            cap = self.data_queue_cap_bytes
            if cap is not None and self.data_queue_bytes + packet.size > cap:
                self.dropped_packets += 1
                return False
            self._data_queue.append(packet)
            self.data_queue_bytes += packet.size
        self._try_transmit()
        return True

    def _try_transmit(self) -> None:
        if self.busy:
            return
        if self._control_queue:
            packet = self._control_queue.popleft()
            self.control_queue_bytes -= packet.size
        elif self._data_queue and not self.paused:
            packet = self._data_queue.popleft()
            self.data_queue_bytes -= packet.size
        else:
            return
        self.busy = True
        tx_time = packet.size * 8.0 / self.bandwidth_bps * SEC
        self.sim.schedule(tx_time, self._finish_transmit, packet)

    def _finish_transmit(self, packet) -> None:
        self.busy = False
        self.tx_bytes += packet.size
        self.tx_packets += 1
        if self.on_departure is not None:
            self.on_departure(packet)
        if self.deliver_fn is not None:
            self.sim.schedule(self.delay_ns, self.deliver_fn, packet,
                              self.peer_port_id)
        if self.on_space is not None:
            self.on_space(self)
        self._try_transmit()


FLOW = FlowKey("h0", "h1", 1, 2)


class PortRig:
    """One port driven by a script, everything observable recorded."""

    def __init__(self, port_class, cap=None) -> None:
        self.sim = Simulator()
        self.port = port_class(self.sim, "n0", 0, gbps(100), 500.0,
                               data_queue_cap_bytes=cap)
        self.port.peer_node_id, self.port.peer_port_id = "n1", 0
        self.port.deliver_fn = self._delivered
        self.port.on_departure = self._departed
        self.port.on_space = self._space
        #: (time, tag) in delivery order == transmit order + 500 ns
        self.delivered: list = []
        #: what an on_departure probe sees as each DATA packet leaves
        self.departures: list = []
        #: (time, seq) of every executed event
        self.stream: list = []
        self.sim.event_observer = \
            lambda time, seq, callback: self.stream.append((time, seq))
        #: tags offered from inside on_space, in order
        self.backlog: list = []
        self.accepted: list = []
        self._tags: dict = {}

    def offer(self, tag: str, control: bool, payload: int = 1000) -> None:
        if control:
            packet = make_control_packet(
                PacketKind.ACK, None, "h0", "h1", self.sim.now)
        else:
            packet = make_data_packet(FLOW, 0, payload, self.sim.now)
        self._tags[id(packet)] = (tag, packet)
        self.accepted.append((tag, self.port.enqueue(packet)))

    def _delivered(self, packet, ingress_port) -> None:
        self.delivered.append((self.sim.now, self._tags[id(packet)][0]))

    def _departed(self, packet) -> None:
        if packet.priority is Priority.DATA:  # the only class both report
            self.departures.append(
                (self.sim.now, self._tags[id(packet)][0],
                 self.port.data_queue_bytes, self.port.data_queue_depth))

    def _space(self, port) -> None:
        # a sender with a backlog: refill while the NIC queue has room
        while self.backlog and port.data_queue_has_room(1066):
            self.offer(self.backlog.pop(0), control=False)

    def observed(self) -> dict:
        port = self.port
        return {"delivered": self.delivered, "departures": self.departures,
                "stream": self.stream, "accepted": self.accepted,
                "dropped": port.dropped_packets, "tx": port.tx_packets,
                "tx_bytes": port.tx_bytes,
                "paused_ns": port.paused_ns_total,
                "left": (port.data_queue_depth, port.data_queue_bytes,
                         port.control_queue_bytes)}


def run_script(port_class, seed: int) -> dict:
    """A seeded interleaving of CONTROL / DATA offers, pause / resume
    and backlog refills from inside ``on_space``, on a capped queue."""
    rng = random.Random(seed)
    rig = PortRig(port_class, cap=rng.choice([None, 3_000, 6_000]))
    sim, port = rig.sim, rig.port
    time = 0.0
    for step in range(120):
        # 1000 B + header serialises in ~85 ns: gaps around that keep
        # the port flipping between idle, busy and backlogged
        time += rng.choice([0.0, 0.0, 5.0, 40.0, 85.28, 200.0, 900.0])
        roll = rng.random()
        if roll < 0.40:
            sim.schedule_at(time, rig.offer, f"d{step}", False,
                            rng.choice([200, 1000, 1000, 4096]))
        elif roll < 0.70:
            sim.schedule_at(time, rig.offer, f"c{step}", True)
        elif roll < 0.80:
            sim.schedule_at(time, port.pause,
                            rng.choice([50.0, 300.0, 2_000.0]))
        elif roll < 0.88:
            sim.schedule_at(time, port.resume)
        else:
            sim.schedule_at(
                time, rig.backlog.extend,
                [f"b{step}.{i}" for i in range(rng.randint(1, 4))])
    sim.run()
    return rig.observed()


@pytest.mark.parametrize("seed", range(40))
def test_port_matches_reference_port(seed):
    got = run_script(EgressPort, seed)
    want = run_script(ReferencePort, seed)
    assert got["delivered"], "script transmitted nothing"
    # same transmit order at the same finish times, the same queue
    # state seen as each DATA packet departs, and the same sequence of
    # scheduling calls (every executed event's (time, seq))
    assert got == want


def test_scripts_exercise_every_lane():
    """The seeds above must reach the cases the guard exists for."""
    seen = {"drop": False, "refill": False, "control_overtook": False,
            "paused_data_waited": False}
    for seed in range(40):
        out = run_script(ReferencePort, seed)
        sent = [tag for _, tag in out["delivered"]]
        offered = [tag for tag, accepted in out["accepted"] if accepted]
        seen["drop"] |= out["dropped"] > 0
        seen["refill"] |= any(tag.startswith("b") for tag in sent)
        seen["control_overtook"] |= sent != offered
        seen["paused_data_waited"] |= out["paused_ns"] > 0 and any(
            depth > 0 for _, _, _, depth in out["departures"])
    assert all(seen.values()), seen


def test_data_offered_from_on_space_does_not_overtake_waiting_ack():
    """The trap: ``_finish_transmit`` clears ``busy`` before it runs
    ``on_space``; a DATA packet offered from inside that hook sees a
    port that is not busy while an ACK still waits in the control
    queue.  A cut-through guarded by ``busy`` alone sends the DATA
    first (golden ``ring_allgather_k4`` then executes 24,122 events
    instead of 24,121)."""
    for port_class in (ReferencePort, EgressPort):
        rig = PortRig(port_class)
        rig.offer("p0", control=False)          # on the wire
        rig.sim.schedule(10.0, rig.offer, "ack", True)   # waits for p0
        rig.backlog.append("p1")                # offered by on_space
        rig.sim.run()
        assert [tag for _, tag in rig.delivered] == ["p0", "ack", "p1"], \
            port_class.__name__


# ----------------------------------------------------------------------
# (b) forwarding table == routing object
# ----------------------------------------------------------------------
class SwitchRig:
    """One switch of a k=4 fat-tree with every egress port tapped."""

    def __init__(self, switch_id: str = "e0") -> None:
        self.net = Network(build_fat_tree(4))
        self.switch = self.net.switches[switch_id]
        self.sent: list = []
        for port_id, port in self.switch.ports.items():
            port.deliver_fn = \
                lambda packet, _ingress, port_id=port_id: \
                self.sent.append(self.switch.port_neighbor[port_id])
        self.next_hop_calls = 0
        inner = self.net.routing.next_hop

        def counted(*args, **kwargs):
            self.next_hop_calls += 1
            return inner(*args, **kwargs)

        self.net.routing.next_hop = counted
        self.switch._routing.next_hop = counted

    def egress_of(self, packet) -> str:
        """Neighbour the switch forwards ``packet`` to."""
        self.switch.receive(packet, self.switch.neighbor_port["h0"])
        self.net.sim.run()
        return self.sent.pop()

    def data(self, flow: FlowKey, seq: int = 0):
        return make_data_packet(flow, seq, 1000, self.net.sim.now)


def other_uplink(rig: SwitchRig, flow: FlowKey) -> str:
    here = rig.net.routing.next_hop("e0", flow)
    return next(n for n in rig.net.routing.ecmp_candidates("e0", flow.dst)
                if n != here)


def test_override_changes_the_very_next_packet_of_that_flow_only():
    rig = SwitchRig()
    routing = rig.net.routing
    flow_a = FlowKey("h0", "h15", 10_000, 4791)
    flow_b = FlowKey("h0", "h14", 10_001, 4791)
    home_a = rig.egress_of(rig.data(flow_a))
    home_b = rig.egress_of(rig.data(flow_b))
    assert home_a == routing.next_hop("e0", flow_a)
    # warm table: no routing call per packet any more
    calls = rig.next_hop_calls
    assert rig.egress_of(rig.data(flow_a, 1)) == home_a
    assert rig.next_hop_calls == calls

    detour = other_uplink(rig, flow_a)
    routing.set_override("e0", flow_a, detour)
    assert rig.egress_of(rig.data(flow_a, 2)) == detour
    assert rig.egress_of(rig.data(flow_b, 1)) == home_b
    # an override at another switch is not this switch's business
    routing.set_override("e1", flow_b, "a1")
    assert rig.egress_of(rig.data(flow_b, 2)) == home_b

    routing.clear_override("e0", flow_a)
    assert rig.egress_of(rig.data(flow_a, 3)) == home_a

    routing.set_override("e0", flow_a, detour)
    routing.set_override("e0", flow_b, other_uplink(rig, flow_b))
    assert rig.egress_of(rig.data(flow_a, 4)) == detour
    assert rig.egress_of(rig.data(flow_b, 3)) != home_b
    routing.clear_all_overrides()
    assert rig.egress_of(rig.data(flow_a, 5)) == home_a
    assert rig.egress_of(rig.data(flow_b, 4)) == home_b


def test_packets_the_table_cannot_key_still_ask_the_routing_object():
    rig = SwitchRig()
    routing = rig.net.routing
    flow = FlowKey("h0", "h15", 10_000, 4791)
    home = rig.egress_of(rig.data(flow))

    # flow-less packets are routed per packet, by a pseudo-flow
    for _ in range(2):
        calls = rig.next_hop_calls
        notify = make_control_packet(
            PacketKind.NOTIFY, None, "h0", "h7", 0.0)
        assert rig.egress_of(notify) == routing.next_hop(
            "e0", rig.switch.pseudo_flow("h7"), dst="h7")
        assert rig.next_hop_calls == calls + 2  # the switch's + ours
    assert None not in rig.switch._fib
    # ... and a chase poll addressed to this switch ends here
    chase = make_control_packet(
        PacketKind.POLL, None, "a0", "e0", 0.0,
        payload={"chase": True, "poll_id": "p", "visited": ("a0",),
                 "depth": 1})
    rig.switch.receive(chase, rig.switch.neighbor_port["a0"])
    rig.net.sim.run()
    assert not rig.sent
    assert [r.poll_id for r in rig.net.collected_reports] == ["p"]

    # a packet of a known flow bound somewhere else than the flow is:
    # the flow's table entry is neither used for it nor replaced by it
    for _ in range(2):
        calls = rig.next_hop_calls
        stray = make_control_packet(PacketKind.ACK, flow, "h0", "h1", 0.0)
        assert rig.egress_of(stray) == "h1" \
            == routing.next_hop("e0", flow, dst="h1")
        assert rig.next_hop_calls == calls + 2  # the switch's + ours
    calls = rig.next_hop_calls
    assert rig.egress_of(rig.data(flow, 1)) == home
    assert rig.next_hop_calls == calls


#: SHA-256 of the trace ``record_transient_loop`` wrote before the
#: forwarding table existed (a loop set mid-path, healed after 1 ms)
TRANSIENT_LOOP_TRACE = \
    "6e02fa8c21a04e04cb14c7e64e586c194aaf46075517eab2b9daafe60a9d3806"


def test_transient_loop_trace_is_byte_equal(tmp_path):
    nodes = ["h0", "h4", "h8", "h12"]
    net = Network(build_fat_tree(4))
    net.config.rto_ns = us(400)
    runtime = CollectiveRuntime(net, ring_allgather(nodes, 150_000))
    VedrfolnirSystem(net, runtime)
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    inject_transient_loop(net, runtime, nodes[0], heal_after_ns=ms(1))
    net.run_until_quiet(max_time=ms(200))
    path = tmp_path / "loop.jsonl"
    recorder.write(path)
    assert runtime.completed
    assert (net.sim.events_processed, net.ttl_drops) == (24_899, 79)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == TRANSIENT_LOOP_TRACE


# ----------------------------------------------------------------------
# (c) frame budget
# ----------------------------------------------------------------------
FRAME_BUDGET = 5.5  # 8.01 before the per-hop diet
#: the sanitizer's contract is "cheap enough to leave on in CI": 8.51
#: frames per event on the ring below (4.75 unchecked), 9.55 when
#: ``before_event`` renders the callback label of every event
SANITIZED_FRAME_BUDGET = 9.0
SANITIZER_MAX_RATIO = 2.0


def frames_per_event(network: Network, max_time: float) -> float:
    """Python frames entered per executed event while ``network`` runs
    until quiet."""
    calls = 0

    def count_calls(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count_calls)
    try:
        network.run_until_quiet(max_time=max_time)
    finally:
        sys.setprofile(None)
    return calls / network.sim.events_processed


@pytest.mark.skipif(_env_sanitize(),
                    reason="the budget is the unchecked loop's")
def test_frames_per_event_within_budget():
    config = ScenarioConfig(scale=GOLDEN_SCALE, base_seed=42)
    case = make_cases("incast", 1, config)[0]
    network, runtime = case.build_network()
    make_system("vedrfolnir").attach(network, runtime)
    TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    frames = frames_per_event(network, config.run_deadline_ns())
    assert network.sim.events_processed == GOLDEN["incast_case0"]["events"]
    assert frames <= FRAME_BUDGET, \
        f"{frames:.2f} Python frames per executed event"


def contended_ring(sanitize: bool) -> tuple[Network, float]:
    """Ring AllGather over h0/h4/h8/h12 (400 KB) against a background
    flow on a k=4 fat-tree, with the sanitizer off or on."""
    network = Network(build_fat_tree(4), sanitize=sanitize)
    runtime = CollectiveRuntime(
        network, ring_allgather(["h0", "h4", "h8", "h12"], 400_000))
    runtime.start()
    network.create_flow("h1", "h4", 2_000_000, tag="background").start()
    frames = frames_per_event(network, ms(200))
    assert runtime.completed
    return network, frames


def test_sanitizer_frames_per_event_within_budget():
    plain, plain_frames = contended_ring(sanitize=False)
    checked, checked_frames = contended_ring(sanitize=True)
    sanitizer = checked.sim.sanitizer
    assert plain.sim.sanitizer is None
    # both runs executed the same events, and the sanitizer checked
    # every one of them and raised nothing
    assert sanitizer.events_checked == checked.sim.events_processed \
        == plain.sim.events_processed == 41_733
    assert sanitizer.violations_raised == 0
    assert checked_frames <= SANITIZED_FRAME_BUDGET, \
        f"{checked_frames:.2f} frames per event with the sanitizer on"
    assert checked_frames / plain_frames <= SANITIZER_MAX_RATIO, \
        f"sanitizer costs {checked_frames / plain_frames:.2f}x frames"


# ----------------------------------------------------------------------
# (d) post + schedule: one (time, seq) order, exact accounting
# ----------------------------------------------------------------------
class VerbModel:
    """Drives both verbs from inside callbacks and checks every
    execution against a model of the live ``(time, seq)`` set."""

    DELAYS = (0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 7.0)

    def __init__(self, sim: Simulator, seed: int, budget: int) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.budget = budget
        self.next_seq = 0
        self.live: set = set()
        self.handles: dict = {}
        self.executed = 0
        self.compactions = 0
        compact = sim._compact

        def counting_compact() -> None:
            self.compactions += 1
            compact()

        sim._compact = counting_compact

    def add(self, delay: float, verb: str) -> None:
        key = (self.sim.now + delay, self.next_seq)
        self.next_seq += 1
        self.live.add(key)
        if verb == "post":
            assert self.sim.post(delay, self.fire, key) is None
        else:
            if verb == "schedule":
                event = self.sim.schedule(delay, self.fire, key)
            else:
                event = self.sim.schedule_at(key[0], self.fire, key)
            assert (event.time, event.seq) == key
            self.handles[key] = event

    def cancel(self, key: tuple) -> None:
        self.handles.pop(key).cancel()
        self.live.discard(key)
        assert self.sim.pending_events == len(self.live)

    def fire(self, key: tuple) -> None:
        sim = self.sim
        assert key == min(self.live), "executed out of (time, seq) order"
        self.live.discard(key)
        self.handles.pop(key, None)
        self.executed += 1
        assert sim.now == key[0]
        assert sim.events_processed == self.executed
        assert sim.pending_events == len(self.live)
        if self.executed == 3:
            # a burst of timers, most of them cancelled at once: the
            # queue must compact while the run loop is iterating it
            burst = []
            for i in range(4 * _COMPACT_MIN_PENDING):
                self.add(50.0 + i % 5, "schedule")
                burst.append((sim.now + 50.0 + i % 5, self.next_seq - 1))
            for key in burst[:-8]:
                self.cancel(key)
            assert self.compactions >= 1
        for _ in range(self.rng.choice((1, 1, 1, 2, 3))):
            if self.budget <= 0:
                break
            self.budget -= 1
            self.add(self.rng.choice(self.DELAYS),
                     self.rng.choice(("post", "post", "schedule",
                                      "schedule_at")))
        cancellable = sorted(self.handles)
        if cancellable and self.rng.random() < 0.3:
            self.cancel(self.rng.choice(cancellable))
        assert sim.pending_events == len(self.live)


@pytest.mark.parametrize("loop", ["fast", "checked", "sanitized"])
@pytest.mark.parametrize("seed", range(6))
def test_post_and_schedule_share_one_order(seed, loop):
    sim = Simulator(sanitize=(loop == "sanitized"))
    model = VerbModel(sim, seed, budget=1_500)
    for verb in ("post", "schedule", "post", "schedule_at"):
        model.add(0.0, verb)   # zero-delay FIFO-lane ties from the start
        model.add(1.0, verb)
    # run in slices so peek_next_time and the until boundary take part
    while (upcoming := sim.peek_next_time()) is not None:
        sim.run(until=upcoming + 3.0,
                max_events=10**9 if loop == "checked" else None)
    assert not model.live
    assert sim.pending_events == 0
    assert model.executed == sim.events_processed > 1_000
    assert model.compactions >= 1
