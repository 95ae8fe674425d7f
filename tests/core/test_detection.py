"""Step-aware adaptive detection (§III-C2)."""

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.detection import DetectionAgent, DetectionConfig
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms, us

NODES = ["h0", "h4", "h8", "h12"]


def deploy(net, runtime, **cfg_overrides):
    config = DetectionConfig(**cfg_overrides)
    return {node: DetectionAgent(net, node, runtime, config=config)
            for node in NODES}


def contended_run(**cfg_overrides):
    """4-node ring with heavy cross traffic so RTTs blow the threshold."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agents = deploy(net, runtime, **cfg_overrides)
    runtime.start()
    for src, dst in (("h1", "h4"), ("h5", "h4"), ("h9", "h4"),
                     ("h13", "h8"), ("h2", "h8")):
        net.create_flow(src, dst, 1_500_000).start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    return net, runtime, agents


def quiet_run(**cfg_overrides):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agents = deploy(net, runtime, **cfg_overrides)
    runtime.start()
    net.run_until_quiet(max_time=ms(100))
    return net, runtime, agents


def total_triggers(agents):
    return sum(len(a.triggers) for a in agents.values())


def test_no_triggers_without_anomaly():
    _, _, agents = quiet_run()
    assert total_triggers(agents) == 0


def test_triggers_fire_under_contention():
    _, _, agents = contended_run()
    assert total_triggers(agents) > 0


def test_budget_bounds_triggers_per_step():
    _, runtime, agents = contended_run(detections_per_step=2,
                                       adaptive_transfer=False)
    num_steps = max(map(len, runtime.schedule.steps.values()))
    for node, agent in agents.items():
        per_step = {}
        for trigger in agent.triggers:
            per_step[trigger.step_index] = \
                per_step.get(trigger.step_index, 0) + 1
        for step, count in per_step.items():
            assert count <= 2, f"{node} step {step}: {count} triggers"
        assert len(agent.triggers) <= 2 * num_steps


def test_interval_spacing_enforced():
    _, runtime, agents = contended_run(detections_per_step=3,
                                       adaptive_transfer=False)
    for agent in agents.values():
        times = sorted(t.time for t in agent.triggers)
        step0 = runtime.schedule.step(agent.node, 0)
        interval = runtime.expected_step_time_ns(step0) / 3
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 0.9 * interval


def test_unrestricted_mode_triggers_more():
    _, _, restricted = contended_run(detections_per_step=3)
    _, _, unrestricted = contended_run(
        detections_per_step=10_000, restrict_trigger_interval=False)
    assert total_triggers(unrestricted) > total_triggers(restricted)


def test_threshold_recomputed_per_step():
    """Vedrfolnir derives the threshold from the step's actual path."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agent = DetectionAgent(net, "h0", runtime)
    runtime.start()
    net.run_until_quiet(max_time=ms(100))
    step = runtime.schedule.step("h0", 0)
    expected = 1.2 * net.routing.base_rtt_ns(
        "h0", step.peer, flow=runtime.flow_keys[("h0", 0)])
    assert agent.threshold_ns == pytest.approx(expected)


def test_fixed_threshold_override():
    _, _, agents = contended_run(fixed_rtt_threshold_ns=us(500))
    for agent in agents.values():
        assert agent.threshold_ns == us(500)


def test_notifications_sent_on_step_completion():
    net, _, _ = contended_run(detections_per_step=3)
    assert net.notify_packets > 0


def test_no_notifications_when_transfer_disabled():
    net, _, _ = contended_run(adaptive_transfer=False)
    assert net.notify_packets == 0


def test_notify_during_active_step_boosts_budget():
    """Fig. 7: opportunities received mid-step add to the live budget."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agent = DetectionAgent(net, "h0", runtime)
    runtime.start()
    net.run(until=us(10))  # step 0 active now
    before = agent.budget
    from repro.simnet.packet import PacketKind, make_control_packet
    notify = make_control_packet(
        PacketKind.NOTIFY, None, "h12", "h0", net.sim.now,
        payload={"kind": "detection_opportunities", "count": 2})
    agent._on_notify(notify)
    assert agent.budget == before + 2


def test_notification_targets_the_waiting_peer():
    """The donor's leftover budget goes to the host its data unblocked
    (the step's peer)."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    deploy(net, runtime, detections_per_step=3)
    received = {}
    for node in NODES:
        net.hosts[node].notify_handlers.append(
            lambda pkt, n=node: received.setdefault(n, []).append(
                pkt.payload))
    runtime.start()
    net.run_until_quiet(max_time=ms(100))
    # every node donated to its ring successor; every node received
    assert set(received) == set(NODES)
    for payloads in received.values():
        assert all(p["kind"] == "detection_opportunities"
                   for p in payloads)
        assert all(p["count"] > 0 for p in payloads)


def test_carried_in_applies_to_next_step():
    """A notification arriving between steps banks opportunities."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agent = DetectionAgent(net, "h0", runtime)
    from repro.simnet.packet import PacketKind, make_control_packet
    notify = make_control_packet(
        PacketKind.NOTIFY, None, "h4", "h0", 0.0,
        payload={"kind": "detection_opportunities", "count": 5})
    agent._on_notify(notify)  # no active step yet
    assert agent.carried_in == 5
    runtime.start()
    net.run(until=us(10))
    assert agent.budget == agent.config.detections_per_step + 5


def test_trigger_records_are_complete():
    _, _, agents = contended_run()
    for agent in agents.values():
        for trigger in agent.triggers:
            assert trigger.rtt_ns > trigger.threshold_ns or trigger.stall
            assert trigger.poll_id
            assert trigger.node == agent.node


def test_polls_follow_triggers():
    net, _, agents = contended_run()
    assert net.poll_packets >= total_triggers(agents)


def test_stall_detection_fires_when_flow_is_halted():
    """Freeze a collective flow with a long pause: only the stall timer
    can notice (no ACKs arrive)."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    agents = deploy(net, runtime)
    runtime.start()
    # pause h0's NIC for 2 ms shortly after start
    net.sim.schedule(us(20), net.hosts["h0"].ports[0].pause, ms(2))
    net.run_until_quiet(max_time=ms(100))
    stall_triggers = [t for t in agents["h0"].triggers if t.stall]
    assert stall_triggers, "stalled flow should trigger detection"

