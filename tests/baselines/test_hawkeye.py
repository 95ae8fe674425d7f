"""Hawkeye baseline semantics."""

import pytest

from repro.baselines.hawkeye import HawkeyeSystem
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

# mixed distances: h0->h1 shares a ToR, the other hops cross the fabric,
# so base RTTs genuinely differ between flows (MaxR != MinR)
NODES = ["h0", "h1", "h4", "h8"]


def run_hawkeye(mode="max", background=(), chunk=200_000):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, chunk))
    system = HawkeyeSystem(mode)
    system.attach(net, runtime)
    runtime.start()
    for src, dst, size in background:
        net.create_flow(src, dst, size).start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    return net, runtime, system


def test_mode_validation():
    with pytest.raises(ValueError):
        HawkeyeSystem("median")


def test_name_reflects_mode():
    assert HawkeyeSystem("max").name == "hawkeye-maxr"
    assert HawkeyeSystem("min").name == "hawkeye-minr"


def test_fixed_threshold_max_exceeds_min():
    _, _, maxr = run_hawkeye("max")
    _, _, minr = run_hawkeye("min")
    assert maxr.threshold_ns > minr.threshold_ns


def test_threshold_is_120pct_of_extreme_base_rtt():
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    system = HawkeyeSystem("max")
    system.attach(net, runtime)
    rtts = [net.routing.base_rtt_ns(s.node, s.peer)
            for s in runtime.schedule.all_steps()]
    assert system.threshold_ns == pytest.approx(1.2 * max(rtts))


def test_quiet_run_no_triggers():
    _, _, system = run_hawkeye("max")
    assert system.triggers == 0


def test_minr_overtriggers_vs_maxr():
    background = [("h1", "h4", 2_000_000), ("h5", "h4", 2_000_000)]
    _, _, maxr = run_hawkeye("max", background)
    _, _, minr = run_hawkeye("min", background)
    assert minr.triggers > maxr.triggers


def test_retention_discards_bursts():
    """MinR's rapid triggers within 50 us lose data at the analyzer."""
    _, _, minr = run_hawkeye(
        "min", [("h1", "h4", 2_000_000), ("h5", "h4", 2_000_000)])
    assert minr.discarded_polls > 0
    assert len(minr.retained_poll_ids) + minr.discarded_polls \
        == minr.triggers


def test_discarded_reports_still_cost_overhead():
    net, _, minr = run_hawkeye(
        "min", [("h1", "h4", 2_000_000), ("h5", "h4", 2_000_000)])
    output = minr.finalize()
    assert output.reports_used < output.reports_collected
    assert net.report_bytes > 0  # overhead includes discarded bursts


def test_finalize_detects_contention():
    _, _, system = run_hawkeye(
        "min", [("h1", "h4", 3_000_000), ("h5", "h4", 3_000_000)])
    output = system.finalize()
    assert output.result.findings
    assert output.result.detected_flows


def test_no_stall_detection_under_full_halt():
    """Paper: 'when persistent PFC halts an entire flow, no packets are
    sent, and thus no detection is triggered' for Hawkeye."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    system = HawkeyeSystem("max")
    system.attach(net, runtime)
    runtime.start()
    # halt h0's NIC before any data leaves, for a long stretch
    net.hosts["h0"].ports[0].pause(ms(1))
    net.run(until=ms(0.9))
    assert system.triggers == 0
