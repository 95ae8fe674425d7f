"""Full-polling baseline semantics."""

from repro.baselines import full_polling
from repro.baselines.full_polling import FullPollingSystem
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

NODES = ["h0", "h4", "h8", "h12"]


def run_full_polling(background=()):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    system = FullPollingSystem()
    system.attach(net, runtime)
    runtime.start()
    for src, dst, size in background:
        net.create_flow(src, dst, size).start()
    net.run_until_quiet(max_time=ms(200))
    return net, runtime, system


def test_reports_every_switch_every_round():
    net, _, system = run_full_polling()
    assert system.rounds > 1
    assert len(system.reports) == system.rounds * len(net.switches)


def test_polling_stops_after_completion():
    net, runtime, system = run_full_polling()
    rounds_at_end = system.rounds
    net.run_until_quiet(max_time=net.sim.now + ms(5))
    assert system.rounds == rounds_at_end


def test_no_poll_packets_used():
    net, _, _ = run_full_polling()
    assert net.poll_packets == 0
    assert net.bandwidth_overhead_bytes == net.report_bytes


def test_shorter_interval_more_overhead(monkeypatch):
    """The polling cadence is a constant; what it costs is still read
    off it."""
    net_fast, _, _ = run_full_polling()
    monkeypatch.setattr(full_polling, "POLL_INTERVAL_NS",
                        4 * full_polling.POLL_INTERVAL_NS)
    net_slow, _, _ = run_full_polling()
    assert net_fast.report_bytes > net_slow.report_bytes


def test_detects_contention_without_triggers():
    _, _, system = run_full_polling(
        background=[("h1", "h4", 2_500_000), ("h5", "h4", 2_500_000)])
    output = system.finalize()
    assert output.triggers == 0
    assert output.result.findings
    assert output.result.detected_flows


def test_reports_cover_all_ports():
    net, _, system = run_full_polling()
    sample = next(r for r in system.reports if r.switch_id == "c0")
    assert len(sample.ports) == len(net.switches["c0"].ports)
