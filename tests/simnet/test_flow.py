"""RDMA flow transport: completion, RTT, windows, recovery."""

import pytest

from repro.simnet.network import Network, NetworkConfig
from repro.simnet.packet import MTU_PAYLOAD_BYTES, PacketKind
from repro.simnet.topology import build_dumbbell
from repro.simnet.units import gbps, ms, us


def make_net(**overrides) -> Network:
    config = NetworkConfig(**overrides)
    return Network(build_dumbbell(2), config=config)


def run_flow(net, src="h0", dst="h2", size=500_000, **kwargs):
    flow = net.create_flow(src, dst, size, **kwargs)
    flow.start()
    net.run_until_quiet(max_time=ms(50))
    return flow


def fct(flow) -> float:
    """The flow's completion time, start to last ACK."""
    return flow.stats.complete_time - flow.stats.start_time


def test_flow_completes():
    net = make_net()
    flow = run_flow(net)
    assert flow.completed
    assert flow.stats.complete_time is not None


def test_fct_close_to_ideal_when_uncontended():
    net = make_net()
    flow = run_flow(net, size=1_000_000)
    ideal = 1_000_000 * 8 / gbps(100) * 1e9  # 80 us
    assert ideal < fct(flow) < 1.6 * ideal


def test_all_bytes_acked():
    net = make_net()
    flow = run_flow(net, size=123_456)
    assert flow.stats.bytes_acked == 123_456


def test_receiver_sees_exact_bytes():
    net = make_net()
    flow = run_flow(net, size=77_777)
    receiver = net.hosts["h2"].receivers[flow.key]
    assert receiver.received_bytes == 77_777
    assert receiver.completed


def test_packet_count_matches_mtu_partition():
    net = make_net()
    flow = run_flow(net, size=2 * MTU_PAYLOAD_BYTES + 500)
    assert flow.num_packets == 3
    assert flow.stats.packets_sent == 3


def test_rtt_samples_collected():
    net = make_net()
    flow = run_flow(net, size=100_000)
    assert flow.stats.rtt_samples > 0
    assert flow.stats.max_rtt_ns > 0


def test_rtt_observer_called():
    net = make_net()
    samples = []
    flow = net.create_flow("h0", "h2", 100_000)
    flow.rtt_observers.append(
        lambda f, rtt, seq, now: samples.append(rtt))
    flow.start()
    net.run_until_quiet(max_time=ms(20))
    assert samples
    base = net.routing.base_rtt_ns("h0", "h2")
    assert min(samples) >= 0.5 * base


def test_window_bounds_inflight():
    net = make_net(window_bytes=10 * MTU_PAYLOAD_BYTES)
    flow = net.create_flow("h0", "h2", 500_000)
    flow.start()
    # after the first burst, at most window/mtu packets are out
    net.run(until=us(10))
    unacked = flow.stats.packets_sent - flow.stats.packets_acked
    assert flow.stats.packets_sent >= 10
    assert unacked <= 10


def test_start_time_respected():
    net = make_net()
    flow = net.create_flow("h0", "h2", 50_000, start_time=us(100))
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert flow.stats.first_send_time >= us(100)


def test_ack_coalescing_reduces_acks():
    dense = make_net(ack_every=1)
    f1 = run_flow(dense, size=400_000)
    sparse = make_net(ack_every=4)
    f2 = run_flow(sparse, size=400_000)
    assert f2.completed
    assert f2.stats.rtt_samples < f1.stats.rtt_samples


def test_two_flows_share_bottleneck_fairly():
    net = make_net()
    f1 = net.create_flow("h0", "h2", 1_000_000)
    f2 = net.create_flow("h1", "h3", 1_000_000)
    f1.start()
    f2.start()
    net.run_until_quiet(max_time=ms(50))
    solo = 1_000_000 * 8 / gbps(100) * 1e9
    # both completed, both slower than solo, neither starved
    assert f1.completed and f2.completed
    assert fct(f1) > 1.3 * solo
    assert fct(f2) > 1.3 * solo
    assert max(fct(f1), fct(f2)) < 6 * solo


def test_contention_generates_cnps():
    net = make_net()
    f1 = net.create_flow("h0", "h2", 2_000_000)
    f2 = net.create_flow("h1", "h3", 2_000_000)
    f1.start()
    f2.start()
    net.run_until_quiet(max_time=ms(50))
    assert f1.stats.cnps_received + f2.stats.cnps_received > 0


def test_duplicate_data_not_recounted():
    """Go-back-N duplicates must not inflate receiver byte counts."""
    net = make_net(rto_ns=us(500))
    flow = run_flow(net, size=50_000)
    receiver = net.hosts["h2"].receivers[flow.key]
    assert receiver.received_bytes == 50_000


def test_rto_recovers_from_blackhole():
    """Drop the first window via TTL death, then heal the route: the
    flow must retransmit and still complete."""
    net = make_net(rto_ns=us(300))
    flow = net.create_flow("h0", "h2", 30_000)
    # bounce packets between the two switches until TTL death
    net.routing.set_override("s0", flow.key, "s1")
    net.routing.set_override("s1", flow.key, "s0")
    flow.start()
    for switch in ("s0", "s1"):
        net.sim.schedule(us(150), net.routing.clear_override, switch,
                         flow.key)
    net.run_until_quiet(max_time=ms(50))
    assert flow.completed
    assert flow.stats.retransmissions > 0
    assert net.ttl_drops > 0
    receiver = net.hosts["h2"].receivers[flow.key]
    assert receiver.received_bytes == 30_000


def rto_entries(sim, flow) -> int:
    """Live queue entries that would run ``flow``'s RTO handler."""
    return sum(1 for _, _, callback, _, event in (*sim._heap, *sim._fifo)
               if callback == flow._on_rto
               and (event is None or not event.cancelled))


def test_rto_fires_at_last_progress_plus_rto():
    """The ACK path dies after five ACKs: the sender retransmits exactly
    ``rto_ns`` after the last ACK that moved its window, although that
    ACK only moved the deadline and the timer fired once before it."""
    rto = us(200)
    net = make_net(rto_ns=rto)
    flow = net.create_flow("h0", "h2", 30 * MTU_PAYLOAD_BYTES)
    receiver_host = net.hosts["h2"]
    send, on_ack, on_rto = \
        receiver_host.send_packet, flow.on_ack, flow._on_rto
    acks, progress, fired, retransmits = [], [], [], []

    def lossy_send(packet) -> None:
        if packet.kind is PacketKind.ACK:
            acks.append(packet)
            if len(acks) > 5:
                return
        send(packet)

    def watched_on_ack(ack_seq, data_send_time) -> None:
        before = flow.stats.packets_acked
        on_ack(ack_seq, data_send_time)
        if flow.stats.packets_acked > before:
            progress.append(net.sim.now)

    def watched_on_rto() -> None:
        fired.append(net.sim.now)
        before = flow.stats.retransmissions
        on_rto()
        if flow.stats.retransmissions > before:
            retransmits.append(net.sim.now)
        assert rto_entries(net.sim, flow) <= 1

    receiver_host.send_packet = lossy_send
    flow.on_ack = watched_on_ack
    flow._on_rto = watched_on_rto
    flow.start()
    net.sim.run(until=ms(1))
    assert len(acks) > 5 and len(progress) == 5
    assert fired[0] == rto  # armed at start; progress moved the deadline
    assert retransmits[0] == progress[-1] + rto
    assert retransmits[1] == retransmits[0] + rto
    assert not flow.completed


def test_a_completed_flow_leaves_no_live_rto_entry():
    net = make_net(rto_ns=us(200))
    live_at_completion = []
    flow = net.create_flow(
        "h0", "h2", 50_000, on_sender_complete=lambda f:
        live_at_completion.append(rto_entries(net.sim, f)))
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert flow.completed
    assert live_at_completion == [0]
    assert rto_entries(net.sim, flow) == 0


def test_flow_rejects_zero_size():
    net = make_net()
    with pytest.raises(ValueError):
        net.create_flow("h0", "h2", 0)


def test_sender_complete_callback():
    net = make_net()
    done = []
    flow = net.create_flow("h0", "h2", 10_000,
                           on_sender_complete=lambda f: done.append(f.key))
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert done == [flow.key]


def test_receive_complete_callback_precedes_sender():
    net = make_net()
    events = []
    flow = net.create_flow(
        "h0", "h2", 10_000,
        on_sender_complete=lambda f: events.append("send"),
        on_receive_complete=lambda r: events.append("recv"))
    flow.start()
    net.run_until_quiet(max_time=ms(10))
    assert events == ["recv", "send"]  # last ACK arrives after last data
