"""Telemetry store: windowed counters, waiting weights, reports."""

from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.telemetry import (
    REPORT_HEADER_BYTES,
    WINDOW_NS,
    SwitchTelemetry,
    WindowedCounter,
)
from repro.simnet.topology import build_dumbbell
from repro.simnet.units import us


# ----------------------------------------------------------------------
# WindowedCounter
# ----------------------------------------------------------------------
def test_counter_accumulates_within_window():
    counter = WindowedCounter()
    counter.add(0, "k", 2)
    counter.add(WINDOW_NS / 2, "k", 3)
    assert counter.snapshot(0.9 * WINDOW_NS) == {"k": 5.0}


def test_counter_keeps_previous_epoch():
    counter = WindowedCounter()
    counter.add(0.1 * WINDOW_NS, "k", 1)
    counter.add(1.1 * WINDOW_NS, "k", 10)  # next epoch
    assert counter.snapshot(1.5 * WINDOW_NS) == {"k": 11.0}


def test_counter_forgets_after_two_windows():
    counter = WindowedCounter()
    counter.add(0, "k", 7)
    assert counter.snapshot(2.5 * WINDOW_NS) == {}


def test_counter_multiple_keys():
    counter = WindowedCounter()
    counter.add(0, "a", 1)
    counter.add(0, "b", 2)
    snap = counter.snapshot(10)
    assert snap == {"a": 1.0, "b": 2.0}


# ----------------------------------------------------------------------
# waiting weights (w(f_i, f_j))
# ----------------------------------------------------------------------
def fk(i: int) -> FlowKey:
    return FlowKey(f"h{i}", "h9", 100 + i, 4791)


def test_wait_weights_count_packets_ahead():
    telemetry = SwitchTelemetry("s0")
    # queue at port 0: two packets of f0 already there, then f1 arrives
    telemetry.on_data_enqueue(0, 0, fk(0))
    telemetry.on_data_enqueue(1, 0, fk(0))
    telemetry.on_data_enqueue(2, 0, fk(1))
    snap = telemetry._wait_weights.snapshot(3)
    assert snap[(0, fk(1), fk(0))] == 2.0
    assert (0, fk(0), fk(1)) not in snap


def test_wait_weights_accumulate_per_packet():
    telemetry = SwitchTelemetry("s0")
    telemetry.on_data_enqueue(0, 0, fk(0))
    telemetry.on_data_enqueue(1, 0, fk(1))  # 1 ahead
    telemetry.on_data_enqueue(2, 0, fk(1))  # still 1 ahead
    snap = telemetry._wait_weights.snapshot(3)
    assert snap[(0, fk(1), fk(0))] == 2.0


def test_departure_reduces_inqueue_counts():
    telemetry = SwitchTelemetry("s0")
    telemetry.on_data_enqueue(0, 0, fk(0))
    telemetry.on_data_departure(1, ingress_port=1, egress_port=0,
                                flow=fk(0), size=1000)
    telemetry.on_data_enqueue(2, 0, fk(1))
    snap = telemetry._wait_weights.snapshot(3)
    assert (0, fk(1), fk(0)) not in snap


def test_ports_are_independent():
    telemetry = SwitchTelemetry("s0")
    telemetry.on_data_enqueue(0, 0, fk(0))
    telemetry.on_data_enqueue(1, 1, fk(1))  # different port
    snap = telemetry._wait_weights.snapshot(2)
    assert snap == {}


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def loaded_network():
    net = Network(build_dumbbell(2))
    f1 = net.create_flow("h0", "h2", 800_000)
    f2 = net.create_flow("h1", "h3", 800_000)
    f1.start()
    f2.start()
    net.run(until=us(30))
    return net, f1, f2


def test_report_contains_contending_flows():
    net, f1, f2 = loaded_network()
    s0 = net.switches["s0"]
    report = s0.telemetry.make_report(net.sim.now, s0.ports)
    bottleneck = s0.neighbor_port["s1"]
    entry, = [e for e in report.ports if e.port == bottleneck]
    assert {f1.key, f2.key} <= set(entry.flow_pkts)


def test_report_scope_filters_ports():
    net, _, _ = loaded_network()
    s0 = net.switches["s0"]
    report = s0.telemetry.make_report(net.sim.now, s0.ports,
                                      scope_ports={0})
    assert [e.port for e in report.ports] == [0]


def test_report_size_grows_with_scope():
    net, _, _ = loaded_network()
    s0 = net.switches["s0"]
    small = s0.telemetry.make_report(net.sim.now, s0.ports,
                                     scope_ports={0})
    full = s0.telemetry.make_report(net.sim.now, s0.ports)
    assert 0 < small.size_bytes <= full.size_bytes


def test_report_port_meters_present():
    net, _, _ = loaded_network()
    s0 = net.switches["s0"]
    report = s0.telemetry.make_report(net.sim.now, s0.ports)
    assert report.port_meters, "ingress->egress meters expected"
    assert all(v > 0 for v in report.port_meters.values())


def test_egress_ports_fed_by():
    net, f1, _ = loaded_network()
    s0 = net.switches["s0"]
    ingress = s0.neighbor_port["h0"]
    egress = s0.neighbor_port["s1"]
    fed = s0.telemetry.egress_ports_fed_by(net.sim.now, ingress)
    assert egress in fed


def test_ttl_drop_recording():
    telemetry = SwitchTelemetry("s0")
    telemetry.on_ttl_drop(fk(0))
    telemetry.on_ttl_drop(fk(0))
    report = telemetry.make_report(0.0, {})
    assert report.ttl_drops[fk(0)] == 2


def test_report_poll_id_passthrough():
    telemetry = SwitchTelemetry("s0")
    report = telemetry.make_report(0.0, {}, poll_id="h0#7")
    assert report.poll_id == "h0#7"


def test_report_size_accounts_entries():
    telemetry = SwitchTelemetry("s0")
    empty = telemetry.make_report(0.0, {})
    assert empty.size_bytes == REPORT_HEADER_BYTES
