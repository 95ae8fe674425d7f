"""Primitive anomaly injectors."""

import pytest

from repro.anomalies.injectors import (
    BackgroundFlowSpec,
    ingress_port_on_path,
    inject_background_flows,
    inject_forwarding_loop,
    inject_pfc_storm,
)
from repro.simnet.network import Network
from repro.simnet.pfc import PortRef
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms, us


@pytest.fixture
def net() -> Network:
    return Network(build_fat_tree(4))


def test_background_flows_start_and_finish(net):
    specs = [BackgroundFlowSpec("h0", "h5", 100_000, 0.0),
             BackgroundFlowSpec("h1", "h6", 100_000, us(50))]
    flows = inject_background_flows(net, specs)
    net.run_until_quiet(max_time=ms(20))
    assert all(f.completed for f in flows)


def test_storm_injection_arms(net):
    injector = inject_pfc_storm(net, "e0", 2, us(10), us(300),
                                refresh_ns=us(100))
    net.run_until_quiet(max_time=ms(5))
    assert injector.frames_sent == 3
    assert injector.source_ref == PortRef("e0", 2)


def test_forwarding_loop_causes_ttl_drops(net):
    flow = net.create_flow("h0", "h15", 50_000)
    path = net.routing.path(flow.key)
    agg = path[2]
    inject_forwarding_loop(net, flow.key, agg, back_toward=path[1])
    flow.start()
    net.run(until=ms(2))
    assert net.ttl_drops > 0
    drops = sum(s.telemetry._ttl_drops.get(flow.key, 0)
                for s in net.switches.values())
    assert drops > 0


def test_ingress_port_on_path(net):
    flow = net.create_flow("h0", "h1", 1000)
    ref = ingress_port_on_path(net, flow.key, "e0")
    assert ref is not None
    assert ref.node == "e0"
    assert net.switches["e0"].port_neighbor[ref.port] == "h0"


def test_ingress_port_not_on_path_returns_none(net):
    flow = net.create_flow("h0", "h1", 1000)
    assert ingress_port_on_path(net, flow.key, "c0") is None
