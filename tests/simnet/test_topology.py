"""Topology builders and validation."""

import pytest

from repro.simnet.topology import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LINK_DELAY_NS,
    LinkSpec,
    NodeKind,
    Topology,
    build_dumbbell,
    build_fat_tree,
    build_linear,
)


# ----------------------------------------------------------------------
# fat-tree (the paper's setup)
# ----------------------------------------------------------------------
def test_fat_tree_k4_matches_paper_counts():
    topo = build_fat_tree(4)
    assert len(topo.switches) == 20      # §IV-A: 20 switches
    assert len(topo.hosts) == 16


def test_fat_tree_k4_layer_sizes():
    topo = build_fat_tree(4)
    cores = [s for s in topo.switches if s.startswith("c")]
    aggs = [s for s in topo.switches if s.startswith("a")]
    edges = [s for s in topo.switches if s.startswith("e")]
    assert len(cores) == 4 and len(aggs) == 8 and len(edges) == 8


def test_fat_tree_host_attachment():
    topo = build_fat_tree(4)
    # host h(2e + j) hangs off edge e
    assert set(topo.neighbors("h0")) == {"e0"}
    assert set(topo.neighbors("h5")) == {"e2"}
    assert set(topo.neighbors("h15")) == {"e7"}


def test_fat_tree_edge_uplinks():
    topo = build_fat_tree(4)
    neighbors = set(topo.neighbors("e0"))
    assert {"a0", "a1"} <= neighbors


def test_fat_tree_agg_core_wiring():
    topo = build_fat_tree(4)
    # agg position 0 in each pod reaches cores c0, c1
    assert {"c0", "c1"} <= set(topo.neighbors("a0"))
    assert {"c2", "c3"} <= set(topo.neighbors("a1"))


def test_fat_tree_k6():
    topo = build_fat_tree(6)
    assert len(topo.hosts) == 54
    assert len(topo.switches) == 45  # 9 cores + 18 aggs + 18 edges


def test_fat_tree_rejects_odd_arity():
    with pytest.raises(ValueError):
        build_fat_tree(3)


def test_fat_tree_rejects_tiny_arity():
    with pytest.raises(ValueError):
        build_fat_tree(0)


def test_fat_tree_link_parameters():
    topo = build_fat_tree(4)
    for link in topo.links:
        assert link.bandwidth_bps == DEFAULT_BANDWIDTH_BPS
        assert link.delay_ns == DEFAULT_LINK_DELAY_NS


# ----------------------------------------------------------------------
# other builders
# ----------------------------------------------------------------------
def test_dumbbell_structure():
    topo = build_dumbbell(3)
    assert len(topo.hosts) == 6
    assert len(topo.switches) == 2
    assert topo.link_between("s0", "s1")


def test_dumbbell_bottleneck_bandwidth():
    topo = build_dumbbell(1, bottleneck_bps=1e9)
    assert topo.link_between("s0", "s1").bandwidth_bps == 1e9
    assert topo.link_between("h0", "s0").bandwidth_bps != 1e9


def test_dumbbell_requires_hosts():
    with pytest.raises(ValueError):
        build_dumbbell(0)


def test_linear_chain():
    topo = build_linear(4, hosts_per_switch=2)
    assert len(topo.switches) == 4
    assert len(topo.hosts) == 8
    assert topo.link_between("s1", "s2")
    with pytest.raises(KeyError):
        topo.link_between("s0", "s2")


# ----------------------------------------------------------------------
# primitives and validation
# ----------------------------------------------------------------------
def test_duplicate_node_rejected():
    topo = Topology("t")
    topo.add_node("x", NodeKind.HOST)
    with pytest.raises(ValueError):
        topo.add_node("x", NodeKind.SWITCH)


def test_link_to_unknown_node_rejected():
    topo = Topology("t")
    topo.add_node("x", NodeKind.HOST)
    with pytest.raises(ValueError):
        topo.add_link("x", "ghost")


def test_self_link_rejected():
    topo = Topology("t")
    topo.add_node("x", NodeKind.SWITCH)
    with pytest.raises(ValueError):
        topo.add_link("x", "x")


def test_validate_rejects_duplicate_links():
    topo = Topology("t")
    topo.add_node("a", NodeKind.SWITCH)
    topo.add_node("b", NodeKind.SWITCH)
    topo.add_link("a", "b")
    topo.add_link("b", "a")
    with pytest.raises(ValueError):
        topo.validate()


def test_validate_rejects_multi_homed_host():
    topo = Topology("t")
    topo.add_node("h", NodeKind.HOST)
    topo.add_node("s1", NodeKind.SWITCH)
    topo.add_node("s2", NodeKind.SWITCH)
    topo.add_link("h", "s1")
    topo.add_link("h", "s2")
    with pytest.raises(ValueError):
        topo.validate()


def test_link_spec_other():
    link = LinkSpec("a", "b")
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(ValueError):
        link.other("c")


def test_degree():
    topo = build_fat_tree(4)
    assert topo.degree("h0") == 1
    assert topo.degree("e0") == 4   # 2 aggs + 2 hosts
    assert topo.degree("c0") == 4   # one agg per pod
