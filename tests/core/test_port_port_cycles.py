"""``ProvenanceGraph.port_port_cycles``: a Kahn peel answers the common
case (no cycle) without networkx; a graph that has one still goes
through ``nx.simple_cycles``, so deadlock findings keep their order and
rotation."""

import random
import subprocess
import sys
import textwrap

import networkx as nx

from repro.core.diagnosis import detect_pfc_deadlock
from repro.core.provenance import ProvenanceGraph
from repro.simnet.pfc import PortRef


def random_edges(rng: random.Random, ports: int, edges: int,
                 acyclic: bool) -> list[tuple[PortRef, PortRef]]:
    refs = [PortRef(f"s{i // 4}", i % 4) for i in range(ports)]
    rng.shuffle(refs)
    picked = {}
    for _ in range(edges):
        a, b = rng.sample(range(ports), 2)
        if acyclic and a > b:       # edges only run up the shuffled order
            a, b = b, a
        picked[(refs[a], refs[b])] = None
    return list(picked)


def graph_of(edges) -> ProvenanceGraph:
    graph = ProvenanceGraph()
    for edge in edges:
        graph.port_port[edge] = 0.5
    return graph


def networkx_cycles(edges) -> list[list[PortRef]]:
    reference = nx.DiGraph()
    reference.add_edges_from(edges)
    return [list(cycle) for cycle in nx.simple_cycles(reference)]


def test_acyclic_graphs_have_no_cycles():
    rng = random.Random(20)
    for _ in range(200):
        ports = rng.randint(2, 24)
        edges = random_edges(rng, ports, rng.randint(1, 2 * ports), True)
        assert networkx_cycles(edges) == []
        assert graph_of(edges).port_port_cycles() == []


def test_cyclic_graphs_equal_networkx_order_and_rotation():
    rng = random.Random(21)
    cyclic = 0
    for _ in range(200):
        ports = rng.randint(2, 12)
        edges = random_edges(rng, ports, rng.randint(2, 2 * ports), False)
        expected = networkx_cycles(edges)
        cyclic += bool(expected)
        graph = graph_of(edges)
        assert graph.port_port_cycles() == expected
        assert [f.root_ports for f in detect_pfc_deadlock(graph)] == expected
    assert cyclic > 50


def test_self_loop_and_empty():
    loop = PortRef("s0", 0)
    assert graph_of([(loop, loop)]).port_port_cycles() == [[loop]]
    assert ProvenanceGraph().port_port_cycles() == []


def test_acyclic_graphs_never_import_networkx():
    """In a fresh interpreter: the whole point is the import (15 MiB,
    0.2 s) a diagnosis without a deadlock no longer pays."""
    script = textwrap.dedent("""
        import random, sys
        from repro.core.diagnosis import diagnose
        from repro.core.provenance import ProvenanceGraph
        from repro.simnet.pfc import PortRef
        rng = random.Random(22)
        for _ in range(50):
            refs = [PortRef("s", i) for i in range(rng.randint(2, 16))]
            graph = ProvenanceGraph()
            for _ in range(2 * len(refs)):
                a, b = sorted(rng.sample(range(len(refs)), 2))
                graph.port_port[(refs[a], refs[b])] = 1.0
            assert graph.port_port_cycles() == []
            assert not diagnose(graph).findings
        assert "networkx" not in sys.modules, "networkx was imported"
        graph = ProvenanceGraph()
        graph.port_port[(refs[0], refs[1])] = 1.0
        graph.port_port[(refs[1], refs[0])] = 1.0
        assert sorted(graph.port_port_cycles()[0]) == refs[:2]
        assert "networkx" in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
