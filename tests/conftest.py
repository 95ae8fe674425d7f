"""Shared fixtures: small, fast networks and collectives."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.simnet.network import Network
from repro.simnet.topology import build_dumbbell, build_fat_tree, build_linear
from repro.simnet.units import ms


@pytest.fixture(scope="session")
def golden_capture(tmp_path_factory) -> tuple[dict, Path]:
    """Every golden scenario simulated once per session: its digests
    (``repro.perf.golden.capture_digests``) and the directory that
    holds each scenario's recorded JSONL trace."""
    from repro.perf.golden import capture_digests

    directory = tmp_path_factory.mktemp("golden")
    return capture_digests(directory), directory


@pytest.fixture
def dumbbell_net() -> Network:
    """2+2 hosts around one bottleneck link."""
    return Network(build_dumbbell(2))


@pytest.fixture
def fat_tree_net() -> Network:
    """The paper's K=4 fat-tree (20 switches, 16 hosts)."""
    return Network(build_fat_tree(4))


@pytest.fixture
def linear_net() -> Network:
    """3 switches in a chain, one host each."""
    return Network(build_linear(3, hosts_per_switch=1))


@pytest.fixture
def small_collective(fat_tree_net: Network):
    """4-node ring AllGather with small chunks; (network, runtime)."""
    schedule = ring_allgather(["h0", "h4", "h8", "h12"], 200_000)
    runtime = CollectiveRuntime(fat_tree_net, schedule)
    return fat_tree_net, runtime


def run_to_completion(network: Network, runtime: CollectiveRuntime,
                      max_ms: float = 100.0) -> None:
    """Start and drain a collective, asserting it completes."""
    runtime.start()
    network.run_until_quiet(max_time=ms(max_ms))
    assert runtime.completed, "collective did not finish in time"
