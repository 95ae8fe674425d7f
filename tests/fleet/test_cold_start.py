"""A shard worker's cold start imports only what a shard runs.

Every worker process pays ``import repro.fleet.worker`` before its
first event.  The static-analysis passes, the HTTP exporter, the chaos
harness, networkx and the simulator a replayed trace never runs are
for other processes: their packages export them lazily
(:mod:`repro._lazy`), and every public name stays importable from
where it was.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: never needed to replay a shard's tenants
UNWANTED = ("repro.checks.ir", "repro.checks.lint", "repro.checks.project",
            "http.server", "repro.fleet.exporter", "repro.chaos",
            "repro.live.supervisor", "networkx",
            # a trace reader needs simnet.packet / .pfc / .telemetry only
            "repro.simnet.engine", "repro.simnet.network",
            "repro.simnet.routing", "repro.simnet.switch")


def run_probe(probe: str) -> None:
    """``probe`` in a fresh interpreter: what is in ``sys.modules``
    there is what the import under test put there."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_worker_import_leaves_the_rest_unloaded():
    probe = (
        "import sys, repro.fleet.worker\n"
        f"loaded = [m for m in {UNWANTED!r} if m in sys.modules]\n"
        "assert not loaded, f'imported at worker start: {loaded}'\n"
        # what a shard does run is there
        "assert 'repro.live.pipeline' in sys.modules\n"
        "assert 'repro.fleet.tenancy' in sys.modules\n")
    run_probe(probe)


@pytest.mark.parametrize("package", ["repro", "repro.simnet",
                                     "repro.checks", "repro.live",
                                     "repro.fleet"])
def test_every_public_name_is_still_importable(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_top_level_import_still_builds_a_network():
    probe = (
        "from repro import Network, build_fat_tree\n"
        "assert Network(build_fat_tree(4)).sim.now == 0.0\n")
    run_probe(probe)


def test_simnet_star_import_resolves_every_name():
    probe = (
        "import repro.simnet\n"
        "from repro.simnet import *\n"
        "missing = [n for n in repro.simnet.__all__\n"
        "           if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert Simulator.__module__ == 'repro.simnet.engine'\n")
    run_probe(probe)


def test_lazy_exports_are_the_modules_own_objects():
    from repro.checks import check_paths
    from repro.checks.lint import check_paths as direct
    from repro.fleet import MetricsExporter
    from repro.fleet.exporter import MetricsExporter as exporter
    from repro.live import Supervisor
    from repro.live.supervisor import Supervisor as supervisor

    assert check_paths is direct
    assert MetricsExporter is exporter
    assert Supervisor is supervisor
    # resolved once, then an ordinary attribute of the package
    import repro.live
    assert repro.live.__dict__["Supervisor"] is supervisor
