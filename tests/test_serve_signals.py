"""Graceful shutdown of ``repro serve`` under real signals, plus the
``repro chaos`` CLI verb — subprocess end-to-end tests."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.live.test_checkpoint import record_scenario_trace

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX signals required")

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return record_scenario_trace(
        tmp_path_factory.mktemp("signals") / "run.jsonl")


@pytest.fixture(scope="module")
def slow_speed(trace_path):
    """A --speed that stretches the replay to ~60s of wall clock, so
    tests reliably signal the process mid-stream."""
    from repro.traces import trace_events

    times = [e.time for e in trace_events(trace_path)]
    span_s = (max(times) - min(times)) / 1e9
    return max(span_s / 60.0, 1e-9)


def env():
    merged = dict(os.environ)
    src = str(REPO / "src")
    merged["PYTHONPATH"] = src + os.pathsep \
        + merged.get("PYTHONPATH", "")
    return merged


def spawn_serve(trace_path, speed, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--trace", str(trace_path), "--speed", f"{speed:.12f}",
         "--quiet", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env())
    # the signal handlers are installed before this banner prints
    for _ in range(200):
        line = process.stdout.readline()
        if "serving" in line:
            break
    else:  # pragma: no cover - diagnostic path
        process.kill()
        pytest.fail("serve never printed its banner")
    time.sleep(1.0)  # let the replay loop get into its stride
    return process


def test_sigterm_drains_flushes_and_exits_zero(trace_path,
                                               slow_speed, tmp_path):
    checkpoint_dir = tmp_path / "ckpt"
    process = spawn_serve(trace_path, slow_speed,
                          "--checkpoint-dir", str(checkpoint_dir),
                          "--checkpoint-every", "32")
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=60)
    assert process.returncode == 0, output
    assert "graceful shutdown" in output
    assert "final checkpoint flushed" in output
    # the drain flushed a final checkpoint before exiting
    snapshots = sorted(checkpoint_dir.glob("ckpt-*.json"))
    assert snapshots
    document = json.loads(snapshots[-1].read_text())
    assert document["state"]["cursor"]["published"] > 0


def test_double_sigint_force_exits_nonzero(trace_path, slow_speed,
                                           tmp_path):
    process = spawn_serve(trace_path, slow_speed,
                          "--checkpoint-dir", str(tmp_path / "ckpt"),
                          "--drain-grace", "30")
    process.send_signal(signal.SIGINT)
    time.sleep(1.0)  # inside the drain-grace window
    process.send_signal(signal.SIGINT)
    output, _ = process.communicate(timeout=60)
    assert process.returncode == 130, output


def test_resumed_serve_completes_after_kill(trace_path, slow_speed,
                                            tmp_path):
    """SIGKILL (no chance to flush) + --resume still completes: the
    periodic checkpoints bound the lost work."""
    checkpoint_dir = tmp_path / "ckpt"
    process = spawn_serve(trace_path, slow_speed,
                          "--checkpoint-dir", str(checkpoint_dir),
                          "--checkpoint-every", "16")
    deadline = time.monotonic() + 30
    while not list(checkpoint_dir.glob("ckpt-*.json")):
        assert time.monotonic() < deadline, "no checkpoint appeared"
        time.sleep(0.2)
    process.kill()
    process.wait(timeout=30)
    assert process.returncode != 0

    finish = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--trace", str(trace_path), "--speed", "0", "--quiet",
         "--checkpoint-dir", str(checkpoint_dir), "--resume",
         "--metrics", str(tmp_path / "metrics.prom")],
        capture_output=True, text=True, timeout=120, env=env())
    assert finish.returncode == 0, finish.stdout + finish.stderr
    assert "resumed from checkpoint at event" in finish.stdout
    assert "final diagnosis" in finish.stdout
    samples = dict(line.rsplit(" ", 1) for line in
                   (tmp_path / "metrics.prom").read_text().splitlines()
                   if not line.startswith("#"))
    assert float(samples["live_checkpoints_loaded_total"]) >= 1


def test_chaos_cli_verb(trace_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "chaos",
         "--trace", str(trace_path), "--seed", "7", "--kills", "3",
         "--corrupt-checkpoint", "--workdir", str(tmp_path / "chaos"),
         "--json"],
        capture_output=True, text=True, timeout=300, env=env())
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert report["passed"] is True
    assert report["equal"] is True
    assert report["kills_survived"] == 3
