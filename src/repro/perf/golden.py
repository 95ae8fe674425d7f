"""Golden determinism digests for the simulator fast path.

The engine's fast-path optimisations (tuple heap, same-time FIFO lane,
event freelist, heap compaction) are only admissible because they are
*order-preserving*: the executed (time, seq, callback) stream and every
recorded trace must stay byte-identical to the seed engine's.  This
module computes the digests that pin that contract:

* ``stream_sha256`` — SHA-256 over one ``{time!r}|{seq}|{label}`` line
  per executed event (``repr`` of the float time makes any bit-level
  timestamp drift visible);
* ``trace_sha256`` — SHA-256 of the JSONL trace the scenario records,
  which additionally covers telemetry report contents and ordering;
* ``vcol_sha256`` — the trace's :func:`~repro.traces.content_address`
  (SHA-256 of its deterministic ``.vcol`` form), the experiment
  runner's cache key: a codec change that moves one byte of the
  columnar file fails here.

``tools/capture_golden.py`` writes these into
``tests/fixtures/golden_digests.json``; the determinism test recomputes
them on every run (and CI does so with the sanitizer enabled).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.checks.sanitizer import _callback_label
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.experiments.harness import make_system
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import TraceRecorder, content_address

#: scenario scale used by the anomaly golden cases (fast but non-trivial)
GOLDEN_SCALE = 0.002


class StreamHasher:
    """Accumulates the executed-event stream into a SHA-256."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def __call__(self, time: float, seq: int, callback) -> None:
        self.events += 1
        self._hash.update(
            f"{time!r}|{seq}|{_callback_label(callback)}\n".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def install_observer(sim, hasher: StreamHasher) -> None:
    """Attach ``hasher`` to the engine's executed-event stream.

    Prefers the engine's ``event_observer`` hook; against an engine
    without one (the pre-optimisation seed, for capturing the original
    baseline) it replaces ``run()`` with an exact copy of the seed loop
    plus recording (behaviour-preserving by inspection).
    """
    if hasattr(sim, "event_observer"):
        sim.event_observer = hasher
        return
    import heapq

    def run(until=None, max_events=None):
        sim._stopped = False
        heap = sim._heap
        sanitizer = sim.sanitizer
        while heap and not sim._stopped:
            event = heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(heap)
            if event.cancelled:
                continue
            if sanitizer is not None:
                sanitizer.before_event(
                    event.time, event.seq, event.callback)
            sim.now = event.time
            sim._events_processed += 1
            hasher(event.time, event.seq, event.callback)
            event.callback(*event.args)
            if sanitizer is not None:
                sanitizer.after_event(
                    event.time, event.seq, event.callback)
            if max_events is not None \
                    and sim._events_processed >= max_events:
                break
        if until is not None and sim.now < until and not sim._stopped:
            sim.now = until
        return sim.now

    sim.run = run


def golden_ring_allgather(tmp_dir: Path) -> dict:
    """The canonical collective run (mirrors tests/test_determinism.py)."""
    net = Network(build_fat_tree(4))
    hasher = StreamHasher()
    install_observer(net.sim, hasher)
    runtime = CollectiveRuntime(
        net, ring_allgather(["h0", "h4", "h8", "h12"], 200_000))
    VedrfolnirSystem(net, runtime)
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_500_000).start()
    net.run_until_quiet(max_time=ms(100))
    path = tmp_dir / "ring_allgather_k4.jsonl"
    recorder.write(path)
    return {
        "events": hasher.events,
        "final_time_ns": net.sim.now,
        "stream_sha256": hasher.hexdigest(),
        "trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "vcol_sha256": content_address(path),
    }


def golden_anomaly(scenario: str, tmp_dir: Path) -> dict:
    """One anomaly case under the Vedrfolnir system, trace recorded."""
    config = ScenarioConfig(scale=GOLDEN_SCALE, base_seed=42)
    case = make_cases(scenario, 1, config)[0]
    network, runtime = case.build_network()
    hasher = StreamHasher()
    install_observer(network.sim, hasher)
    system = make_system("vedrfolnir")
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    system.finalize()
    path = tmp_dir / f"{scenario}.jsonl"
    recorder.write(path)
    return {
        "events": hasher.events,
        "final_time_ns": network.sim.now,
        "stream_sha256": hasher.hexdigest(),
        "trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "vcol_sha256": content_address(path),
    }


#: the scenarios the fixture pins, in capture order
GOLDEN_SCENARIOS = ("ring_allgather_k4", "pfc_storm_case0", "incast_case0",
                    "flow_contention_case0", "pfc_backpressure_case0")


def capture_digests(tmp_dir: Path) -> dict:
    """Recompute every golden digest."""
    return {name: golden_ring_allgather(tmp_dir)
            if name == "ring_allgather_k4"
            else golden_anomaly(name[:-len("_case0")], tmp_dir)
            for name in GOLDEN_SCENARIOS}
