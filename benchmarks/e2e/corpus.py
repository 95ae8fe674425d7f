"""Recording cases into traces, and rewriting traces into variants.

``record_case`` is the inject -> verdict unit of work: build the
network, attach the diagnosis system and a ``TraceRecorder``, start the
collective, inject the anomaly, simulate, analyse, score, write the
trace.  ``sim_to_verdict`` times it; the three reader workloads call
it during set-up to get the corpus they replay.

The JSONL time-shift rewriter lives here on purpose (rather than
importing ``repro.perf.traceio.amplify_trace``): the load must be
identical on both sides of any later comparison, whatever happens to
the program's own bench helpers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from benchmarks.e2e import config, harness


@dataclass
class Recorded:
    """One recorded case and everything measured while recording it."""

    spec: config.CaseSpec
    path: Path
    outcome: str            # "tp" | "fp" | "fn" by the paper's rule
    completed: bool
    signature: tuple
    counts: dict = field(default_factory=dict)
    #: seconds per phase, by span name
    seconds: dict = field(default_factory=dict)
    #: the same wall cut finer, in order: every phase, with the
    #: simulation in ``config.RUN_SLICES`` steps of simulated time
    slices: tuple = ()


def make_case(spec: config.CaseSpec, base_seed: int):
    from repro.anomalies.scenarios import ScenarioConfig, make_cases

    scenario_config = ScenarioConfig(
        scale=config.SCALE, num_collective_nodes=spec.nodes,
        fat_tree_k=config.FAT_TREE_K, base_seed=base_seed)
    return make_cases(spec.scenario, spec.case_id + 1,
                      scenario_config)[spec.case_id]


def verdict_signature(diagnosis) -> tuple:
    """What must survive a time shift, a format change or a replay:
    finding types, root ports, detected flows, top contributor."""
    result = diagnosis.result
    top = diagnosis.top_contributors(1)
    return (
        tuple(sorted(f.type.value for f in result.findings)),
        tuple(sorted(str(p) for p in result.root_ports)),
        tuple(sorted(f.short() for f in result.detected_flows)),
        top[0][0].short() if top and top[0][1] > 0 else None,
    )


def record_case(spec: config.CaseSpec, base_seed: int, path: Path,
                tracer) -> Recorded:
    """Inject -> simulate -> verdict -> trace on disk, one case."""
    from repro.experiments.harness import make_system, score_case
    from repro.traces import TraceRecorder

    case = make_case(spec, base_seed)
    op = spec.label
    seconds = {}

    def timed(name: str, layer: str):
        return harness.timed(tracer, name, layer, op, seconds)

    with timed("simnet.build", "simnet"):
        network, runtime = case.build_network()
        system = make_system(config.SYSTEM)
        system.attach(network, runtime)
        recorder = TraceRecorder.attach(network, runtime)
    with timed("collective.start", "collective"):
        runtime.start()
    with timed("anomalies.inject", "anomalies"):
        truth = case.inject(network, runtime)
    # the simulation advances in equal steps of simulated time through
    # the same public call (the engine documents back-to-back calls as
    # one continuous timeline; the recorded trace is byte-identical),
    # so that interference can be taken out slice by slice
    deadline = case.config.run_deadline_ns()
    steps = []
    with timed("simnet.run", "simnet"):
        for step in range(1, config.RUN_SLICES + 1):
            start = harness.clock()
            network.run_until_quiet(
                max_time=deadline * step / config.RUN_SLICES)
            steps.append(harness.clock() - start)
    with timed("core.finalize", "core"):
        output = system.finalize()
        outcome = score_case(truth, output.result)
    with timed("traces.record_write", "traces"):
        recorder.write(path)
    return Recorded(
        spec=spec, path=path, outcome=outcome,
        completed=bool(runtime.completed),
        signature=verdict_signature(output.extras["diagnosis"]),
        counts={
            "simnet.events": network.sim.events_processed,
            "collective.step_records": len(recorder.step_records),
            "simnet.switch_reports": len(recorder.reports),
            "simnet.telemetry_bytes":
                network.processing_overhead_bytes
                + network.bandwidth_overhead_bytes,
            "traces.jsonl_bytes": path.stat().st_size,
        },
        seconds=seconds,
        slices=(seconds["simnet.build"], seconds["collective.start"],
                seconds["anomalies.inject"], *steps,
                seconds["core.finalize"],
                seconds["traces.record_write"]))


def build_corpus(specs: Iterable[config.CaseSpec], directory: Path,
                 tracer) -> list[Recorded]:
    """Record ``specs`` at the frozen corpus seed.  A case whose
    collective does not complete is not a usable trace: raise."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = []
    for spec in specs:
        recorded = record_case(spec, config.CORPUS_SEED,
                               directory / f"{spec.label}.jsonl",
                               tracer)
        if not recorded.completed:
            raise RuntimeError(
                f"corpus case {spec.label} did not complete")
        corpus.append(recorded)
    return corpus


def corpus_digest(paths: Iterable[Path]) -> str:
    """SHA-256 over the recorded traces, in order — two commits whose
    simulators recorded different traces must never be compared
    silently."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(Path(path).read_bytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# the JSONL rewriter
# ----------------------------------------------------------------------
def _shift_record(record: dict, shift_ns: float) -> None:
    if record["kind"] == "step_record":
        record["start"] += shift_ns
        record["end"] += shift_ns
    elif record["kind"] == "switch_report":
        record["time"] += shift_ns
        for key in ("pause_received", "pause_sent"):
            for event in record.get(key, ()):
                event["time"] += shift_ns


def rewrite_trace(src: Path, dst: Path, shift_ns: int) -> int:
    """Copy a JSONL trace with every data-record time moved by
    ``shift_ns`` (the prologue is kept as is), in the recorder's own
    JSON spelling.  Returns the number of data records written."""
    written = 0
    with Path(src).open() as source, Path(dst).open("w") as sink:
        for line in source:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["kind"] in ("step_record", "switch_report"):
                _shift_record(record, float(shift_ns))
                written += 1
                sink.write(json.dumps(record) + "\n")
            else:
                sink.write(line)
    return written
