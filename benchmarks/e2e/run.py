"""The one benchmark command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

runs one workload and prints every metric by name with its unit and
sample count, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` every workload runs in turn, each in a fresh
process so none inherits another's memory or warm caches.

The metric names, units and workload names are read from
``BENCHMARK.json`` at the root of the checkout; a workload that yields
another set of names is an error, not a silent omission.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # set-up is counted from process start

import argparse    # noqa: E402
import json        # noqa: E402
import os          # noqa: E402
import platform    # noqa: E402
import shutil      # noqa: E402
import signal      # noqa: E402
import subprocess  # noqa: E402
import sys         # noqa: E402
import tempfile    # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns its Outcome."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401 - fail here, loudly, without the program
    from benchmarks.e2e import (fleet_fanin, harness, live_stream,
                                sim_to_verdict, trace_corpus)

    workloads = {"sim_to_verdict": sim_to_verdict.run,
                 "trace_corpus": trace_corpus.run,
                 "live_stream": live_stream.run,
                 "fleet_fanin": fleet_fanin.run}
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    tracer = harness.Tracer() if trace else None
    ctx = harness.Context(seed=seed, seconds=seconds, workdir=workdir,
                          tracer=tracer, started=STARTED)
    try:
        outcome = workloads[name](ctx)
        if trace:
            harness.write_spans(tracer.spans,
                                RESULTS / f"spans-{name}.jsonl", name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def child_pids() -> list:
    """The live and unreaped children of this process, from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue    # ended while we looked
        # pid (comm) state ppid ...; comm may hold spaces and brackets
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended, on every path out of the benchmark.

    Fleet workers are spawned, and ``spawn`` starts a resource tracker
    that lives until this process closes its pipe: left to the
    interpreter's exit it ends a moment *after* this process, which a
    caller sees as a process the run left behind."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()      # closes the pipe, then waits for the tracker
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def report(name: str, args, outcome, spec: dict) -> dict:
    """Print every metric by name; return the driver's result object."""
    group = "per_layer" if args.trace else "end_to_end"
    values = outcome.per_layer if args.trace else outcome.end_to_end
    declared = {m["name"]: m for m in spec[group]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise SystemExit(f"{name} yields metrics BENCHMARK.json does "
                         f"not declare: {unknown}")
    header = {"workload": name, "seed": args.seed, "trace": args.trace,
              "python": platform.python_version(),
              "nproc": os.cpu_count(), **outcome.info}
    for key, value in header.items():
        print(f"# {key}={value}")
    metrics = {}
    for metric in spec[group]:
        # a layer this workload bypasses does no work in it: 0
        value, n = values.get(metric["name"], (0.0, 0))
        metrics[metric["name"]] = {"value": value,
                                   "unit": metric["unit"]}
        print(f"{metric['name']:<40} {value:>16.6f} "
              f"{metric['unit']:<8} n={n}")
    failed = len(outcome.failures)
    print(f"ops_attempted={outcome.attempted} ops_failed={failed}")
    for line in outcome.failures[:20]:
        print(f"FAILED {line}")
    result = {"correct": failed == 0,
              "attempted": outcome.attempted, "failed": failed,
              "metrics": metrics}
    (RESULTS / f"latest-{name}-trace{args.trace}.json").write_text(
        json.dumps({**header, **result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    args = parse(argv)
    spec = contract()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        status = 0
        for name in names:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
    # a terminated run unwinds through the finally below as well
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = run_workload(args.workload, args.seed, seconds,
                               bool(args.trace))
    finally:
        stop_children()
    result = report(args.workload, args, outcome, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # fleet workers are spawned: an unguarded script would re-run the
    # benchmark in every child
    raise SystemExit(main())
