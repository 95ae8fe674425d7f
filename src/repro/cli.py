"""Command-line interface.

Every verb, with every flag it takes::

    python -m repro scenarios
    python -m repro topology --k 4
    python -m repro run-scenario --scenario flow_contention --system vedrfolnir \
        --case 3 --scale 0.005 --seed 42 --trace run.jsonl
    python -m repro diagnose --trace run.jsonl --json
    python -m repro trace convert run.jsonl run.vcol
    python -m repro trace info run.vcol
    python -m repro serve --trace run.jsonl --speed 10 --snapshot-every 64 \
        --snapshots run.snapshots.jsonl --metrics run.prom --quiet
    python -m repro serve --trace run.jsonl --checkpoint-dir ckpt \
        --checkpoint-every 512 --resume --supervise 3 --drain-grace 5
    python -m repro chaos --trace run.jsonl --seed 7 --kills 3 \
        --corrupt-checkpoint --duplicate-every 7 --reorder-window 5 \
        --probe-truncation --workdir chaos --json
    python -m repro tail --snapshots run.snapshots.jsonl --follow
    python -m repro figure --id 13b --cases 2 --scale 0.002
    python -m repro check --strict --format github src
    python -m repro fleet serve --trace run.jsonl --replicate 8 --shards 4 \
        --budget 5000 --status status.json --port 9317 --linger 5 --quiet
    python -m repro fleet serve --trace run.jsonl --no-http --scrape-out m.prom
    python -m repro fleet status --status status.json --json
    python -m repro fleet chaos --trace run.jsonl --truncate-checkpoint
    python -m repro fleet chaos --trace run.jsonl --replicate 4 --shards 2 \
        --transport --net-drop 0.05 --net-garble 0.05 --net-resets 2 \
        --stall-heartbeats 0.2 --port 9321

Every verb prints human-readable text.  Its exit code is set in one
place, :func:`main`, and means the same for every verb:

* 0 — success;
* 1 — the verb's own check failed (``check`` findings, a broken chaos
  contract, a ``trace convert`` digest mismatch), a shard worker
  crashed, or a supervised ``serve`` crash-looped;
* 2 — bad input: an argparse usage error, an unreadable or malformed
  file, an unknown scenario or system, no Python file to check;
* 130 — interrupted: Ctrl-C, or a second stop signal while ``serve``
  drains (128 + SIGINT);
* 141 — stdout's reader went away (``... | head``), with nothing on
  stderr (128 + SIGPIPE); a broken pipe to any other file the verb
  writes is an ``error:`` line and 2.

Timing is not a verb: ``python3 benchmarks/e2e/run.py`` (contract in
``BENCHMARK.json``) is the one benchmark.
"""

from __future__ import annotations

import argparse
import os
import select
import sys
import threading
from contextlib import contextmanager
from typing import Optional, Sequence


def _verb(subparsers, name: str, handler, **kwargs
          ) -> argparse.ArgumentParser:
    """A subcommand that :func:`main` runs through ``handler``."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vedrfolnir reproduction: RDMA NPA diagnosis in "
                    "collective communications")
    sub = parser.add_subparsers(dest="command", required=True)

    _verb(sub, "scenarios", cmd_scenarios, help="list evaluation scenarios")

    topo = _verb(sub, "topology", cmd_topology, help="describe a fat-tree")
    topo.add_argument("--k", type=int, default=4, help="fat-tree arity")

    run = _verb(sub, "run-scenario", cmd_run_scenario,
                help="run one case under one diagnosis system")
    run.add_argument("--scenario", required=True,
                     help="flow_contention | incast | pfc_storm | "
                          "pfc_backpressure")
    run.add_argument("--system", default="vedrfolnir",
                     help="vedrfolnir | hawkeye-maxr | hawkeye-minr | "
                          "full-polling")
    run.add_argument("--case", type=int, default=0, help="case id")
    run.add_argument("--trace", help="write a JSONL trace here")
    run.add_argument("--scale", type=float, default=0.005,
                     help="size/time scale vs. the paper (default "
                          "0.005 = 1.8 MB steps)")
    run.add_argument("--seed", type=int, default=42,
                     help="base seed for case generation")

    diag = _verb(sub, "diagnose", cmd_diagnose,
                 help="offline analysis of a recorded trace")
    diag.add_argument("--trace", required=True,
                      help="trace file (JSONL or columnar)")
    diag.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")

    trace = sub.add_parser(
        "trace",
        help="on-disk trace store utilities (convert / info)")
    trace_sub = trace.add_subparsers(dest="trace_command",
                                     required=True)
    tconv = _verb(
        trace_sub, "convert", cmd_trace_convert,
        help="convert a trace between JSONL and the columnar store "
             "(direction auto-detected from the input format) and "
             "verify the canonical-JSONL digest round-trips")
    tconv.add_argument("input", help="source trace (JSONL or columnar)")
    tconv.add_argument("output", help="destination path")
    tinfo = _verb(
        trace_sub, "info", cmd_trace_info,
        help="describe a trace file (format, counts, header)")
    tinfo.add_argument("path", help="trace file (JSONL or columnar)")

    serve = _verb(
        sub, "serve", cmd_serve,
        help="replay a JSONL trace through the live streaming pipeline")
    serve.add_argument("--trace", required=True, help="JSONL trace file")
    serve.add_argument("--speed", type=float, default=1.0,
                       help="replay speed multiplier vs simulated time "
                            "(0 = as fast as possible)")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       help="emit a rolling snapshot every N events "
                            "(0 = final snapshot only)")
    serve.add_argument("--snapshots",
                       help="also append snapshots as JSONL here "
                            "(the repro tail input)")
    serve.add_argument("--metrics",
                       help="write pipeline metrics in Prometheus text "
                            "format here (default: "
                            "<trace>.live-metrics.prom)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-snapshot lines")
    serve.add_argument("--checkpoint-dir",
                       help="persist atomic pipeline checkpoints here "
                            "(enables crash-safe resume)")
    serve.add_argument("--checkpoint-every", type=int, default=512,
                       help="checkpoint every N published events")
    serve.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint "
                            "in --checkpoint-dir")
    serve.add_argument("--supervise", type=int, default=0,
                       help="restart a crashed serve loop up to N "
                            "times (0 = no supervision)")
    serve.add_argument("--drain-grace", type=float, default=0.0,
                       help="seconds to linger after a graceful-stop "
                            "signal before exiting (a second signal "
                            "force-exits)")

    # the per-tenant state of chaos, fleet serve and fleet chaos
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument(
        "--workdir",
        help="experiment or fleet state directory (default: a "
             "temporary directory)")
    state.add_argument(
        "--snapshot-every", type=int, default=32,
        help="rolling-snapshot cadence (per tenant in a fleet)")
    state.add_argument(
        "--checkpoint-every", type=int, default=64,
        help="checkpoint cadence in published events (per tenant in "
             "a fleet; 0 disables fleet durability)")

    # what ``repro chaos`` and ``repro fleet chaos`` both take
    chaos_common = argparse.ArgumentParser(add_help=False,
                                           parents=[state])
    chaos_common.add_argument(
        "--seed", type=int, default=0,
        help="seed for kill placement, perturbations and checkpoint "
             "damage")
    chaos_common.add_argument(
        "--corrupt-checkpoint", action="store_true",
        help="flip a byte of a victim's newest checkpoint between "
             "kill and resume")
    chaos_common.add_argument(
        "--truncate-checkpoint", action="store_true",
        help="truncate (instead of bit-flip) that checkpoint")
    chaos_common.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable chaos report")

    chaos = _verb(
        sub, "chaos", cmd_chaos, parents=[chaos_common],
        help="seeded kill/corrupt/resume harness asserting the "
             "recovery contract: resumed final snapshot bit-equal to "
             "an uninterrupted run")
    chaos.add_argument("--trace", required=True,
                       help="JSONL trace file")
    chaos.add_argument("--kills", type=int, default=3,
                       help="number of seeded kill points spread over "
                            "the stream")
    chaos.add_argument("--duplicate-every", type=int, default=0,
                       help="deliver every k-th event twice")
    chaos.add_argument("--reorder-window", type=int, default=0,
                       help="shuffle events inside a window this wide")
    chaos.add_argument("--probe-truncation", action="store_true",
                       help="also probe mid-record trace truncation "
                            "detection and resume")

    tail = _verb(sub, "tail", cmd_tail,
                 help="print diagnosis snapshots as they land")
    tail.add_argument("--snapshots", required=True,
                      help="snapshot JSONL file written by repro serve")
    tail.add_argument("--follow", action="store_true",
                      help="keep polling for new snapshots until the "
                           "final one lands")

    chk = _verb(
        sub, "check", cmd_check,
        help="static analysis: every rule in the catalog (determinism, "
             "unit conversions, trace access, atomic durable writes, "
             "spawn primitives, checkpoint symmetry, bounded growth, "
             "resource release) in one pass, one parse per file")
    chk.add_argument("paths", nargs="*", default=["src"],
                     help="files or directories to lint (default: src)")
    chk.add_argument("--strict", action="store_true",
                     help="also flag suppression comments that "
                          "suppress nothing or name an unknown code "
                          "(RPR006)")
    chk.add_argument("--format", choices=["text", "json", "github"],
                     default="text",
                     help="output format; 'json' emits a JSON array, "
                          "'github' emits ::error workflow annotations")

    fig = _verb(sub, "figure", cmd_figure,
                help="regenerate one paper figure")
    fig.add_argument("--id", required=True,
                     choices=["9", "10", "11", "12", "13a", "13b", "14"])
    fig.add_argument("--cases", type=int, default=3,
                     help="cases per scenario/setting")
    fig.add_argument("--scale", type=float, default=None)

    fleet = sub.add_parser(
        "fleet",
        help="sharded multi-tenant diagnosis fleet (serve / status / "
             "chaos)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command",
                                     required=True)

    # what ``repro fleet serve`` and ``repro fleet chaos`` both take
    fleet_common = argparse.ArgumentParser(add_help=False)
    fleet_common.add_argument(
        "--trace", action="append", required=True,
        help="JSONL trace file (repeatable; each becomes one tenant)")
    fleet_common.add_argument(
        "--replicate", type=int, default=1,
        help="clone each trace into N logical tenants")
    fleet_common.add_argument(
        "--shards", type=int, default=4,
        help="shard count tenants are hashed across")
    fleet_common.add_argument(
        "--linger", type=float, default=0.0,
        help="keep serving /metrics this many seconds after the run "
             "finishes")

    fserve = _verb(
        fleet_sub, "serve", cmd_fleet_serve,
        parents=[state, fleet_common],
        help="replay traces as fleet tenants across supervised shard "
             "workers, with a scrapeable /metrics endpoint")
    fserve.add_argument("--budget", type=int, default=0,
                        help="per-tenant event budget (0 = unlimited)")
    fserve.add_argument("--status",
                        help="write the newest fleet snapshot JSON "
                             "here (the repro fleet status input)")
    fserve.add_argument("--port", type=int, default=0,
                        help="metrics exporter port (0 = ephemeral, "
                             "printed on startup)")
    fserve.add_argument("--no-http", action="store_true",
                        help="disable the /metrics exporter")
    fserve.add_argument("--scrape-out",
                        help="also write the final Prometheus text "
                             "exposition to this file")
    fserve.add_argument("--quiet", action="store_true",
                        help="suppress rolling fleet summary lines")

    fstatus = _verb(fleet_sub, "status", cmd_fleet_status,
                    help="summarize a fleet status file")
    fstatus.add_argument("--status", required=True,
                         help="status JSON written by repro fleet "
                              "serve --status")
    fstatus.add_argument("--json", action="store_true",
                         help="print the raw snapshot JSON")

    fchaos = _verb(
        fleet_sub, "chaos", cmd_fleet_chaos,
        parents=[chaos_common, fleet_common],
        help="SIGKILL real shard workers mid-replay and assert the "
             "fleet recovery contract (final diagnosis bit-equal to "
             "an uninterrupted run)")
    fchaos.add_argument("--kills", type=int, default=1,
                        help="shard workers to SIGKILL")
    fchaos.add_argument("--transport", action="store_true",
                        help="inject network faults into the socket "
                             "fan-in and hold the killed shard down "
                             "into health-aware degraded snapshots")
    fchaos.add_argument("--net-drop", type=float, default=0.0,
                        help="with --transport: probability of "
                             "dropping a received chunk")
    fchaos.add_argument("--net-garble", type=float, default=0.0,
                        help="with --transport: probability of "
                             "garbling a received chunk (CRC resets "
                             "the connection)")
    fchaos.add_argument("--net-resets", type=int, default=0,
                        help="with --transport: connection resets to "
                             "inject")
    fchaos.add_argument("--stall-heartbeats", type=float, default=0.0,
                        help="with --transport: probability of "
                             "stalling a worker heartbeat")
    fchaos.add_argument("--port", type=int, default=None,
                        help="with --transport: serve live /metrics "
                             "on this port during the experiment "
                             "(0 = ephemeral; omit = no exporter)")
    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_scenarios(_args) -> int:
    from repro.anomalies.scenarios import PAPER_CASE_COUNTS

    print(f"{'scenario':<20} {'paper cases':>12}  ground truth")
    print("-" * 60)
    truths = {
        "flow_contention": "all injected flows detected",
        "incast": "all injected flows detected",
        "pfc_storm": "root port localized",
        "pfc_backpressure": "root port localized",
        "load_imbalance": "overloaded port localized (extension)",
    }
    for name, count in PAPER_CASE_COUNTS.items():
        print(f"{name:<20} {count:>12}  "
              f"{truths.get(name, 'extension scenario')}")
    return 0


def cmd_topology(args) -> int:
    from repro.core.units import bps_to_gbps, ns_to_us
    from repro.simnet.topology import build_fat_tree

    topo = build_fat_tree(args.k)
    cores = sum(1 for s in topo.switches if s.startswith("c"))
    aggs = sum(1 for s in topo.switches if s.startswith("a"))
    edges = sum(1 for s in topo.switches if s.startswith("e"))
    print(f"{topo.name}: {len(topo.hosts)} hosts, "
          f"{len(topo.switches)} switches "
          f"({cores} core / {aggs} agg / {edges} edge), "
          f"{len(topo.links)} links")
    sample = topo.links[0]
    print(f"links: {bps_to_gbps(sample.bandwidth_bps):.0f} Gbps, "
          f"{ns_to_us(sample.delay_ns):.0f} us delay")
    return 0


def cmd_run_scenario(args) -> int:
    from repro.anomalies.scenarios import ScenarioConfig, make_cases
    from repro.experiments.harness import make_system, score_case
    from repro.traces import TraceRecorder

    config = ScenarioConfig(scale=args.scale, base_seed=args.seed)
    case = make_cases(args.scenario, args.case + 1, config)[args.case]
    system = make_system(args.system)

    network, runtime = case.build_network()
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime) if args.trace \
        else None
    runtime.start()
    truth = case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    output = system.finalize()
    outcome = score_case(truth, output.result)

    print(f"scenario={case.scenario} case={case.case_id} "
          f"system={system.name}")
    print(f"collective completed: {runtime.completed} "
          f"({(runtime.total_time_ns or 0) / 1e6:.2f} ms)")
    print(f"outcome: {outcome.upper()}  "
          f"(detected {len(output.result.detected_flows)} flows, "
          f"{len(truth.injected_flows)} injected)")
    if truth.root_port is not None:
        print(f"ground-truth root: {truth.root_port}; "
              f"diagnosed roots: "
              f"{[str(p) for p in output.result.root_ports]}")
    print(f"overheads: telemetry "
          f"{network.processing_overhead_bytes / 1000:.1f} KB, "
          f"bandwidth {network.bandwidth_overhead_bytes / 1000:.1f} KB, "
          f"triggers {output.triggers}")
    for finding in output.result.findings:
        print(f"  - {finding.type.value}: {finding.detail}")
    if recorder is not None:
        path = recorder.write(args.trace)
        print(f"trace written to {path}")
    return 0


def _collective_line(schedule, steps: int) -> str:
    """The collective header of a text report."""
    return (f"collective: {schedule.algorithm} {schedule.op.value}, "
            f"{len(schedule.nodes)} nodes, {steps} steps recorded")


def cmd_diagnose(args) -> int:
    from repro.core.reports import render_json, render_text
    from repro.core.units import ns_to_ms
    from repro.traces import analyze_trace, load_trace

    trace = load_trace(args.trace)
    diagnosis = analyze_trace(trace)
    if args.json:
        print(render_json(diagnosis, top_contributors=5, indent=2))
        return 0
    print(f"trace: {args.trace} "
          f"({len(trace.step_records)} step records, "
          f"{len(trace.reports)} switch reports)\n")
    graph = diagnosis.waiting_graph
    collective = (_collective_line(graph.schedule, len(graph.records))
                  + f", {ns_to_ms(graph.total_time_ns()):.3f} ms total")
    print(render_text(diagnosis, collective=collective))
    return 0


def cmd_serve(args) -> int:
    import json
    import time as _time

    from repro.core.reports import render_text
    from repro.live import PipelineConfig
    from repro.live.checkpoint import (
        CheckpointManager,
        CheckpointPolicy,
        resume_or_create,
    )
    from repro.live.metrics import render_prometheus
    from repro.live.pipeline import snapshot_line
    from repro.live.supervisor import (
        GracefulShutdown,
        RestartPolicy,
        Supervisor,
    )
    from repro.traces import read_header, trace_events

    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume needs --checkpoint-dir")
    header = read_header(args.trace)
    config = PipelineConfig(snapshot_every=args.snapshot_every)
    manager = CheckpointManager(
        args.checkpoint_dir,
        CheckpointPolicy(interval_events=args.checkpoint_every)) \
        if args.checkpoint_dir else None
    shutdown = GracefulShutdown(
        drain_grace_s=args.drain_grace).install()
    print(f"serving {args.trace}: "
          f"{header.schedule.algorithm} {header.schedule.op.value}, "
          f"{len(header.schedule.nodes)} nodes, speed="
          f"{'max' if args.speed <= 0 else f'{args.speed:g}x'}")

    def serve_once(attempt: int):
        """One (re)start of the serve loop; the supervisor target."""
        last_time = [None]

        def pacing(event) -> None:
            last = last_time[0]
            if args.speed > 0 and last is not None \
                    and event.time > last:
                # sleep in short slices so a graceful-stop signal
                # interrupts replay pacing promptly
                remaining = (event.time - last) / 1e9 / args.speed
                while remaining > 0 and not shutdown.requested:
                    step = min(0.2, remaining)
                    _time.sleep(step)
                    remaining -= step
            last_time[0] = event.time if last is None \
                else max(last, event.time)

        replayer, resumed = resume_or_create(
            header, manager,
            lambda pipeline: trace_events(
                args.trace, on_error=pipeline.quarantine.admit),
            config=config, fresh=attempt == 0 and not args.resume,
            pacing=pacing, should_stop=lambda: shutdown.requested)
        pipeline = replayer.pipeline
        if resumed:
            print(f"resumed from checkpoint at event "
                  f"{replayer.published}")
        append = resumed or attempt > 0
        snapshot_sink = open(args.snapshots, "a" if append else "w") \
            if args.snapshots else None

        def on_snapshot(snapshot) -> None:
            if args.quiet and snapshot_sink is None:
                return
            entry = snapshot.to_dict()
            if not args.quiet:
                print(snapshot_line(entry))
            if snapshot_sink is not None:
                snapshot_sink.write(json.dumps(entry) + "\n")
                snapshot_sink.flush()

        pipeline.on_snapshot.append(on_snapshot)
        try:
            final = replayer.run()
        finally:
            if snapshot_sink is not None:
                snapshot_sink.close()
        return pipeline, replayer, final

    if args.supervise > 0:
        outcome = Supervisor(
            serve_once,
            RestartPolicy(max_restarts=args.supervise),
            should_stop=lambda: shutdown.requested).run()
        if outcome is None:
            print("stopped between restarts; state is in the last "
                  "checkpoint")
            return 0
        pipeline, replayer, final = outcome
    else:
        pipeline, replayer, final = serve_once(0)

    if shutdown.requested:
        shutdown.wait_out_grace()
        print("graceful shutdown: drained, final checkpoint flushed"
              if manager is not None
              else "graceful shutdown: drained")

    print()
    print(render_text(
        final, title="final diagnosis",
        collective=_collective_line(header.schedule,
                                    final.step_records_ingested)))
    if final.confidence < 1.0:
        print(f"confidence: {final.confidence:.2f} "
              f"(switch telemetry degraded)")
    counters = final.counters
    print(f"pipeline: {counters['consumed']} events consumed, "
          f"{counters['late_discarded']} late, "
          f"{counters['quarantined']} quarantined, "
          f"{counters['graph_pruned']} graph records pruned")

    registry = pipeline.build_metrics()
    if manager is not None:
        manager.register_metrics(registry)
    metrics_path = args.metrics or f"{args.trace}.live-metrics.prom"
    with open(metrics_path, "w") as handle:
        handle.write(render_prometheus(registry))
    print(f"metrics written to {metrics_path}")
    return 0


@contextmanager
def _workdir(args, prefix: str):
    """``--workdir`` as a ``Path``, made if missing, or a temporary
    directory that is removed on exit."""
    import tempfile
    from pathlib import Path

    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        yield Path(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix=prefix) as workdir:
            yield Path(workdir)


def _run_chaos(args, experiment, describe=None) -> int:
    """Both chaos verbs: run ``experiment(workdir)`` in ``--workdir``
    or a temporary directory, then print the report (``--json``, or
    ``describe``'s lines and the summary line).  Exit 0 on a pass, 1
    on a failed contract."""
    import json

    with _workdir(args, "repro-chaos-") as workdir:
        report = experiment(workdir)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for line in describe(report) if describe is not None else ():
            print(line)
        print(report.summary_line())
    return 0 if report.passed else 1


def cmd_chaos(args) -> int:
    from repro.chaos import ChaosPlan, derive_kill_points, run_chaos
    from repro.live.checkpoint import CheckpointPolicy
    from repro.live.pipeline import PipelineConfig

    plan = ChaosPlan(
        seed=args.seed,
        corrupt_checkpoint=args.corrupt_checkpoint,
        truncate_checkpoint=args.truncate_checkpoint,
        kill_points=derive_kill_points(args.trace, args.seed, args.kills,
                                       args.duplicate_every),
        duplicate_every=args.duplicate_every,
        reorder_window=args.reorder_window,
        probe_truncation=args.probe_truncation)

    def describe(report):
        yield (f"chaos over {args.trace}: "
               f"kill points {list(plan.kill_points)}"
               + (", damaging the newest checkpoint before each resume"
                  if plan.corrupt_checkpoint or plan.truncate_checkpoint
                  else ""))
        for entry in report.counts["kill_log"]:
            damage = f", damaged {entry['damaged']}" \
                if entry["damaged"] else ""
            yield (f"  killed at event {entry['kill_at']}, resumed "
                   f"from event {entry['resumed_from']}{damage}")
        probe = report.counts["truncation"]
        if probe is not None:
            yield (f"  truncation probe: detected={probe['detected']} "
                   f"resume_offset={probe['resume_offset']} "
                   f"resumed_ok={probe['resumed_ok']}")

    return _run_chaos(args, lambda workdir: run_chaos(
        args.trace, workdir, plan,
        config=PipelineConfig(snapshot_every=args.snapshot_every),
        policy=CheckpointPolicy(interval_events=args.checkpoint_every)),
        describe)


def cmd_tail(args) -> int:
    import json
    import time as _time

    from repro.live.pipeline import snapshot_line

    consumed = 0    # whole lines read, printed or not
    saw_final = False
    while True:
        try:
            with open(args.snapshots) as handle:
                lines = handle.readlines()
        except OSError:
            if not args.follow:
                raise
            lines = []      # not written yet: poll again
        for line in lines[consumed:]:
            if args.follow and not line.endswith("\n"):
                break   # still being written: read it again next poll
            consumed += 1
            try:
                entry = json.loads(line)
                text = snapshot_line(entry)
            except (ValueError, KeyError, TypeError):
                continue    # a blank or malformed line
            print(text)
            saw_final = saw_final or bool(entry["final"])
        if not args.follow or saw_final:
            return 0
        _time.sleep(0.5)  # tail -f follows forever until the final snapshot or Ctrl-C


def _github_annotation(finding) -> str:
    """One GitHub Actions ``::error`` workflow command per finding."""
    message = f"{finding.rule} {finding.message}"
    message = (message.replace("%", "%25")
               .replace("\r", "%0D").replace("\n", "%0A"))
    return (f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title={finding.rule}::{message}")


def cmd_check(args) -> int:
    import json

    from repro.checks.ir import iter_python_files
    from repro.checks.lint import check_paths, render_findings

    if not any(True for _ in iter_python_files(args.paths)):
        raise ValueError(f"no Python files matched: "
                         f"{', '.join(args.paths)}")
    findings = check_paths(args.paths, strict=args.strict)
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "github":
        for finding in findings:
            print(_github_annotation(finding))
    elif findings:
        print(render_findings(findings))
    if findings:
        rules = sorted({f.rule for f in findings})
        print(f"{len(findings)} finding(s) [{', '.join(rules)}]",
              file=sys.stderr)
        return 1
    if args.format != "json":
        print(f"repro check: clean "
              f"({', '.join(args.paths)})")
    return 0


def cmd_trace_convert(args) -> int:
    from repro.traces.columnar import (
        jsonl_digest,
        sniff_format,
        write_columnar,
        write_jsonl,
    )

    malformed: list = []
    if sniff_format(args.input) == "jsonl":
        write_columnar(args.input, args.output,
                       on_error=lambda line_no, reason, _snippet:
                       malformed.append((line_no, reason)))
        direction = "jsonl -> columnar"
    else:
        write_jsonl(args.input, args.output)
        direction = "columnar -> jsonl"
    print(f"converted {direction}: {args.input} -> {args.output}")
    if malformed:
        first = malformed[0]
        print(f"warning: {len(malformed)} malformed line(s) preserved "
              f"byte-exact (first: line {first[0]}: {first[1]})",
              file=sys.stderr)
    before = jsonl_digest(args.input)
    after = jsonl_digest(args.output)
    if before != after:
        print(f"round-trip verification FAILED:\n"
              f"  source {before}\n  output {after}",
              file=sys.stderr)
        return 1
    print(f"canonical JSONL digest verified: {before}")
    return 0


def cmd_trace_info(args) -> int:
    from pathlib import Path

    from repro.traces import open_trace, sniff_format
    from repro.traces.stream import DATA_KINDS

    path = Path(args.path)
    fmt = sniff_format(path)
    print(f"{path}: {fmt} trace, {path.stat().st_size:,} bytes")
    with open_trace(path) as trace:
        header = trace.header()
        schedule = header.schedule
        print(f"  schedule: {schedule.algorithm} {schedule.op.value} "
              f"over {len(schedule.nodes)} nodes")
        print(f"  flow keys: {len(header.flow_keys)}, expected step "
              f"times: {len(header.expected_step_times)}")
        if fmt == "jsonl":
            print("  records: "
                  + (", ".join(f"{kind}={trace.counts[kind]:,}"
                               for kind in DATA_KINDS
                               if trace.counts[kind]) or "(none)"))
            return 0
        print(f"  columnar v{trace.version}: "
              + ", ".join(f"{kind}={count:,}" for kind, count
                          in sorted(trace.counts.items())))
        print(f"  dictionaries: {len(trace.strings)} strings, "
              f"{len(trace.flows)} flows; "
              f"{len(trace.directory['columns'])} columns")
        if trace.unknown_kinds:
            print("  quarantined unknown kinds: "
                  + ", ".join(f"{k}={c}" for k, c in
                              sorted(trace.unknown_kinds.items())))
    return 0


def cmd_figure(args) -> int:
    from repro.experiments import figures

    if args.id == "14":
        out = figures.fig14_case_study(scale=args.scale)
        for key in ("collective_ms", "critical_path", "findings",
                    "bf_scores"):
            print(f"{key}: {out[key]}")
        return 0
    if args.id == "11":
        rows = figures.fig11_host_overhead(scale=args.scale)
    else:
        rows = {"9": figures.fig9_precision_recall,
                "10": figures.fig10_overhead,
                "12": figures.fig12_param_sweep,
                "13a": figures.fig13a_threshold_ablation,
                "13b": figures.fig13b_count_ablation,
                }[args.id](args.cases, args.scale)
    if not rows:
        print("(no rows)")
        return 0
    columns = list(rows[0])
    print(" | ".join(columns))
    for row in rows:
        print(" | ".join(str(row.get(c)) for c in columns))
    return 0


def _fleet_config(args, workdir, budget: int = 0):
    from repro.fleet import FleetConfig, TenantPolicy

    policy = TenantPolicy(
        event_budget=budget,
        snapshot_every=args.snapshot_every,
        checkpoint_every=args.checkpoint_every)
    return FleetConfig(shards=args.shards, policy=policy,
                       workdir=str(workdir) if workdir else None)


class _FleetScrape:
    """What ``/metrics`` and ``/fleet`` answer for a fleet whose
    aggregator the CLI holds: the newest merged snapshot, handed from
    the fan-in thread that publishes it to the exporter thread that
    scrapes it, plus the aggregator's own operational series."""

    def __init__(self, aggregator) -> None:
        self.aggregator = aggregator
        self._lock = threading.Lock()
        self._snapshot = None

    def publish(self, snapshot) -> None:
        with self._lock:
            self._snapshot = snapshot

    def latest(self):
        with self._lock:
            return self._snapshot

    def status(self) -> Optional[dict]:
        snapshot = self.latest()
        return snapshot.to_dict() if snapshot is not None else None

    def registry(self):
        from repro.fleet.service import registry_from_snapshot
        from repro.live.metrics import MetricsRegistry

        snapshot = self.latest()
        registry = MetricsRegistry() if snapshot is None \
            else registry_from_snapshot(
                snapshot, self.aggregator.dropped_total())
        return self.aggregator.export_into(registry)


def cmd_fleet_serve(args) -> int:
    import time as _time

    from repro.fleet import (
        FleetAggregator,
        MetricsExporter,
        plan_shards,
        replicate_tenants,
    )
    from repro.fleet.aggregator import HealthPolicy, fleet_line
    from repro.fleet.service import publish_json
    from repro.fleet.transport import run_fleet_streaming
    from repro.live.metrics import render_prometheus

    specs = replicate_tenants(args.trace, args.replicate)
    with _workdir(args, "repro-fleet-") as workdir:
        config = _fleet_config(args, workdir / "state", args.budget)
        print(f"fleet: {len(specs)} tenants over {config.shards} shard "
              f"worker processes (budget="
              f"{config.policy.event_budget or 'unlimited'})")
        plan = plan_shards(specs, config.shards, config.vnodes)
        scrape = _FleetScrape(FleetAggregator(
            sorted(plan), config.mailbox_capacity, health=HealthPolicy()))

        def publish(snapshot) -> None:
            scrape.publish(snapshot)
            # one dict per merge; the line alone needs no tenant list
            data = snapshot.to_dict() if args.status \
                else snapshot.head_dict()
            if args.status:
                publish_json(args.status, data)
            if not args.quiet:
                print(fleet_line(data))

        exporter = None
        try:
            if not args.no_http:
                exporter = MetricsExporter(scrape.registry, port=args.port,
                                           status_fn=scrape.status)
                print(f"metrics: http://127.0.0.1:{exporter.start()}"
                      f"/metrics")
            final = run_fleet_streaming(
                config, plan, str(workdir / "reports"),
                on_merge=publish, aggregator=scrape.aggregator).final

            if args.scrape_out:
                with open(args.scrape_out, "w") as handle:
                    handle.write(render_prometheus(scrape.registry()))
                print(f"exposition written to {args.scrape_out}")
            print(fleet_line(final.head_dict()))
            if args.linger > 0 and exporter is not None:
                _time.sleep(args.linger)
            return 0
        finally:
            if exporter is not None:
                exporter.stop()


def cmd_fleet_status(args) -> int:
    import json

    from repro.fleet.aggregator import fleet_line
    from repro.fleet.service import read_status

    snapshot = read_status(args.status)
    try:
        head = fleet_line(snapshot)
    except (KeyError, TypeError):   # missing, or not a fleet snapshot
        raise ValueError(
            f"no readable fleet status at {args.status}") from None
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(head)
    width = max((len(t["tenant"]) for t in snapshot["tenants"]),
                default=6)
    for tenant in snapshot["tenants"]:
        findings = ",".join(tenant["findings"]) or "none"
        flags = []
        if tenant["budget_exhausted"]:
            flags.append("budget")
        if tenant["degraded"]:
            flags.append("degraded")
        note = f" [{','.join(flags)}]" if flags else ""
        print(f"  shard {tenant['shard']} "
              f"{tenant['tenant']:<{width}} "
              f"{'FINAL' if tenant['final'] else '#' + str(tenant['seq']):<6} "
              f"anomalies={findings} "
              f"top={tenant['top_contributor'] or '-'}{note}")
    return 0


def cmd_fleet_chaos(args) -> int:
    import time as _time

    from repro.chaos import (FleetChaosPlan, run_fleet_chaos,
                             transport_health_policy)
    from repro.fleet import replicate_tenants

    plan = FleetChaosPlan(
        seed=args.seed,
        corrupt_checkpoint=args.corrupt_checkpoint,
        truncate_checkpoint=args.truncate_checkpoint,
        kills=args.kills,
        transport=args.transport,
        net_drop=args.net_drop,
        net_garble=args.net_garble,
        net_resets=args.net_resets,
        stall_heartbeats=args.stall_heartbeats,
    )
    config = _fleet_config(args, None)
    # optional live exporter during a transport experiment: the CLI
    # owns the aggregator so /metrics can watch the degraded window
    aggregator = scrape = exporter = None
    try:
        if args.transport and args.port is not None:
            from repro.fleet.aggregator import FleetAggregator
            from repro.fleet.exporter import MetricsExporter

            aggregator = FleetAggregator(
                range(config.shards), config.mailbox_capacity,
                health=transport_health_policy())
            scrape = _FleetScrape(aggregator)
            exporter = MetricsExporter(scrape.registry, port=args.port)
            print(f"chaos metrics exporter on "
                  f"http://127.0.0.1:{exporter.start()}/metrics",
                  flush=True)
        code = _run_chaos(args, lambda workdir: run_fleet_chaos(
            replicate_tenants(args.trace, args.replicate), workdir,
            plan, config=config,
            on_merge=scrape.publish if scrape is not None else None,
            aggregator=aggregator))
        if exporter is not None and args.linger > 0:
            print(f"lingering {args.linger:g}s for final scrapes",
                  flush=True)
            _time.sleep(args.linger)
        return code
    finally:
        if exporter is not None:
            exporter.stop()


def _crash_errors() -> tuple[type[Exception], ...]:
    """A dead shard worker, or a supervised serve that kept dying.
    Python evaluates an ``except`` clause only when an exception
    reaches it, so a verb that runs no worker never imports these."""
    from repro.fleet.worker import WorkerCrashed
    from repro.live.supervisor import CrashLoopError

    return WorkerCrashed, CrashLoopError


def _stdout_closed() -> bool:
    """Whether stdout is a pipe whose reader went away, rather than
    some other file a verb writes (a ``--snapshots`` FIFO)."""
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (OSError, ValueError):     # not a real file descriptor
        return False
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb and return its exit code: the one place an
    exception becomes an exit code (the list in the module
    docstring)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        return 130      # 128 + SIGINT
    except (OSError, ValueError) as error:
        if isinstance(error, BrokenPipeError) and _stdout_closed():
            # the interpreter's last flush of stdout goes nowhere instead
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141      # 128 + SIGPIPE
        print(f"error: {error}", file=sys.stderr)
        return 2
    except _crash_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
