"""Workload ``sim_to_verdict``: inject -> simulate -> analyse -> score.

The paper's Fig. 9-14 unit of work, run serially in-process, and the
only workload where ``simnet`` does the work (about 98 % of a case).
``--seed`` is the cases' ``ScenarioConfig.base_seed``; the simulator's
cost is flat across case seeds, so every run sees new anomalies at the
same price.

An operation is one case.  It fails when it raises, when its
collective does not complete, or when a repeat of the same case in a
later round reaches another verdict or other exact counts.
"""

from __future__ import annotations

from benchmarks.e2e import config, corpus, harness
from benchmarks.e2e.harness import Context, Outcome, Round, clock

#: per-case exact counts a pure speed-up must leave identical
COUNTS = ("simnet.events", "collective.step_records",
          "simnet.switch_reports", "simnet.telemetry_bytes",
          "traces.jsonl_bytes")
SPANS = ("simnet.build", "collective.start", "anomalies.inject",
         "simnet.run", "core.finalize", "traces.record_write")


def run(ctx: Context, load: config.SimLoad = config.SIM) -> Outcome:
    # set-up: the first simulated case pays the program's lazy
    # initialisation, so run one before the clock starts
    corpus.record_case(load.cases[0], ctx.seed,
                       ctx.workdir / "warmup.jsonl",
                       harness.NullTracer())
    first: dict = {}

    def one_round(index: int, tracer) -> Round:
        result = Round()
        for spec in load.cases:
            result.attempted += 1
            path = ctx.workdir / f"{spec.label}.jsonl"
            start = clock()
            try:
                recorded = corpus.record_case(spec, ctx.seed, path,
                                              tracer)
            except Exception as error:  # noqa: BLE001 - counted, reported
                result.failures.append(f"{spec.label}: {error!r}")
                continue
            elapsed = clock() - start
            result.wall_s += elapsed
            result.verdict_s.append((spec.label, recorded.slices))
            result.served.append((spec.label, 1, recorded.slices))
            for name, seconds in recorded.seconds.items():
                result.seconds[name] = \
                    result.seconds.get(name, 0.0) + seconds
            for name in COUNTS:
                result.extra[name] = result.extra.get(name, 0) \
                    + recorded.counts[name]
            result.extra["tp"] = result.extra.get("tp", 0) \
                + (recorded.outcome == "tp")
            if not recorded.completed:
                result.failures.append(
                    f"{spec.label}: collective did not complete")
            fingerprint = (recorded.signature, recorded.outcome,
                           recorded.counts)
            if first.setdefault(spec.label, fingerprint) != fingerprint:
                result.failures.append(
                    f"{spec.label}: round {index} differs from "
                    f"round 0")
        return result

    setup_done = clock()
    rounds = harness.run_rounds(one_round, ctx.seconds, ctx.tracer)
    digest = corpus.corpus_digest(
        ctx.workdir / f"{spec.label}.jsonl" for spec in load.cases)
    return harness.finish(
        ctx, setup_done, rounds, {"corpus_digest": digest},
        lambda: per_layer(rounds, len(load.cases)))


def per_layer(rounds: list, cases: int) -> dict:
    """Seconds and exact counts per round of ``cases`` cases."""
    traced = [r for r in rounds if r.traced]
    metrics = {f"{name}_s": (harness.traced_seconds(rounds, name),
                             len(traced)) for name in SPANS}
    last = traced[-1]
    for name in COUNTS:
        metrics[name] = (last.extra.get(name, 0), cases)
    metrics["simnet.events_per_s"] = (
        last.extra.get("simnet.events", 0)
        / max(last.seconds.get("simnet.run", 0.0), 1e-9), cases)
    metrics["core.verdict_tp_share"] = (
        last.extra.get("tp", 0) / cases, cases)
    return metrics
