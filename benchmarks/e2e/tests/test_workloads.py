"""Determinism of the inputs, and a tiny configuration of each
workload that runs in seconds and yields exactly the declared names."""

import json
import tempfile
from pathlib import Path

import pytest

from benchmarks.e2e import (config, corpus, fleet_fanin, harness,
                            live_stream, sim_to_verdict, trace_corpus)
from benchmarks.e2e.config import CaseSpec

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = CaseSpec("pfc_storm", 0, 4)
TINY_OTHER = CaseSpec("incast", 0, 4)

SMOKE = {
    "sim_to_verdict": (sim_to_verdict.run,
                       config.SimLoad(cases=(TINY, TINY_OTHER))),
    "trace_corpus": (trace_corpus.run,
                     config.CorpusLoad(bases=(TINY, TINY_OTHER),
                                       variants_per_base=2)),
    # the real elephant: p99 lateness is refused on fewer events
    "live_stream": (live_stream.run,
                    config.LiveLoad(closed_replays=1, rate_per_s=250.0)),
    # 200 tenants of 4-node traces: a p95 is refused on fewer
    "fleet_fanin": (fleet_fanin.run,
                    config.FleetLoad(tenants=200, elephants=1,
                                     elephant=TINY_OTHER, mice=(TINY,),
                                     least_rounds=1,
                                     inprocess_tenants=8)),
}


def context(directory, seed=7, trace=False) -> harness.Context:
    return harness.Context(
        seed=seed, seconds=0.0, workdir=Path(directory),
        tracer=harness.Tracer() if trace else None,
        started=harness.clock())


def record(seed: int, directory: Path) -> corpus.Recorded:
    return corpus.record_case(TINY_OTHER, seed,
                              directory / f"seed{seed}.jsonl",
                              harness.NullTracer())


def test_same_seed_same_trace_other_seed_other_trace(tmp_path):
    first, again, other = (record(3, tmp_path), record(3, tmp_path),
                           record(4, tmp_path))
    digest = corpus.corpus_digest
    assert first.counts == again.counts
    assert first.signature == again.signature
    assert digest([first.path]) == digest([again.path])
    assert digest([first.path]) != digest([other.path])
    assert first.completed


def test_rewriter_shifts_every_time_and_nothing_else(tmp_path):
    base = record(3, tmp_path)
    shifted = tmp_path / "shifted.jsonl"
    written = corpus.rewrite_trace(base.path, shifted, 1000)
    assert written == base.counts["collective.step_records"] \
        + base.counts["simnet.switch_reports"]
    before = [json.loads(line) for line in base.path.open()]
    after = [json.loads(line) for line in shifted.open()]
    assert len(before) == len(after)
    for old, new in zip(before, after):
        if old["kind"] == "step_record":
            assert new["start"] == old["start"] + 1000
            assert new["end"] == old["end"] + 1000
            old["start"], old["end"] = new["start"], new["end"]
        elif old["kind"] == "switch_report":
            assert new["time"] == old["time"] + 1000
            old["time"] = new["time"]
            for key in ("pause_received", "pause_sent"):
                for a, b in zip(old[key], new[key]):
                    assert b["time"] == a["time"] + 1000
                    a["time"] = b["time"]
        assert old == new


def test_tenant_plan_puts_elephants_first_and_cycles_the_mice():
    load = config.FleetLoad(tenants=12, elephants=2)
    mice = [Path(f"mouse{i}.vcol") for i in range(4)]
    plan = fleet_fanin.tenant_plan(load, Path("big.vcol"), mice)
    assert plan == fleet_fanin.tenant_plan(load, Path("big.vcol"), mice)
    assert [s.trace for s in plan[:2]] == ["big.vcol"] * 2
    assert len({s.tenant for s in plan}) == 12
    used = [s.trace for s in plan[2:]]
    assert sorted(used.count(str(m)) for m in mice) == [2, 2, 3, 3]


def waits(*beat_counts) -> list:
    """One fleet round per entry: tenant "t" of a shard that sent
    that many heartbeats, one a second, served a second after."""
    rounds = []
    for count in beat_counts:
        beats = [10.0 + second for second in range(1, count + 1)]
        rounds.append(harness.Round(extra={
            "waits": [("t", 10.0, beats, 11.0 + count)]}))
    return rounds


def test_a_verdict_wait_is_cut_at_its_shards_heartbeats():
    rounds = waits(3, 3)
    fleet_fanin.cut_verdicts(rounds)
    for result in rounds:
        assert result.verdict_s == [("t", (1.0, 1.0, 1.0, 1.0))]


def test_a_missing_heartbeat_falls_back_to_the_uncut_wait():
    rounds = waits(3, 2)
    fleet_fanin.cut_verdicts(rounds)
    assert [r.verdict_s for r in rounds] == [[("t", (4.0,))],
                                             [("t", (3.0,))]]
    # repeats still line up, slice for slice
    harness.best_seconds([s for r in rounds for s in r.verdict_s])


@pytest.fixture(scope="module")
def outcomes():
    """Each workload once, tiny and traced, so both metric groups and
    the span arithmetic are exercised."""
    results = {}
    scratch = ROOT / "benchmarks" / "e2e" / "results"
    scratch.mkdir(exist_ok=True)
    for name, (run, load) in SMOKE.items():
        with tempfile.TemporaryDirectory(dir=scratch) as directory:
            ctx = context(directory, trace=True)
            results[name] = (run(ctx, load), ctx)
    return results


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_is_correct_and_fully_named(outcomes, name):
    outcome, ctx = outcomes[name]
    assert outcome.failures == []
    assert outcome.attempted >= 1
    assert set(outcome.end_to_end) == \
        {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _n in outcome.end_to_end.values())
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(outcome.per_layer) <= declared
    # layer self times account for every traced round's wall
    gap, _n = outcome.per_layer["bench.span_sum_gap_share"]
    assert gap <= harness.SPAN_SUM_TOLERANCE
    shares = sum(outcome.per_layer[f"{layer}.self_share"][0]
                 for layer in harness.LAYERS)
    assert shares == pytest.approx(1.0)
    assert len(outcome.info["corpus_digest"]) == 64


def test_every_declared_layer_metric_is_yielded_by_some_workload(
        outcomes):
    yielded = set()
    for outcome, _ctx in outcomes.values():
        yielded |= set(outcome.per_layer)
    assert yielded == {m["name"] for m in SPEC["per_layer"]}


def test_workload_names_match_the_contract():
    assert [w["name"] for w in SPEC["workloads"]] == list(SMOKE)


def test_the_runner_stops_every_process_it_started():
    import multiprocessing
    import time

    from benchmarks.e2e import run as runner

    # a spawned worker that outlives its fleet, and with it the
    # resource tracker that ``spawn`` starts
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,))
    child.start()
    assert len(runner.child_pids()) >= 2
    runner.stop_children()
    assert runner.child_pids() == []
