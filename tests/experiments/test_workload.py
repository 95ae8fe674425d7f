"""Workload generation and multi-collective execution."""

import pytest

from repro.experiments.workload import (
    CollectiveJob,
    WorkloadRunner,
    paper_workload,
)
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

NODES = ["h0", "h4", "h8", "h12"]


def test_paper_workload_distribution():
    jobs = paper_workload(400, seed=1)
    ops = [j.op for j in jobs]
    ar_ag = sum(1 for op in ops if op in ("allreduce", "allgather"))
    assert ar_ag / len(ops) >= 0.93  # ~97% in expectation
    assert all(j.size_bytes == int(360e6 * 0.005) for j in jobs)


def test_paper_workload_deterministic_by_seed():
    assert paper_workload(50, seed=7) == paper_workload(50, seed=7)
    assert paper_workload(50, seed=7) != paper_workload(50, seed=8)


def test_paper_workload_rejects_empty():
    with pytest.raises(ValueError):
        paper_workload(0)


def test_job_builds_matching_schedule():
    job = CollectiveJob("allgather", "ring", 100_000)
    schedule = job.build_schedule(NODES)
    assert max(map(len, schedule.steps.values())) == 3
    job_hd = CollectiveJob("allreduce", "halving_doubling", 100_000)
    assert max(map(len, job_hd.build_schedule(NODES).steps.values())) == 4


def test_job_rejects_bad_combo():
    with pytest.raises(ValueError):
        CollectiveJob("allgather", "halving_doubling",
                      1000).build_schedule(NODES)
    with pytest.raises(ValueError):
        CollectiveJob("allreduce", "butterfly", 1000).build_schedule(NODES)


@pytest.fixture(scope="module")
def executed_workload():
    network = Network(build_fat_tree(4))
    jobs = [CollectiveJob("allgather", "ring", 400_000)
            for _ in range(3)]

    def sabotage(runner: WorkloadRunner, index: int) -> None:
        if index == 1:  # contend with the middle job only: incast into
            # h4 shares its ToR downlink with the collective, always
            for src in ("h5", "h9", "h13"):
                flow = runner.network.create_flow(
                    src, "h4", 1_500_000,
                    start_time=runner.network.sim.now)
                flow.start()

    runner = WorkloadRunner(network, NODES, between_jobs=sabotage)
    results = runner.run(jobs, per_job_deadline_ns=ms(100))
    return runner, results


def test_all_jobs_complete(executed_workload):
    _, results = executed_workload
    assert len(results) == 3
    assert all(r.completed for r in results)


def test_jobs_execute_sequentially(executed_workload):
    _, results = executed_workload
    # each job has its own diagnosis with its own 12 step records
    for result in results:
        assert len(result.diagnosis.waiting_graph.records) == 12


def test_sabotaged_job_is_slowest(executed_workload):
    runner, results = executed_workload
    assert runner.slowest_job() == 1
    assert results[1].total_time_ns > results[0].total_time_ns


def test_sabotaged_job_diagnosed(executed_workload):
    _, results = executed_workload
    assert results[1].diagnosis.result.findings
    assert not results[0].diagnosis.result.findings


def test_triggers_only_on_anomalous_job(executed_workload):
    _, results = executed_workload
    assert results[1].triggers > 0
    assert results[0].triggers == 0
