#!/usr/bin/env python3
"""Diagnose one slow collective inside a training-style workload.

LLM training issues collectives in a loop; a transient anomaly degrades
only some of them.  We run the paper's empirical workload mix (97%
AllReduce/AllGather at 360 MB scaled, §IV-A) back to back, inject an
incast burst during one operation, and use the per-job diagnoses to
(1) find which operation was anomalous and (2) explain why.

Run:  python examples/training_iteration.py
"""

from repro.experiments.workload import WorkloadRunner, paper_workload
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

SABOTAGED_JOB = 2


def main() -> None:
    network = Network(build_fat_tree(4))
    nodes = [f"h{2 * i}" for i in range(8)]
    jobs = paper_workload(num_operations=4, scale=0.002, seed=11)

    def sabotage(runner: WorkloadRunner, index: int) -> None:
        if index == SABOTAGED_JOB:
            now = runner.network.sim.now
            for src in ("h1", "h5", "h9", "h13"):
                runner.network.create_flow(src, "h2", 1_000_000,
                                           start_time=now).start()

    runner = WorkloadRunner(network, nodes, between_jobs=sabotage)
    results = runner.run(jobs, per_job_deadline_ns=ms(200))

    print(f"{'job':<4} {'op':<15} {'time':>10} {'ideal':>10} "
          f"{'slowdown':>9} {'findings':>9}")
    print("-" * 62)
    for i, result in enumerate(results):
        marker = " <== sabotaged" if i == SABOTAGED_JOB else ""
        print(f"{i:<4} {result.job.op:<15} "
              f"{(result.total_time_ns or 0) / 1e6:>8.3f}ms "
              f"{result.ideal_time_ns / 1e6:>8.3f}ms "
              f"{result.slowdown:>9.2f} "
              f"{len(result.diagnosis.result.findings):>9}{marker}")

    slowest = runner.slowest_job()
    print(f"\nslowest job: #{slowest}")
    assert slowest == SABOTAGED_JOB
    diagnosis = results[slowest].diagnosis
    print("its diagnosis:")
    for finding in diagnosis.result.findings:
        print(f"  - {finding.type.value}: {finding.detail}")
    top = diagnosis.top_contributors(3)
    if top:
        print("top contributors:")
        for flow, score in top:
            print(f"  {flow.short():<26} {score:10,.0f}")


if __name__ == "__main__":
    main()
