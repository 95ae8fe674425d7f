"""Workload generation: the paper's empirical LLM-training mix (§IV-A).

"97% of collective communication operations are AllReduce or AllGather,
each with a data size of 360 MB per traffic" — :func:`paper_workload`
draws operation sequences from that distribution, and
:class:`WorkloadRunner` executes them back-to-back on one network (as a
training loop does), attaching a fresh Vedrfolnir deployment per
operation so each collective gets its own waiting graph and diagnosis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.collective.halving_doubling import halving_doubling_allreduce
from repro.collective.primitives import StepSchedule
from repro.collective.ring import (
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.collective.runtime import CollectiveRuntime
from repro.core.analyzer import VedrfolnirDiagnosis
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.units import MB, ms

PAPER_OP_BYTES = 360 * MB


@dataclass(frozen=True)
class CollectiveJob:
    """One collective operation in a workload."""

    op: str          # "allreduce" | "allgather" | "reduce_scatter"
    algorithm: str   # "ring" | "halving_doubling"
    size_bytes: int

    def build_schedule(self, nodes: Sequence[str]) -> StepSchedule:
        if self.algorithm == "ring":
            factory = {
                "allreduce": ring_allreduce,
                "allgather": ring_allgather,
                "reduce_scatter": ring_reduce_scatter,
            }[self.op]
            return factory(list(nodes), self.size_bytes)
        if self.algorithm == "halving_doubling":
            if self.op != "allreduce":
                raise ValueError(
                    "halving_doubling workload jobs support allreduce")
            return halving_doubling_allreduce(list(nodes),
                                              self.size_bytes)
        raise ValueError(f"unknown algorithm {self.algorithm!r}")


def paper_workload(num_operations: int, scale: float = 0.005,
                   seed: int = 0) -> list[CollectiveJob]:
    """Draw operations from the paper's empirical distribution: 97%
    AllReduce/AllGather (split evenly), 3% ReduceScatter, all at 360 MB
    (scaled)."""
    if num_operations < 1:
        raise ValueError("need at least one operation")
    rng = random.Random(seed)
    size = max(40_000, int(PAPER_OP_BYTES * scale))
    jobs = []
    for _ in range(num_operations):
        roll = rng.random()
        if roll < 0.485:
            jobs.append(CollectiveJob("allreduce", "ring", size))
        elif roll < 0.97:
            jobs.append(CollectiveJob("allgather", "ring", size))
        else:
            jobs.append(CollectiveJob("reduce_scatter", "ring", size))
    return jobs


@dataclass
class JobResult:
    """Outcome of one executed workload job."""

    job: CollectiveJob
    completed: bool
    total_time_ns: Optional[float]
    #: ideal sequential duration (steps x unloaded step time)
    ideal_time_ns: float
    diagnosis: VedrfolnirDiagnosis
    triggers: int

    @property
    def slowdown(self) -> float:
        """Observed vs. ideal total duration."""
        if self.total_time_ns is None or self.ideal_time_ns <= 0:
            return float("inf") if self.total_time_ns is None else 0.0
        return self.total_time_ns / self.ideal_time_ns


class WorkloadRunner:
    """Executes jobs sequentially on a shared network.

    ``between_jobs`` (if given) is called with (runner, job_index)
    before each job starts — the hook experiments use to inject
    anomalies mid-workload.
    """

    def __init__(self, network: Network, nodes: Sequence[str],
                 between_jobs: Optional[Callable[["WorkloadRunner", int],
                                                 None]] = None) -> None:
        self.network = network
        self.nodes = list(nodes)
        self.between_jobs = between_jobs
        self.results: list[JobResult] = []

    def run(self, jobs: Sequence[CollectiveJob],
            per_job_deadline_ns: float = ms(500)) -> list[JobResult]:
        for index, job in enumerate(jobs):
            if self.between_jobs is not None:
                self.between_jobs(self, index)
            schedule = job.build_schedule(self.nodes)
            runtime = CollectiveRuntime(self.network, schedule,
                                        start_time=self.network.sim.now)
            system = VedrfolnirSystem(self.network, runtime)
            runtime.start()
            deadline = self.network.sim.now + per_job_deadline_ns
            self.network.run_until_quiet(max_time=deadline)
            ideal = sum(
                runtime.expected_step_time_ns(step)
                for step in schedule.steps[schedule.nodes[0]])
            self.results.append(JobResult(
                job=job,
                completed=runtime.completed,
                total_time_ns=runtime.total_time_ns,
                ideal_time_ns=ideal,
                diagnosis=system.analyze(),
                triggers=system.total_triggers,
            ))
        return self.results

    def slowest_job(self) -> Optional[int]:
        """Index of the job with the largest slowdown factor."""
        if not self.results:
            return None
        return max(range(len(self.results)),
                   key=lambda i: self.results[i].slowdown)
