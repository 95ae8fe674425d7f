"""Additional collective algorithms (§V: "VEDRFOLNIR applies broadly
across nearly all collective algorithms").

These exercise decomposition shapes the Ring/HD schedules do not:

* **all-to-all** — every node sends a distinct chunk to every other
  node; steps are purely send-ordered (no inter-flow data deps);
* **binomial-tree broadcast** — the classic log2(N) fan-out; a node's
  first send depends on the receive from its tree parent;
* **pipeline broadcast** — a neighbor chain forwarding a message in
  segments (the pipeline-parallelism traffic pattern of LLM training);
  deep dependency chains make its waiting graph maximally "diagonal".
"""

from __future__ import annotations

from typing import Sequence

from repro.collective.primitives import (
    CollectiveOp,
    SendStep,
    StepSchedule,
    validate_schedule,
)


def all_to_all(nodes: Sequence[str], chunk_bytes: int) -> StepSchedule:
    """N-1 steps; at step j node i sends its chunk for peer
    ``(i + j + 1) mod N``.  All data is locally resident, so the only
    waiting edges are intra-flow ordering."""
    n = len(nodes)
    if n < 2:
        raise ValueError("all-to-all needs at least two nodes")
    if len(set(nodes)) != n:
        raise ValueError("nodes must be distinct")
    schedule = StepSchedule("all-to-all", CollectiveOp.CUSTOM, list(nodes))
    for i, node in enumerate(nodes):
        schedule.steps[node] = [
            SendStep(node, j, nodes[(i + j + 1) % n],
                     chunk_id=(i + j + 1) % n, size_bytes=chunk_bytes)
            for j in range(n - 1)]
    validate_schedule(schedule)
    return schedule


def _highest_bit(value: int) -> int:
    return value.bit_length() - 1


def binomial_broadcast(nodes: Sequence[str],
                       message_bytes: int) -> StepSchedule:
    """Binomial-tree broadcast from ``nodes[0]``.

    At round r, every rank j < 2^r with j + 2^r < N sends the message to
    rank j + 2^r.  A non-root's first send waits on the receive from its
    parent (rank ``j - 2^hb(j)``), which happened at round ``hb(j)``.
    """
    n = len(nodes)
    if n < 2:
        raise ValueError("broadcast needs at least two nodes")
    if len(set(nodes)) != n:
        raise ValueError("nodes must be distinct")
    rounds = (n - 1).bit_length()
    schedule = StepSchedule("binomial-broadcast", CollectiveOp.CUSTOM,
                            list(nodes))

    # collect each rank's sends in round order
    sends: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for r in range(rounds):
        for j in range(min(1 << r, n)):
            target = j + (1 << r)
            if target < n:
                sends[j].append((r, target))

    # map (rank, round) -> that rank's step index for dependency lookup
    step_index: dict[tuple[int, int], int] = {}
    for rank, entries in sends.items():
        for idx, (r, _target) in enumerate(entries):
            step_index[(rank, r)] = idx

    for rank, node in enumerate(nodes):
        steps = []
        for idx, (r, target) in enumerate(sends[rank]):
            depends = None
            if rank != 0 and idx == 0:
                parent = rank - (1 << _highest_bit(rank))
                parent_round = _highest_bit(rank)
                depends = (nodes[parent],
                           step_index[(parent, parent_round)])
            steps.append(SendStep(
                node=node, step_index=idx, peer=nodes[target],
                chunk_id=0, size_bytes=message_bytes,
                depends_on=depends))
        schedule.steps[node] = steps
    validate_schedule(schedule)
    return schedule


def pipeline_broadcast(nodes: Sequence[str], message_bytes: int,
                       segments: int = 4) -> StepSchedule:
    """Chain pipeline: ``nodes[0]`` pushes the message to ``nodes[1]`` in
    ``segments`` pieces; every interior node forwards each segment as
    soon as it arrives.  Segment s at node i depends on segment s
    arriving from node i-1."""
    n = len(nodes)
    if n < 2:
        raise ValueError("pipeline needs at least two nodes")
    if len(set(nodes)) != n:
        raise ValueError("nodes must be distinct")
    if segments < 1:
        raise ValueError("need at least one segment")
    segment_bytes = max(1, message_bytes // segments)
    schedule = StepSchedule("pipeline-broadcast", CollectiveOp.CUSTOM,
                            list(nodes))
    for i, node in enumerate(nodes):
        if i == n - 1:
            schedule.steps[node] = []  # the tail only receives
            continue
        steps = []
        for s in range(segments):
            depends = None
            if i > 0:
                depends = (nodes[i - 1], s)
            steps.append(SendStep(
                node=node, step_index=s, peer=nodes[i + 1],
                chunk_id=s, size_bytes=segment_bytes,
                depends_on=depends))
        schedule.steps[node] = steps
    validate_schedule(schedule)
    return schedule
