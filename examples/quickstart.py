#!/usr/bin/env python3
"""Quickstart: diagnose a slowed-down collective in ~30 lines.

We run an 8-node Ring AllGather on the paper's K=4 fat-tree, inject two
background flows that collide with it, and let Vedrfolnir explain what
happened: which steps were the bottleneck, what anomaly occurred, and
which background flow contributed most.

Run:  python examples/quickstart.py
"""

from repro import (
    CollectiveRuntime,
    Network,
    VedrfolnirSystem,
    build_fat_tree,
    ring_allgather,
)
from repro.simnet.units import MB, ms


def main() -> None:
    network = Network(build_fat_tree(4))

    # one ring member under each top-of-rack switch, 3.6 MB per step
    # (the paper's 360 MB workload at 1/100 scale)
    nodes = [f"h{2 * i}" for i in range(8)]
    runtime = CollectiveRuntime(network, ring_allgather(nodes, int(3.6 * MB)))

    # deploy Vedrfolnir: one monitor + detection agent per host, plus
    # the centralized analyzer
    system = VedrfolnirSystem(network, runtime)

    # two interfering background flows that share links with the ring
    bf1 = network.create_flow("h1", "h6", int(8 * MB), start_time=ms(0.2))
    bf2 = network.create_flow("h9", "h2", int(12 * MB), start_time=ms(0.4))

    runtime.start()
    bf1.start()
    bf2.start()
    network.run_until_quiet(max_time=ms(100))

    print(f"collective finished in "
          f"{runtime.total_time_ns / 1e6:.2f} ms "
          f"({len(runtime.records)} steps)")
    print(f"detection triggers: {system.total_triggers}, telemetry "
          f"collected: {network.report_bytes / 1000:.1f} KB\n")

    diagnosis = system.analyze()
    print(diagnosis.summary())

    print("\ncritical path:")
    print("  " + " -> ".join(
        f"F[{e.node}]S{e.step_index}" for e in diagnosis.critical_path))

    print("\ncontributor ranking (Eq. 3):")
    for flow, score in diagnosis.top_contributors():
        name = "BF1" if flow == bf1.key else \
            "BF2" if flow == bf2.key else flow.short()
        print(f"  {name:<28} {score:12,.0f}")


if __name__ == "__main__":
    main()
