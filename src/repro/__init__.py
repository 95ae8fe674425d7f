"""Vedrfolnir reproduction: RDMA network performance anomaly diagnosis
in collective communications (SIGCOMM 2025).

Quickstart::

    from repro import (
        Network, build_fat_tree, ring_allgather,
        CollectiveRuntime, VedrfolnirSystem,
    )

    net = Network(build_fat_tree(4))
    schedule = ring_allgather([f"h{i}" for i in range(8)], 3_600_000)
    runtime = CollectiveRuntime(net, schedule)
    system = VedrfolnirSystem(net, runtime)
    bf = net.create_flow("h8", "h1", 5_000_000, tag="background")
    runtime.start(); bf.start()
    net.run_until_quiet(max_time=20_000_000)
    print(system.analyze().summary())

Packages:

* :mod:`repro.simnet` — the packet-level RDMA network simulator (PFC,
  DCQCN, ECMP, fat-tree);
* :mod:`repro.collective` — collective algorithms, decomposition and
  runtime;
* :mod:`repro.core` — the Vedrfolnir diagnosis system itself;
* :mod:`repro.anomalies` — anomaly injectors and scenario generators;
* :mod:`repro.baselines` — Hawkeye and full-polling baselines;
* :mod:`repro.experiments` — the harness regenerating the paper's
  figures.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:   # importing a subpackage must not load the others
    from repro.collective import (
        CollectiveOp,
        CollectiveRuntime,
        StepSchedule,
        halving_doubling_allreduce,
        ring_allgather,
        ring_allreduce,
        ring_reduce_scatter,
    )
    from repro.core import (
        AnomalyType,
        DetectionConfig,
        VedrfolnirConfig,
        VedrfolnirSystem,
        WaitingGraph,
        diagnose,
    )
    from repro.simnet import (
        FlowKey,
        Network,
        NetworkConfig,
        RdmaFlow,
        TelemetryConfig,
        Topology,
        build_dumbbell,
        build_fat_tree,
        build_linear,
    )

__getattr__ = lazy_exports(__name__, {
    "simnet": ("Network", "NetworkConfig", "Topology", "build_fat_tree",
               "build_dumbbell", "build_linear", "FlowKey", "RdmaFlow",
               "TelemetryConfig"),
    "collective": ("CollectiveOp", "CollectiveRuntime", "StepSchedule",
                   "ring_allgather", "ring_reduce_scatter",
                   "ring_allreduce", "halving_doubling_allreduce"),
    "core": ("VedrfolnirSystem", "VedrfolnirConfig", "DetectionConfig",
             "WaitingGraph", "AnomalyType", "diagnose"),
})

__version__ = "1.0.0"

__all__ = [
    "Network",
    "NetworkConfig",
    "Topology",
    "build_fat_tree",
    "build_dumbbell",
    "build_linear",
    "FlowKey",
    "RdmaFlow",
    "TelemetryConfig",
    "CollectiveOp",
    "CollectiveRuntime",
    "StepSchedule",
    "ring_allgather",
    "ring_reduce_scatter",
    "ring_allreduce",
    "halving_doubling_allreduce",
    "VedrfolnirSystem",
    "VedrfolnirConfig",
    "DetectionConfig",
    "WaitingGraph",
    "AnomalyType",
    "diagnose",
    "__version__",
]
