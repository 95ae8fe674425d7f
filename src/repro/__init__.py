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
    bf = net.create_flow("h8", "h1", 5_000_000)
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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    "simnet.network": ("Network",),
    "simnet.topology": ("build_fat_tree",),
    "collective.runtime": ("CollectiveRuntime",),
    "collective.ring": ("ring_allgather",),
    "collective.halving_doubling": ("halving_doubling_allreduce",),
    "core.system": ("VedrfolnirSystem",),
    "core.diagnosis": ("AnomalyType", "diagnose"),
})
__all__.append("__version__")
