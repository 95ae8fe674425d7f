"""Collective communication: algorithms, decomposition, runtime.

The paper decomposes a collective algorithm into per-flow *steps*
(§III-B): flow ``F_i`` originates at node ``i`` and, at each step, either
its data chunk or its destination changes.  This package provides

* the decomposition data model (:mod:`repro.collective.primitives`),
* schedule generators for Ring and Halving-and-Doubling algorithms over
  AllGather / ReduceScatter / AllReduce
  (:mod:`repro.collective.ring`, :mod:`repro.collective.halving_doubling`),
* a runtime that executes a schedule on a
  :class:`~repro.simnet.network.Network`, enforcing the data
  dependencies between flows
  (:mod:`repro.collective.runtime`).
"""
