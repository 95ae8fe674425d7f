"""Golden digests: the engine's externally observable behaviour, pinned.

:mod:`repro.perf.golden` hashes the executed event stream and the
recorded traces (SHA-256), so a fast-path optimisation is provably
order-preserving.  Timing lives outside the package, in
``benchmarks/e2e`` (the ``BENCHMARK.json`` contract).
"""
