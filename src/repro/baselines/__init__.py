"""Baseline diagnosis systems the paper compares against (§IV-A).

* :mod:`repro.baselines.hawkeye` — Hawkeye [16,17]: fixed global RTT
  threshold (MaxR/MinR variants), per-ACK trigger checks, 50 us
  telemetry retention dedup, PFC-path telemetry collection.
* :mod:`repro.baselines.full_polling` — continuous telemetry collection
  from every switch (the overhead upper bound).

Both reuse the same switch telemetry substrate as Vedrfolnir, exactly as
in the paper's NS-3 setup; the differences under test are the *policies*.
"""
