"""Experiment harness: runs scenario cases under each diagnosis system
and regenerates the paper's tables and figures.

* :mod:`repro.experiments.harness` — per-case runner and scoring
  (the paper's TP/FP/FN criteria, §IV-A).
* :mod:`repro.experiments.metrics` — precision/recall and overhead
  aggregation.
* :mod:`repro.experiments.figures` — one entry point per paper figure
  (Figs. 9-14), each returning printable rows.
"""
