"""Outside-in benchmark: anomaly injected -> verdict served.

One runner (``run.py``) drives the five serving layers — ``simnet`` +
``collective`` + ``anomalies``, ``traces``, ``core``, ``live`` and
``fleet`` — only through their public functions.  See ``README.md``
for the workloads, the metrics and how to read the spans.
"""
