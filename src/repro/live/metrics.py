"""Self-observability for the live pipeline and the fleet.

A diagnosis service that cannot report on *itself* is just another
opaque component to diagnose.  This module is a dependency-free
miniature of the Prometheus client model: :class:`Counter` (monotonic),
:class:`Gauge` (point-in-time), :class:`Histogram` (log-bucketed, with
quantile estimates), all registered in a :class:`MetricsRegistry`.
:func:`render_prometheus` is the one exposition: the text format 0.0.4
that ``repro serve --metrics`` writes, the fleet's ``/metrics``
endpoint answers and ``repro fleet serve --scrape-out`` saves.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Union

Number = Union[int, float]

Labels = Optional[dict[str, str]]


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format reserves inside a quoted label value; everything else passes
    through verbatim (the format is UTF-8).  Backslash must be escaped
    first so the escapes it introduces are not re-escaped.
    """
    return value.replace("\\", "\\\\") \
                .replace('"', '\\"') \
                .replace("\n", "\\n")


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` line per the text exposition format (only
    backslash and newline are special there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def full_name(name: str, labels: Labels) -> str:
    """Prometheus-style exposition name: ``name{key="value",...}``.

    Label values are escaped (backslash, quote, newline) so the output
    is valid text exposition even for hostile tenant names.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str, help: str = "",
                 labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self.value: Number = 0

    @property
    def exposition_name(self) -> str:
        return full_name(self.name, self.labels)

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, rates, ratios)."""

    def __init__(self, name: str, help: str = "",
                 labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self.value: Number = 0

    @property
    def exposition_name(self) -> str:
        return full_name(self.name, self.labels)

    def set(self, value: Number) -> None:
        self.value = value


#: every histogram's bucket upper bounds, log-spaced 1 µs .. ~8 s: one
#: list for all of them (a fleet shard builds two per tenant); never
#: mutated
BOUNDS = [1e-6 * 2.0 ** i for i in range(24)]


class Histogram:
    """Fixed log-bucket histogram with quantile estimation.

    Quantiles are estimated by linear interpolation inside the bucket
    holding the target rank — coarse, but bounded-memory and good
    enough for "p99 ingest-to-snapshot latency" dashboards.
    """

    def __init__(self, name: str, help: str = "",
                 labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        #: :data:`BOUNDS`, or what :meth:`load_state` read
        self.bounds = BOUNDS
        #: counts[i] observations <= bounds[i]; the last slot overflows
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def exposition_name(self) -> str:
        return full_name(self.name, self.labels)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Used by fleet aggregation: per-shard/per-tenant histograms with
        identical bucket bounds sum into one fleet-level distribution.
        Differing bounds (a loaded state that is not :data:`BOUNDS`)
        raise.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge {other.name!r} into {self.name!r}: "
                f"bucket bounds differ")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        if other.total:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    # ------------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p``.

        Explicit edge behavior (each case is tested directly):

        * ``p`` outside [0, 100] raises :class:`ValueError`;
        * an empty histogram returns 0.0 for any valid ``p``;
        * ``p == 0`` returns the exact observed minimum and
          ``p == 100`` the exact observed maximum (no interpolation);
        * a histogram whose observations all overflowed the last bound
          interpolates inside ``[max(last_bound, min), max]`` instead
          of falling through to an unrelated bucket.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(
                f"percentile {p!r} outside [0, 100]")
        if self.total == 0:
            return 0.0
        if p == 0:
            return self.min
        if p == 100:
            return self.max
        rank = p / 100.0 * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if i == 0:
                lower = min(self.min, self.bounds[0])
            elif i < len(self.bounds):
                lower = self.bounds[i - 1]
            else:
                # overflow bucket: every sample here is > bounds[-1],
                # and >= self.min when all samples overflowed
                lower = max(self.bounds[-1], min(self.min, self.max))
            upper = self.bounds[i] if i < len(self.bounds) else self.max
            if cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return min(max(lower + fraction * (upper - lower),
                               self.min), self.max)
            cumulative += count
        return self.max

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full JSON-safe state that round-trips exactly through
        :meth:`load_state`, so a worker process can ship its latency
        distribution home inside a ShardReport."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }

    def load_state(self, state: dict) -> "Histogram":
        """Restore from :meth:`state_dict` output (symmetric keys)."""
        self.bounds = [float(b) for b in state["bounds"]]
        self.counts = [int(c) for c in state["counts"]]
        self.total = int(state["total"])
        self.sum = float(state["sum"])
        self.min = math.inf if state["min"] is None \
            else float(state["min"])
        self.max = -math.inf if state["max"] is None \
            else float(state["max"])
        return self


class MetricsRegistry:
    """Named metrics, keyed by exposition name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Union[Counter, Gauge, Histogram]] = {}

    def attach(self, metric):
        """Register an externally-owned metric instance."""
        key = getattr(metric, "exposition_name", metric.name)
        if key in self._metrics:
            raise ValueError(f"duplicate metric {key!r}")
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Labels = None) -> Counter:
        return self.attach(Counter(name, help, labels))

    def gauge(self, name: str, help: str = "",
              labels: Labels = None) -> Gauge:
        return self.attach(Gauge(name, help, labels))

    def histogram(self, name: str, help: str = "",
                  labels: Labels = None) -> Histogram:
        return self.attach(Histogram(name, help, labels))

    # ------------------------------------------------------------------
    def __getitem__(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> list[Union[Counter, Gauge, Histogram]]:
        """All registered metric objects, in exposition-name order."""
        return [self._metrics[name] for name in self.names()]


def _fmt(value) -> str:
    """A Prometheus-parseable sample value."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _type_of(metric) -> str:
    if isinstance(metric, Counter):
        return "counter"
    if isinstance(metric, Gauge):
        return "gauge"
    if isinstance(metric, Histogram):
        return "histogram"
    return "untyped"


def _histogram_lines(metric: Histogram) -> list[str]:
    base = dict(metric.labels or {})
    lines = []
    cumulative = 0
    for bound, count in zip(metric.bounds, metric.counts):
        cumulative += count
        lines.append(
            f"{full_name(metric.name + '_bucket', {**base, 'le': _fmt(bound)})}"
            f" {cumulative}")
    lines.append(
        f"{full_name(metric.name + '_bucket', {**base, 'le': '+Inf'})}"
        f" {metric.total}")
    lines.append(
        f"{full_name(metric.name + '_sum', metric.labels)}"
        f" {_fmt(metric.sum)}")
    lines.append(
        f"{full_name(metric.name + '_count', metric.labels)}"
        f" {metric.total}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4.

    Metrics sharing a base name form one family: a single
    ``# HELP``/``# TYPE`` header followed by every labeled sample,
    in deterministic (exposition-name) order.
    """
    families: dict[str, list] = {}
    for metric in registry.metrics():
        families.setdefault(metric.name, []).append(metric)
    lines: list[str] = []
    for name in sorted(families):
        members = families[name]
        head = members[0]
        if head.help:
            lines.append(f"# HELP {name} {escape_help(head.help)}")
        lines.append(f"# TYPE {name} {_type_of(head)}")
        for metric in members:
            if isinstance(metric, Histogram):
                lines.extend(_histogram_lines(metric))
            else:
                lines.append(
                    f"{metric.exposition_name} {_fmt(metric.value)}")
    return "\n".join(lines) + "\n"
