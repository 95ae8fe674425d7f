"""Self-observability for the live pipeline.

A diagnosis service that cannot report on *itself* is just another
opaque component to diagnose.  This module is a dependency-free
miniature of the Prometheus client model: :class:`Counter` (monotonic),
:class:`Gauge` (point-in-time), :class:`Histogram` (log-bucketed, with
quantile estimates), all registered in a :class:`MetricsRegistry` that
exports stable JSON (``repro serve --metrics``) and renders as the
``repro metrics`` CLI view.
"""

from __future__ import annotations

import bisect
import json
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

    def to_dict(self) -> dict:
        data = {"type": "counter", "help": self.help,
                "value": self.value}
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


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

    def to_dict(self) -> dict:
        data = {"type": "gauge", "help": self.help,
                "value": self.value}
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


def default_buckets(start: float = 1e-6, factor: float = 2.0,
                    count: int = 24) -> list[float]:
    """Log-spaced bucket upper bounds; 1 µs .. ~8 s with defaults."""
    return [start * factor ** i for i in range(count)]


#: the bounds of every histogram built without its own, one list for
#: all of them (a fleet shard builds two per tenant); never mutated
_DEFAULT_BOUNDS = default_buckets()


class Histogram:
    """Fixed log-bucket histogram with quantile estimation.

    Quantiles are estimated by linear interpolation inside the bucket
    holding the target rank — coarse, but bounded-memory and good
    enough for "p99 ingest-to-snapshot latency" dashboards.
    """

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[list[float]] = None,
                 labels: Labels = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self.bounds = sorted(buckets) if buckets else _DEFAULT_BOUNDS
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
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Used by fleet aggregation: per-shard/per-tenant histograms with
        identical bucket bounds sum into one fleet-level distribution.
        Differing bounds are a caller bug and raise.
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

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full JSON-safe state — unlike :meth:`to_dict` (a rendered
        summary), this round-trips exactly through
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

    def to_dict(self) -> dict:
        data = {
            "type": "histogram", "help": self.help,
            "count": self.total, "sum": self.sum,
            "min": self.min if self.total else 0.0,
            "max": self.max if self.total else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": [[bound, count] for bound, count
                        in zip(self.bounds, self.counts)
                        if count > 0],
            "overflow": self.counts[-1],
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class MetricsRegistry:
    """Named metrics with one-call JSON export."""

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
                  buckets: Optional[list[float]] = None,
                  labels: Labels = None) -> Histogram:
        return self.attach(Histogram(name, help, buckets, labels))

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

    def to_dict(self) -> dict:
        return {name: self._metrics[name].to_dict()
                for name in self.names()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def render_metrics_text(data: dict) -> str:
    """The ``repro metrics`` view over an exported metrics dict."""
    lines: list[str] = []
    width = max((len(name) for name in data), default=0)
    for name in sorted(data):
        entry = data[name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            value = (f"count={entry['count']} "
                     f"mean={_fmt(entry['mean'])} "
                     f"p50={_fmt(entry['p50'])} "
                     f"p99={_fmt(entry['p99'])} "
                     f"max={_fmt(entry['max'])}")
        else:
            value = _fmt(entry.get("value", 0))
        lines.append(f"{name:<{width}}  {kind:<9} {value}")
        if entry.get("help"):
            lines.append(f"{'':<{width}}    {entry['help']}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
