"""Measurement plumbing shared by the four workloads.

* :class:`Tracer` — the benchmark's own spans (name, layer, start,
  end, parent, shared op id), held in memory; a disabled tracer hands
  out one shared no-op context so untraced rounds pay nothing;
* :func:`percentile` / :func:`tail_percentile` — exact percentiles
  from raw samples, refusing a tail with fewer than ten samples
  beyond it;
* :func:`self_times` / :func:`layer_self_times` — span self-time
  arithmetic; :func:`timed` — a span plus a stopwatch that runs
  tracing or not;
* :func:`run_rounds` — the fixed-work round loop every workload uses.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

#: a percentile above the median needs this many samples beyond it
MIN_TAIL_SAMPLES = 10
#: layer self times must sum to the independently measured wall
SPAN_SUM_TOLERANCE = 0.05

#: layers a round's wall is attributed to (``<layer>.self_share``)
LAYERS = ("simnet", "collective", "anomalies", "traces", "core", "live",
          "fleet", "bench")

clock = time.perf_counter


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    layer: str
    op: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end}


@contextmanager
def _no_span() -> Iterator[None]:
    yield None


class Tracer:
    """In-memory span recorder for one thread of control.

    ``span()`` nests by call order: the innermost open span is the
    parent of the next one.  ``add()`` records a span after the fact
    (fleet phases are reconstructed from callback timestamps).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op: str = "") -> Iterator[Span]:
        span = Span(id=len(self.spans), name=name, layer=layer, op=op,
                    parent=self._stack[-1] if self._stack else None,
                    start=clock())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], op: str = "") -> Span:
        span = Span(id=len(self.spans), name=name, layer=layer, op=op,
                    parent=parent, start=start, end=end)
        self.spans.append(span)
        return span


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    spans: Sequence[Span] = ()

    def span(self, name: str, layer: str, op: str = ""):
        return _no_span()


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus what its direct children cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_self_times(spans: Sequence[Span], root: int
                     ) -> dict[str, float]:
    """Self time per layer over ``root`` and everything under it."""
    inside = {root}
    for span in spans:  # parents are recorded before their children
        if span.parent in inside:
            inside.add(span.id)
    own = self_times([s for s in spans if s.id in inside])
    totals: dict[str, float] = {}
    by_id = {span.id: span for span in spans}
    for span_id, seconds in own.items():
        layer = by_id[span_id].layer
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


@contextmanager
def timed(tracer, name: str, layer: str, op: str,
          sink: dict) -> Iterator[None]:
    """A span plus a plain stopwatch: the seconds are added to
    ``sink[name]`` whether or not tracing is on."""
    with tracer.span(name, layer, op):
        start = clock()
        try:
            yield
        finally:
            sink[name] = sink.get(name, 0.0) + clock() - start


def write_spans(spans: Sequence[Span], path: Path, workload: str) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(
                {"workload": workload, **span.to_dict()}) + "\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of raw samples: the smallest value with
    at least ``p`` % of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p!r} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], p: float) -> float:
    """:func:`percentile` for a tail (``p`` > 50), refused unless at
    least :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    beyond = len(values) - math.ceil(p / 100.0 * len(values))
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has only {beyond} "
            f"beyond it (need {MIN_TAIL_SAMPLES})")
    return percentile(values, p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped
    child, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# the round loop
# ----------------------------------------------------------------------
@dataclass
class Context:
    """One benchmark run: its seed, its budget, its scratch space."""

    seed: int
    seconds: float
    #: the run's one scratch directory (removed by the runner)
    workdir: Path
    #: None = tracing off
    tracer: Optional[Tracer]
    #: ``clock()`` at process start; set-up is counted from here
    started: float


@dataclass
class Round:
    """What one fixed-work round of a workload hands back."""

    #: seconds of the timed operations of this round
    wall_s: float = 0.0
    #: time to verdict: one (input, slices) sample per served verdict,
    #: ``slices`` the seconds of its timed steps in order; samples of
    #: the same input in other rounds are its repeats
    verdict_s: list = field(default_factory=list)
    #: throughput: (input, verdicts, slices) per stretch of serving
    served: list = field(default_factory=list)
    attempted: int = 0
    #: one line per failed operation
    failures: list = field(default_factory=list)
    #: seconds per span name, accumulated by :func:`timed`
    seconds: dict = field(default_factory=dict)
    #: workload-specific counts and program-side measurements
    extra: dict = field(default_factory=dict)
    traced: bool = False
    #: id of this round's root span when traced
    root: Optional[int] = None


@dataclass
class Outcome:
    """A finished workload: metric name -> (value, sample count)."""

    end_to_end: dict
    per_layer: dict
    attempted: int
    failures: list
    info: dict = field(default_factory=dict)


def run_rounds(one_round: Callable[[int, object], Round],
               seconds: float, tracer: Optional[Tracer],
               least: int = 1) -> list[Round]:
    """Run whole rounds until ``seconds`` have passed and at least
    ``least`` have run.

    A round is a fixed amount of work, so a faster program runs more
    rounds of the same inputs instead of reaching inputs the slower
    one never saw.  With a tracer, rounds alternate untraced / traced
    (untraced first) and at least one of each runs; their wall-time
    ratio is the tracing overhead.
    """
    rounds: list[Round] = []
    null = NullTracer()
    start = clock()
    least = max(least, 2 if tracer is not None else 1)
    while len(rounds) < least or clock() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        index = len(rounds)
        if traced:
            wall_start = clock()
            with tracer.span("bench.round", "bench",
                             op=f"round-{index}") as root:
                result = one_round(index, tracer)
            result.extra["outer_wall_s"] = clock() - wall_start
            result.root = root.id
        else:
            result = one_round(index, null)
        result.traced = traced
        rounds.append(result)
    return rounds


def check_span_sum(spans: Sequence[Span], rounds: Sequence[Round]
                   ) -> float:
    """Largest relative gap, over the traced rounds, between the sum
    of layer self times and the wall measured outside the root span.
    Raises past :data:`SPAN_SUM_TOLERANCE`."""
    worst = 0.0
    for result in rounds:
        if not result.traced:
            continue
        total = sum(layer_self_times(spans, result.root).values())
        wall = result.extra["outer_wall_s"]
        gap = abs(total - wall) / wall
        worst = max(worst, gap)
        if gap > SPAN_SUM_TOLERANCE:
            raise AssertionError(
                f"layer self times sum to {total:.4f}s but the round "
                f"took {wall:.4f}s ({gap:.1%} apart)")
    return worst


def best_seconds(samples: Sequence[tuple]) -> dict:
    """Input -> its time with every slice at its best over the repeats.

    ``samples`` are (input, slices) pairs; repeats of an input have the
    same number of slices.  Best, not mean or median, because
    interference from a shared host only ever adds time, and slice by
    slice because it comes in bursts: on the sizing box one identical
    0.6 s simulation took 0.61-1.38 s for minutes on end, yet 10 ms
    operations kept finding clean moments (run-to-run spread of the
    whole-case best 29 %, of ``trace_corpus``'s 10 ms best 4 %).
    """
    best: dict = {}
    for key, slices in samples:
        held = best.get(key)
        best[key] = list(slices) if held is None \
            else [min(a, b) for a, b in zip(held, slices, strict=True)]
    return {key: sum(slices) for key, slices in best.items()}


def end_to_end(ctx: Context, setup_done: float,
               rounds: Sequence[Round]) -> dict:
    """The four end-to-end metrics, from the untraced rounds:
    ``verdict_s_p50`` is the median over inputs of
    :func:`best_seconds`; ``verdicts_per_s`` is the verdicts of one
    pass over the serving inputs per second of their best seconds."""
    untraced = [r for r in rounds if not r.traced]
    latency = [sample for r in untraced for sample in r.verdict_s]
    served = [sample for r in untraced for sample in r.served]
    verdicts = {key: count for key, count, _slices in served}
    serving = best_seconds([(key, slices)
                            for key, _count, slices in served])
    return {
        "setup_s": (setup_done - ctx.started, 1),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "verdict_s_p50": (median(list(best_seconds(latency).values())),
                          len(latency)),
        "verdicts_per_s": (
            sum(verdicts.values()) / sum(serving.values())
            if serving else 0.0,
            sum(count for _key, count, _slices in served)),
    }


def traced_seconds(rounds: Sequence[Round], name: str) -> float:
    """Median over the traced rounds of ``seconds[name]``."""
    return median([r.seconds.get(name, 0.0)
                   for r in rounds if r.traced])


def bench_layer(ctx: Context, rounds: Sequence[Round]) -> dict:
    """``bench.*`` and ``<layer>.self_share``, from the traced rounds:
    tracing overhead against the untraced rounds of the same work,
    span count, and where the round wall went, layer by layer."""
    spans = ctx.tracer.spans
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    gap = check_span_sum(spans, rounds)
    shares: dict[str, list] = {layer: [] for layer in LAYERS}
    for result in traced:
        own = layer_self_times(spans, result.root)
        wall = sum(own.values())
        for layer in LAYERS:
            shares[layer].append(own.get(layer, 0.0) / wall)
    metrics = {f"{layer}.self_share": (median(values), len(traced))
               for layer, values in shares.items()}
    metrics["bench.trace_overhead_share"] = (
        median([r.wall_s for r in traced])
        / median([r.wall_s for r in untraced]) - 1.0, len(traced))
    metrics["bench.span_count"] = (len(spans), 1)
    metrics["bench.span_sum_gap_share"] = (gap, len(traced))
    metrics["bench.rounds"] = (len(rounds), 1)
    return metrics


def finish(ctx: Context, setup_done: float, rounds: Sequence[Round],
           info: dict, layer_metrics: Callable[[], dict]) -> Outcome:
    """Assemble a workload's Outcome; ``layer_metrics`` (the
    workload's own per-layer numbers) is only called on traced runs."""
    per_layer = {}
    if ctx.tracer is not None:
        per_layer = {**layer_metrics(), **bench_layer(ctx, rounds)}
    return Outcome(
        end_to_end=end_to_end(ctx, setup_done, rounds),
        per_layer=per_layer,
        attempted=sum(r.attempted for r in rounds),
        failures=[f for r in rounds for f in r.failures],
        info={**info, "rounds": len(rounds)})
