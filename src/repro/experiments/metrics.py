"""Precision/recall and overhead aggregation over case results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.experiments.harness import CaseResult


@dataclass
class ScenarioSystemMetrics:
    """Aggregated metrics for one (scenario, system) cell."""

    scenario: str
    system: str
    cases: int
    tp: int
    fp: int
    fn: int
    avg_processing_bytes: float
    avg_bandwidth_bytes: float
    avg_triggers: float
    avg_reports: float

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def avg_processing_kb(self) -> float:
        return self.avg_processing_bytes / 1000.0

    @property
    def avg_bandwidth_kb(self) -> float:
        return self.avg_bandwidth_bytes / 1000.0


def aggregate(results: Iterable[CaseResult]) -> dict[tuple[str, str],
                                                     ScenarioSystemMetrics]:
    """Group case results into per-(scenario, system) metrics."""
    groups: dict[tuple[str, str], list[CaseResult]] = {}
    for result in results:
        groups.setdefault((result.scenario, result.system), []).append(result)
    metrics = {}
    for (scenario, system), rows in sorted(groups.items()):
        outcomes = [r.outcome for r in rows]
        metrics[(scenario, system)] = ScenarioSystemMetrics(
            scenario=scenario,
            system=system,
            cases=len(rows),
            tp=outcomes.count("tp"),
            fp=outcomes.count("fp"),
            fn=outcomes.count("fn"),
            avg_processing_bytes=_mean(r.processing_bytes for r in rows),
            avg_bandwidth_bytes=_mean(r.bandwidth_bytes for r in rows),
            avg_triggers=_mean(r.triggers for r in rows),
            avg_reports=_mean(r.report_count for r in rows),
        )
    return metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

