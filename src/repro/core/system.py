"""The deployable Vedrfolnir bundle.

:class:`VedrfolnirSystem` wires one :class:`HostMonitor` and one
:class:`DetectionAgent` onto every host participating in a collective,
points the network's telemetry report sink at the analyzer, and exposes
:meth:`analyze` to produce the diagnosis after (or during) the run.

This is the object applications and experiments interact with::

    runtime = CollectiveRuntime(network, schedule)
    system = VedrfolnirSystem(network, runtime)
    runtime.start()
    network.run_until_quiet()
    diagnosis = system.analyze()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collective.runtime import CollectiveRuntime
from repro.core.analyzer import VedrfolnirAnalyzer, VedrfolnirDiagnosis
from repro.core.detection import DetectionAgent, DetectionConfig
from repro.core.monitor import HostMonitor
from repro.simnet.network import Network


@dataclass(slots=True)
class VedrfolnirConfig:
    """Top-level configuration for a Vedrfolnir deployment."""

    detection: DetectionConfig = field(default_factory=DetectionConfig)
    #: disable host monitoring entirely (overhead baseline, Fig. 11)
    monitoring_enabled: bool = True


class VedrfolnirSystem:
    """Monitors + detection agents + analyzer for one collective run."""

    def __init__(self, network: Network, runtime: CollectiveRuntime,
                 config: Optional[VedrfolnirConfig] = None) -> None:
        self.network = network
        self.runtime = runtime
        self.config = config or VedrfolnirConfig()
        self.analyzer = VedrfolnirAnalyzer(
            pfc_xoff_bytes=network.config.pfc_xoff_bytes)
        self.monitors: dict[str, HostMonitor] = {}
        self.agents: dict[str, DetectionAgent] = {}
        if self.config.monitoring_enabled:
            self._deploy()

    def _deploy(self) -> None:
        self.network.set_report_sink(self.analyzer.add_report)
        for node in self.runtime.schedule.nodes:
            monitor = HostMonitor(
                node, self.runtime.schedule,
                report_fn=self.analyzer.add_step_record)
            monitor.attach(self.runtime)
            self.monitors[node] = monitor
            self.agents[node] = DetectionAgent(
                self.network, node, self.runtime,
                config=self.config.detection)

    # ------------------------------------------------------------------
    @property
    def total_triggers(self) -> int:
        return sum(len(agent.triggers) for agent in self.agents.values())

    def analyze(self) -> VedrfolnirDiagnosis:
        """Produce the structured diagnosis from everything collected."""
        return self.analyzer.analyze(self.runtime)
