"""Full-polling baseline: every switch reports everything, always.

The paper's overhead upper bound (§IV-A): switches continuously and
autonomously report full telemetry at a fixed interval for the entire
collective; no detection triggers are involved (so its *bandwidth*
overhead excludes polling, as noted under Fig. 10b).
"""

from __future__ import annotations

from repro.baselines.adapter import DiagnosisSystemAdapter, SystemOutput
from repro.collective.runtime import CollectiveRuntime
from repro.core.diagnosis import diagnose
from repro.core.provenance import build_provenance
from repro.simnet.network import Network
from repro.simnet.telemetry import SwitchReport
from repro.simnet.units import us

#: every switch reports every port this often
POLL_INTERVAL_NS = us(20)


class FullPollingSystem(DiagnosisSystemAdapter):
    """Periodic all-switch, all-port telemetry."""

    name = "full-polling"

    def __init__(self) -> None:
        super().__init__()
        self.reports: list[SwitchReport] = []
        self.rounds = 0

    def attach(self, network: Network, runtime: CollectiveRuntime) -> None:
        self.network = network
        self.runtime = runtime
        network.set_report_sink(self.reports.append)
        network.sim.schedule(0.0, self._poll_round)

    def _poll_round(self) -> None:
        if self.runtime.completed:
            return  # collective done; stop polling
        now = self.network.sim.now
        self.rounds += 1
        for switch in self.network.switches.values():
            report = switch.telemetry.make_report(
                now, switch.ports, scope_ports=None,
                poll_id=f"full#{self.rounds}")
            self.network.submit_report(report)
        self.network.sim.schedule(POLL_INTERVAL_NS, self._poll_round)

    def finalize(self) -> SystemOutput:
        graph = build_provenance(
            self.reports, self.runtime.collective_flow_keys,
            self.network.config.pfc_xoff_bytes)
        result = diagnose(graph)
        return SystemOutput(
            result=result,
            triggers=0,
            reports_used=len(self.reports),
            reports_collected=len(self.reports),
            extras={"rounds": self.rounds},
        )
