"""DCQCN congestion control (Zhu et al., SIGCOMM 2015).

The reaction point (sender) keeps a current rate ``rc`` and target rate
``rt``.  CNPs cut the rate multiplicatively through the fraction
``alpha``; a periodic timer (doubling as the alpha-decay timer) raises it
back through fast recovery, additive increase and hyper increase.

RDMA's *line-rate start* (§II-A) is the initial condition: ``rc`` starts
at full link bandwidth, which is exactly what makes RoCE congestion
"frequent and transient" in shallow-buffered fabrics.

Timer constants are scaled tighter than the DCQCN paper's defaults so the
control loop is meaningful at this reproduction's scaled-down flow sizes.
They are module constants: every scenario runs the same reaction point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.units import BitsPerSecond, Nanoseconds
from repro.simnet.units import gbps, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import Simulator


#: EWMA gain for alpha
G = 1.0 / 16.0
#: rate-increase / alpha-decay timer period
TIMER_NS: Nanoseconds = us(50)
#: consecutive timer ticks spent in fast recovery before additive
FAST_RECOVERY_TICKS = 5
#: additive increase step
RATE_AI_BPS: BitsPerSecond = gbps(2.5)
#: hyper increase step
RATE_HAI_BPS: BitsPerSecond = gbps(25)
#: floor below which the rate is never cut
MIN_RATE_BPS: BitsPerSecond = gbps(0.1)


class DcqcnState:
    """Per-flow reaction-point state machine."""

    __slots__ = ("sim", "line_rate_bps", "rc", "rt", "alpha",
                 "_ticks_since_cut", "_cnp_seen_this_tick", "_timer_event")

    def __init__(self, sim: "Simulator", line_rate_bps: BitsPerSecond
                 ) -> None:
        self.sim = sim
        self.line_rate_bps = line_rate_bps
        self.rc = line_rate_bps     # line-rate start
        self.rt = line_rate_bps
        self.alpha = 1.0
        self._ticks_since_cut = 0
        self._cnp_seen_this_tick = False
        self._timer_event = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic timer.  Call when the flow begins sending."""
        if self._timer_event is None:
            self._timer_event = self.sim.schedule(TIMER_NS, self._on_timer)

    def stop(self) -> None:
        """Cancel the timer.  Call when the flow completes."""
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    # ------------------------------------------------------------------
    def on_cnp(self) -> None:
        """Congestion notification: update alpha and cut the rate."""
        self._cnp_seen_this_tick = True
        self.alpha = (1 - G) * self.alpha + G
        self.rt = self.rc
        self.rc = max(MIN_RATE_BPS, self.rc * (1 - self.alpha / 2))
        self._ticks_since_cut = 0

    def _on_timer(self) -> None:
        self._timer_event = self.sim.schedule(TIMER_NS, self._on_timer)
        if self._cnp_seen_this_tick:
            self._cnp_seen_this_tick = False
            return
        # alpha decay toward 0 in quiet periods
        self.alpha = (1 - G) * self.alpha
        if self.rc >= self.line_rate_bps:
            return
        self._ticks_since_cut += 1
        if self._ticks_since_cut <= FAST_RECOVERY_TICKS:
            pass  # fast recovery: rt frozen, close half the gap below
        elif self._ticks_since_cut <= 2 * FAST_RECOVERY_TICKS:
            self.rt = min(self.line_rate_bps, self.rt + RATE_AI_BPS)
        else:
            self.rt = min(self.line_rate_bps, self.rt + RATE_HAI_BPS)
        self.rc = min(self.line_rate_bps, (self.rt + self.rc) / 2)
