"""DCQCN reaction-point state machine."""

import pytest

from repro.simnet.dcqcn import MIN_RATE_BPS, DcqcnState
from repro.simnet.engine import Simulator
from repro.simnet.units import gbps, us

LINE = gbps(100)


def make_state():
    sim = Simulator()
    return sim, DcqcnState(sim, LINE)


def test_line_rate_start():
    _, state = make_state()
    assert state.rc == LINE
    assert state.rt == LINE
    assert state.alpha == 1.0


def test_cnp_cuts_rate():
    _, state = make_state()
    state.on_cnp()
    assert state.rc < LINE
    assert state.rt == LINE  # target frozen at pre-cut rate


def test_first_cut_is_half_at_alpha_one():
    _, state = make_state()  # alpha starts at 1 and a CNP keeps it there
    state.on_cnp()
    assert state.alpha == 1.0
    assert state.rc == pytest.approx(LINE / 2)


def test_repeated_cnps_keep_cutting():
    _, state = make_state()
    state.on_cnp()
    first = state.rc
    state.on_cnp()
    assert state.rc < first


def test_rate_floor_respected():
    _, state = make_state()
    for _ in range(200):
        state.on_cnp()
    assert state.rc == MIN_RATE_BPS


def test_alpha_rises_on_cnp():
    _, state = make_state()
    # let alpha decay first
    state.alpha = 0.1
    state.on_cnp()
    assert state.alpha > 0.1


def test_alpha_decays_in_quiet_periods():
    sim, state = make_state()
    state.start()
    state.alpha = 1.0
    state.on_cnp()
    sim.schedule(us(1000), sim.stop)
    sim.run()
    assert state.alpha < 1.0
    state.stop()


def test_rate_recovers_toward_line_rate():
    sim, state = make_state()
    state.start()
    state.on_cnp()
    cut = state.rc
    sim.schedule(us(3000), sim.stop)
    sim.run()
    assert state.rc > cut
    state.stop()


def test_full_recovery_eventually():
    sim, state = make_state()
    state.start()
    state.on_cnp()
    sim.schedule(us(20_000), sim.stop)
    sim.run()
    assert state.rc == pytest.approx(LINE, rel=0.01)
    state.stop()


def test_stop_cancels_timer():
    sim, state = make_state()
    state.start()
    state.stop()
    sim.run(until=us(500))
    # no timer events should have fired after stop
    assert sim.events_processed == 0


def test_cnp_resets_recovery_progress():
    sim, state = make_state()
    state.start()
    state.on_cnp()
    sim.schedule(us(400), sim.stop)
    sim.run()
    mid_recovery = state._ticks_since_cut
    assert mid_recovery > 0
    state.on_cnp()
    assert state._ticks_since_cut == 0
    state.stop()
