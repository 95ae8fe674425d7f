"""RPR005 fixture: event-loop discipline."""
# repro: check-scope sim


def good_schedule(sim, callback) -> None:
    sim.schedule(0.0, callback)
    sim.post(0.0, callback)
    sim.schedule_at(sim.now + 5.0, callback)


def bad_clock_mutation(sim) -> None:
    sim.now = 125.0  # expect: RPR005


def bad_negative_delay(sim, callback) -> None:
    sim.schedule(-1.0, callback)  # expect: RPR005


def bad_negative_post(sim, callback) -> None:
    sim.post(-1.0, callback)  # expect: RPR005


def bad_past_target(sim, callback) -> None:
    sim.schedule_at(sim.now - 10.0, callback)  # expect: RPR005


def suppressed_mutation(sim) -> None:
    sim.now = 0.0  # repro: noqa RPR005
