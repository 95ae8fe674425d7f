"""RPR006 fixture: suppressions judged under ``--strict``.

Every rule runs in one invocation, so a suppression either matches a
finding on its line or is dead.  A code the catalog does not have (a
deleted rule's id, a typo) can never match one.
"""


def live(now: float, deadline_time: float) -> bool:
    return now == deadline_time  # repro: noqa RPR003


def dead_blanket() -> int:
    return 1  # repro: noqa  # expect: RPR006


def dead_code() -> int:
    return 2  # repro: noqa RPR003  # expect: RPR006


def unknown_code() -> int:
    return 3  # repro: noqa RPR030  # expect: RPR006


def live_with_unknown(now: float, end_time: float) -> bool:
    return now != end_time  # repro: noqa RPR003,RPR020  # expect: RPR006
