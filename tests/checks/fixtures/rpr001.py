"""RPR001 fixture: nondeterminism sources in a simulation path."""
# repro: check-scope sim

import random
import time
from datetime import datetime

SEEDED = random.Random(7)


def good_choice(options: list) -> object:
    return SEEDED.choice(options)


def bad_jitter() -> float:
    return random.random()  # expect: RPR001


def bad_stamp() -> float:
    return time.time()  # expect: RPR001


def bad_date() -> str:
    return datetime.now().isoformat()  # expect: RPR001


def good_order(nodes: set) -> list:
    return [node for node in sorted(nodes)]


def bad_order(nodes: set) -> list:
    labels = []
    for node in {str(n) for n in nodes}:  # expect: RPR001
        labels.append(node)
    return labels


def bad_local_order(nodes: list) -> list:
    seen = set(nodes)
    return [node for node in seen]  # expect: RPR001


def good_local_order(nodes: list) -> list:
    seen = set(nodes)
    seen = sorted(seen)  # one binding is not a set: not flagged
    return [node for node in seen]


def suppressed_jitter() -> float:
    return random.random()  # repro: noqa RPR001
