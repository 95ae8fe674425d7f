# repro: check-scope sim
"""RPR013 fixture: raw conversion constants in sim scope.

Each tagged line multiplies/divides a known-unit value by a bare
conversion factor that a checked converter from ``repro.core.units``
replaces.  The non-factor math at the bottom must stay silent.
"""

from repro.core.units import Bytes, Gbps, Microseconds, Nanoseconds, us_to_ns


def to_engine_time(window_us: Microseconds) -> Nanoseconds:
    return window_us * 1000.0  # expect: RPR013


def to_seconds(total_ns: Nanoseconds) -> float:
    return total_ns / 1e9  # expect: RPR013


def frame_bits(size_bytes: Bytes) -> float:
    return size_bytes * 8.0  # expect: RPR013


def line_rate(rate_gbps: Gbps) -> float:
    return rate_gbps * 1e9  # expect: RPR013


def base_rtt_term(packet_bytes: Bytes, ack_bytes: Bytes,
                  bandwidth_bps: float) -> float:
    # the historical EcmpRouting.base_rtt_ns serialization term
    return ((packet_bytes + ack_bytes) * 8.0  # expect: RPR013
            / bandwidth_bps * 1_000_000_000.0)


def checked(window_us: Microseconds) -> Nanoseconds:
    return us_to_ns(window_us)


def halved(window_ns: Nanoseconds) -> Nanoseconds:
    return window_ns / 2.0
