"""Typed unit-of-measure layer for the reproduction.

The simulator measures time in nanoseconds, sizes in bytes, and rates in
bits per second — but quantities cross many module boundaries on their
way from a scenario config to a diagnosis (2 us link delay, 50 us
telemetry retention, 100 Gbps links), and a microseconds magnitude bound
to a nanoseconds parameter corrupts RTT thresholds and contributor
ratings without failing any test.  This module makes the unit part of a
signature's *contract*:

* :data:`Nanoseconds`, :data:`Microseconds`, :data:`Seconds`,
  :data:`Bytes`, :data:`Gbps`, ... are :func:`typing.NewType` aliases —
  free at runtime, annotated onto every public time/size/rate
  signature in ``repro.simnet``, ``repro.core`` and ``repro.live``;
* ``us_to_ns``, ``ns_to_s``, ``bytes_to_bits``, ... are *checked
  converters*: the only sanctioned way to change scale.  They validate
  their input and carry precise unit signatures; a raw ``* 1000.0``
  applied to a unit-suffixed name is flagged by ``repro check`` (rule
  RPR013 in scope).

Construct magnitudes with :mod:`repro.simnet.units` helpers (``us(2)``
is 2 us expressed in ns) and convert with the checked converters here —
never with bare ``1e3`` / ``1e9`` / ``8`` factors.

This module must stay dependency-free (stdlib only): it is imported
from ``repro.simnet`` at runtime, below everything else in the package
graph.
"""

from __future__ import annotations

import math
from typing import NewType

__all__ = [
    "Seconds", "Milliseconds", "Microseconds", "Nanoseconds",
    "Bytes", "Bits", "BitsPerSecond", "Gbps", "Dimensionless",
    "s_to_ms", "ms_to_s", "s_to_us", "us_to_s", "s_to_ns", "ns_to_s",
    "ms_to_ns", "ns_to_ms", "us_to_ns", "ns_to_us",
    "bytes_to_bits", "bits_to_bytes",
    "gbps_to_bps", "bps_to_gbps",
]

# -- magnitude types ---------------------------------------------------
#: wall of simulated time, in seconds
Seconds = NewType("Seconds", float)
#: simulated time, in milliseconds
Milliseconds = NewType("Milliseconds", float)
#: simulated time, in microseconds
Microseconds = NewType("Microseconds", float)
#: simulated time, in nanoseconds — the engine's native unit
Nanoseconds = NewType("Nanoseconds", float)
#: data size in bytes — the data plane's native unit
Bytes = NewType("Bytes", int)
#: data size in bits (telemetry / rate arithmetic)
Bits = NewType("Bits", int)
#: rate in bits per second — the link model's native unit
BitsPerSecond = NewType("BitsPerSecond", float)
#: rate in gigabits per second (paper-facing configuration)
Gbps = NewType("Gbps", float)
#: explicitly unitless quantity (ratios, weights, counts-as-float)
Dimensionless = NewType("Dimensionless", float)


def _finite(value: float, converter: str) -> float:
    """Reject NaN/inf magnitudes before they poison a threshold."""
    if not math.isfinite(value):
        raise ValueError(
            f"{converter}: magnitude must be finite, got {value!r}")
    return value


def _count(value: int, converter: str) -> int:
    """Reject non-integral or bool 'counts' (bytes / bits)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{converter}: expected an integral count, got {value!r}")
    return value


# -- time --------------------------------------------------------------
def s_to_ms(value: Seconds) -> Milliseconds:
    """Seconds to milliseconds."""
    return Milliseconds(_finite(value, "s_to_ms") * 1_000.0)


def ms_to_s(value: Milliseconds) -> Seconds:
    """Milliseconds to seconds."""
    return Seconds(_finite(value, "ms_to_s") / 1_000.0)


def s_to_us(value: Seconds) -> Microseconds:
    """Seconds to microseconds."""
    return Microseconds(_finite(value, "s_to_us") * 1_000_000.0)


def us_to_s(value: Microseconds) -> Seconds:
    """Microseconds to seconds."""
    return Seconds(_finite(value, "us_to_s") / 1_000_000.0)


def s_to_ns(value: Seconds) -> Nanoseconds:
    """Seconds to nanoseconds."""
    return Nanoseconds(_finite(value, "s_to_ns") * 1_000_000_000.0)


def ns_to_s(value: Nanoseconds) -> Seconds:
    """Nanoseconds to seconds."""
    return Seconds(_finite(value, "ns_to_s") / 1_000_000_000.0)


def ms_to_ns(value: Milliseconds) -> Nanoseconds:
    """Milliseconds to nanoseconds."""
    return Nanoseconds(_finite(value, "ms_to_ns") * 1_000_000.0)


def ns_to_ms(value: Nanoseconds) -> Milliseconds:
    """Nanoseconds to milliseconds."""
    return Milliseconds(_finite(value, "ns_to_ms") / 1_000_000.0)


def us_to_ns(value: Microseconds) -> Nanoseconds:
    """Microseconds to nanoseconds."""
    return Nanoseconds(_finite(value, "us_to_ns") * 1_000.0)


def ns_to_us(value: Nanoseconds) -> Microseconds:
    """Nanoseconds to microseconds."""
    return Microseconds(_finite(value, "ns_to_us") / 1_000.0)


# -- data size ---------------------------------------------------------
def bytes_to_bits(value: Bytes) -> Bits:
    """Bytes to bits."""
    return Bits(_count(value, "bytes_to_bits") * 8)


def bits_to_bytes(value: Bits) -> Bytes:
    """Bits to whole bytes; rejects a bit count not divisible by 8."""
    count = _count(value, "bits_to_bytes")
    if count % 8:
        raise ValueError(
            f"bits_to_bytes: {count!r} bits is not a whole number of "
            f"bytes")
    return Bytes(count // 8)


# -- rate --------------------------------------------------------------
def gbps_to_bps(value: Gbps) -> BitsPerSecond:
    """Gigabits per second to bits per second."""
    return BitsPerSecond(_finite(value, "gbps_to_bps") * 1e9)


def bps_to_gbps(value: BitsPerSecond) -> Gbps:
    """Bits per second to gigabits per second."""
    return Gbps(_finite(value, "bps_to_gbps") / 1e9)
