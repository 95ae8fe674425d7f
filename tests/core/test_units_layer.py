"""Runtime behaviour of the typed units layer (``repro.core.units``)
and regression pins for the paper's headline constants.

The NewTypes are free at runtime — the value of these tests is the
checked converters (validation + exact scale factors) and the pins
that keep the simulator's defaults equal to the paper's §IV setup:
2 us link delay, 50 us telemetry retention, 100 Gbps links.
"""

import math

import pytest

from repro.core.units import (
    Bits,
    BitsPerSecond,
    Bytes,
    Gbps,
    Microseconds,
    Milliseconds,
    Nanoseconds,
    Seconds,
    bits_to_bytes,
    bps_to_gbps,
    bytes_to_bits,
    gbps_to_bps,
    ms_to_ns,
    ms_to_s,
    ns_to_ms,
    ns_to_s,
    ns_to_us,
    s_to_ms,
    s_to_ns,
    s_to_us,
    us_to_ns,
    us_to_s,
)
from tests.fleet.test_cold_start import run_probe


# ----------------------------------------------------------------------
# converters: exact factors and round trips
# ----------------------------------------------------------------------
def test_time_converter_factors():
    assert s_to_ms(Seconds(1.5)) == 1_500.0
    assert s_to_us(Seconds(1.5)) == 1_500_000.0
    assert s_to_ns(Seconds(1.5)) == 1_500_000_000.0
    assert ms_to_ns(Milliseconds(2.0)) == 2_000_000.0
    assert us_to_ns(Microseconds(2.0)) == 2_000.0
    assert ns_to_us(Nanoseconds(2_000.0)) == 2.0
    assert ns_to_ms(Nanoseconds(2_000_000.0)) == 2.0
    assert ns_to_s(Nanoseconds(2_000_000_000.0)) == 2.0
    assert ms_to_s(Milliseconds(250.0)) == 0.25
    assert us_to_s(Microseconds(250.0)) == 0.00025


def test_time_round_trips():
    assert ns_to_us(us_to_ns(Microseconds(17.25))) == 17.25
    assert ns_to_ms(ms_to_ns(Milliseconds(3.5))) == 3.5
    assert ns_to_s(s_to_ns(Seconds(0.125))) == 0.125


def test_data_converters():
    assert bytes_to_bits(Bytes(4096)) == 32_768
    assert bits_to_bytes(Bits(32_768)) == 4096
    with pytest.raises(ValueError, match="whole number of bytes"):
        bits_to_bytes(Bits(12))


def test_rate_converters():
    assert gbps_to_bps(Gbps(100.0)) == 100e9
    assert bps_to_gbps(BitsPerSecond(100e9)) == 100.0
    assert bps_to_gbps(gbps_to_bps(Gbps(25.0))) == 25.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_time_converters_reject_non_finite(bad):
    with pytest.raises(ValueError, match="must be finite"):
        us_to_ns(bad)
    with pytest.raises(ValueError, match="must be finite"):
        ns_to_s(bad)


@pytest.mark.parametrize("bad", [True, 3.5, "8"])
def test_count_converters_reject_non_integral(bad):
    with pytest.raises(ValueError, match="integral count"):
        bytes_to_bits(bad)


def test_newtypes_are_free_at_runtime():
    assert Nanoseconds(2.0) == 2.0
    assert isinstance(Nanoseconds(2.0), float)
    assert isinstance(Bytes(4096), int)


def test_core_units_import_leaves_the_analyzer_unloaded():
    """``repro.core`` exports nothing, so importing
    ``repro.core.units`` never drags in the analyzer."""
    run_probe("import sys, repro.core.units\n"
              "assert 'repro.core.analyzer' not in sys.modules\n")


# ----------------------------------------------------------------------
# paper-constant regressions (§IV setup)
# ----------------------------------------------------------------------
def test_default_link_delay_is_2us():
    from repro.simnet.topology import DEFAULT_LINK_DELAY_NS
    from repro.simnet.units import us

    assert DEFAULT_LINK_DELAY_NS == us(2) == us_to_ns(Microseconds(2))
    assert DEFAULT_LINK_DELAY_NS == 2_000.0


def test_default_bandwidth_is_100gbps():
    from repro.simnet.topology import DEFAULT_BANDWIDTH_BPS
    from repro.simnet.units import gbps

    assert DEFAULT_BANDWIDTH_BPS == gbps(100) \
        == gbps_to_bps(Gbps(100))
    assert DEFAULT_BANDWIDTH_BPS == 100e9


def test_hawkeye_retention_is_50us():
    from repro.baselines.hawkeye import RETENTION_NS
    from repro.simnet.units import us

    assert RETENTION_NS == us(50) == us_to_ns(Microseconds(50))


def test_base_rtt_serialization_term_uses_checked_helper():
    """Pin the corrected ``base_rtt_ns`` serialization math: one data
    packet + one ACK store-and-forwarded per hop at 100 Gbps."""
    from repro.simnet.routing import EcmpRouting
    from repro.simnet.topology import build_fat_tree
    from repro.simnet.units import serialization_delay

    routing = EcmpRouting(build_fat_tree(4))
    rtt = routing.base_rtt_ns("h0", "h1")
    hops = len(routing.shortest_path("h0", "h1")) - 1
    per_hop = 2 * 2_000.0 + serialization_delay(4096 + 66 + 64, 100e9)
    assert math.isclose(rtt, hops * per_hop)
    # the serialization term itself: (4226 bytes * 8) / 100 Gbps
    assert math.isclose(serialization_delay(4096 + 66 + 64, 100e9),
                        4226 * 8.0 / 100e9 * 1e9)
