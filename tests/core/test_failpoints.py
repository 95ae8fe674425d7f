"""Failpoint registry: spec grammar, determinism, zero-cost default."""

import random

import pytest

from repro.core import failpoints
from repro.core.failpoints import FailpointError, FailpointSpec


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with failpoints disabled."""
    failpoints.clear()
    yield
    failpoints.clear()


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
def test_parse_full_grammar():
    spec = FailpointSpec.parse("transport.send:delay(0.25)@0.5x3")
    assert spec == FailpointSpec(name="transport.send", action="delay",
                                 value=0.25, probability=0.5, limit=3)


def test_parse_defaults():
    spec = FailpointSpec.parse("checkpoint.save:error")
    assert (spec.value, spec.probability, spec.limit) == (0.0, 1.0, 0)


@pytest.mark.parametrize("bad", [
    "no-colon", "name:", "name:unknownaction", "name:error@1.5",
    "name:drop@-0.1", "name:drop extra", ":error",
])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        FailpointSpec.parse(bad)


def test_parse_specs_comma_list():
    specs = failpoints.parse_specs(
        " a.b:error , c.d:drop@0.5 ,, e.f:truncate(4)x1 ")
    assert sorted(specs) == ["a.b", "c.d", "e.f"]
    assert specs["c.d"].probability == 0.5
    assert specs["e.f"].limit == 1


# ----------------------------------------------------------------------
# disabled == free: nothing fires, nothing is mutated
# ----------------------------------------------------------------------
def test_unconfigured_fire_and_mangle_are_no_ops():
    assert not failpoints.active()
    assert failpoints.fire("any.site") is None
    payload = b"untouched"
    assert failpoints.mangle("any.site", payload) is payload


def test_unmatched_site_is_untouched_while_others_are_armed():
    failpoints.configure("other.site:error")
    assert failpoints.fire("this.site") is None
    payload = b"data"
    assert failpoints.mangle("this.site", payload) is payload


def test_clear_restores_the_fast_path():
    failpoints.configure("a.b:drop")
    assert failpoints.active()
    failpoints.clear()
    assert not failpoints.active()
    assert failpoints.fire("a.b") is None


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------
def test_error_action_raises_an_oserror():
    failpoints.configure("site:error")
    with pytest.raises(FailpointError) as excinfo:
        failpoints.fire("site")
    assert isinstance(excinfo.value, OSError)
    with pytest.raises(FailpointError):
        failpoints.mangle("site", b"payload")


def test_delay_action_sleeps_then_continues():
    slept = []
    failpoints.configure("site:delay(0.75)")
    assert failpoints.fire("site", sleep=slept.append) == "delay"
    assert failpoints.mangle("site", b"x", sleep=slept.append) == b"x"
    assert slept == [0.75, 0.75]


def test_drop_action():
    failpoints.configure("site:drop")
    assert failpoints.fire("site") == "drop"
    assert failpoints.mangle("site", b"payload") is None


def test_truncate_action_default_and_explicit():
    failpoints.configure("site:truncate")
    assert failpoints.mangle("site", b"12345678") == b"1234"
    failpoints.configure("site:truncate(3)")
    assert failpoints.mangle("site", b"12345678") == b"123"


def test_garble_flips_exactly_one_byte():
    failpoints.configure("site:garble", seed=11)
    payload = bytes(range(32))
    garbled = failpoints.mangle("site", payload)
    assert garbled != payload
    assert len(garbled) == len(payload)
    diffs = [i for i, (a, b) in enumerate(zip(payload, garbled))
             if a != b]
    assert len(diffs) == 1
    assert garbled[diffs[0]] == payload[diffs[0]] ^ 0xFF
    # empty payloads pass through rather than indexing into nothing
    assert failpoints.mangle("site", b"") == b""


def test_limit_caps_total_firings():
    failpoints.configure("site:dropx2")
    assert failpoints.fire("site") == "drop"
    assert failpoints.fire("site") == "drop"
    assert failpoints.fire("site") is None


# ----------------------------------------------------------------------
# determinism: same seed, same schedule
# ----------------------------------------------------------------------
def schedule(seed: int, rolls: int = 64) -> list:
    failpoints.configure("site:drop@0.3", seed=seed)
    return [failpoints.fire("site") for _ in range(rolls)]


def test_probabilistic_schedule_replays_per_seed():
    first = schedule(42)
    assert schedule(42) == first
    assert "drop" in first and None in first  # actually stochastic
    assert schedule(43) != first


def test_garble_positions_replay_per_seed():
    def positions(seed):
        failpoints.configure("site:garble", seed=seed)
        out = []
        payload = bytes(64)
        for _ in range(8):
            garbled = failpoints.mangle("site", payload)
            out.append(next(i for i, b in enumerate(garbled) if b))
        return out

    assert positions(5) == positions(5)


def test_sites_draw_independent_streams():
    """Two sites under one seed must not share an RNG stream: each
    site's schedule is a pure function of (seed, name)."""
    failpoints.configure("a.b:drop@0.5,c.d:drop@0.5", seed=9)
    lone = random.Random()  # noise source to prove independence
    first_a = [failpoints.fire("a.b") for _ in range(32)]
    failpoints.configure("a.b:drop@0.5,c.d:drop@0.5", seed=9)
    second_a = []
    for _ in range(32):
        if lone.random() < 0.5:
            failpoints.fire("c.d")
        second_a.append(failpoints.fire("a.b"))
    assert second_a == first_a


# ----------------------------------------------------------------------
# environment configuration
# ----------------------------------------------------------------------
def test_configure_from_env_arms_and_unset_is_a_noop():
    assert not failpoints.configure_from_env(environ={})
    assert not failpoints.active()
    failpoints.configure("keep.me:drop")
    # empty value leaves the current registry alone
    assert not failpoints.configure_from_env(
        environ={failpoints.ENV_VAR: "  "})
    assert failpoints.fire("keep.me") == "drop"
    assert failpoints.configure_from_env(
        environ={failpoints.ENV_VAR: "env.site:drop"})
    assert failpoints.fire("env.site") == "drop"
    assert failpoints.fire("keep.me") is None  # replaced, not merged
