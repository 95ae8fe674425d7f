"""Runtime sanitizer: clean runs stay clean, injected faults are caught.

Two halves mirror the sanitizer's contract:

* a clean collective under ``sanitize=True`` must produce *zero*
  violations and a bit-identical result to the unsanitized run (the
  sanitizer observes, it never perturbs);
* every invariant class must actually fire when the corresponding
  fault is injected, with the offending event context attached.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.sanitizer import InvariantViolation
from repro.collective.halving_doubling import halving_doubling_allgather
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.simnet.engine import Simulator, _env_sanitize
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey, make_data_packet
from repro.simnet.pfc import PauseEvent, PortRef, ResumeEvent
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces.serialize import encode_step_record

NODES = ["h0", "h4", "h8", "h12"]
ALGORITHMS = {"ring": ring_allgather,
              "halving_doubling": halving_doubling_allgather}


def run_allgather(algorithm: str, chunk_bytes: int, sanitize: bool):
    net = Network(build_fat_tree(4), sanitize=sanitize)
    schedule = ALGORITHMS[algorithm](NODES, chunk_bytes)
    runtime = CollectiveRuntime(net, schedule)
    runtime.start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    records = [json.dumps(encode_step_record(r))
               for r in runtime.records]
    return net, records


# ----------------------------------------------------------------------
# clean runs: zero violations, zero observable perturbation
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(algorithm=st.sampled_from(sorted(ALGORITHMS)),
       chunk_bytes=st.sampled_from([40_000, 100_000, 250_000]))
def test_clean_allgather_sanitized_and_identical(algorithm,
                                                 chunk_bytes):
    net_plain, records_plain = run_allgather(
        algorithm, chunk_bytes, sanitize=False)
    net_checked, records_checked = run_allgather(
        algorithm, chunk_bytes, sanitize=True)
    sanitizer = net_checked.sim.sanitizer
    assert net_plain.sim.sanitizer is None
    assert sanitizer.event_trace(), "the per-event hooks never ran"
    # the sanitizer must be a pure observer
    assert records_checked == records_plain
    assert net_checked.sim.now == pytest.approx(net_plain.sim.now)
    assert net_checked.sim.events_processed == \
        net_plain.sim.events_processed


def test_clean_run_leaves_no_outstanding_pauses():
    net, _ = run_allgather("ring", 200_000, sanitize=True)
    outstanding = net.sim.sanitizer._outstanding_pauses
    assert all(count == 0 for count in outstanding.values()), outstanding


# ----------------------------------------------------------------------
# fault injection: each invariant class fires with context
# ----------------------------------------------------------------------
def test_unpaired_resume_is_caught():
    net = Network(build_fat_tree(4), sanitize=True)
    victim = sorted(net.switches)[0]
    resume = ResumeEvent(time=0.0, sender=PortRef("h0", 0),
                         victim=PortRef(victim, 0))
    net.deliver_resume(resume, 0.0)
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_until_quiet()
    violation = excinfo.value
    assert violation.kind == "unpaired_resume"
    assert violation.context["node"] == victim
    assert violation.context["port"] == 0
    assert violation.event_trace, "offending event trace missing"
    assert "on_resume_frame" in violation.event_trace[-1].callback


def test_paired_pause_resume_is_clean():
    net = Network(build_fat_tree(4), sanitize=True)
    victim = sorted(net.switches)[0]
    pause = PauseEvent(time=0.0, sender=PortRef("h0", 0),
                       victim=PortRef(victim, 0),
                       buffer_bytes_at_send=300_000)
    resume = ResumeEvent(time=0.0, sender=PortRef("h0", 0),
                         victim=PortRef(victim, 0))
    net.deliver_pause(pause, 0.0)
    net.deliver_resume(resume, 100.0)
    net.run_until_quiet()
    assert net.sim.sanitizer._outstanding_pauses[victim, 0] == 0


def test_negative_port_occupancy_is_caught():
    net = Network(build_fat_tree(4), sanitize=True)
    port = net.hosts["h0"].ports[0]
    port.deliver_fn = None  # isolate: no downstream delivery
    key = FlowKey("h0", "h1", 1, 4791)
    port.enqueue(make_data_packet(key, 0, 4096, 0.0))
    port.enqueue(make_data_packet(key, 1, 4096, 0.0))
    # tamper with the byte counter so the second pop goes negative
    port.data_queue_bytes = 10
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_until_quiet()
    assert excinfo.value.kind == "negative_occupancy"
    assert excinfo.value.context["what"] == "data queue bytes"
    assert excinfo.value.context["value"] < 0
    assert excinfo.value.context["node"] == "h0"


def test_negative_switch_ingress_accounting_is_caught():
    net = Network(build_fat_tree(4), sanitize=True)
    switch = net.switches[sorted(net.switches)[0]]
    packet = make_data_packet(FlowKey("h0", "h1", 1, 4791), 0, 4096, 0.0)
    packet.ingress = 0  # as SwitchNode.receive leaves it
    switch.ingress_usage[0] = 10  # less than the departing packet
    with pytest.raises(InvariantViolation) as excinfo:
        switch.on_packet_departed(0, packet)
    assert excinfo.value.kind == "negative_occupancy"
    assert excinfo.value.context["what"] == "PFC ingress accounting"


def test_clock_mutation_is_caught():
    sim = Simulator(sanitize=True)

    def evil() -> None:
        sim.now = sim.now + 5.0

    sim.schedule(10.0, evil)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    assert excinfo.value.kind == "clock_mutated"
    assert excinfo.value.context["expected"] == pytest.approx(10.0)
    assert excinfo.value.context["found"] == pytest.approx(15.0)
    assert "evil" in excinfo.value.context["callback"]


def test_schedule_in_past_is_structured_under_sanitizer():
    sim = Simulator(sanitize=True)

    def evil() -> None:
        sim.schedule(-1.0, lambda: None)

    sim.schedule(5.0, evil)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    assert excinfo.value.kind == "schedule_in_past"
    # InvariantViolation stays a ValueError for existing callers
    assert isinstance(excinfo.value, ValueError)

    plain = Simulator(sanitize=False)
    with pytest.raises(ValueError) as plain_info:
        plain.schedule_at(-3.0, lambda: None)
    assert not isinstance(plain_info.value, InvariantViolation)


def test_receiver_over_acceptance_is_caught():
    net = Network(build_fat_tree(4), sanitize=True)
    flow = net.create_flow("h0", "h1", 50_000)
    receiver = net.hosts["h1"].receivers[flow.key]
    receiver.expected_bytes = 10  # claim a much smaller message
    flow.start()
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_until_quiet(max_time=ms(50))
    assert excinfo.value.kind == "byte_conservation"
    assert excinfo.value.context["received_bytes"] > 10


def test_sender_conservation_is_caught():
    net = Network(build_fat_tree(4), sanitize=True)
    flow = net.create_flow("h0", "h1", 50_000)

    def corrupt(observed_flow, rtt, ack_seq, now) -> None:
        observed_flow.stats.bytes_acked += 1

    flow.rtt_observers.append(corrupt)
    flow.start()
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_until_quiet(max_time=ms(50))
    assert excinfo.value.kind == "byte_conservation"
    assert excinfo.value.context["flow"] == flow.key.short()


def test_violation_rendering_carries_triage_detail():
    net = Network(build_fat_tree(4), sanitize=True)
    victim = sorted(net.switches)[0]
    net.deliver_resume(
        ResumeEvent(time=0.0, sender=PortRef("h0", 0),
                    victim=PortRef(victim, 0)), 0.0)
    with pytest.raises(InvariantViolation) as excinfo:
        net.run_until_quiet()
    text = str(excinfo.value)
    assert "[unpaired_resume]" in text
    assert f"node = '{victim}'" in text
    assert "recent events (oldest first):" in text


# ----------------------------------------------------------------------
# enablement plumbing
# ----------------------------------------------------------------------
def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _env_sanitize()
    assert Simulator().sanitizer is not None
    # an explicit constructor choice beats the environment
    assert Simulator(sanitize=False).sanitizer is None


@pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
def test_env_var_off_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert not _env_sanitize()
    assert Simulator().sanitizer is None


def test_invariant_violation_is_a_value_error():
    assert issubclass(InvariantViolation, ValueError)
