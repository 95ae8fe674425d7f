"""Socket report streaming: frames, publisher/listener, health, and
the fan-in equivalence property (socket path ≡ report-file path)."""

import dataclasses
import json
import random
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import failpoints
from repro.core.retry import CircuitBreaker
from repro.fleet.aggregator import (
    FleetAggregator,
    HealthPolicy,
    ShardReport,
    TenantDigest,
    merge_reports,
)
from repro.fleet.transport import (
    _HEADER,
    HEADER_BYTES,
    KIND_HEARTBEAT,
    KIND_REPORT,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    Frame,
    FrameDecoder,
    FrameError,
    ReportListener,
    ReportPublisher,
    decode_report,
    encode_frame,
    encode_report,
)
from repro.fleet.worker import read_report


@pytest.fixture(autouse=True)
def disarm():
    failpoints.clear()
    yield
    failpoints.clear()


def make_digest(shard_id: int, tenant: str, rng=None) -> TenantDigest:
    rng = rng or random.Random(0)
    return TenantDigest(
        shard_id=shard_id, tenant=tenant, final=True,
        seq=rng.randrange(1, 50),
        watermark_ns=float(rng.randrange(1, 10**9)),
        step_records=rng.randrange(100), switch_reports=rng.randrange(100),
        confidence=round(rng.random(), 6), degraded=False,
        findings=("pfc_storm",) if rng.random() < 0.5 else (),
        top_contributor="h0->h1", top_score=round(rng.random(), 6),
        events_admitted=rng.randrange(1000), events_shed=0,
        budget_exhausted=False, snapshot_digest="ab" * 32)


def make_report(shard_id: int, tenants: int = 2,
                rng=None, events: int = 100) -> ShardReport:
    rng = rng or random.Random(shard_id)
    return ShardReport(
        shard_id=shard_id, final=True,
        tenants=[make_digest(shard_id, f"t{shard_id}-{i}", rng)
                 for i in range(tenants)],
        restarts=rng.randrange(3), checkpoints_written=rng.randrange(9),
        events_consumed=events)


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def test_frame_round_trips_across_arbitrary_chunking():
    frames_in = [encode_frame(KIND_HEARTBEAT, 3, 1),
                 encode_report(make_report(3), 2),
                 encode_frame(KIND_HEARTBEAT, 3, 3)]
    stream = b"".join(frames_in)
    for chunk_size in (1, 7, len(stream)):
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk_size):
            out.extend(decoder.feed(stream[i:i + chunk_size]))
        assert [(f.kind, f.shard_id, f.seq) for f in out] == [
            (KIND_HEARTBEAT, 3, 1), (KIND_REPORT, 3, 2),
            (KIND_HEARTBEAT, 3, 3)]
        assert len(decoder._buffer) == 0
        restored = decode_report(out[1])
        assert restored is not None
        assert restored.to_dict() == make_report(3).to_dict()


def test_decoder_rejects_bad_magic():
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(b"XX" + bytes(HEADER_BYTES))


def test_decoder_rejects_oversize_length():
    # a header that claims one byte more than the bound, no payload
    header = _HEADER.pack(MAGIC, KIND_REPORT, 0, 1, MAX_PAYLOAD_BYTES + 1, 0)
    with pytest.raises(FrameError, match="length"):
        FrameDecoder().feed(header)


def test_decoder_rejects_crc_mismatch():
    frame = bytearray(encode_frame(KIND_REPORT, 0, 1, b"payload"))
    frame[-1] ^= 0xFF  # corrupt the payload, keep the header CRC
    with pytest.raises(FrameError, match="CRC"):
        FrameDecoder().feed(bytes(frame))


def test_decoder_keeps_partial_frames_pending():
    frame = encode_report(make_report(1), 1)
    decoder = FrameDecoder()
    assert decoder.feed(frame[:HEADER_BYTES + 3]) == []
    assert len(decoder._buffer) == HEADER_BYTES + 3
    frames = decoder.feed(frame[HEADER_BYTES + 3:])
    assert len(frames) == 1


def test_decode_report_tolerates_junk_payload():
    junk = encode_frame(KIND_REPORT, 0, 1, b"not json")
    decoder = FrameDecoder()
    (frame,) = decoder.feed(junk)  # CRC fine, payload junk
    assert decode_report(frame) is None


# ----------------------------------------------------------------------
# hostile input: whatever the bytes, a frame or FrameError; whatever
# the JSON, a report or None
# ----------------------------------------------------------------------
#: well-formed JSON documents of the wrong shape
WRONG_SHAPES = ([], "x", {"shard": 1, "final": True, "tenants": None},
                {"shard": None, "final": True, "tenants": []},
                {"tenants": [1]})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)


def _with(document: dict, key: str, value) -> dict:
    return {**document, key: value}


#: a real report or digest with one field swapped for any JSON value
REPORT_SHAPES = st.one_of(
    JSON,
    st.builds(_with, st.just(make_report(0).to_dict()),
              st.sampled_from(sorted(make_report(0).to_dict())), JSON),
    st.builds(lambda key, value: _with(
        make_report(0, tenants=0).to_dict(), "tenants",
        [_with(make_digest(0, "t").to_dict(), key, value)]),
        st.sampled_from(sorted(make_digest(0, "t").to_dict())), JSON))


def frame_of(document) -> Frame:
    (frame,) = FrameDecoder().feed(encode_frame(
        KIND_REPORT, 0, 1, json.dumps(document).encode("utf-8")))
    return frame


@settings(max_examples=300, deadline=None, derandomize=True)
@given(document=REPORT_SHAPES)
def test_decode_report_returns_a_report_or_none(document):
    report = decode_report(frame_of(document))
    assert report is None or isinstance(report, ShardReport)


@pytest.mark.parametrize("document", WRONG_SHAPES, ids=repr)
def test_wrong_shapes_are_unparseable_on_every_path(document, tmp_path):
    assert decode_report(frame_of(document)) is None
    path = tmp_path / "report.json"
    path.write_text(json.dumps(document))
    assert read_report(str(path)) is None


PIECES = st.lists(st.one_of(
    st.binary(max_size=24),
    st.builds(lambda payload: MAGIC + payload, st.binary(max_size=24)),
    st.builds(encode_frame, st.sampled_from([KIND_REPORT, KIND_HEARTBEAT]),
              st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
              st.binary(max_size=24))), max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pieces=PIECES, cuts=st.lists(st.integers(1, 40), max_size=8),
       flip=st.integers(0, 255))
def test_frame_decoder_yields_frames_or_frame_error(pieces, cuts, flip):
    stream = bytearray(b"".join(pieces))
    if stream:
        stream[flip % len(stream)] ^= flip
    chunks, at = [], 0
    for cut in cuts + [len(stream)]:
        chunks.append(bytes(stream[at:at + cut]))
        at += cut
    decoder = FrameDecoder()
    decoded = []
    try:
        for chunk in chunks:
            decoded += decoder.feed(chunk)
    except FrameError:
        return                       # the listener resets the link
    # every frame decoded is one a peer could have encoded
    assert b"".join(encode_frame(f.kind, f.shard_id, f.seq, f.payload)
                    for f in decoded) \
        == bytes(stream[:len(stream) - len(decoder._buffer)])


def test_listener_counts_a_wrong_shape_and_keeps_the_link():
    reports = []
    with ReportListener(on_report=reports.append) as listener:
        with socket.create_connection(
                (listener.host, listener.port), timeout=5) as sock:
            for seq, document in enumerate(WRONG_SHAPES, 1):
                sock.sendall(encode_frame(KIND_REPORT, 0, seq,
                                          json.dumps(document).encode()))
            sock.sendall(encode_report(make_report(0), 99))
        deadline = time.monotonic() + 5.0
        while not reports and time.monotonic() < deadline:
            time.sleep(0.01)
    assert [r.shard_id for r in reports] == [0]
    assert listener.stats()["reports_bad"] == len(WRONG_SHAPES)


# ----------------------------------------------------------------------
# publisher / listener end to end
# ----------------------------------------------------------------------
def test_publisher_streams_reports_and_heartbeats():
    reports, beats = [], []
    with ReportListener(on_report=reports.append,
                        on_heartbeat=beats.append) as listener:
        with ReportPublisher(listener.endpoint(), 2) as publisher:
            assert publisher.publish(make_report(2))
            assert publisher.heartbeat()
            assert publisher.publish(make_report(2, events=200))
        deadline = time.monotonic() + 5.0
        while len(reports) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert [r.events_consumed for r in reports] == [100, 200]
    assert beats == [2]
    stats = listener.stats()
    assert stats["reports_received"] == 2
    assert stats["heartbeats_received"] == 1
    assert stats["connections_accepted"] == 1


def test_listener_stop_wakes_the_blocked_accept_thread():
    # close() alone leaves accept() asleep on Linux and stop() used to
    # wait out its 5 s join on every run_fleet_streaming
    listener = ReportListener(on_report=lambda _report: None)
    listener.start()
    thread = listener._accept_thread
    start = time.monotonic()
    listener.stop()
    assert time.monotonic() - start < 0.5
    assert not thread.is_alive()


def test_listener_drops_stale_seq_on_one_connection():
    reports = []
    with ReportListener(on_report=reports.append) as listener:
        with socket.create_connection(
                (listener.host, listener.port), timeout=5) as sock:
            sock.sendall(encode_report(make_report(0), 5))
            sock.sendall(encode_report(make_report(0), 5))  # stale
            sock.sendall(encode_report(make_report(0), 6))
        deadline = time.monotonic() + 5.0
        while len(reports) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    stats = listener.stats()
    assert stats["reports_received"] == 2
    assert stats["reports_stale"] == 1


def test_listener_counts_reports_its_callback_rejects():
    def reject(_report):
        raise ValueError("unknown shard")

    with ReportListener(on_report=reject) as listener:
        with ReportPublisher(listener.endpoint(), 9) as publisher:
            assert publisher.publish(make_report(9))
        deadline = time.monotonic() + 5.0
        while listener.stats()["reports_bad"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
    assert listener.stats()["reports_bad"] == 1
    assert listener.stats()["reports_received"] == 0


def test_garbled_stream_resets_connection_and_publisher_recovers():
    reports = []
    failpoints.configure("transport.recv.garble:garblex1", seed=3)
    with ReportListener(on_report=reports.append) as listener:
        publisher = ReportPublisher(
            listener.endpoint(), 1, sleep=lambda _s: None)
        with publisher:
            # the first send is garbled en route -> CRC fails -> the
            # listener resets the connection; the worker only notices
            # on a later send, whose retry reconnects cleanly
            assert publisher.publish(make_report(1))
            deadline = time.monotonic() + 5.0
            while not reports and time.monotonic() < deadline:
                publisher.publish(make_report(1))
                time.sleep(0.02)
    stats = listener.stats()
    assert stats["frames_garbled"] == 1
    assert stats["connections_reset"] >= 1
    assert len(reports) >= 1
    assert publisher.retries >= 1


def test_publisher_falls_back_when_listener_is_gone():
    # A start/stop listener frees its port back to the ephemeral pool,
    # where a concurrent server from another test can occasionally
    # rebind it and accept our connects.  A bound-but-never-listening
    # socket gives the same refused connection deterministically and
    # holds the port for the whole test.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    endpoint = ["127.0.0.1", blocker.getsockname()[1]]
    publisher = ReportPublisher(endpoint, 4, sleep=lambda _s: None)
    with publisher:
        assert not publisher.publish(make_report(4))
        assert publisher.send_failures == 1
        attempts = publisher.retry.max_attempts
        assert publisher.retries == attempts - 1
        # the breaker opens within the next publish's attempts, which
        # still reports a clean False (fall back to the file)
        assert publisher.breaker.failure_threshold <= 2 * attempts
        assert not publisher.publish(make_report(4))
        assert publisher.breaker.state == CircuitBreaker.OPEN
        assert publisher.send_failures == 2
    stamped = publisher.stamp(make_report(4))
    assert stamped.publish_failures == 2
    assert stamped.breaker_state == 2
    assert stamped.transport_retries == publisher.retries
    blocker.close()


# ----------------------------------------------------------------------
# health: degraded, never wrong — and never stalled
# ----------------------------------------------------------------------
def test_dead_shard_is_excluded_from_watermark_not_snapshot():
    clock_now = [0.0]
    aggregator = FleetAggregator(
        [0, 1], health=HealthPolicy(stale_after_s=1.0,
                                    dead_after_s=2.0),
        clock=lambda: clock_now[0])
    # a worker that dies mid-run never sent its final report (one
    # that did has finished: test_finished_shard_is_not_a_dead_shard)
    slow = dataclasses.replace(make_report(1), final=False)
    aggregator.offer(make_report(0))
    aggregator.offer(slow)
    snapshot = aggregator.merge()
    assert not snapshot.degraded
    assert snapshot.shard_health == {"0": "live", "1": "live"}

    clock_now[0] = 2.5  # shard 1 silent past dead_after_s
    aggregator.offer(make_report(0, events=150))
    snapshot = aggregator.merge()
    assert snapshot.degraded
    assert snapshot.shard_health == {"0": "live", "1": "dead"}
    # the dead shard's tenants still appear with last-known digests
    assert {t.shard_id for t in snapshot.tenants} == {0, 1}
    # ... but its (older) watermark no longer holds the fleet back
    live_marks = [make_report(0, events=150).watermark_ns]
    assert snapshot.watermark_ns == min(live_marks)
    assert aggregator.degraded_snapshots == 1

    # a fresh report revives it: no longer degraded
    aggregator.offer(make_report(1, events=300))
    snapshot = aggregator.merge()
    assert not snapshot.degraded
    assert snapshot.shard_health == {"0": "live", "1": "live"}


def test_finished_shard_is_not_a_dead_shard():
    """A worker that published its final report and exited goes
    silent by design: it stays ``live`` and keeps counting toward the
    fleet watermark while its slower shard-mates run on."""
    clock_now = [0.0]
    aggregator = FleetAggregator(
        [0, 1], health=HealthPolicy(), clock=lambda: clock_now[0])
    done = make_report(0)
    assert done.final
    aggregator.offer(done)
    running = dataclasses.replace(make_report(1), final=False)
    aggregator.offer(running)
    clock_now[0] = 11.0      # past dead_after_s
    aggregator.heartbeat(1)
    snapshot = aggregator.merge()
    assert snapshot.shard_health == {"0": "live", "1": "live"}
    assert not snapshot.degraded
    assert snapshot.watermark_ns == min(done.watermark_ns,
                                        running.watermark_ns)
    assert aggregator.degraded_snapshots == 0

    # silence without a final report is still death
    clock_now[0] = 22.0
    snapshot = aggregator.merge()
    assert snapshot.shard_health == {"0": "live", "1": "dead"}
    assert snapshot.degraded


def test_heartbeats_keep_a_quiet_shard_alive():
    clock_now = [0.0]
    aggregator = FleetAggregator(
        [0, 1], health=HealthPolicy(stale_after_s=1.0,
                                    dead_after_s=2.0),
        clock=lambda: clock_now[0])
    aggregator.offer(make_report(0))
    aggregator.offer(make_report(1))
    for step in range(1, 6):
        clock_now[0] = step * 0.9
        aggregator.heartbeat(1)
    aggregator.offer(make_report(0, events=200))
    snapshot = aggregator.merge()
    assert snapshot.shard_health["1"] == "live"
    assert not snapshot.degraded
    assert aggregator.heartbeats == 5
    with pytest.raises(ValueError):
        aggregator.heartbeat(99)


def test_health_blind_aggregator_is_unchanged():
    aggregator = FleetAggregator([0, 1])
    aggregator.offer(make_report(0))
    snapshot = aggregator.merge()
    assert snapshot.shard_health == {}
    assert not snapshot.degraded
    assert aggregator.shard_health() == {}


# ----------------------------------------------------------------------
# the fan-in equivalence property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
def test_socket_fan_in_diagnosis_equals_file_fan_in(seed):
    """Property: reports fanned in through the socket channel merge
    to the *same diagnosis* as the same reports read from files —
    even when streamed twice (reconnect duplicates) or interleaved
    with heartbeats.  Only operational fields may differ."""
    rng = random.Random(seed)
    shard_ids = list(range(rng.randrange(2, 5)))
    reports = [make_report(s, tenants=rng.randrange(1, 4), rng=rng,
                           events=rng.randrange(100, 1000))
               for s in shard_ids]

    # file-path fan-in: straight merge over the reports
    baseline = merge_reports(reports, shard_ids, final=True)

    # socket-path fan-in: stream (with duplicates + heartbeats) into
    # a live aggregator, then offer the same final reports
    aggregator = FleetAggregator(shard_ids, health=HealthPolicy())
    received = []
    with ReportListener(on_report=aggregator.offer,
                        on_heartbeat=aggregator.heartbeat) as listener:
        for report in reports:
            with ReportPublisher(listener.endpoint(),
                                 report.shard_id) as publisher:
                publisher.publish(report)
                publisher.heartbeat()
                if rng.random() < 0.5:  # reconnect duplicate
                    publisher.publish(report)
        deadline = time.monotonic() + 5.0
        while any(len(box) == 0
                  for box in aggregator.mailboxes.values()) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        received.append(listener.stats())
    for report in reports:  # the final file fan-in, as streaming does
        aggregator.offer(report)
    streamed = aggregator.merge(final=True)

    assert streamed.diagnosis_json() == baseline.diagnosis_json()
    assert received[0]["reports_received"] >= len(shard_ids)
