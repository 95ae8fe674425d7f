"""Socket report streaming: the fleet's resilient fan-in edge.

Until now the only worker→aggregator channel was "write an atomic
report file, parent polls it".  This module adds a streaming channel
on top — without ever making the file path wrong:

* **Frames.**  Length-prefixed, CRC-checked, sequence-numbered frames
  (``!2sBIQII`` header: magic ``VF``, kind, shard id, sequence,
  payload length, CRC32) carrying either a serialized
  :class:`~repro.fleet.aggregator.ShardReport` or a heartbeat.
* **Worker side.**  :class:`ReportPublisher` connects to the parent's
  listener, reconnecting under a seeded
  :class:`~repro.core.retry.RetryPolicy` with a
  :class:`~repro.core.retry.CircuitBreaker` so a dead listener cannot
  stall the shard.  A report that cannot be delivered falls back to
  the atomic report file — **degraded, never wrong**.
* **Parent side.**  :class:`ReportListener` accepts connections, feeds
  a stateful :class:`FrameDecoder`, drops stale/garbled frames (a
  corrupt stream resets the connection; the publisher reconnects),
  and forwards reports/heartbeats to the aggregator.
* **Orchestration.**  :func:`run_fleet_streaming` runs the supervised
  worker fleet with the socket channel plus a rolling merge loop, and
  always closes over the report *files* for the final fan-in — the
  recovery contract (final diagnosis bit-equal to an uninterrupted
  run) is therefore independent of any streamed frame's fate.

Failpoint sites (see :mod:`repro.core.failpoints`): worker-side
``transport.connect``, ``transport.send``, ``transport.heartbeat``;
parent-side ``transport.recv.drop``, ``transport.recv.garble``,
``transport.conn.reset``.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import failpoints
from repro.core.retry import CircuitBreaker, RetryPolicy, \
    call_with_retry
from repro.core.units import Seconds
from repro.fleet.aggregator import (
    FleetAggregator,
    FleetSnapshot,
    HealthPolicy,
    ShardReport,
)
from repro.fleet.service import FleetConfig
from repro.fleet.sharding import TenantSpec

MAGIC = b"VF"
KIND_REPORT = 0x52     # 'R'
KIND_HEARTBEAT = 0x48  # 'H'
_HEADER = struct.Struct("!2sBIQII")
HEADER_BYTES = _HEADER.size
#: a report payload larger than this is a framing bug, not data
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024
#: a publisher's connect and send timeout
CONNECT_TIMEOUT_S = 2.0


class FrameError(ValueError):
    """The byte stream is not a valid frame sequence (bad magic,
    impossible length, or CRC mismatch)."""


@dataclass(frozen=True)
class Frame:
    """One decoded transport frame."""

    kind: int
    shard_id: int
    seq: int
    payload: bytes = b""


def encode_frame(kind: int, shard_id: int, seq: int,
                 payload: bytes = b"") -> bytes:
    header = _HEADER.pack(MAGIC, kind, shard_id, seq, len(payload),
                          zlib.crc32(payload))
    return header + payload


def encode_report(report: ShardReport, seq: int) -> bytes:
    payload = json.dumps(report.to_dict(),
                         sort_keys=True).encode("utf-8")
    return encode_frame(KIND_REPORT, report.shard_id, seq, payload)


def decode_report(frame: Frame) -> Optional[ShardReport]:
    """The frame's ShardReport, or None when the payload does not
    parse (a CRC collision or a version-skewed peer)."""
    try:
        return ShardReport.from_json(frame.payload.decode("utf-8"))
    except UnicodeDecodeError:
        return None


class FrameDecoder:
    """Incremental frame decoder over an arbitrary chunking of the
    byte stream.  Raises :class:`FrameError` on a corrupt prefix —
    the caller should reset the connection (TCP gives no way to
    resynchronize mid-stream)."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer.extend(data)
        frames: list[Frame] = []
        while len(self._buffer) >= HEADER_BYTES:
            magic, kind, shard_id, seq, length, crc = _HEADER.unpack(
                bytes(self._buffer[:HEADER_BYTES]))
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {magic!r}")
            if length > MAX_PAYLOAD_BYTES:
                raise FrameError(
                    f"frame payload length {length} exceeds "
                    f"{MAX_PAYLOAD_BYTES}")
            if len(self._buffer) < HEADER_BYTES + length:
                break
            payload = bytes(
                self._buffer[HEADER_BYTES:HEADER_BYTES + length])
            if zlib.crc32(payload) != crc:
                raise FrameError(
                    f"frame CRC mismatch (shard {shard_id}, "
                    f"seq {seq})")
            del self._buffer[:HEADER_BYTES + length]
            frames.append(Frame(kind=kind, shard_id=shard_id,
                                seq=seq, payload=payload))
        return frames


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class ReportPublisher:
    """Streams one shard's reports/heartbeats to the listener.

    Send failures reconnect under the retry policy; the breaker stops
    a dead listener from consuming the shard's time budget.  A report
    the channel cannot deliver is the *caller's* cue to fall back to
    the atomic report file (see
    :meth:`worker_main <repro.fleet.worker.worker_main>`).
    """

    def __init__(self, endpoint, shard_id: int,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = str(endpoint[0])
        self.port = int(endpoint[1])
        self.shard_id = shard_id
        self.retry = RetryPolicy(max_attempts=3, base_delay_s=0.02,
                                 max_delay_s=0.2, seed=shard_id)
        self.breaker = CircuitBreaker(failure_threshold=4,
                                      reset_after_s=0.5)
        self.sleep = sleep
        self._rng = self.retry.rng()
        self._sock: Optional[socket.socket] = None
        self._seq = 0
        # channel observability (stamped into outgoing ShardReports)
        self.retries = 0
        self.send_failures = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # closing an already-broken socket; nothing to recover
                pass
            self._sock = None

    def _connect(self) -> None:
        failpoints.fire("transport.connect")
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT_S)
        if sock.getsockname() == sock.getpeername():
            # TCP simultaneous-open to a freed ephemeral port on the
            # same host can connect the socket to itself; "publishing"
            # into it would silently go nowhere, so fail like a
            # refused connection and let retry/fallback take over
            sock.close()
            raise ConnectionRefusedError(
                f"self-connected to {self.host}:{self.port} "
                f"(listener is gone)")
        sock.settimeout(CONNECT_TIMEOUT_S)
        self._sock = sock

    def _send_frame(self, frame: bytes) -> None:
        if self._sock is None:
            self._connect()
        mangled = failpoints.mangle("transport.send", frame)
        if mangled is None:
            return
        assert self._sock is not None
        self._sock.sendall(mangled)

    def _on_retry(self, _attempt, _error, _delay_s) -> None:
        self.retries += 1
        self._drop_socket()

    # ------------------------------------------------------------------
    def publish(self, report: ShardReport) -> bool:
        """Stream one report.  True on success; False when the
        channel is broken (caller falls back to the report file)."""
        self._seq += 1
        frame = encode_report(report, self._seq)
        try:
            call_with_retry(lambda: self._send_frame(frame),
                            policy=self.retry, breaker=self.breaker,
                            sleep=self.sleep,
                            rng=self._rng, on_retry=self._on_retry)
        except OSError:
            self._drop_socket()
            self.send_failures += 1
            return False
        return True

    def heartbeat(self) -> bool:
        """One best-effort liveness beat (no retries: the next round
        sends another; a few lost beats only age the shard)."""
        if failpoints.fire("transport.heartbeat") == "drop":
            return False  # stalled heartbeat (chaos)
        self._seq += 1
        frame = encode_frame(KIND_HEARTBEAT, self.shard_id, self._seq)
        try:
            self._send_frame(frame)
        except OSError:
            self._drop_socket()
            return False
        return True

    def stamp(self, report: ShardReport) -> ShardReport:
        """Write this channel's operational counters into an outgoing
        report (they surface as labeled exporter series)."""
        report.transport_retries = self.retries
        report.publish_failures = self.send_failures
        report.publish_fallbacks = self.fallbacks
        report.breaker_state = self.breaker.state_code()
        return report

    def close(self) -> None:
        self._drop_socket()

    def __enter__(self) -> "ReportPublisher":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ReportListener:
    """Accepts worker connections and fans decoded frames into
    caller-supplied callbacks (one daemon thread per connection).

    A garbled stream (failed CRC / magic) resets its connection; the
    publisher's reconnect makes that loss transient.  Reports with a
    non-advancing sequence number on the same connection are dropped
    as stale (a reconnect legitimately restarts the sequence, and the
    aggregator's latest-report-wins merge absorbs duplicates).
    """

    def __init__(self,
                 on_report: Callable[[ShardReport], None],
                 on_heartbeat: Optional[Callable[[int], None]] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.on_report = on_report
        self.on_heartbeat = on_heartbeat
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._lock = threading.Lock()
        self._closing = False
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set = set()
        # channel observability (read under self._lock)
        self.connections_accepted = 0
        self.connections_reset = 0
        self.frames_received = 0
        self.reports_received = 0
        self.heartbeats_received = 0
        self.frames_garbled = 0
        self.chunks_dropped = 0
        self.reports_stale = 0
        self.reports_bad = 0

    def endpoint(self) -> list:
        """``[host, port]`` — primitives, safe inside worker specs."""
        return [self.host, int(self.port)]

    def stats(self) -> dict:
        with self._lock:
            return {
                "connections_accepted": self.connections_accepted,
                "connections_reset": self.connections_reset,
                "frames_received": self.frames_received,
                "reports_received": self.reports_received,
                "heartbeats_received": self.heartbeats_received,
                "frames_garbled": self.frames_garbled,
                "chunks_dropped": self.chunks_dropped,
                "reports_stale": self.reports_stale,
                "reports_bad": self.reports_bad,
            }

    # ------------------------------------------------------------------
    def start(self) -> int:
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name="fleet-report-listener", daemon=True)
            self._accept_thread.start()
        return self.port

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self.connections_accepted += 1
                self._conns.add(conn)
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="fleet-report-conn", daemon=True)
            worker.start()

    def _serve_connection(self, conn) -> None:
        decoder = FrameDecoder()
        last_report_seq = -1
        try:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                data = failpoints.mangle("transport.recv.drop", data)
                if data is None:
                    with self._lock:
                        self.chunks_dropped += 1
                    continue
                data = failpoints.mangle("transport.recv.garble",
                                         data)
                if failpoints.fire("transport.conn.reset") is not None:
                    with self._lock:
                        self.connections_reset += 1
                    break
                try:
                    frames = decoder.feed(data)
                except FrameError:
                    # corrupt prefix: count it and reset the
                    # connection (the publisher reconnects clean)
                    with self._lock:
                        self.frames_garbled += 1
                        self.connections_reset += 1
                    break
                for frame in frames:
                    last_report_seq = self._dispatch(
                        frame, last_report_seq)
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # peer already gone; nothing to release twice
                pass

    def _dispatch(self, frame: Frame, last_report_seq: int) -> int:
        with self._lock:
            self.frames_received += 1
        if frame.kind == KIND_HEARTBEAT:
            with self._lock:
                self.heartbeats_received += 1
            if self.on_heartbeat is not None:
                self.on_heartbeat(frame.shard_id)
            return last_report_seq
        if frame.seq <= last_report_seq:
            with self._lock:
                self.reports_stale += 1
            return last_report_seq
        report = decode_report(frame)
        if report is None:
            with self._lock:
                self.reports_bad += 1
            return last_report_seq
        try:
            self.on_report(report)
        except ValueError:
            # e.g. a report for a shard the aggregator does not
            # expect — count it instead of killing the connection
            with self._lock:
                self.reports_bad += 1
            return last_report_seq
        with self._lock:
            self.reports_received += 1
        return frame.seq

    # ------------------------------------------------------------------
    def stop(self) -> None:
        with self._lock:
            self._closing = True
            conns = list(self._conns)
        try:
            # close() alone leaves a thread blocked in accept() asleep
            # on Linux; shutdown() wakes it with an OSError
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:  # never connected / already torn down
            pass
        try:
            self._server.close()
        except OSError:  # listener socket already torn down
            pass
        for conn in conns:
            try:
                conn.close()
            except OSError:  # racing the connection thread's own close
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "ReportListener":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# orchestration: supervised workers + streaming fan-in + health
# ----------------------------------------------------------------------
@dataclass
class FleetStreamOutcome:
    """What :func:`run_fleet_streaming` hands back."""

    #: final per-shard reports (from the atomic report files)
    results: dict
    #: final fleet snapshot (merged after every worker completed)
    final: FleetSnapshot
    #: the live aggregator (health, mailboxes, degraded counters)
    aggregator: FleetAggregator
    #: receive-side channel counters (:meth:`ReportListener.stats`)
    transport: dict = field(default_factory=dict)
    #: rolling snapshots that carried a degraded flag
    degraded_snapshots: int = 0


def run_fleet_streaming(
        config: FleetConfig,
        plan: dict[int, list[TenantSpec]],
        report_dir: str,
        health: Optional[HealthPolicy] = None,
        kill_at: Optional[dict[int, int]] = None,
        policy=None,
        on_crash=None,
        on_merge: Optional[Callable[[FleetSnapshot], None]] = None,
        merge_every_s: Seconds = 0.1,
        report_every_rounds: int = 8,
        worker_failpoints: str = "",
        failpoint_seed: int = 0,
        preload_traces: bool = False,
        aggregator: Optional[FleetAggregator] = None,
) -> FleetStreamOutcome:
    """Run every shard of ``plan`` as a supervised worker process
    streaming reports/heartbeats back over one socket listener, while
    a rolling merge loop publishes health-aware fleet snapshots.

    The final fan-in reads the atomic report *files* (which workers
    always write), so the final snapshot is bit-equal to a run with
    no streaming at all — streamed frames only make rolling
    snapshots fresher, never the final diagnosis different.
    ``kill_at`` maps a shard to the event count at which its worker
    kills itself once (the :mod:`repro.chaos` kill rule).
    """
    from repro.fleet.worker import make_shard_spec, \
        run_fleet_supervised

    os.makedirs(report_dir, exist_ok=True)
    kill_at = kill_at or {}
    health = health if health is not None else HealthPolicy()
    if not failpoints.active():
        # honor REPRO_FAILPOINTS for the parent-side sites
        # (transport.recv.*, transport.conn.reset); a programmatic
        # configure() — e.g. the chaos harness — takes precedence
        failpoints.configure_from_env(seed=failpoint_seed)
    if aggregator is None:
        aggregator = FleetAggregator(sorted(plan),
                                     config.mailbox_capacity,
                                     health=health)
    agg_lock = threading.Lock()

    def offer(report: ShardReport) -> None:
        with agg_lock:
            aggregator.offer(report)

    def beat(shard_id: int) -> None:
        with agg_lock:
            aggregator.heartbeat(shard_id)

    listener = ReportListener(on_report=offer, on_heartbeat=beat)
    listener.start()
    done = threading.Event()

    def merge_loop() -> None:
        while not done.wait(merge_every_s):
            with agg_lock:
                snapshot = aggregator.merge()
            if on_merge is not None:
                on_merge(snapshot)

    merger = threading.Thread(target=merge_loop,
                              name="fleet-merge-loop", daemon=True)
    merger.start()
    try:
        specs = {
            shard_id: make_shard_spec(
                config, shard_id, tenant_specs,
                os.path.join(report_dir,
                             f"shard-{shard_id:03d}.json"),
                kill_at=kill_at.get(shard_id, 0),
                report_every_rounds=report_every_rounds,
                endpoint=listener.endpoint(),
                worker_failpoints=worker_failpoints,
                failpoint_seed=failpoint_seed,
                preload_traces=preload_traces)
            for shard_id, tenant_specs in sorted(plan.items())
        }
        results = run_fleet_supervised(specs, policy=policy,
                                       on_crash=on_crash)
    finally:
        done.set()
        merger.join(timeout=5.0)
        listener.stop()

    with agg_lock:
        for report in results.values():
            aggregator.offer(report)
        final = aggregator.merge(final=True)
        degraded = aggregator.degraded_snapshots
    if on_merge is not None:
        on_merge(final)
    return FleetStreamOutcome(
        results=results, final=final, aggregator=aggregator,
        transport=listener.stats(), degraded_snapshots=degraded)
