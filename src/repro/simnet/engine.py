"""Deterministic discrete-event simulation engine.

The engine is a calendar queue on a binary heap plus a same-time FIFO
fast lane: callers schedule callbacks at absolute or relative times, and
:meth:`Simulator.run` pops them in timestamp order.  Ties are broken by
insertion order, which makes every run bit-for-bit deterministic for a
given seed and input.

Fast-path design (see docs/PERFORMANCE.md for the full contract):

* Heap and FIFO entries are ``(time, seq, callback, args, handle)``
  tuples: ``heapq`` compares them in C (``seq`` is unique, so a
  comparison never reaches the callback), and ``handle`` is the
  cancellable :class:`Event` that :meth:`Simulator.schedule` returned —
  or ``None`` for :meth:`Simulator.post` and :meth:`Simulator.post_at`,
  the fire-and-forget verbs of the call sites that never cancel or
  inspect their event (every packet-hop; a switch port posts a CONTROL
  packet's delivery with ``post_at``, docs/ARCHITECTURE.md §2).
* Events scheduled for *exactly* the current clock reading — zero-delay
  callbacks and back-to-back link transmissions — go to a plain deque
  (``_fifo``) and never touch the heap.  The ordering invariant: any
  heap entry with ``time == now`` was pushed while the clock was still
  behind ``now`` and therefore carries a strictly smaller ``seq`` than
  every FIFO entry, so the loop drains same-time heap entries before
  the FIFO and global (time, seq) order is preserved exactly.
* Retired :class:`Event` handles are recycled through a freelist, but
  only when the engine holds the last reference (callers may retain
  events to ``cancel()`` them later — recycling those would cancel an
  unrelated future event).
* ``run()`` pre-binds one of two loops: a minimal fast loop when no
  sanitizer, observer, or ``max_events`` bound is active, and a checked
  loop with identical event ordering otherwise.
* Cancelled events are lazily deleted but *accounted*: the queue is
  compacted in place once they exceed half of the pending entries, so
  retransmit/timeout churn cannot grow the heap without bound, and
  the queue length minus ``_cancelled_pending`` is the live events.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import sys
from collections import deque
from typing import Any, Callable, Optional

from repro.core.units import Nanoseconds
from repro.checks.sanitizer import SimSanitizer

#: compaction only kicks in above this many pending entries; below it the
#: dead fraction is noise and rebuilding would cost more than it saves
_COMPACT_MIN_PENDING = 64

_heappush = heapq.heappush
_heappop = heapq.heappop


def _env_sanitize() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitizing globally."""
    value = os.environ.get("REPRO_SANITIZE", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


class Event:
    """A cancellable handle on a scheduled callback.  Returned by
    :meth:`Simulator.schedule`; the callback and its arguments live in
    the queue entry, not here.

    A cancelled event stays in the queue but is skipped when popped
    (lazy deletion), which keeps cancel O(1).  The owning
    :class:`Simulator` counts cancellations so it can compact the queue
    when dead entries pile up; ``_sim`` is cleared once the event has
    fired or been discarded, making late ``cancel()`` calls (common in
    ``stop()`` paths) free and accounting-neutral.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim")

    def __init__(self, time: Nanoseconds, seq: int) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event as cancelled; it will never fire."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time < other.time:
            return True
        if other.time < self.time:
            return False
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.1f}ns, seq={self.seq}, {state})"


def _sweep(queue) -> Optional[list]:
    """The live entries of ``queue`` when some handle in it has been
    cancelled (those handles are released), else None."""
    live = [entry for entry in queue
            if entry[4] is None or not entry[4].cancelled]
    if len(live) == len(queue):
        return None
    for entry in queue:
        event = entry[4]
        if event is not None and event.cancelled:
            event._sim = None
    return live


class Simulator:
    """Event loop with a monotonically advancing clock in nanoseconds."""

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        self.now: float = 0.0
        # heap of (time, seq, callback, args, Event-or-None): the
        # (time, seq) prefix is unique, so entries compare in C
        self._heap: list[tuple] = []
        # entries scheduled at exactly `now`; drained before later times
        self._fifo: deque = deque()
        self._free: list[Event] = []
        self._cancelled_pending = 0
        self._seq = itertools.count()
        self._events_processed = 0
        self._stopped = False
        #: optional hook called as ``observer(time, seq, callback)`` just
        #: before each callback executes (golden-digest capture, tracing)
        self.event_observer: Optional[Callable[[float, int, Callable],
                                               None]] = None
        if sanitize is None:
            sanitize = _env_sanitize()
        #: invariant checker, or None (the default: zero overhead)
        self.sanitizer: Optional[SimSanitizer] = \
            SimSanitizer(self) if sanitize else None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf accounting)."""
        return self._events_processed

    # -- scheduling verbs -----------------------------------------------

    def schedule(self, delay: Nanoseconds, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if not delay >= 0:  # also catches NaN, which `delay < 0` admits
            self._reject("schedule() delay", delay)
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, time: Nanoseconds, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time."""
        if not time >= self.now:
            self._reject("schedule_at() time", time)
        return self._push(time, callback, args)

    def post(self, delay: Nanoseconds, callback: Callable[..., None],
             *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` is built
        or returned, so the callback can be neither cancelled nor
        inspected.  It draws from the same ``seq`` counter and sits in
        the same queues, so it runs exactly where ``schedule`` would
        have run it."""
        if not delay >= 0:
            self._reject("post() delay", delay)
        now = self.now
        time = now + delay
        # exact same-time events take the FIFO lane (seq stays monotone,
        # so draining heap ties first preserves global (time, seq) order)
        if time == now:  # repro: noqa RPR003 - exact-tie detection
            self._fifo.append((time, next(self._seq), callback, args, None))
        else:
            _heappush(self._heap,
                      (time, next(self._seq), callback, args, None))

    def post_at(self, time: Nanoseconds, callback: Callable[..., None],
                *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: :meth:`post`'s body at
        an absolute time.  A caller that sums a time itself keeps it
        bit-equal to a chain of relative delays only by adding in the
        chain's order (``(now + a) + b``, not ``now + (a + b)``)."""
        if not time >= self.now:
            self._reject("post_at() time", time)
        if time == self.now:  # repro: noqa RPR003 - exact-tie detection
            self._fifo.append((time, next(self._seq), callback, args, None))
        else:
            _heappush(self._heap,
                      (time, next(self._seq), callback, args, None))

    def _push(self, time: float, callback: Callable[..., None],
              args: tuple) -> Event:
        """Queue one cancellable entry at absolute ``time``."""
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            seq = event.seq = next(self._seq)
            event.cancelled = False
        else:
            event = Event(time, seq := next(self._seq))
        event._sim = self
        if time == self.now:  # repro: noqa RPR003 - exact-tie detection
            self._fifo.append((time, seq, callback, args, event))
        else:
            _heappush(self._heap, (time, seq, callback, args, event))
        return event

    def _reject(self, what: str, value: float) -> None:
        """Refuse a delay or target time that is in the past or NaN
        (the cold path of every scheduling verb)."""
        nan = math.isnan(value)
        message = (f"cannot schedule: {what} {value} is "
                   + ("not a number" if nan else "in the past")
                   + f" (clock {self.now})")
        if self.sanitizer is not None:
            self.sanitizer.violation(
                "schedule_nan" if nan else "schedule_in_past", message,
                value=value, clock=self.now)
        raise ValueError(message)

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    # -- cancelled-event accounting -----------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        pending = len(self._heap) + len(self._fifo)
        if pending >= _COMPACT_MIN_PENDING \
                and self._cancelled_pending * 2 > pending:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place mutation matters: the run loop holds local references
        to ``_heap`` and ``_fifo``, and compaction can trigger from a
        ``cancel()`` inside a running callback.
        """
        heap = self._heap
        live = _sweep(heap)
        if live is not None:
            heap[:] = live
            heapq.heapify(heap)
        fifo = self._fifo
        live = _sweep(fifo)
        if live is not None:
            fifo.clear()
            fifo.extend(live)
        self._cancelled_pending = 0

    # -- run loops ------------------------------------------------------

    def run(self, until: Optional[Nanoseconds] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulation clock when the loop exits.  When ``until``
        is given, the clock is advanced to ``until`` even if the queue
        drained earlier, so back-to-back ``run(until=...)`` calls behave
        like a continuous timeline.
        """
        self._stopped = False
        if self.sanitizer is None and self.event_observer is None \
                and max_events is None:
            self._run_fast(until)
        else:
            self._run_checked(until, max_events)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def _next_entry(self, until: Optional[float]) -> Optional[tuple]:
        """Pop the globally next entry, or None at a boundary.

        Heap entries tied with the current clock precede FIFO entries
        (they were scheduled earlier — smaller seq); otherwise the FIFO
        holds the earliest possible time (== now).
        """
        heap = self._heap
        fifo = self._fifo
        if fifo:
            if heap and heap[0][0] == self.now:  # repro: noqa RPR003
                time = self.now
                from_heap = True
            else:
                time = fifo[0][0]
                from_heap = False
            if until is not None and time > until:
                return None
            return heapq.heappop(heap) if from_heap else fifo.popleft()
        if heap:
            if until is not None and heap[0][0] > until:
                return None
            return heapq.heappop(heap)
        return None

    def _run_fast(self, until: Optional[float]) -> None:
        """Inner loop with no sanitizer/observer/max_events overhead."""
        heap = self._heap
        fifo = self._fifo
        free = self._free
        heappop = heapq.heappop
        getrefcount = sys.getrefcount
        while not self._stopped:
            # inline _next_entry: this is the hottest code in the repo
            if fifo:
                if heap and heap[0][0] == self.now:  # repro: noqa RPR003
                    if until is not None and self.now > until:
                        break
                    time, _, callback, args, event = heappop(heap)
                else:
                    if until is not None and fifo[0][0] > until:
                        break
                    time, _, callback, args, event = fifo.popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _, callback, args, event = heappop(heap)
            else:
                break
            if event is None:
                self.now = time
                self._events_processed += 1
                callback(*args)
                continue
            event._sim = None
            if event.cancelled:
                self._cancelled_pending -= 1
            else:
                self.now = time
                self._events_processed += 1
                callback(*args)
            # recycle the handle only if the engine holds the last
            # reference (the local plus getrefcount's argument): any
            # third one is a caller that may still cancel() it
            if getrefcount(event) == 2:
                free.append(event)

    def _run_checked(self, until: Optional[float],
                     max_events: Optional[int]) -> None:
        """Loop with sanitizer hooks, observer, and event bound.

        Event ordering and clock behaviour are identical to
        :meth:`_run_fast`; only instrumentation differs.
        """
        sanitizer = self.sanitizer
        observer = self.event_observer
        while not self._stopped:
            entry = self._next_entry(until)
            if entry is None:
                break
            time, seq, callback, args, event = entry
            if event is not None:
                event._sim = None
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
            if sanitizer is not None:
                sanitizer.before_event(time, seq, callback)
            self.now = time
            self._events_processed += 1
            if observer is not None:
                observer(time, seq, callback)
            callback(*args)
            if sanitizer is not None:
                sanitizer.after_event(time, seq, callback)
            if max_events is not None \
                    and self._events_processed >= max_events:
                break
