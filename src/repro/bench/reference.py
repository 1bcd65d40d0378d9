"""Reference implementations: test oracles and bench floor twins.

Production code has one path per concern -- the calendar-queue kernel
and the columnar telemetry ingest.  The implementations they replaced
live here, unchanged, for two consumers only:

- the differential tests, which hold the fast paths to the references'
  observable behaviour (pop order, firing order, store digests, alert
  logs);
- the ``THROUGHPUT_FLOORS`` twins in :mod:`repro.bench.suites`
  (``timer_rearm_heap``, ``kernel_cancel_sweep_heap``,
  ``telemetry_ingest``), which time the reference on identical work in
  the same invocation.

No flag, option or environment variable selects them.

- :class:`HeapSimulator` -- the kernel with the original lazy-cancel
  binary heap.
- :class:`ScalarTelemetryService` -- the service with the per-record
  ``ChainStateStore.apply`` pump.
- :class:`EagerHeapQueue` -- a plain heap with the calendar queue's
  eager-cancel compaction (the pop-order oracle of the calendar queue
  property tests).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.sim.calendar import _MIN_COMPACT, Entry
from repro.sim.kernel import (
    ScheduledEvent,
    SimulationError,
    Simulator,
    fmt_time,
)
from repro.telemetry.service import TelemetryService

__all__ = ["EagerHeapQueue", "HeapSimulator", "ScalarTelemetryService"]

#: Heap entry layout: ``(time, priority, seq, event)``.  ``seq`` is unique,
#: so tuple comparison never reaches the (incomparable) event object.
_HeapEntry = Tuple[int, int, int, ScheduledEvent]


class HeapSimulator(Simulator):
    """:class:`~repro.sim.kernel.Simulator` on a lazy-cancel binary heap.

    Cancellation is lazy: a cancelled handle stays in the heap and is
    skipped when it surfaces at the root.  Pops follow the same
    ``(time, priority, seq)`` order as the calendar queue, and every
    method consumes sequence numbers exactly as the kernel does, so
    firing order is identical (``tests/test_sim_kernel.py`` holds the
    two to that).
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._cal = None
        self._heap: List[_HeapEntry] = []

    def schedule_at(
        self,
        time: int,
        callback,
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (time, priority, self._next_seq(), event))
        return event

    def schedule_after(
        self,
        delay: int,
        callback,
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (time, priority, self._next_seq(), event))
        return event

    def call_now(self, callback, *args: Any, label: str = "") -> ScheduledEvent:
        event = ScheduledEvent(callback, args, self.now, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (self.now, 0, self._next_seq(), event))
        return event

    def reschedule(
        self, event: ScheduledEvent, time: int, priority: int = 0
    ) -> ScheduledEvent:
        """Lazy-cancel *event* and return a fresh handle at *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        event.cancel()
        fresh = ScheduledEvent(
            event.callback, event.args, time, label=event.label
        )
        if self.spans is not None:
            fresh.ctx = self.spans.current
        heapq.heappush(
            self._heap, (time, priority, self._next_seq(), fresh)
        )
        return fresh

    def step(self) -> bool:
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            _time, _prio, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = event.time
            spans = self.spans
            if spans is not None:
                spans.current = event.ctx
            event.callback(*event.args)
            return True
        return False

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        count = 0
        heap = self._heap
        heappop = heapq.heappop
        if until is None and max_events is None:
            if self.spans is None:
                while heap:
                    time, _prio, _seq, event = heappop(heap)
                    if event.cancelled:
                        continue
                    self.now = time
                    event.callback(*event.args)
                    count += 1
                return count
            spans = self.spans
            while heap:
                time, _prio, _seq, event = heappop(heap)
                if event.cancelled:
                    continue
                self.now = time
                spans.current = event.ctx
                event.callback(*event.args)
                count += 1
            spans.current = None
            return count
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                self.now = until
                break
            heappop(heap)
            self.now = entry[0]
            spans = self.spans
            if spans is not None:
                spans.current = entry[3].ctx
            entry[3].callback(*entry[3].args)
            count += 1
            if max_events is not None and count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self.now < until:
            self.now = until
        spans = self.spans
        if spans is not None:
            spans.current = None
        return count

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)


class ScalarTelemetryService(TelemetryService):
    """:class:`~repro.telemetry.service.TelemetryService` whose
    :meth:`pump` applies one record at a time through
    ``ChainStateStore.apply`` instead of the columnar ``apply_batch``.

    Store, watermark and alert log come out byte-identical to the
    production service.
    """

    def pump(self, max_records: Optional[int] = None) -> int:
        batch = self.queue.drain(max_records)
        if not batch:
            return 0
        store = self.store
        observe = self.engine.observe
        watermark = self.watermark_ns
        for record in batch:
            outcome = store.apply(record)
            if record.timestamp_ns > watermark:
                watermark = record.timestamp_ns
            observe(outcome)
        self.watermark_ns = watermark
        self.applied_here += len(batch)
        return len(batch)


class EagerHeapQueue:
    """Binary heap with the calendar queue's eager-cancel compaction.

    Same entry layout and pop order as a plain ``heapq`` (it *is* one),
    but cancelled entries are counted and the heap is rebuilt without
    them once they outnumber the compaction threshold -- so a
    cancel-heavy producer can no longer grow the heap without bound.
    The calendar queue property tests use it as the order oracle.
    """

    __slots__ = ("_heap", "_dead", "_compact_at")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._dead = 0
        self._compact_at = _MIN_COMPACT

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def live(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return self.live > 0

    def push(self, time: int, priority: int, seq: int, payload: Any) -> None:
        payload._cq = self
        payload._seq = seq
        heapq.heappush(self._heap, (time, priority, seq, payload))

    def note_cancel(self) -> None:
        self._dead += 1
        if self._dead >= self._compact_at:
            heap = [e for e in self._heap if e[3]._seq == e[2]]
            heapq.heapify(heap)
            self._heap = heap
            self._dead = 0
            self._compact_at = max(_MIN_COMPACT, len(heap))

    def pop(self, limit: Optional[int] = None) -> Optional[Entry]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._seq != entry[2]:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heapq.heappop(heap)
            entry[3]._cq = None
            return entry
        return None

    def peek(self) -> Optional[Entry]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._seq != entry[2]:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            return entry
        return None
