"""Bucketed calendar queue for the simulation kernel and monitor timers.

The kernel's original priority queue is a binary heap of
``(time, priority, seq, event)`` tuples (kept as a reference:
:class:`repro.bench.reference.HeapSimulator`).  Heaps are O(log n) per
operation and -- worse for the timer-heavy workloads -- cancelled
entries stay resident until they surface at the root, paying a full
O(log n) pop each.  ``timer_rearm`` style workloads (cancel + re-push on
every rearm) therefore pay three heap traversals per timer cycle and
keep the heap artificially large.

:class:`CalendarQueue` replaces the heap with a calendar of buckets
keyed by ``time >> shift``:

* **Pending buckets** are plain append-only lists (O(1) insert, no
  comparisons).  A small heap of bucket keys tracks which bucket is
  next.
* The **active bucket** -- the one currently being drained -- is
  filtered of cancelled entries and sorted *once* (C timsort over
  tuples), then consumed by walking an index.  Insertions that land at
  or before the active bucket go to a small overflow heap that is
  merged on the fly, so late ``call_now``-style pushes keep exact
  ordering.
* **Cancellation is eager in aggregate**: events keep a back-reference
  to the queue, a cancel bumps a dead counter, and once enough entries
  have died the whole structure is compacted in one O(n) sweep.  A
  rearm-heavy workload therefore touches each dead entry O(1) times
  amortized instead of O(log n).

Ordering invariant
------------------
Entries are the *same* ``(time, priority, seq)`` tuples the heap used,
and ``seq`` is unique, so sorted-tuple order is a total order identical
to heap pop order.  Every bucket holds a contiguous, disjoint time
range and the active bucket is always the earliest non-empty one, so
serving ``min(sorted_remainder, overflow_heap)`` until both are empty
and then activating the smallest pending bucket yields globally sorted
output.  ``tests/test_calendar_queue.py`` proves pop-order equality
against a heap (:class:`repro.bench.reference.EagerHeapQueue`) with
Hypothesis over arbitrary
schedule/cancel/rearm/advance interleavings.

The kernel (:mod:`repro.sim.kernel`) and the monitor thread's timeout
queue (:mod:`repro.core.local_monitor`) both use it, so stale timer and
timeout entries are freed eagerly instead of leaking until their
deadline surfaces.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

__all__ = ["CalendarQueue", "CancelToken", "DEFAULT_SHIFT"]

#: Default bucket width exponent: ``1 << 20`` ns (~1.05 ms) per bucket.
#: Chain periods, monitor deadlines, and timer rearm horizons in this
#: repo are all O(ms), so a bucket holds one "burst" of related events
#: while multi-second campaigns still spread across thousands of
#: buckets instead of one giant list.
DEFAULT_SHIFT = 20

#: Compact once this many cancelled entries have accumulated (and the
#: threshold has not been raised by a previous compaction observing a
#: larger live population).  Small enough that rearm loops stay tight,
#: large enough that a compaction sweep always amortizes.
_MIN_COMPACT = 64

#: Queue entries are the exact heap layout: ``(time, priority, seq,
#: payload)``.  ``seq`` is unique so comparison never reaches payload.
Entry = Tuple[int, int, int, Any]


class CancelToken:
    """Minimal payload for queue entries that are not kernel events.

    The queues duck-type their payloads: anything with a ``cancelled``
    flag, a ``_cq`` back-reference slot, and a ``_seq`` generation slot
    works (the kernel's ``ScheduledEvent`` carries all three).
    ``CancelToken`` is the smallest such payload, used by the monitor's
    timeout queue and by tests.

    Liveness protocol: an entry ``(time, priority, seq, payload)`` is
    live iff ``payload._seq == seq``.  ``push`` stamps the payload with
    the entry's seq; cancelling (or rescheduling) overwrites ``_seq``,
    which retires the resident entry with a single integer compare on
    the pop path -- no flag *and* generation double-check needed.
    """

    __slots__ = ("cancelled", "_cq", "_seq", "data")

    def __init__(self, data: Any = None) -> None:
        self.cancelled = False
        self._cq = None
        self._seq = -1
        self.data = data

    def cancel(self) -> None:
        """Mark dead and notify the owning queue (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        cq = self._cq
        if cq is not None:
            self._cq = None
            self._seq = -1
            cq.note_cancel()


class CalendarQueue:
    """Monotonic calendar queue with exact heap-order pops.

    "Monotonic" in the timer-wheel sense: pop times never decrease, and
    pushes below the already-activated region are still ordered
    correctly (they join the active overflow heap).  The kernel
    guarantees ``time >= now`` on every push, which keeps the overflow
    heap small in practice.
    """

    __slots__ = (
        "_shift",
        "_pend",
        "_keys",
        "_act_sorted",
        "_act_idx",
        "_act_key",
        "_extra",
        "_dead",
        "_compact_at",
    )

    def __init__(self, shift: int = DEFAULT_SHIFT) -> None:
        self._shift = shift
        #: bucket key -> unsorted list of entries with ``time >> shift == key``
        self._pend = {}
        #: heap of pending bucket keys (a key may linger after its
        #: bucket was compacted away; activation skips missing keys)
        self._keys: List[int] = []
        #: sorted remainder of the active bucket, consumed via _act_idx
        self._act_sorted: List[Entry] = []
        self._act_idx = 0
        #: all pending buckets have key > _act_key; pushes at or below
        #: it go to the overflow heap
        self._act_key = -1
        #: overflow heap for pushes into the already-active region
        self._extra: List[Entry] = []
        self._dead = 0
        self._compact_at = _MIN_COMPACT

    # -- capacity ------------------------------------------------------
    def __len__(self) -> int:
        """Entries resident in the structure, including cancelled ones."""
        n = len(self._act_sorted) - self._act_idx + len(self._extra)
        for lst in self._pend.values():
            n += len(lst)
        return n

    @property
    def live(self) -> int:
        """Entries that would still pop (i.e. not cancelled)."""
        return len(self) - self._dead

    def __bool__(self) -> bool:
        return self.live > 0

    # -- insertion -----------------------------------------------------
    def push(self, time: int, priority: int, seq: int, payload: Any) -> None:
        """Insert an entry; ``payload._cq``/``_seq`` wired for eager cancel."""
        entry = (time, priority, seq, payload)
        payload._cq = self
        payload._seq = seq
        key = time >> self._shift
        if key <= self._act_key:
            heapq.heappush(self._extra, entry)
            return
        lst = self._pend.get(key)
        if lst is None:
            self._pend[key] = [entry]
            heapq.heappush(self._keys, key)
        else:
            lst.append(entry)

    # -- cancellation --------------------------------------------------
    def note_cancel(self) -> None:
        """Record one cancelled resident entry; compact when they pile up."""
        self._dead += 1
        if self._dead >= self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry in one sweep.

        The filtered active remainder stays sorted (filtering preserves
        order) and the overflow heap is re-heapified, so pop order is
        untouched.  The next compaction threshold scales with the live
        population: amortized O(1) per cancel.
        """
        pend = self._pend
        live = 0
        for key in list(pend):
            lst = [e for e in pend[key] if e[3]._seq == e[2]]
            if lst:
                pend[key] = lst
                live += len(lst)
            else:
                # Leave the stale key in _keys; activation skips it.
                del pend[key]
        act = [e for e in self._act_sorted[self._act_idx:] if e[3]._seq == e[2]]
        self._act_sorted = act
        self._act_idx = 0
        extra = [e for e in self._extra if e[3]._seq == e[2]]
        heapq.heapify(extra)
        self._extra = extra
        live += len(act) + len(extra)
        self._dead = 0
        self._compact_at = max(_MIN_COMPACT, live)

    # -- activation ----------------------------------------------------
    def _activate(self) -> bool:
        """Filter+sort the earliest pending bucket into the active slot.

        Returns False when nothing is pending anywhere.  Precondition:
        the active remainder and overflow heap are empty.
        """
        keys = self._keys
        pend = self._pend
        while keys:
            key = heapq.heappop(keys)
            raw = pend.pop(key, None)
            if raw is None:
                continue  # bucket emptied by a compaction sweep
            lst = [e for e in raw if e[3]._seq == e[2]]
            # The filter just consumed this bucket's dead entries.
            self._dead -= len(raw) - len(lst)
            if not lst:
                continue
            lst.sort()
            self._act_sorted = lst
            self._act_idx = 0
            self._act_key = key
            return True
        return False

    # -- consumption ---------------------------------------------------
    def pop(self, limit: Optional[int] = None) -> Optional[Entry]:
        """Pop the earliest live entry, or None.

        With *limit*, entries later than ``limit`` stay queued and None
        is returned (peek-with-threshold semantics for ``run(until=)``).
        """
        act = self._act_sorted
        extra = self._extra
        while True:
            idx = self._act_idx
            if idx < len(act):
                if extra and extra[0] < act[idx]:
                    entry = extra[0]
                    from_extra = True
                else:
                    entry = act[idx]
                    from_extra = False
            elif extra:
                entry = extra[0]
                from_extra = True
            else:
                if not self._activate():
                    return None
                act = self._act_sorted
                continue
            payload = entry[3]
            if payload._seq != entry[2]:
                if from_extra:
                    heapq.heappop(extra)
                else:
                    self._act_idx = idx + 1
                self._dead -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            if from_extra:
                heapq.heappop(extra)
            else:
                self._act_idx = idx + 1
            payload._cq = None
            return entry

    def peek(self) -> Optional[Entry]:
        """Return the earliest live entry without consuming it.

        Cancelled entries encountered on the way are consumed (they
        would be skipped by the next pop anyway).
        """
        act = self._act_sorted
        extra = self._extra
        while True:
            idx = self._act_idx
            if idx < len(act):
                if extra and extra[0] < act[idx]:
                    entry = extra[0]
                    from_extra = True
                else:
                    entry = act[idx]
                    from_extra = False
            elif extra:
                entry = extra[0]
                from_extra = True
            else:
                if not self._activate():
                    return None
                act = self._act_sorted
                continue
            if entry[3]._seq != entry[2]:
                if from_extra:
                    heapq.heappop(extra)
                else:
                    self._act_idx = idx + 1
                self._dead -= 1
                continue
            return entry

