"""The telemetry service: queue -> store -> alert engine, one object.

:class:`TelemetryService` is the single-process reference deployment of
the subsystem: producers call :meth:`ingest` (or :meth:`ingest_many`),
an explicit :meth:`pump` drains the bounded queue into the sharded
store and feeds the alert engine, and :meth:`poll` runs the time-based
rules (heartbeat, queue health).  Everything is deterministic given the
record stream -- no wall clock is read anywhere -- which is what lets
the fault campaign assert byte-identical alert logs across serial and
parallel runs.

The conservation law every caller may assert (and the CLI does):

    offered == applied + dropped + pending

i.e. **no silent drops** -- see :meth:`accounting_ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

from repro.telemetry.alerts import AlertEngine, AlertLog, AlertPolicy
from repro.telemetry.batch import RecordBatch
from repro.telemetry.pipeline import DEFAULT_CAPACITY, IngestQueue
from repro.telemetry.records import TelemetryRecord
from repro.telemetry.store import ChainStateStore, StoreConfig

@dataclass
class ServiceConfig:
    """All knobs of one service instance."""

    queue_capacity: int = DEFAULT_CAPACITY
    store: StoreConfig = field(default_factory=StoreConfig)
    alerts: AlertPolicy = field(default_factory=AlertPolicy)
    #: Pump automatically whenever the queue holds this many records
    #: (None: only explicit pump() calls drain the queue).
    auto_pump_batch: Optional[int] = 4096

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.auto_pump_batch is not None and self.auto_pump_batch < 1:
            raise ValueError("auto_pump_batch must be >= 1 or None")


class TelemetryService:
    """Bounded ingestion into a sharded chain-state store with alerting."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.queue = IngestQueue(self.config.queue_capacity)
        self.store = ChainStateStore(self.config.store)
        self.engine = AlertEngine(self.config.alerts)
        #: Highest record timestamp applied so far (data time).
        self.watermark_ns = 0
        #: Records applied through *this service's* queue.  Distinct
        #: from ``store.applied``, which is a lifetime counter that
        #: survives snapshot/restore: the accounting law below must
        #: balance against this queue, not against a previous life.
        self.applied_here = 0

    # ------------------------------------------------------------------
    @property
    def alert_log(self) -> AlertLog:
        return self.engine.log

    # ------------------------------------------------------------------
    def ingest(self, record: TelemetryRecord) -> bool:
        """Offer one record; False when it was dropped (and counted)."""
        accepted = self.queue.offer(record)
        batch = self.config.auto_pump_batch
        if batch is not None and len(self.queue) >= batch:
            self.pump(batch)
        return accepted

    def ingest_many(self, records: Iterable[TelemetryRecord]) -> int:
        """Offer a stream; returns how many were accepted."""
        accepted = 0
        for record in records:
            if self.ingest(record):
                accepted += 1
        return accepted

    def ingest_batch(
        self, records: Union[RecordBatch, List[TelemetryRecord]]
    ) -> int:
        """Offer a whole batch at once; returns how many were accepted.

        The bulk analogue of :meth:`ingest_many` with identical
        conservation accounting (offered == applied + dropped +
        pending always holds).  A list is bulk-offered to the queue and
        drained by the next pump; a :class:`RecordBatch` stays columnar
        end to end -- it is applied synchronously after flushing any
        queued records (so record order is preserved), with the
        bounded-queue capacity still governing acceptance.  Chunking
        differs from per-record :meth:`ingest` (which pumps mid-stream
        at ``auto_pump_batch``), but the applied record stream, and
        hence store state and alert log, are identical whenever the
        queue never saturates.
        """
        if isinstance(records, RecordBatch):
            queue = self.queue
            if queue.depth:
                self.pump()
            n = len(records)
            room = queue.capacity
            accepted = n if n <= room else room
            queue.offered += n
            queue.accepted += accepted
            if accepted < n:
                queue.dropped_by_reason["queue_full"] = (
                    queue.dropped_by_reason.get("queue_full", 0)
                    + (n - accepted)
                )
                records = records.slice(accepted)
            if accepted > queue.high_watermark:
                queue.high_watermark = accepted
            queue.drained += accepted
            if accepted:
                self._apply_columns(records)
            return accepted
        accepted = self.queue.offer_many(records)
        batch = self.config.auto_pump_batch
        if batch is not None and len(self.queue) >= batch:
            self.pump()
        return accepted

    def _apply_columns(self, columns: RecordBatch) -> None:
        """Apply a columnar batch and feed flagged facts to alerting."""
        outcomes = self.store.apply_batch(columns)
        watermark = max(columns.timestamps)
        if watermark > self.watermark_ns:
            self.watermark_ns = watermark
        observe = self.engine.observe
        for outcome in outcomes:
            observe(outcome)
        self.applied_here += len(columns)

    def pump(self, max_records: Optional[int] = None) -> int:
        """Drain up to *max_records* into the store; returns the count.

        The drained records go through the columnar ``apply_batch``
        path; the per-record ``ChainStateStore.apply`` leaves the store,
        watermark and alert log byte-identical and is kept as the
        reference (:class:`repro.bench.reference.ScalarTelemetryService`).
        """
        batch = self.queue.drain(max_records)
        if not batch:
            return 0
        self._apply_columns(RecordBatch.from_records(batch))
        return len(batch)

    def poll(self, now_ns: Optional[int] = None) -> int:
        """Run the time-based rules at *now_ns* (default: the data
        watermark -- correct for replay; a live deployment passes its
        clock)."""
        if now_ns is None:
            now_ns = self.watermark_ns
        return self.engine.poll(now_ns, self.store, self.queue)

    def drain(self) -> None:
        """Pump everything, then poll once at the final watermark."""
        self.pump()
        self.poll()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def applied(self) -> int:
        return self.applied_here

    @property
    def dropped(self) -> int:
        return self.queue.dropped

    @property
    def pending(self) -> int:
        return self.queue.depth

    def accounting_ok(self) -> bool:
        """No silent drops: offered == applied + dropped + pending."""
        return (
            self.queue.accounting_ok()
            and self.queue.offered
            == self.applied_here + self.queue.dropped + self.queue.depth
        )

    def stats(self) -> dict:
        """Counter snapshot for reports (plain types)."""
        return {
            "offered": self.queue.offered,
            "applied": self.applied_here,
            "dropped": self.queue.dropped,
            "pending": self.queue.depth,
            "accounting_ok": self.accounting_ok(),
            "keys": len(self.store),
            "sources": len(self.store.sources),
            "violations": self.store.total_violations(),
            "alerts": len(self.engine.log),
            "alerts_by_rule": self.engine.log.counts_by_rule(),
            "queue": self.queue.stats(),
        }

    # ------------------------------------------------------------------
    # Snapshot / restore (store state; the queue must be drained first)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Exact store snapshot.  Refuses while records are pending --
        a snapshot that silently forgot queued records would violate
        the accounting law on restore."""
        if self.queue.depth:
            raise RuntimeError(
                f"cannot snapshot with {self.queue.depth} records pending; "
                f"pump() first"
            )
        return self.store.snapshot()

    def restore(self, data: dict) -> None:
        """Replace the store with a snapshot's state."""
        self.store = ChainStateStore.restore(data)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TelemetryService applied={self.applied} "
            f"pending={self.pending} alerts={len(self.engine.log)}>"
        )
