"""Local segment monitoring (paper Sec. IV-A).

One high-priority **monitor thread** per process/ECU supervises all
local segments whose end events occur there.  Instrumented DDS endpoint
code posts timestamps into per-segment **ring buffers** (one for start
events, one for end events) in shared memory and raises the monitor's
**semaphore** on start events only -- end events do not notify, saving a
context switch, because their processing is not time critical.

The monitor thread blocks in ``sem_timedwait`` with the timeout set to
the earliest pending deadline.  When it wakes it drains the buffers in a
*fixed segment order* (the cause of the ground-points skew in the
paper's Fig. 10), arms a timeout for every new start event, matches end
events against pending timeouts, and raises temporal exceptions for
expired ones.  After an exception, the corresponding late publication
(or late reception, for sink segments) is skipped via a shared counter
evaluated by the instrumented endpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.chain_runtime import ChainRuntime, Outcome
from repro.core.exceptions import (
    ExceptionContext,
    ExceptionHandler,
    PropagateAlways,
    TemporalException,
    handle_local_exception,
)
from repro.core.events import EventKind
from repro.core.segments import Segment, SegmentKind
from repro.core.weakly_hard import MissWindow, MKConstraint
from repro.dds.reader import DataReader
from repro.dds.topic import Sample, Topic
from repro.dds.writer import DataWriter
from repro.sim.calendar import CalendarQueue, CancelToken
from repro.sim.cpu import Ecu
from repro.sim.kernel import usec
from repro.sim.sync import Semaphore
from repro.sim.threads import Compute, WaitSem
from repro.sim.workload import ExecutionTimeModel


class EventRingBuffer:
    """A bounded wait-free-style event buffer with overflow counting.

    Models the paper's shared-memory ring buffers.  Capacity overruns
    are counted and drop the *newest* event (a correctly sized buffer
    never overflows; the counter is a deployment diagnostic).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[tuple] = deque()
        self.overflows = 0
        self.posted = 0

    def post(self, item: tuple) -> bool:
        """Append *item*; False (and counted) if the buffer is full."""
        if len(self._items) >= self.capacity:
            self.overflows += 1
            return False
        self._items.append(item)
        self.posted += 1
        return True

    def drain(self) -> List[tuple]:
        """Pop and return everything currently buffered (FIFO)."""
        items = list(self._items)
        self._items.clear()
        return items

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class MonitorCosts:
    """CPU work charged to the monitor thread per action (ns)."""

    start_event: int = usec(2)
    end_event: int = usec(1)
    exception_detect: int = usec(5)
    remote_entry: int = usec(3)


@dataclass
class _Pending:
    start_ts: int
    deadline: int
    data: Any = None
    #: Handle of this activation's entry in the monitor's timeout queue;
    #: cancelled eagerly when the activation completes (or is replaced),
    #: so stale entries no longer linger until their deadline surfaces.
    token: Optional[CancelToken] = None


ActivationFn = Callable[[Sample], Optional[int]]


class SkipGate:
    """The shared skip counter evaluated by the publisher (Sec. IV-A).

    After an exception the segment's late real end event (publication or
    reception) must be suppressed.  When two segments share one end
    endpoint -- the paper's fusion publishes ``points_fused`` as the end
    event of both the front- and rear-started local segments -- the
    suppression must not double up, so one gate is shared and tracks
    *which activations* to skip (falling back to a plain counter when no
    activation extractor is available).
    """

    def __init__(self, activation_fn: Optional[ActivationFn] = None):
        self.activation_fn = activation_fn
        self._activations: set = set()
        self._count = 0
        self.suppressed = 0
        self._installed: set = set()

    def add(self, activation: Optional[int]) -> None:
        """Mark the (next) end event of *activation* for suppression."""
        if activation is not None and self.activation_fn is not None:
            self._activations.add(activation)
        else:
            self._count += 1

    def _filter(self, sample: Sample) -> bool:
        if sample.recovered:
            return True
        if self.activation_fn is not None:
            n = self.activation_fn(sample)
            if n is not None and n in self._activations:
                self._activations.discard(n)
                self.suppressed += 1
                return False
        if self._count > 0:
            self._count -= 1
            self.suppressed += 1
            return False
        return True

    def install_writer(self, writer: DataWriter) -> None:
        """Attach the gate's filter to *writer* (idempotent)."""
        if id(writer) not in self._installed:
            self._installed.add(id(writer))
            writer.publish_filters.append(self._filter)

    def install_reader(self, reader: DataReader) -> None:
        """Attach the gate's filter to *reader* (idempotent)."""
        if id(reader) not in self._installed:
            self._installed.add(id(reader))
            reader.receive_filters.append(self._filter)


class LocalSegmentRuntime:
    """Monitoring state of one local segment, owned by a MonitorThread.

    Parameters
    ----------
    segment:
        The segment descriptor; ``d_mon`` must be assigned.
    handler:
        Application exception-handling policy (Algorithm 2).
    mk:
        Weakly-hard constraint used for the handler's miss count m.
    activation_fn:
        Extracts the activation index n from a sample; ``None`` falls
        back to arrival counting (valid under in-order delivery).
    start_overhead / end_overhead:
        Models of the instrumentation cost of posting events, sampled
        and recorded for the Fig. 11 statistics.
    """

    def __init__(
        self,
        segment: Segment,
        handler: Optional[ExceptionHandler] = None,
        mk: MKConstraint = MKConstraint(0, 1),
        activation_fn: Optional[ActivationFn] = None,
        start_overhead: Optional[ExecutionTimeModel] = None,
        end_overhead: Optional[ExecutionTimeModel] = None,
        buffer_capacity: int = 256,
        skip_gate: Optional[SkipGate] = None,
    ):
        if segment.kind is not SegmentKind.LOCAL:
            raise ValueError(f"{segment.name} is not a local segment")
        if segment.d_mon is None:
            raise ValueError(f"{segment.name} has no monitored deadline assigned")
        self.segment = segment
        self.handler = handler or PropagateAlways()
        self.window = MissWindow(mk)
        self.activation_fn = activation_fn
        self.start_overhead = start_overhead
        self.end_overhead = end_overhead
        self.start_buffer = EventRingBuffer(buffer_capacity)
        self.end_buffer = EventRingBuffer(buffer_capacity)
        self.pending: Dict[int, _Pending] = {}
        self._start_count = 0
        self._end_count = 0
        self.skip_gate = skip_gate or SkipGate(activation_fn=activation_fn)
        self.last_good_data: Any = None
        self.monitor: Optional["MonitorThread"] = None
        # Recovery outputs (exactly one of these is wired by attach_end_*).
        self._recovery_writer: Optional[DataWriter] = None
        self._recovery_reader: Optional[DataReader] = None
        self._end_topic: Optional[Topic] = None
        # Measurements.
        self.latencies: List[Tuple[int, int, Outcome]] = []  # (n, latency, outcome)
        self.exceptions: List[TemporalException] = []
        self.stale_end_events = 0
        self.start_overhead_samples: List[int] = []
        self.end_overhead_samples: List[int] = []
        self.monitor_latency_samples: List[int] = []
        self.reporters: List[ChainRuntime] = []
        #: Telemetry emission hooks (duck-typed, like ``reporters``; see
        #: :class:`repro.telemetry.emitter.MonitorTelemetrySink`).  The
        #: hot path pays one falsy check per event when empty.
        self.telemetry_sinks: List = []
        #: Span contexts of pending activations (span tracing only):
        #: captured at the start event so an exception span can parent
        #: to the causal chain that started the activation.
        self._span_ctx: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Instrumentation attachment
    # ------------------------------------------------------------------
    def attach_start(self, reader: DataReader) -> None:
        """Install the start-event hook on the reader where the segment
        begins (reception of the start topic by the process)."""
        reader.on_receive_hooks.append(self._on_start_sample)

    def attach_end_writer(self, writer: DataWriter) -> None:
        """Install end-event hook + skip filter on the end publisher."""
        self._recovery_writer = writer
        self.skip_gate.install_writer(writer)
        writer.on_publish_hooks.append(self._on_end_sample)

    def attach_end_reader(self, reader: DataReader) -> None:
        """Install end-event hook + skip filter on the end subscriber
        (sink segments, like the rviz2 end of the paper's evaluation)."""
        self._recovery_reader = reader
        self._end_topic = reader.topic
        self.skip_gate.install_reader(reader)
        reader.on_receive_hooks.append(self._on_end_sample)

    # ------------------------------------------------------------------
    # Endpoint-context callbacks (zero simulated time)
    # ------------------------------------------------------------------
    def _activation_of(self, sample: Sample, counter: str) -> int:
        if self.activation_fn is not None:
            n = self.activation_fn(sample)
            if n is not None:
                return n
        if counter == "start":
            n = self._start_count
        else:
            n = self._end_count
        return n

    def _on_start_sample(self, sample: Sample) -> None:
        monitor = self._require_monitor()
        n = self._activation_of(sample, "start")
        self._start_count += 1
        ts = monitor.ecu.now()
        if self.start_overhead is not None:
            overhead = self.start_overhead.sample(
                monitor.sim.rng(f"monitor-overhead:{self.segment.name}:start")
            )
            self.start_overhead_samples.append(overhead)
        self.start_buffer.post((n, ts, sample.data))
        spans = monitor.sim.spans
        if spans is not None:
            # Runs inside the start-event delivery: the ambient context
            # is the transport span that delivered the start sample.
            self._span_ctx[n] = spans.current
        monitor.sim.emit_trace(
            "monitor.start_event", segment=self.segment.name, n=n, ts=ts
        )
        monitor.sem.post()

    def _on_end_sample(self, sample: Sample) -> None:
        monitor = self._require_monitor()
        n = self._activation_of(sample, "end")
        self._end_count += 1
        ts = monitor.ecu.now()
        if self.end_overhead is not None:
            overhead = self.end_overhead.sample(
                monitor.sim.rng(f"monitor-overhead:{self.segment.name}:end")
            )
            self.end_overhead_samples.append(overhead)
        self.end_buffer.post((n, ts))
        monitor.sim.emit_trace(
            "monitor.end_event", segment=self.segment.name, n=n, ts=ts
        )
        # Deliberately no sem.post(): end events are not time critical.

    def post_error_propagation(self, activation: int) -> None:
        """Consume *activation* as an upstream-propagated miss.

        Called (via the monitor) when the preceding remote segment
        propagates its exception instead of issuing a start event.
        """
        self._start_count += 1
        monitor = self.monitor
        if monitor is not None and monitor.sim.spans is not None:
            # Error-propagation event (Algorithm 1 line 7): an instant
            # span under the ambient (remote exception) context.
            monitor.sim.spans.instant(
                "monitor.propagation",
                "exception",
                segment=self.segment.name,
                n=activation,
            )
        for runtime in self.reporters:
            runtime.report(self.segment.name, activation, Outcome.SKIPPED)
        if self.telemetry_sinks:
            ts = self.monitor.ecu.now() if self.monitor is not None else 0
            for sink in self.telemetry_sinks:
                sink.segment_event(
                    self.segment.name, activation, Outcome.SKIPPED.value,
                    None, ts,
                )

    # ------------------------------------------------------------------
    # Monitor-thread-context operations
    # ------------------------------------------------------------------
    def _require_monitor(self) -> "MonitorThread":
        if self.monitor is None:
            raise RuntimeError(
                f"segment {self.segment.name} is not attached to a monitor thread"
            )
        return self.monitor

    def _arm(self, n: int, ts: int, data: Any) -> None:
        monitor = self._require_monitor()
        assert self.segment.d_mon is not None
        deadline = ts + self.segment.d_mon
        old = self.pending.get(n)
        if old is not None and old.token is not None:
            old.token.cancel()
        self.pending[n] = _Pending(start_ts=ts, deadline=deadline, data=data)
        monitor._push_timeout(deadline, self, n)
        self.monitor_latency_samples.append(monitor.ecu.now() - ts)

    def _complete(self, n: int, end_ts: int) -> None:
        entry = self.pending.pop(n, None)
        if entry is None:
            self.stale_end_events += 1
            return
        if entry.token is not None:
            entry.token.cancel()
        if self._span_ctx:
            self._span_ctx.pop(n, None)
        latency = end_ts - entry.start_ts
        # Remember the input of the last successful activation: recovery
        # handlers commonly fall back to it.
        self.last_good_data = entry.data
        self.window.record(False)
        self.latencies.append((n, latency, Outcome.OK))
        for runtime in self.reporters:
            runtime.report(self.segment.name, n, Outcome.OK, latency=latency)
        if self.telemetry_sinks:
            for sink in self.telemetry_sinks:
                sink.segment_event(
                    self.segment.name, n, Outcome.OK.value, latency, end_ts
                )

    def _raise_exception(
        self, n: int, detected_at: int, span_begin: Optional[int] = None
    ) -> bool:
        """Run Algorithm 2 for activation *n*; True if recovered."""
        monitor = self._require_monitor()
        entry = self.pending.pop(n)
        if entry.token is not None:
            entry.token.cancel()
        exception = TemporalException(
            segment=self.segment,
            activation=n,
            deadline=entry.deadline,
            raised_at=detected_at,
        )
        self.exceptions.append(exception)
        context = ExceptionContext(
            exception=exception,
            misses=self.window.misses_in_window + 1,
            start_data=entry.data,
            last_good_data=self.last_good_data,
        )
        spans = monitor.sim.spans
        exc_span = None
        prev_ctx = None
        if spans is not None:
            # The exception-handling span (Algorithm 2): parented to the
            # causal chain that delivered the start event, anchored at
            # the instant the monitor began handling the expiry.
            parent = self._span_ctx.pop(n, None)
            exc_span = spans.begin(
                f"monitor.exception:{self.segment.name}",
                "exception",
                parent=parent if parent is not None else spans.current,
                start=span_begin,
                segment=self.segment.name,
                n=n,
            )
            prev_ctx = spans.current
            spans.current = exc_span.context
        recovered = handle_local_exception(
            self.handler, context, self._publish_recovery
        )
        if exc_span is not None:
            spans.current = prev_ctx
        # Skip the late real end event and its publication/reception.
        self.skip_gate.add(n)
        handled_at = monitor.ecu.now()
        latency = handled_at - entry.start_ts
        outcome = Outcome.RECOVERED if recovered else Outcome.MISS
        self.window.record(not recovered)
        self.latencies.append((n, latency, outcome))
        for runtime in self.reporters:
            runtime.report(
                self.segment.name,
                n,
                outcome,
                latency=latency,
                detection_latency=detected_at - entry.deadline,
            )
            runtime.report_exception(exception)
        if self.telemetry_sinks:
            for sink in self.telemetry_sinks:
                sink.segment_event(
                    self.segment.name, n, outcome.value, latency, handled_at
                )
                sink.exception_event(
                    self.segment.name, n, detected_at - entry.deadline,
                    detected_at,
                )
        monitor.sim.emit_trace(
            "monitor.exception",
            segment=self.segment.name,
            n=n,
            recovered=recovered,
            detection_latency=detected_at - entry.deadline,
        )
        if exc_span is not None:
            exc_span.attrs["recovered"] = recovered
            exc_span.attrs["detection_latency"] = detected_at - entry.deadline
            spans.end(exc_span)
        return recovered

    def _publish_recovery(self, data: Any) -> None:
        if self._recovery_writer is not None:
            self._recovery_writer.write(data, recovered=True)
            return
        if self._recovery_reader is not None and self._end_topic is not None:
            monitor = self._require_monitor()
            sample = Sample(
                topic=self._end_topic,
                data=data,
                source_timestamp=monitor.ecu.now(),
                sequence_number=-1,
                recovered=True,
            )
            self._recovery_reader.issue_receive(sample)
            return
        raise RuntimeError(
            f"segment {self.segment.name}: recovery requested but no end "
            f"endpoint attached"
        )

    def next_expiry(self) -> Optional[int]:
        """Earliest pending deadline of this segment, or None."""
        if not self.pending:
            return None
        return min(entry.deadline for entry in self.pending.values())


class MonitorThread:
    """The high-priority monitor thread of one ECU/process.

    Parameters
    ----------
    ecu:
        Hosting ECU; the thread runs at *priority* (highest, per paper).
    priority:
        Scheduling priority; must exceed every application/middleware
        thread for bounded reaction times.
    costs:
        Per-action CPU costs charged to the thread.
    """

    def __init__(
        self,
        ecu: Ecu,
        name: str = "monitor",
        priority: int = 99,
        costs: Optional[MonitorCosts] = None,
    ):
        self.ecu = ecu
        self.sim = ecu.sim
        self.name = name
        self.costs = costs or MonitorCosts()
        self.sem = Semaphore(self.sim, name=f"{ecu.name}.{name}.sem")
        self.segments: List[LocalSegmentRuntime] = []
        # Timeout queue: cancelled entries are compacted eagerly instead
        # of leaking until their deadline would have surfaced.
        self._timeout_queue = CalendarQueue()
        self._timeout_seq = 0
        self._remote_queue: Deque[Callable[[], None]] = deque()
        self.wakeups = 0
        self.exceptions_raised = 0
        self.thread = ecu.spawn(name, self._body, priority=priority)

    # ------------------------------------------------------------------
    def add_segment(self, runtime: LocalSegmentRuntime) -> LocalSegmentRuntime:
        """Register a local segment; buffer processing follows this order."""
        runtime.monitor = self
        self.segments.append(runtime)
        return runtime

    def forward(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the monitor thread (remote-timeout forwarding).

        This is the paper's Sec. V-B proposal: program timeouts in the
        middleware but execute the handling at monitor priority.
        """
        self._remote_queue.append(fn)
        self.sem.post()

    def _push_timeout(
        self, deadline: int, runtime: LocalSegmentRuntime, n: int
    ) -> None:
        token = CancelToken((runtime, n))
        entry = runtime.pending.get(n)
        if entry is not None:
            entry.token = token
        seq = self._timeout_seq
        self._timeout_seq = seq + 1
        self._timeout_queue.push(deadline, 0, seq, token)

    def _next_expiry(self) -> Optional[int]:
        entry = self._timeout_queue.peek()
        return None if entry is None else entry[0]

    # ------------------------------------------------------------------
    def _body(self, _thread):
        while True:
            next_expiry = self._next_expiry()
            if next_expiry is None:
                timeout = None
            else:
                timeout = max(0, next_expiry - self.ecu.now())
            yield WaitSem(self.sem, timeout=timeout)
            self.wakeups += 1
            # 1) Remote timeout forwards (Sec. V-B path).
            while self._remote_queue:
                fn = self._remote_queue.popleft()
                if self.costs.remote_entry > 0:
                    yield Compute(self.costs.remote_entry)
                fn()
            # 2) Drain buffers in fixed segment order.
            for runtime in self.segments:
                for n, ts, data in runtime.start_buffer.drain():
                    if self.costs.start_event > 0:
                        yield Compute(self.costs.start_event)
                    runtime._arm(n, ts, data)
                for n, ts in runtime.end_buffer.drain():
                    if self.costs.end_event > 0:
                        yield Compute(self.costs.end_event)
                    runtime._complete(n, ts)
            # 3) Raise exceptions for expired timeouts, earliest first.
            while True:
                expiry = self._next_expiry()
                if expiry is None or expiry > self.ecu.now():
                    break
                popped = self._timeout_queue.pop()
                assert popped is not None  # peek just saw a live entry
                runtime, n = popped[3].data
                # Last-moment check: the end event may have been posted
                # while we were processing other segments.
                for end_n, end_ts in runtime.end_buffer.drain():
                    if self.costs.end_event > 0:
                        yield Compute(self.costs.end_event)
                    runtime._complete(end_n, end_ts)
                if n not in runtime.pending:
                    continue
                # Anchor the exception span at the instant the monitor
                # started reacting, before detection/handler CPU costs.
                span_begin = None if self.sim.spans is None else self.sim.now
                if self.costs.exception_detect > 0:
                    yield Compute(self.costs.exception_detect)
                if runtime.handler.cost_ns > 0:
                    yield Compute(runtime.handler.cost_ns)
                detected_at = self.ecu.now()
                runtime._raise_exception(n, detected_at, span_begin=span_begin)
                self.exceptions_raised += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MonitorThread {self.ecu.name}.{self.name} "
            f"segments={[r.segment.name for r in self.segments]}>"
        )
