"""``ipc_realtime``: the real ``IpcMonitor`` thread on real clocks.

Four ``IpcSegment``s over in-process ``SpscRingBuffer``s, one monitor
thread.  An open-loop producer on the main thread posts one start event
per activation at a fixed wall-clock rate (round-robin over the
segments) and, ``END_AFTER_NS`` later, the end event -- except for a
seeded share of activations (the same number for every seed), whose end
it withholds: those must raise exceptions.  Every timing is taken from
when the event was *due*, so a stalled producer shows as lag instead of
hiding it.  Two threads: the producer and the monitor.
"""

from __future__ import annotations

import heapq
import threading
import time

import numpy as np

from repro.ipc import IpcMonitor, IpcSegment, SpscRingBuffer

from perfbench.harness import Rep, Verdict

SEGMENTS = 4
RATE_HZ = 1000
DEADLINE_NS = 20_000_000
END_AFTER_NS = 1_000_000
LATE_SHARE = 0.10
#: An end posted less than this before the deadline (after a producer
#: stall) may legitimately raise; one posted earlier must not.
MARGIN_NS = 2_000_000
CAPACITY = 1024
#: (activations per rep) by size.
SIZES = {"standard": 1000, "tiny": 200}


class IpcSystem:
    """Rings, segments, monitor and the seeded event schedule."""

    def __init__(self, workload: "IpcRealtime"):
        self.workload = workload
        size = SpscRingBuffer.required_size(CAPACITY)
        self.segments = []
        for i in range(SEGMENTS):
            start = SpscRingBuffer(bytearray(size), CAPACITY, initialize=True)
            end = SpscRingBuffer(bytearray(size), CAPACITY, initialize=True)
            self.segments.append(IpcSegment(f"seg{i}", DEADLINE_NS,
                                            start, end))
        self.exceptions = []
        self.monitor = IpcMonitor(self.segments, on_exception=self._on_exc)
        n = workload.n_activations
        rng = np.random.default_rng(workload.seed)
        self.late = set(rng.choice(n, round(LATE_SHARE * n),
                                   replace=False).tolist())
        period = 1_000_000_000 // RATE_HZ
        #: (offset_ns, kind, activation); kind 0 = start, 1 = end.
        events = [(a * period, 0, a) for a in range(n)]
        events += [(a * period + END_AFTER_NS, 1, a)
                   for a in range(n) if a not in self.late]
        heapq.heapify(events)
        self.schedule = [heapq.heappop(events) for _ in range(len(events))]
        self.epoch_ns = 0
        self.lag_us = []
        self.post_us = []
        #: activation -> monotonic ns around its start and end posts.
        self.started_ns = {}
        self.ended_ns = {}

    def _on_exc(self, name: str, activation: int, _late_ns: int) -> None:
        self.exceptions.append((activation, time.monotonic_ns()))

    def drive(self) -> None:
        """Post every scheduled event at its due time, then wait for the
        last deadline to pass and stop the monitor."""
        segments = self.segments
        semaphore = self.monitor.semaphore
        monotonic = time.monotonic_ns
        post_start_ns = {}
        self.monitor.start()
        try:
            self.epoch_ns = epoch = monotonic() + 2_000_000
            for offset, kind, activation in self.schedule:
                due = epoch + offset
                wait = due - monotonic()
                if wait > 0:
                    time.sleep(wait / 1e9)
                self.lag_us.append((monotonic() - due) / 1e3)
                segment = segments[activation % SEGMENTS]
                if kind == 0:
                    self.started_ns[activation] = monotonic()
                    post_start_ns[activation] = segment.post_start(
                        activation, semaphore)
                else:
                    cost = segment.post_end(activation)
                    self.ended_ns[activation] = monotonic()
                    self.post_us.append((post_start_ns.pop(activation)
                                         + cost) / 1e3)
            # Let the last withheld activation's deadline expire.
            last_due = epoch + self.schedule[-1][0]
            time.sleep(max(0, last_due + DEADLINE_NS + 5_000_000
                           - monotonic()) / 1e9)
        finally:
            self.monitor.stop()

    def overshoot_us(self):
        """Exception callback time minus the due-time deadline."""
        period = 1_000_000_000 // RATE_HZ
        return [(at - (self.epoch_ns + a * period + DEADLINE_NS)) / 1e3
                for a, at in self.exceptions]


class IpcRealtime:
    name = "ipc_realtime"
    open_loop = True

    def __init__(self, seed: int, size: str = "standard"):
        self.seed = seed
        self.size = size
        self.n_activations = SIZES[size]

    def setup(self):
        return IpcSystem(self)

    def run(self, system) -> Rep:
        t0 = time.perf_counter()
        system.drive()
        seconds = time.perf_counter() - t0
        stats = system.monitor.stats
        return Rep(
            ops=self.n_activations, seconds=seconds,
            op_us=list(system.post_us),
            samples={
                "monitor_latency_us": [x / 1e3
                                       for x in stats.monitor_latencies],
                "detection_overshoot_us": system.overshoot_us(),
                "exec_us": [x / 1e3 for x in stats.execution_times],
                "generator_lag_us": list(system.lag_us),
            },
        )

    def outputs(self, system) -> dict:
        return {"exceptions": sorted(a for a, _at in system.exceptions)}

    def verify(self, system, outputs=None) -> Verdict:
        """Every withheld activation raises; no activation whose end was
        posted with margin before its deadline raises; no ring drops."""
        outputs = outputs if outputs is not None else self.outputs(system)
        raised = set(outputs["exceptions"])
        missed = len(system.late - raised)
        on_time = {
            a for a, end in system.ended_ns.items()
            if end - system.started_ns[a] < DEADLINE_NS - MARGIN_NS
        }
        spurious = len(raised & on_time)
        duplicate = len(outputs["exceptions"]) - len(raised)
        dropped = sum(s.dropped_events for s in system.segments)
        verdict = Verdict(attempted=self.n_activations,
                          failed=missed + spurious + duplicate + dropped)
        verdict.check("late_activations_raise", missed == 0,
                      f"{missed} withheld activations raised nothing")
        verdict.check("no_spurious_exception", spurious + duplicate == 0,
                      f"{spurious} spurious, {duplicate} duplicate")
        verdict.check("no_ring_drops", dropped == 0,
                      f"{dropped} ring-buffer drops")
        verdict.check("monitor_stopped",
                      threading.active_count() == 1,
                      "monitor thread still alive")
        return verdict

    def layer_counts(self, system) -> dict:
        stats = system.monitor.stats
        return {
            "ipc.monitor.wakeups": stats.wakeups,
            "ipc.ring.dropped": sum(s.dropped_events
                                    for s in system.segments),
            "ipc.stats_entries": len(stats.monitor_latencies)
            + len(stats.execution_times),
        }
