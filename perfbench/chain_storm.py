"""``chain_storm``: many small two-segment chains on one monitor thread.

Each chain is built like ``examples/quickstart.py``: a sensor node
publishes a tiny sample every period over a ``Link`` to a worker node on
a shared 2-core compute ECU; the network hop is a ``SyncRemoteMonitor``
segment and the worker's processing a ``LocalSegmentRuntime`` segment,
all on one ``MonitorThread``.  A seeded script makes some activations
overrun the local ``d_mon`` and drops others on the link (the link's
public ``loss_filter`` hook), so the monitors' exception, recovery and
propagation paths do the work.  Half the chains recover, half propagate;
every chain has a ``ChainRuntime`` with (m,k) supervision.

There is no payload: the scheduler, kernel, DDS and monitors are what
the host spends its time on.  Batch job on virtual time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import (
    ChainRuntime,
    EventChain,
    LocalSegmentRuntime,
    MKConstraint,
    MonitorThread,
    PropagateAlways,
    RecoverAlways,
    SyncRemoteMonitor,
    TimeoutContext,
)
from repro.core.segments import local_segment, remote_segment
from repro.dds import DdsDomain, Topic
from repro.network import Link, NetworkStack
from repro.ros import Node
from repro.sim import Compute, Ecu, Simulator, msec, usec

from perfbench.harness import (
    Rep,
    Verdict,
    core_counts,
    digest_of,
    monitor_outputs,
)

PERIOD = msec(10)
D_MON_NET = msec(2)
D_MON_PROC = msec(3)
WORK_OK = usec(200)
WORK_OVERRUN = usec(3500)
#: Activations at the start and end of a rep that are never faulted:
#: a remote monitor has no arrival grid before its first sample.
GUARD = 2
#: Real latencies closer than this to ``d_mon`` are neither required
#: to raise nor forbidden from raising.
MARGIN = usec(500)
LOSS_SHARE = 0.05
OVERRUN_SHARE = 0.05

SIZES = {"standard": (24, 100), "tiny": (4, 20)}


@dataclass
class Sample:
    """The message one chain carries: its index and activation."""

    chain: int
    frame_index: int


def activation_of(sample):
    return getattr(sample.data, "frame_index", None)


class ChainStorm:
    name = "chain_storm"
    needs_truth_rep = True

    def __init__(self, seed: int, size: str = "standard"):
        self.seed = seed
        self.size = size
        self.n_chains, self.n_activations = SIZES[size]

    # ------------------------------------------------------------------
    def script(self):
        """``(chain, activation) -> "lost" | "overrun"`` for faulted ones.

        Every chain gets the same number of each fault at seeded
        positions, so the amount of work does not depend on the seed."""
        rng = np.random.default_rng(self.seed)
        eligible = np.arange(GUARD, self.n_activations - GUARD)
        n_lost = round(LOSS_SHARE * len(eligible))
        n_overrun = round(OVERRUN_SHARE * len(eligible))
        faults = {}
        for c in range(self.n_chains):
            picks = rng.choice(eligible, n_lost + n_overrun, replace=False)
            for i, n in enumerate(picks.tolist()):
                faults[(c, n)] = "lost" if i < n_lost else "overrun"
        return faults

    def setup(self, truth: bool = False):
        return StormSystem(self, self.script(), truth)

    def run(self, system) -> Rep:
        chunks = []
        t0 = time.perf_counter()
        system.drive(chunks)
        seconds = time.perf_counter() - t0
        return Rep(ops=self.n_chains * self.n_activations, seconds=seconds,
                   chunks=chunks)

    # ------------------------------------------------------------------
    def outputs(self, system) -> dict:
        """Monitor outputs: latencies, exceptions and chain reports."""
        return monitor_outputs(
            {m.segment.name: m for m in system.monitors()},
            {r.chain.name: r for r in system.runtimes}, self.last())

    def last(self) -> int:
        return self.n_activations - 1 - GUARD

    def verify(self, system, outputs=None) -> Verdict:
        """Scripted faults raise; on-time activations (with margin) do
        not.  Needs a system built with ``truth=True``."""
        outputs = outputs if outputs is not None else self.outputs(system)
        verdict = Verdict(attempted=0, failed=0)
        verdict.digest = digest_of(outputs)
        truth = system.truth
        silent = spurious = unraised = 0
        for c in range(self.n_chains):
            for kind, d_mon in (("net", D_MON_NET), ("proc", D_MON_PROC)):
                seg = f"c{c:02d}_{kind}"
                raised = {e[0] for e in outputs["segments"][seg]["exceptions"]}
                for n in range(GUARD, self.last() + 1):
                    start = truth.starts[seg].get(n)
                    if start is None:
                        continue  # never executed (upstream propagated)
                    verdict.attempted += 1
                    end = truth.ends[seg].get(n)
                    real = None if end is None else end - start
                    late = real is None or real > d_mon
                    on_time = real is not None and real < d_mon - MARGIN
                    if late and n not in raised:
                        silent += 1
                    elif on_time and n in raised:
                        spurious += 1
                    scripted = system.faults.get((c, n))
                    wanted = {"lost": "net", "overrun": "proc"}.get(scripted)
                    if wanted == kind and n not in raised:
                        unraised += 1
        verdict.failed = silent + spurious
        verdict.check("no_silent_violation", silent == 0,
                      f"{silent} true misses raised no exception")
        verdict.check("no_spurious_exception", spurious == 0,
                      f"{spurious} on-time activations raised")
        verdict.check("scripted_faults_raise", unraised == 0,
                      f"{unraised} scripted faults raised no exception")
        return verdict

    def layer_counts(self, system) -> dict:
        counts = core_counts(system.monitors(), system.runtimes,
                             self.n_chains * self.n_activations)
        counts["network.frames"] = system.link.stats.sent
        return counts


class Truth:
    """Global-time start/end tables per segment, from index-0 filters."""

    def __init__(self):
        self.starts = {}
        self.ends = {}

    def recorder(self, sim, start_table=None, end_table=None):
        def record(sample) -> bool:
            n = activation_of(sample)
            if n is not None:
                if start_table is not None:
                    start_table.setdefault(n, sim.now)
                if end_table is not None and not sample.recovered:
                    end_table.setdefault(n, sim.now)
            return True
        return record


class StormSystem:
    """The built deployment of one rep."""

    def __init__(self, workload: ChainStorm, faults: dict, truth: bool):
        self.workload = workload
        self.faults = faults
        sim = self.sim = Simulator(seed=workload.seed)
        sensor_ecu = Ecu(sim, "sensor", n_cores=2)
        compute_ecu = Ecu(sim, "compute", n_cores=2)
        domain = DdsDomain(sim, local_latency=usec(20))
        domain.register_stack(compute_ecu, NetworkStack(compute_ecu))
        self.link = Link(sim, "net", base_latency=usec(300))
        self.link.loss_filter = self._scripted_loss
        domain.add_link(sensor_ecu, compute_ecu, self.link)
        self.monitor_thread = MonitorThread(compute_ecu, priority=99)
        self.truth = Truth() if truth else None
        self.timers = []
        self.remote = []
        self.local = []
        self.runtimes = []
        mk = MKConstraint(2, 10)
        for c in range(workload.n_chains):
            self._build_chain(c, domain, sensor_ecu, compute_ecu, mk)

    def _scripted_loss(self, frame) -> bool:
        sample = frame.payload
        data = getattr(sample, "data", None)
        if not isinstance(data, Sample):
            return False
        return self.faults.get((data.chain, data.frame_index)) == "lost"

    def _build_chain(self, c, domain, sensor_ecu, compute_ecu, mk) -> None:
        sim = self.sim
        faults = self.faults
        sensor = Node(domain, sensor_ecu, f"sensor{c:02d}", priority=50)
        worker = Node(domain, compute_ecu, f"worker{c:02d}", priority=40)
        raw = Topic(f"raw{c:02d}", size_fn=lambda s: 256)
        out = Topic(f"out{c:02d}", size_fn=lambda s: 64)
        pub_raw = sensor.create_publisher(raw)
        pub_out = worker.create_publisher(out)

        def process(sample, c=c):
            n = sample.data.frame_index
            late = faults.get((c, n)) == "overrun"
            yield Compute(WORK_OVERRUN if late else WORK_OK)
            pub_out.publish(Sample(c, n))

        sub_raw = worker.create_subscription(raw, process)
        timer = sensor.create_timer(
            PERIOD, lambda i, c=c: pub_raw.publish(Sample(c, i))
        )
        self.timers.append(timer)

        seg_net = remote_segment(f"c{c:02d}_net", raw.name, "sensor",
                                 "compute", d_mon=D_MON_NET)
        seg_proc = local_segment(f"c{c:02d}_proc", "compute", raw.name,
                                 out.name, d_mon=D_MON_PROC)
        chain = EventChain(name=f"chain{c:02d}", segments=[seg_net, seg_proc],
                           period=PERIOD, budget_e2e=msec(8), mk=mk)
        runtime = ChainRuntime(chain)
        if c % 2 == 0:
            def handler_factory():
                return RecoverAlways(
                    lambda ctx, c=c: Sample(c, ctx.exception.activation)
                )
        else:
            handler_factory = PropagateAlways
        local = LocalSegmentRuntime(seg_proc, handler=handler_factory(),
                                    mk=mk, activation_fn=activation_of)
        self.monitor_thread.add_segment(local)
        local.attach_start(sub_raw.reader)
        local.attach_end_writer(pub_out.writer)
        local.reporters.append(runtime)
        remote = SyncRemoteMonitor(
            seg_net, sub_raw.reader, period=PERIOD,
            handler=handler_factory(), mk=mk,
            context=TimeoutContext.MONITOR_THREAD,
            monitor_thread=self.monitor_thread, next_local=local,
            activation_fn=activation_of,
        )
        remote.reporters.append(runtime)
        self.local.append(local)
        self.remote.append(remote)
        self.runtimes.append(runtime)

        if self.truth is not None:
            t = self.truth
            for name in (seg_net.name, seg_proc.name):
                t.starts[name] = {}
                t.ends[name] = {}
            pub_raw.writer.publish_filters.insert(
                0, t.recorder(sim, start_table=t.starts[seg_net.name]))
            sub_raw.reader.receive_filters.insert(
                0, t.recorder(sim, end_table=t.ends[seg_net.name]))
            # Appended: only samples the remote monitor let through (and
            # its recovery substitutes) start the processing segment.
            sub_raw.reader.receive_filters.append(
                t.recorder(sim, start_table=t.starts[seg_proc.name]))
            pub_out.writer.publish_filters.insert(
                0, t.recorder(sim, end_table=t.ends[seg_proc.name]))

    def monitors(self):
        return self.remote + self.local

    def drive(self, chunks) -> None:
        """Run every chain for the workload's activations, one period at
        a time, appending each period's host seconds to ``chunks``."""
        w = self.workload
        sim = self.sim
        # Stagger the chains' phases across the period.
        for c, timer in enumerate(self.timers):
            sim.schedule_at(c * PERIOD // w.n_chains, timer.start)
        stop_at = (w.n_activations - 1) * PERIOD + PERIOD // 2
        for timer in self.timers:
            sim.schedule_at(stop_at, timer.stop)
        for monitor in self.remote:
            sim.schedule_at(stop_at + D_MON_NET + PERIOD // 4, monitor.stop)
        clock = time.perf_counter
        horizon = stop_at + 3 * PERIOD
        for until in range(PERIOD, horizon + PERIOD, PERIOD):
            t0 = clock()
            sim.run(until=min(until, horizon))
            chunks.append(clock() - t0)
        for runtime in self.runtimes:
            runtime.advance_window(w.last())
