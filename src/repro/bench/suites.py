"""The benchmark suites: hot-path microbenches + end-to-end layers.

Two suites are defined:

- ``kernel`` (``BENCH_kernel.json``) -- microbenchmarks of the
  simulation substrate itself: kernel event dispatch, cancellation
  sweeps, scheduler context switches and preemption, timer re-arming,
  and a full DDS publish -> executor -> callback round trip.
- ``e2e`` (``BENCH_e2e.json``) -- per-layer costs of the paper
  workloads: the perception stack with and without monitoring (their
  difference is the monitor bookkeeping overhead), the vectorized
  perception numerics, the budgeting CSP solvers, and one fault-campaign
  scenario end to end.

Every benchmark is deterministic (fixed seeds) so timings are
attributable to code changes, not workload drift.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import THROUGHPUT_FLOORS, BenchResult, run_bench

#: name -> (factory kwargs) registries, filled below.
KERNEL_SUITE = "kernel"
E2E_SUITE = "e2e"


# ----------------------------------------------------------------------
# kernel suite
# ----------------------------------------------------------------------
def bench_kernel_dispatch() -> int:
    """Schedule-and-fire cost of bare kernel events."""
    from repro.sim import Simulator

    sim = Simulator()
    callback = (lambda: None)
    for i in range(5000):
        sim.schedule_at(i, callback)
    return sim.run()


def bench_kernel_cancel_sweep() -> int:
    """Mode-change storm: repeated mass cancel + rearm sweeps.

    Each sweep cancels a quarter of the armed events outright and
    rearms the survivors at a later deadline -- the pattern a
    NORMAL->DEGRADED transition produces when deadline monitors are
    torn down and re-armed en masse.  The reference heap kernel pays a
    lazy O(log n) pop for every dead entry plus a fresh handle per
    rearm; the calendar queue retires dead entries in bulk compactions
    and rearms in place.  Units are queue operations (schedule, cancel,
    rearm, fire).
    """
    from repro.sim import Simulator

    return _cancel_sweep(Simulator())


def bench_kernel_cancel_sweep_heap() -> int:
    """``kernel_cancel_sweep`` on the reference heap kernel."""
    from repro.bench.reference import HeapSimulator

    return _cancel_sweep(HeapSimulator())


def _cancel_sweep(sim) -> int:
    callback = (lambda: None)
    n = 4000
    sweeps = 8
    horizon = 5_000_000
    events = [sim.schedule_at(horizon + i, callback) for i in range(n)]
    ops = n
    for sweep in range(2, sweeps + 2):
        base = horizon * sweep
        survivors = []
        for j, event in enumerate(events):
            if j % 4 == 0:
                event.cancel()
            else:
                survivors.append(sim.reschedule(event, base + j))
        ops += len(events)
        events = survivors
    return ops + sim.run()


def bench_timer_rearm() -> int:
    """Deadline-QoS style re-arming: every start cancels the last."""
    from repro.sim import Simulator

    return _timer_rearm(Simulator())


def bench_timer_rearm_heap() -> int:
    """``timer_rearm`` on the reference heap kernel."""
    from repro.bench.reference import HeapSimulator

    return _timer_rearm(HeapSimulator())


def _timer_rearm(sim) -> int:
    from repro.sim.timers import Timer

    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    n = 3000
    for i in range(n):
        timer.start(100 + i)
    sim.run()
    return n


def bench_scheduler_pingpong() -> int:
    """Two threads ping-ponging via semaphores (context switches)."""
    from repro.sim import MulticoreScheduler, Semaphore, Simulator, WaitSem

    sim = Simulator()
    sched = MulticoreScheduler(sim, n_cores=1)
    a_sem = Semaphore(sim, initial=1)
    b_sem = Semaphore(sim)
    rounds = 500

    def ping(_):
        for _i in range(rounds):
            yield WaitSem(a_sem)
            b_sem.post()

    def pong(_):
        for _i in range(rounds):
            yield WaitSem(b_sem)
            a_sem.post()

    sched.spawn("ping", ping, priority=2)
    sched.spawn("pong", pong, priority=1)
    sim.run()
    return 2 * rounds


def bench_scheduler_preempt() -> int:
    """A low-priority hog preempted by a periodic high-priority task."""
    from repro.sim import Compute, MulticoreScheduler, Simulator, Sleep, msec, usec

    sim = Simulator()
    sched = MulticoreScheduler(sim, n_cores=1)
    periods = 100

    def hog(_):
        for _i in range(20):
            yield Compute(msec(5))

    def periodic(_):
        for _i in range(periods):
            yield Sleep(msec(1))
            yield Compute(usec(100))

    sched.spawn("hog", hog, priority=1)
    sched.spawn("periodic", periodic, priority=10)
    sim.run()
    return periods


def _tracing_workload(sim) -> int:
    """The shared dispatch workload for the tracing on/off pair."""
    callback = (lambda: None)
    for i in range(5000):
        sim.schedule_at(i, callback)
    return sim.run()


def bench_tracing_spans_off() -> int:
    """Kernel dispatch with the span recorder absent (guards only)."""
    from repro.sim import Simulator

    sim = Simulator()
    return _tracing_workload(sim)


def bench_tracing_spans_on() -> int:
    """Same dispatch workload with a recorder attached and an ambient
    context, so every event captures and restores a span context."""
    from repro.sim import Simulator
    from repro.tracing.spans import SpanRecorder

    sim = Simulator()
    recorder = SpanRecorder(sim)
    sim.spans = recorder
    root = recorder.begin("bench", "compute", parent=None)
    recorder.current = root.context
    fired = _tracing_workload(sim)
    recorder.end(root)
    return fired


def bench_dds_local_pubsub() -> int:
    """Publish -> deliver -> executor -> callback round trips on one ECU."""
    from repro.dds import DdsDomain, Topic
    from repro.ros import Node
    from repro.sim import Ecu, Simulator, usec

    sim = Simulator()
    ecu = Ecu(sim, "e", n_cores=2)
    domain = DdsDomain(sim, local_latency=usec(10))
    talker = Node(domain, ecu, "talker", priority=10)
    listener = Node(domain, ecu, "listener", priority=9)
    topic = Topic("t")
    count: List[int] = []
    listener.create_subscription(topic, lambda s: count.append(1))
    pub = talker.create_publisher(topic)
    n = 300
    for i in range(n):
        sim.schedule_at(i * usec(50), pub.publish, i)
    sim.run()
    assert len(count) == n
    return n


# ----------------------------------------------------------------------
# e2e suite
# ----------------------------------------------------------------------
_E2E_FRAMES = 10


def _run_stack(monitoring: bool) -> int:
    from repro.perception import PerceptionStack, StackConfig

    stack = PerceptionStack(
        StackConfig(seed=3, monitoring=monitoring, trace_prefixes=())
    )
    stack.run(n_frames=_E2E_FRAMES)
    return _E2E_FRAMES


def bench_stack_monitored() -> int:
    """Full two-ECU perception stack, monitors on (per-frame cost)."""
    return _run_stack(True)


def bench_stack_unmonitored() -> int:
    """Same stack without monitors (their difference = bookkeeping)."""
    return _run_stack(False)


def _synthetic_cloud(n_points: int = 4000) -> np.ndarray:
    rng = np.random.default_rng(7)
    ground = rng.uniform([-40, -40, -1.9], [40, 40, -1.7], size=(n_points // 2, 3))
    objects = rng.uniform([-20, -20, -1.5], [20, 20, 1.5], size=(n_points // 2, 3))
    return np.vstack([ground, objects]).astype(np.float32)


def bench_perception_numerics() -> int:
    """Ground classification + euclidean clustering on a synthetic cloud."""
    from repro.perception.clustering import boxes_from_clusters, euclidean_clusters
    from repro.perception.ground_filter import classify_ground
    from repro.perception.pointcloud import PointCloud

    xyz = _synthetic_cloud()
    points = np.concatenate([xyz, np.zeros((len(xyz), 1), np.float32)], axis=1)
    cloud = PointCloud(points=points, frame_index=0, stamp=0)
    mask = classify_ground(cloud)
    nonground = cloud.select(~mask)
    clusters = euclidean_clusters(nonground.xyz)
    boxes_from_clusters(nonground.xyz, clusters)
    return len(cloud)


def _budgeting_problem():
    from repro.budgeting import BudgetingProblem, ChainTrace, SegmentTrace
    from repro.core import EventChain, MKConstraint
    from repro.core.segments import local_segment, remote_segment

    rng = np.random.default_rng(11)
    n_segments, n_activations = 4, 400
    segments = []
    for i in range(n_segments):
        if i % 2 == 0:
            seg = remote_segment(f"s{i}", f"t{i}", "ecuA", "ecuB")
        else:
            seg = local_segment(f"s{i}", "ecuB", f"t{i-1}", f"t{i}")
        segments.append(seg)
    for earlier, later in zip(segments, segments[1:]):
        later.start = earlier.end
    chain = EventChain(
        name="bench", segments=segments, period=100, budget_e2e=260,
        budget_seg=100, mk=MKConstraint(2, 8),
    )
    trace = ChainTrace("bench")
    for seg in segments:
        base = rng.integers(20, 60)
        lats = np.clip(
            rng.lognormal(np.log(base), 0.4, size=n_activations), 5, 400
        ).astype(int)
        trace.add(SegmentTrace(seg.name, [int(v) for v in lats]))
    return BudgetingProblem(chain, trace)


def bench_budgeting_solve() -> int:
    """Independent + greedy + branch-and-bound solves of one instance."""
    from repro.budgeting import (
        solve_branch_and_bound,
        solve_greedy_propagated,
        solve_independent,
    )

    problem = _budgeting_problem()
    solve_independent(problem)
    solve_greedy_propagated(problem)
    solve_branch_and_bound(problem)
    return 3


def bench_fault_scenario() -> int:
    """One loss-burst campaign scenario end to end (both oracles)."""
    from repro.faults.campaign import CampaignConfig, FaultCampaign, default_scenarios

    frames = 24
    scenario = next(s for s in default_scenarios() if s.name == "loss_burst")
    campaign = FaultCampaign([scenario], CampaignConfig(n_frames=frames))
    result = campaign.run()
    assert result.scenarios, "scenario did not run"
    return frames


#: Lazily-built fleet stream shared by the telemetry ingest bench pair.
#: Generation happens once, *outside* any timed iteration, so the
#: measured work is the service's (queue, store, alert engine) and the
#: floor ratio compares engines rather than a common generator cost.
_FLEET_STREAM = None


def _fleet_stream():
    global _FLEET_STREAM
    if _FLEET_STREAM is None:
        from repro.telemetry import FleetConfig, FleetLoadGenerator

        from repro.telemetry.batch import RecordBatch

        generator = FleetLoadGenerator(FleetConfig(vehicles=4, frames=120))
        records = generator.materialize()
        _FLEET_STREAM = (
            generator.config.store_config(),
            records,
            RecordBatch.from_records(records),
        )
    return _FLEET_STREAM


def bench_telemetry_ingest() -> int:
    """Fleet record stream through the per-record ingest -> alert path.

    The stream is pre-materialized (see ``_fleet_stream``) so the
    measured work is the service's, not the generator's.  It runs the
    reference per-record pump (:class:`ScalarTelemetryService`): this
    bench is the reference side of the ``ingest_batched`` throughput
    floor.
    """
    from repro.bench.reference import ScalarTelemetryService
    from repro.telemetry import ServiceConfig

    store_config, records, _ = _fleet_stream()
    service = ScalarTelemetryService(ServiceConfig(store=store_config))
    service.ingest_many(records)
    service.drain()
    assert service.accounting_ok(), "telemetry accounting violated"
    return len(records)


def bench_telemetry_ingest_batched() -> int:
    """The same fleet stream through the columnar batched ingest path.

    Identical records, store config, and alert policy as
    ``telemetry_ingest`` -- the only difference is the ingest path: one
    struct-of-arrays :class:`~repro.telemetry.batch.RecordBatch`
    through :meth:`~repro.telemetry.service.TelemetryService.ingest_batch`
    and the store's grouped/vectorized ``apply_batch``.  The floor gate
    holds this at >= 2x the scalar reference's throughput; the
    differential suite separately proves both paths produce
    byte-identical store digests and alert logs.
    """
    from repro.telemetry import ServiceConfig, TelemetryService

    store_config, _records, batch = _fleet_stream()
    service = TelemetryService(ServiceConfig(store=store_config))
    service.ingest_batch(batch)
    service.drain()
    assert service.accounting_ok(), "telemetry accounting violated"
    return len(batch)


#: Wall-clock cost (seconds) of one simulated channel step in the
#: uplink roundtrip benches.  The adversarial channel is a
#: discrete-event simulation; with free steps, "throughput" would
#: measure only the encode/apply CPU both protocols share and a
#: pipelined protocol would be indistinguishable from a lockstep one.
#: Charging a fixed quantum per step turns link delay into wall time,
#: which is the regime an ARQ window exists for: stop-and-wait pays
#: ~1 RTT per batch while the windowed client keeps the link full.
#: Because both benches run the identical loop, the ratio the floor
#: gate checks is dominated by step counts, not host speed.
_LINK_STEP_S = 0.001
#: One-way link delay in simulated steps (RTT is twice this, plus the
#: turnaround step).  At 1 ms/step this models a ~8 ms-RTT link.
_LINK_DELAY_STEPS = 4
#: Ack timeout (steps) for both clients; above the clean-channel RTT
#: so neither protocol retransmits spuriously.
_LINK_ACK_TIMEOUT = 16


def _run_uplink_roundtrip(windowed: bool) -> int:
    """One fleet stream through the store-and-forward uplink path.

    Every record is durably spooled (WAL append), carried over a
    clean but latency-modeled channel (``_LINK_STEP_S`` of wall time
    per simulated step, ``_LINK_DELAY_STEPS`` each way), deduplicated,
    logged append-before-ack, applied, and acknowledged.  The two
    public benches differ *only* in the client wired in: the lockstep
    stop-and-wait :class:`RetryingUplinkClient` versus the pipelined
    :class:`WindowedUplinkClient` (multi-record frames, sliding
    window, cumulative acks, zero-re-encode relay of cached WAL wire
    lines).
    """
    import tempfile
    import time as _time
    from pathlib import Path

    from repro.telemetry import (
        FleetConfig,
        FleetLoadGenerator,
        ServiceConfig,
        TelemetryService,
    )
    from repro.telemetry.uplink import (
        AdversarialChannel,
        RetryingUplinkClient,
        UplinkClientConfig,
        UplinkIngestor,
        WalConfig,
        WalSpooler,
        WindowedClientConfig,
        WindowedUplinkClient,
        decode_envelope,
    )

    fleet = FleetConfig(vehicles=2, frames=120, faulty_every=0)
    records = FleetLoadGenerator(fleet).materialize()
    streams: Dict[str, list] = {}
    for record in records:
        streams.setdefault(record.source, []).append(record)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ingestor = UplinkIngestor(
            TelemetryService(ServiceConfig(store=fleet.store_config())),
            root / "fleet", fsync="never", checkpoint_every=None,
        )
        clients: Dict[str, object] = {}
        down = AdversarialChannel(
            "down",
            lambda frame, now: clients[frame.dst].on_ack(
                decode_envelope(frame.payload), now
            ),
            base_delay=_LINK_DELAY_STEPS,
        )
        up = AdversarialChannel(
            "up",
            lambda frame, now: down.send(
                ingestor.handle_payload(frame.payload, now),
                "fleet", frame.src, now,
            ),
            base_delay=_LINK_DELAY_STEPS,
        )
        for source, stream in sorted(streams.items()):
            spooler = WalSpooler.open_fresh(
                WalConfig(root / source, fsync="never",
                          segment_max_records=128),
                source,
            )
            spooler.append_many(stream)
            send = lambda payload, now, src=source: up.send(
                payload, src, "fleet", now
            )
            if windowed:
                clients[source] = WindowedUplinkClient(
                    spooler, send,
                    WindowedClientConfig(
                        frame_records=64, window_frames=8,
                        ack_timeout=_LINK_ACK_TIMEOUT,
                    ),
                )
            else:
                clients[source] = RetryingUplinkClient(
                    spooler, send,
                    UplinkClientConfig(
                        batch_records=64, ack_timeout=_LINK_ACK_TIMEOUT,
                    ),
                )
        now = 0
        while any(not c.idle() for c in clients.values()) and now < 10_000:
            for client in clients.values():
                client.tick(now)
            up.step(now)
            down.step(now)
            _time.sleep(_LINK_STEP_S)
            now += 1
        assert ingestor.service.store.applied == len(records), \
            "uplink lost records on a clean channel"
    return len(records)


def bench_uplink_roundtrip() -> int:
    """Fleet stream through the stop-and-wait uplink over a modeled link.

    The lockstep baseline: one batch in flight, the next send gated on
    the previous ack, so wall time is ~one RTT per batch (see
    :func:`_run_uplink_roundtrip` for the shared data path and latency
    model).
    """
    return _run_uplink_roundtrip(windowed=False)


def bench_uplink_roundtrip_windowed() -> int:
    """The same fleet stream through the pipelined windowed-ARQ path.

    Identical data path and latency model as ``uplink_roundtrip``, but
    the sliding window keeps ``window_frames`` frames in flight, so the
    link stays full instead of draining once per RTT.  The floor gate
    holds this at >= 2x the stop-and-wait baseline's throughput
    (``THROUGHPUT_FLOORS``).
    """
    return _run_uplink_roundtrip(windowed=True)


def bench_budget_resolve() -> int:
    """Closed-loop re-derivation: resolve d_mon from a fleet window and
    shadow-validate the resulting epoch (the control plane's hot path).
    """
    from repro.adaptive import BudgetEpoch, BudgetResolver, ShadowValidator
    from repro.adaptive.chaos import fleet_chain
    from repro.telemetry.records import segment_record

    chain = fleet_chain()
    rng = np.random.default_rng(13)
    medians = {"seg0": 4_000_000, "seg1": 6_000_000, "seg2": 8_000_000}
    records = []
    seq = 0
    activations = 256
    for vehicle in ("veh00", "veh01", "veh02"):
        for activation in range(activations):
            for segment, median in medians.items():
                latency = int(median * rng.lognormal(0.0, 0.18))
                records.append(segment_record(
                    vehicle, chain.name, segment, activation, latency,
                    "ok", (activation + 1) * chain.period, seq,
                ))
                seq += 1
    resolver = BudgetResolver({chain.name: chain})
    outcome = resolver.resolve(records)
    assert outcome.ok, "resolver failed on a clean window"
    candidate = outcome.epoch(epoch_id=1, parent_id=0)
    baseline = BudgetEpoch(epoch_id=0, budgets={
        chain.name: {
            seg.name: int(seg.d_mon) for seg in chain.segments
        },
    })
    verdict = ShadowValidator({chain.name: chain}).validate(
        records, candidate, baseline
    )
    assert verdict.activations == 3 * activations, "replay lost rows"
    return len(records)


#: Traced-run payload reused across warehouse bench iterations: the
#: simulation cost is paid once so the timed work is the warehouse's
#: (parse -> analyze -> index -> sketch), not the simulator's.
_WAREHOUSE_PAYLOAD: Dict[str, object] = {}


def _warehouse_payload():
    if not _WAREHOUSE_PAYLOAD:
        from repro.perception.stack import PerceptionStack, StackConfig
        from repro.warehouse import RunKey, RunManifest

        frames = 16
        runs = []
        for run_id, config in (
            ("bench-base", StackConfig(seed=1, spans=True)),
            ("bench-head", StackConfig(seed=7, link_loss=0.08, spans=True)),
        ):
            stack = PerceptionStack(config)
            stack.run(n_frames=frames)
            manifest = RunManifest.for_run(
                RunKey(run_id=run_id, commit=run_id, suite="bench"),
                stack.chains, frames,
            )
            runs.append((manifest, list(stack.spans.spans)))
        _WAREHOUSE_PAYLOAD["runs"] = runs
    return _WAREHOUSE_PAYLOAD["runs"]


def bench_warehouse_ingest() -> int:
    """Two traced runs through full warehouse ingestion.

    Measures the analysis-and-index path: span rows, per-instance
    critical paths with telescoping verification, edge/segment tables
    and DDSketch snapshot persistence into a fresh in-memory store.
    """
    from repro.warehouse import SpanWarehouse

    runs = _warehouse_payload()
    with SpanWarehouse(":memory:") as store:
        total = 0
        for manifest, spans in runs:
            result = store.ingest_run(manifest, spans)
            assert not result.skipped and result.n_instances > 0
            total += result.n_spans
    return total


def bench_warehouse_query() -> int:
    """Cohort aggregation + attribution diff over an ingested store.

    The populated in-memory store is cached across iterations (queries
    are read-only), so the timed work is the query layer's: sketch
    restore + merge per (chain, kind, key) and diff assembly -- the
    path the CI gate pays on every flagged regression.
    """
    from repro.warehouse import (
        RunSelector,
        SpanWarehouse,
        aggregate,
        attribution_diff,
    )

    if "store" not in _WAREHOUSE_PAYLOAD:
        store = SpanWarehouse(":memory:")
        for manifest, spans in _warehouse_payload():
            store.ingest_run(manifest, spans)
        _WAREHOUSE_PAYLOAD["store"] = store
    store = _WAREHOUSE_PAYLOAD["store"]
    rows = 0
    base = RunSelector(commit="bench-base")
    head = RunSelector(commit="bench-head")
    for selector in (base, head):
        agg = aggregate(store, selector)
        rows += sum(
            len(chain.categories) + len(chain.edges) + len(chain.segments)
            for chain in agg.chains.values()
        )
    diff = attribution_diff(store, base, head)
    assert diff["chains"], "diff produced no chains"
    rows += sum(
        len(entry["categories"]) + len(entry["segments"])
        for entry in diff["chains"].values()
    )
    return rows


#: suite name -> ordered list of (bench name, layer, unit, fn).
SUITES: Dict[str, List[Tuple[str, str, str, Callable[[], int]]]] = {
    KERNEL_SUITE: [
        ("kernel_dispatch", "kernel", "events", bench_kernel_dispatch),
        ("kernel_cancel_sweep", "kernel", "events", bench_kernel_cancel_sweep),
        ("kernel_cancel_sweep_heap", "kernel", "events",
         bench_kernel_cancel_sweep_heap),
        ("tracing_spans_off", "tracing", "events", bench_tracing_spans_off),
        ("tracing_spans_on", "tracing", "events", bench_tracing_spans_on),
        ("timer_rearm", "kernel", "arms", bench_timer_rearm),
        ("timer_rearm_heap", "kernel", "arms", bench_timer_rearm_heap),
        ("scheduler_pingpong", "scheduler", "switches", bench_scheduler_pingpong),
        ("scheduler_preempt", "scheduler", "periods", bench_scheduler_preempt),
        ("dds_local_pubsub", "dds", "roundtrips", bench_dds_local_pubsub),
    ],
    E2E_SUITE: [
        ("stack_monitored", "e2e", "frames", bench_stack_monitored),
        ("stack_unmonitored", "e2e", "frames", bench_stack_unmonitored),
        ("perception_numerics", "perception", "points", bench_perception_numerics),
        ("budgeting_solve", "budgeting", "solves", bench_budgeting_solve),
        ("fault_scenario", "faults", "frames", bench_fault_scenario),
        ("telemetry_ingest", "telemetry", "records", bench_telemetry_ingest),
        ("ingest_batched", "telemetry", "records",
         bench_telemetry_ingest_batched),
        ("uplink_roundtrip", "telemetry", "records", bench_uplink_roundtrip),
        ("uplink_roundtrip_windowed", "telemetry", "records",
         bench_uplink_roundtrip_windowed),
        ("budget_resolve", "adaptive", "records", bench_budget_resolve),
        ("warehouse_ingest", "warehouse", "spans", bench_warehouse_ingest),
        ("warehouse_query", "warehouse", "rows", bench_warehouse_query),
    ],
}


def run_suite(
    suite: str,
    quick: bool = False,
    only: Optional[List[str]] = None,
) -> List[BenchResult]:
    """Run every benchmark of *suite*; quick mode = 1 iteration, no warmup.

    *only* restricts the run to the named benchmarks, expanded to keep
    floor gates meaningful: selecting a bench that has a throughput
    floor pulls in its reference bench automatically (a ratio needs
    both sides), so ``--only ingest_batched`` still checks the >= 2x
    gate instead of silently failing on a missing reference.  Unknown
    names raise rather than silently measuring nothing.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (have {sorted(SUITES)})")
    entries = SUITES[suite]
    if only is not None:
        available = {name for name, _, _, _ in entries}
        unknown = sorted(set(only) - available)
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {unknown} in suite {suite!r} "
                f"(have {sorted(available)})"
            )
        wanted = set(only)
        for name in only:
            floor = THROUGHPUT_FLOORS.get(name)
            if floor is not None and floor[0] in available:
                wanted.add(floor[0])
        entries = [e for e in entries if e[0] in wanted]
    iterations = 1 if quick else 7
    warmup = 0 if quick else 1
    results = []
    for name, layer, unit, fn in entries:
        results.append(
            run_bench(
                name, fn, layer=layer, unit=unit,
                iterations=iterations, warmup=warmup,
            )
        )
    return results
