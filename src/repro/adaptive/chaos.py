"""Deterministic chaos harness for the adaptive budget control plane.

This is the closed-loop sibling of the uplink chaos sweep
(:mod:`repro.telemetry.uplink.chaos`): a small fleet drives one event
chain, each vehicle computes its per-segment verdicts against the
budgets of its **currently active epoch**, telemetry flows up through
the store-and-forward uplink, and the control plane re-derives,
shadow-validates, canaries, promotes and -- when a canary regresses --
rolls back budget epochs over the downlink.  Faults hit both channel
directions and both endpoints, exactly on schedule, from seeded
streams; no wall clock is read, so a failing schedule replays
byte-identically.

End-of-run conservation laws, per scenario:

- **epoch invariant** -- the union of every budget map any vehicle ever
  installed is a subset of the ledger's ``validated`` set and disjoint
  from ``rejected``: a fleet NEVER runs an epoch that failed shadow
  validation, not even transiently, not even mid-crash;
- **epoch convergence** -- after the dust settles every vehicle's
  active epoch carries the *content digest* of the plane's last-good
  epoch (mixed-epoch fleets heal);
- **vehicle epoch ledger** -- per vehicle,
  ``received == applied + parked + superseded`` as a disjoint union;
- **uplink ledger** -- the store-and-forward law,
  ``offered == acked + spooled + evicted``, still holds underneath;
- **recovery equivalence** -- both the fleet store and the epoch
  ledger, recovered cold from disk, match their live counterparts.

Run it: ``python -m repro adapt`` (``--quick`` in CI, ``-j N`` for a
parallel sweep whose report is byte-identical to the serial one).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.adaptive.controlplane import (
    BudgetControlPlane,
    ControlPlaneConfig,
    ControlPlaneState,
)
from repro.adaptive.epochs import BudgetEpoch, EpochLedger
from repro.adaptive.resolver import ResolverConfig
from repro.adaptive.shadow import ShadowConfig
from repro.adaptive.vehicle import SimulatedApplyCrash, VehicleEpochAgent
from repro.core.chains import EventChain
from repro.core.segments import local_segment, remote_segment
from repro.core.weakly_hard import MKConstraint
from repro.faults.degradation import DegradationMode
from repro.telemetry.records import RecordKind, TelemetryRecord, segment_record
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.store import StoreConfig
from repro.telemetry.uplink.chaos import CrashEvent
from repro.telemetry.uplink.client import (
    RetryingUplinkClient,
    UplinkClientConfig,
)
from repro.telemetry.uplink.ingest import UplinkIngestor, store_digest
from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    EPOCH_ACK_SCHEMA,
    EPOCH_FRAME_SCHEMA,
    AdversarialChannel,
    ChannelFaultPlan,
    decode_envelope,
)
from repro.telemetry.uplink.wal import WalConfig, WalSpooler

_MS = 1_000_000


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class AdaptConfig:
    """Fleet shape and driver knobs shared by every scenario."""

    vehicles: int = 3
    #: Chain activations each vehicle emits (one per step while alive).
    frames: int = 120
    seed: int = 2025
    max_steps: int = 4000
    fsync: str = "never"
    segment_max_records: int = 64
    checkpoint_every: Optional[int] = 8
    #: Lognormal sigma of every segment's latency stream.
    sigma: float = 0.18

    def __post_init__(self) -> None:
        if self.vehicles < 2:
            raise ValueError("need >= 2 vehicles (canary + control)")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def vehicle_ids(self) -> List[str]:
        return [f"vehicle-{i:03d}" for i in range(self.vehicles)]

    def client_config(self) -> UplinkClientConfig:
        return UplinkClientConfig(
            batch_records=16, ack_timeout=6, backoff_base=2,
            backoff_max=32, failure_threshold=4, cooldown=10,
            seed=self.seed,
        )

    def service_config(self, epoch0: BudgetEpoch) -> ServiceConfig:
        chain = fleet_chain()
        return ServiceConfig(
            queue_capacity=1 << 16,
            store=StoreConfig(
                mk_by_chain={chain.name: (chain.mk.m, chain.mk.k)},
                budget_by_segment=epoch0.flat_budgets(),
            ),
        )


def fleet_chain() -> EventChain:
    """The monitored chain every scenario drives: sensor -> fusion ->
    planner across three ECUs, (3,8)-weakly-hard, B_e2e well above the
    factory deadline sum so the resolver has slack to redistribute."""
    return EventChain(
        name="pipeline",
        segments=[
            remote_segment("seg0", "/sensor", "ecu0", "ecu1",
                           d_mon=8 * _MS),
            local_segment("seg1", "ecu1", "/sensor", "/fused",
                          d_mon=10 * _MS),
            remote_segment("seg2", "/fused", "ecu1", "ecu2",
                           d_mon=12 * _MS),
        ],
        period=50 * _MS,
        budget_e2e=40 * _MS,
        budget_seg=16 * _MS,
        mk=MKConstraint(3, 8),
    )


#: Calm per-segment latency medians (ns); drift multiplies these.
_BASE_NS = {"seg0": 4 * _MS, "seg1": 6 * _MS, "seg2": 8 * _MS}


@dataclass
class AdaptScenario:
    """One named fault x crash x control-plane schedule."""

    name: str
    description: str = ""
    up: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    down: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    crashes: Tuple[CrashEvent, ...] = ()
    #: ``(step, vehicle_index, mode)`` degradation-ladder transitions.
    mode_events: Tuple[Tuple[int, int, str], ...] = ()
    #: ``(first_frame, last_frame, factor, segment)`` latency-drift
    #: windows, in per-vehicle activation indices (crash-resumable);
    #: ``segment == ""`` drifts the whole chain.
    drift: Tuple[Tuple[int, int, float, str], ...] = ()
    #: Inject a doctored (over-tight) candidate at this step: shadow
    #: validation must reject it and it must never reach a vehicle.
    inject_bad_at: Optional[int] = None
    #: Force one ordinary resolve+validate pass at this step (used with
    #: ``rederive_every=0`` for scenarios that need exact timing).
    force_rederive_at: Optional[int] = None
    #: Stage a candidate through resolve+shadow+``validated`` ledger
    #: entries, then kill the server *before* it can publish.
    validate_then_crash_at: Optional[int] = None
    #: Kill this vehicle inside the recv->apply window of its next
    #: fresh epoch frame (torn-apply recovery path).
    crash_on_recv: Optional[int] = None
    crash_down_for: int = 8
    #: Control-plane / resolver overrides (None: scenario defaults).
    control: Optional[ControlPlaneConfig] = None
    resolver: Optional[ResolverConfig] = None
    # Expectations checked at the end of the run.
    expect_promotion: bool = False
    expect_reject: bool = False
    expect_rollback: bool = False
    expect_deferral: bool = False
    expect_pending_recovery: bool = False
    expect_abandoned: bool = False


def _control(rederive_every: int = 48) -> ControlPlaneConfig:
    return ControlPlaneConfig(
        rederive_every=rederive_every, window_records=4096,
        canary_count=1, probation_steps=24, regression_margin=0.5,
        resend_every=6,
    )


def default_scenarios() -> List[AdaptScenario]:
    """The sweep ``python -m repro adapt`` runs: the happy closed loop,
    every control-frame fault class, crashes on both ends at the nasty
    points of the epoch state machine, a partition that leaves the
    fleet mixed-epoch, a seeded bad candidate, and a canary that
    genuinely regresses."""
    drift = ((40, 10 ** 9, 1.5, ""),)
    return [
        AdaptScenario(
            name="adapt_baseline",
            description="drift -> re-derive -> canary -> promote, "
                        "clean channels",
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="epoch_frame_lost",
            description="25% downlink loss: epoch frames resend until "
                        "acked",
            up=ChannelFaultPlan(drop_prob=0.15),
            down=ChannelFaultPlan(drop_prob=0.25),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="epoch_frame_dup_reorder",
            description="heavy duplication + reordering both ways: "
                        "stale frames re-acked, monotonicity holds",
            up=ChannelFaultPlan(dup_prob=0.2, reorder_prob=0.2,
                                jitter_steps=2),
            down=ChannelFaultPlan(dup_prob=0.3, reorder_prob=0.3,
                                  reorder_extra=5, jitter_steps=2),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="partition_mixed_epoch",
            description="partition mid-rollout leaves a mixed-epoch "
                        "fleet; heal must reconverge to one digest",
            up=ChannelFaultPlan(partitions=((82, 112),)),
            down=ChannelFaultPlan(partitions=((82, 112),)),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="vehicle_crash_mid_apply",
            description="canary dies between durable recv and apply; "
                        "recovery applies exactly once",
            drift=drift,
            crash_on_recv=0,
            crashes=(
                CrashEvent(step=30, side="vehicle", vehicle=1,
                           torn_tail=True),
            ),
            expect_promotion=True,
            expect_pending_recovery=True,
        ),
        AdaptScenario(
            name="server_crash_validate_publish",
            description="server dies between shadow-validate and "
                        "publish; recovery abandons the draft",
            drift=((20, 10 ** 9, 1.5, ""),),
            control=_control(rederive_every=0),
            validate_then_crash_at=60,
            crash_down_for=10,
            expect_abandoned=True,
        ),
        AdaptScenario(
            name="server_crash_mid_canary",
            description="server dies during canary probation; recovery "
                        "walks the canary back to last-good",
            drift=drift,
            crashes=(
                CrashEvent(step=58, side="server", down_for=10),
            ),
            expect_rollback=True,
        ),
        AdaptScenario(
            name="shadow_reject",
            description="seeded over-tight candidate: shadow validation "
                        "rejects, no vehicle ever sees it",
            control=_control(rederive_every=0),
            inject_bad_at=50,
            expect_reject=True,
        ),
        AdaptScenario(
            name="canary_rollback",
            description="tight epoch derived from a calm window, then a "
                        "latency burst in probation: automatic rollback",
            control=_control(rederive_every=0),
            resolver=ResolverConfig(min_activations=12, solver="greedy",
                                    slack_share=0.0),
            force_rederive_at=60,
            # The burst hits only seg0, where the minimal epoch sits
            # far tighter than the factory budgets the control cohort
            # still runs: the canary regresses, the controls barely do.
            drift=((64, 10 ** 9, 1.6, "seg0"),),
            expect_rollback=True,
        ),
        AdaptScenario(
            name="deferred_apply",
            description="canary DEGRADED when its epoch lands: ack "
                        "deferred, applied exactly once on recovery",
            drift=drift,
            mode_events=((44, 0, "degraded"), (74, 0, "normal")),
            expect_promotion=True,
            expect_deferral=True,
        ),
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class AdaptResult:
    """Outcome of one scenario run (JSON-friendly)."""

    name: str
    ok: bool = True
    converged_at: Optional[int] = None
    checks: List[dict] = field(default_factory=list)
    epochs: dict = field(default_factory=dict)
    vehicles: dict = field(default_factory=dict)
    uplink_ledger: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    recoveries: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.ok = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "converged_at": self.converged_at,
            "checks": self.checks,
            "epochs": self.epochs,
            "vehicles": self.vehicles,
            "uplink_ledger": self.uplink_ledger,
            "channels": self.channels,
            "recoveries": self.recoveries,
        }

    def render(self) -> str:
        flags = " ".join(
            f"{c['name']}={'OK' if c['ok'] else 'FAIL'}" for c in self.checks
        )
        status = "PASS" if self.ok else "FAIL"
        at = self.converged_at if self.converged_at is not None else "-"
        return f"{status:4s} {self.name:<26s} converged@{at!s:<6} {flags}"


# ----------------------------------------------------------------------
# Driver internals
# ----------------------------------------------------------------------
class _AdaptiveVehicle:
    """One vehicle: seeded latency stream scored against its *active*
    epoch's budgets, uplink spool + client, epoch agent + ledger."""

    def __init__(
        self,
        source: str,
        chain: EventChain,
        config: AdaptConfig,
        scenario: AdaptScenario,
        workdir: Path,
        epoch0: BudgetEpoch,
        send_batch,
        send_epoch_ack,
    ):
        self.source = source
        self.chain = chain
        self.config = config
        self.scenario = scenario
        self._send_batch = send_batch
        self._send_epoch_ack = send_epoch_ack
        self.wal_config = WalConfig(
            directory=workdir / source / "spool",
            fsync=config.fsync,
            segment_max_records=config.segment_max_records,
        )
        self.epoch_dir = workdir / source / "epochs"
        self.rng = np.random.default_rng(
            (config.seed * 0x9E3779B1 + zlib.crc32(source.encode()))
            & 0xFFFFFFFF
        )
        #: Budgets the onboard monitors compare against right now.
        self.active_budgets: Dict[str, int] = {}
        #: Every epoch id the install hook ever handed us (any life).
        self.installed_ids: Set[int] = set()
        self.alive = True
        self.lives = 0
        self.recoveries = 0
        self.pending_recoveries = 0
        self.deferred_acks = 0
        self.activation = 0  # next activation index to generate
        self.seq = 0
        self.records: List[TelemetryRecord] = []
        self.cursor = 0  # next record index to spool
        # Ground-truth uplink ledger sets (survive crashes).
        self.offered: Set[int] = set()
        self.acked: Set[int] = set()
        self.evicted: Set[int] = set()
        self.spooler = WalSpooler.open_fresh(self.wal_config, source)
        self.client = self._make_client()
        self.agent = VehicleEpochAgent(
            source, self.epoch_dir, fsync=config.fsync,
            install=self._install, initial=epoch0,
        )
        self._wire()

    # ------------------------------------------------------------------
    def _make_client(self) -> RetryingUplinkClient:
        return RetryingUplinkClient(
            self.spooler, self._send_batch, self.config.client_config(),
            life=self.lives,
        )

    def _wire(self) -> None:
        self.spooler.on_evict = lambda lost: self.evicted.update(
            record.seq for record in lost
        )
        self.client.on_acked = lambda released: self.acked.update(
            record.seq for record in released
        )

    def _install(self, epoch: BudgetEpoch) -> None:
        self.installed_ids.add(epoch.epoch_id)
        self.active_budgets = epoch.chain_budget(self.chain.name)

    # ------------------------------------------------------------------
    def _drift_factor(self, activation: int, segment: str) -> float:
        factor = 1.0
        for first, last, value, target in self.scenario.drift:
            if first <= activation <= last and target in ("", segment):
                factor = max(factor, value)
        return factor

    def generate_and_spool(self) -> None:
        """Emit one chain activation: three SEGMENT records scored
        against the active epoch's budgets, plus the CHAIN record whose
        verdict feeds the fleet's (m,k) automata."""
        if self.activation >= self.config.frames:
            return
        activation = self.activation
        self.activation += 1
        timestamp = (activation + 1) * self.chain.period
        latencies: Dict[str, int] = {}
        for segment in self.chain.segments:
            base = _BASE_NS[segment.name] * self._drift_factor(
                activation, segment.name
            )
            latencies[segment.name] = int(
                base * self.rng.lognormal(0.0, self.config.sigma)
            )
        missed = False
        for segment in self.chain.segments:
            latency = latencies[segment.name]
            budget = self.active_budgets.get(segment.name)
            miss = budget is not None and latency > budget
            missed = missed or miss
            self.records.append(segment_record(
                source=self.source, chain=self.chain.name,
                segment=segment.name, activation=activation,
                latency_ns=latency, verdict="miss" if miss else "ok",
                timestamp_ns=timestamp, seq=self.seq,
            ))
            self.seq += 1
        self.records.append(TelemetryRecord(
            kind=RecordKind.CHAIN, source=self.source,
            chain=self.chain.name, segment="", activation=activation,
            latency_ns=sum(latencies.values()),
            verdict="miss" if missed else "ok",
            timestamp_ns=timestamp, seq=self.seq,
        ))
        self.seq += 1
        while self.cursor < len(self.records):
            record = self.records[self.cursor]
            self.spooler.append(record)
            self.offered.add(record.seq)
            self.cursor += 1

    @property
    def drained(self) -> bool:
        return (
            self.activation >= self.config.frames
            and self.cursor >= len(self.records)
        )

    # ------------------------------------------------------------------
    def handle_epoch_frame(self, payload: str, now: int) -> None:
        """May raise :class:`SimulatedApplyCrash` (armed by scenario)."""
        ack = self.agent.handle_frame(payload, now)
        if ack is not None:
            if self.agent.pending is not None:
                self.deferred_acks += 1
            self._send_epoch_ack(ack, now)

    def set_mode(self, mode: DegradationMode, now: int) -> None:
        ack = self.agent.set_mode(mode, now)
        if ack is not None:
            self._send_epoch_ack(ack, now)

    # ------------------------------------------------------------------
    def kill(self, torn_tail: bool) -> None:
        self.alive = False
        handle = self.spooler._file
        if handle is not None and not handle.closed:
            handle.flush()
            handle.close()
        if torn_tail:
            self._tear_tail()
        self.agent.close()

    def _tear_tail(self) -> None:
        active = self.spooler.segments[-1]
        if not active.records:
            return
        raw = active.path.read_bytes()
        lines = raw.split(b"\n")
        if len(lines) < 3:
            return
        last = lines[-2]
        kept = raw[: len(raw) - len(last) - 1]
        active.path.write_bytes(kept + last[: len(last) // 2])
        torn_seq = self.spooler.last_seq
        self.offered.discard(torn_seq)
        self.cursor -= 1

    def recover(self, now: int) -> None:
        self.spooler, _ = WalSpooler.recover(self.wal_config, self.source)
        self.lives += 1
        self.recoveries += 1
        self.client = self._make_client()
        self.agent, report = VehicleEpochAgent.recover(
            self.source, self.epoch_dir, fsync=self.config.fsync,
            install=self._install,
        )
        if report.pending_apply:
            self.pending_recoveries += 1
        self._wire()
        self.alive = True
        # The torn-apply window closes here: exactly one apply, acked.
        ack = self.agent.apply_pending_if_normal(now)
        if ack is not None:
            self._send_epoch_ack(ack, now)

    # ------------------------------------------------------------------
    def uplink_ledger_json(self) -> dict:
        spooled = set(self.spooler.pending_seqs())
        union = self.acked | spooled | self.evicted
        disjoint = (
            len(self.acked) + len(spooled) + len(self.evicted) == len(union)
        )
        return {
            "offered": len(self.offered),
            "acked": len(self.acked),
            "spooled": len(spooled),
            "evicted": len(self.evicted),
            "balanced": self.offered == union and disjoint,
        }


class AdaptDriver:
    """Runs one scenario to convergence and verifies its invariants."""

    def __init__(
        self, scenario: AdaptScenario, config: AdaptConfig, workdir: Path
    ):
        self.scenario = scenario
        self.config = config
        self.workdir = Path(workdir) / scenario.name
        self.chain = fleet_chain()
        self.chains = {self.chain.name: self.chain}
        self.epoch0 = BudgetEpoch(
            epoch_id=0,
            budgets={self.chain.name: {
                segment.name: int(segment.d_mon)  # type: ignore[arg-type]
                for segment in self.chain.segments
            }},
            basis={"bootstrap": True},
        )
        self.up = AdversarialChannel(
            "uplink", self._deliver_up, scenario.up, seed=config.seed
        )
        self.down = AdversarialChannel(
            "downlink", self._deliver_down, scenario.down, seed=config.seed
        )
        self.vehicles: List[_AdaptiveVehicle] = [
            _AdaptiveVehicle(
                source, self.chain, config, scenario, self.workdir,
                self.epoch0, self._make_batch_send(source),
                self._make_epoch_ack_send(source),
            )
            for source in config.vehicle_ids()
        ]
        self.server_dir = self.workdir / "fleet"
        self.server_up = True
        self.server_recoveries = 0
        self.server_recovery_info: List[dict] = []
        self.dead_up = 0
        self.dead_down = 0
        self.deferred_acks_seen = 0
        self.staged_abandon_id: Optional[int] = None
        self.ingestor = UplinkIngestor(
            TelemetryService(config.service_config(self.epoch0)),
            self.server_dir,
            fsync=config.fsync,
            checkpoint_every=config.checkpoint_every,
        )
        self.ingestor.on_fresh = self._observe
        self.plane = BudgetControlPlane(
            self.chains, config.vehicle_ids(), self.server_dir,
            self._down_send,
            config=scenario.control or _control(),
            resolver_config=scenario.resolver or ResolverConfig(),
            shadow_config=ShadowConfig(),
            fsync=config.fsync,
            baseline=self.epoch0,
        )
        self.plane.percentile_provider = (
            lambda: self.ingestor.service.store.segment_percentiles()
        )
        self._pending_recoveries: Dict[int, List[CrashEvent]] = {}
        if scenario.crash_on_recv is not None:
            index = scenario.crash_on_recv % len(self.vehicles)
            self.vehicles[index].agent.fail_after_recv = True

    # ------------------------------------------------------------------
    # Channel plumbing
    # ------------------------------------------------------------------
    def _make_batch_send(self, source: str):
        return lambda payload, now: self.up.send(
            payload, src=source, dst="fleet", now=now
        )

    def _make_epoch_ack_send(self, source: str):
        return lambda payload, now: self.up.send(
            payload, src=source, dst="fleet", now=now
        )

    def _down_send(self, payload: str, vehicle: str, now: int) -> None:
        self.down.send(payload, src="fleet", dst=vehicle, now=now)

    def _observe(self, records: List[TelemetryRecord]) -> None:
        self.plane.observe_many(records)

    def _violation_counts(self) -> Dict[str, int]:
        return self.ingestor.service.store.violations_by_source()

    def _deliver_up(self, frame, now: int) -> None:
        if not self.server_up:
            self.up.stats.dead_letter += 1
            self.dead_up += 1
            return
        doc = decode_envelope(frame.payload)
        if doc is not None and doc.get("schema") == EPOCH_ACK_SCHEMA:
            if doc.get("status") == "deferred":
                self.deferred_acks_seen += 1
            self.plane.on_ack(doc, now)
            return
        ack = self.ingestor.handle_payload(frame.payload, now)
        if ack is not None:
            self.down.send(ack, src="fleet", dst=frame.src, now=now)

    def _deliver_down(self, frame, now: int) -> None:
        vehicle = next(
            (v for v in self.vehicles if v.source == frame.dst), None
        )
        if vehicle is None or not vehicle.alive:
            self.down.stats.dead_letter += 1
            self.dead_down += 1
            return
        doc = decode_envelope(frame.payload)
        if doc is None:
            return  # corrupt: CRC already counted by the channel user
        if doc.get("schema") == ACK_SCHEMA:
            vehicle.client.on_ack(doc, now)
        elif doc.get("schema") == EPOCH_FRAME_SCHEMA:
            try:
                vehicle.handle_epoch_frame(frame.payload, now)
            except SimulatedApplyCrash:
                vehicle.kill(torn_tail=False)
                self._pending_recoveries.setdefault(
                    now + self.scenario.crash_down_for, []
                ).append(CrashEvent(
                    step=now, side="vehicle",
                    vehicle=self.vehicles.index(vehicle),
                    down_for=self.scenario.crash_down_for,
                ))

    # ------------------------------------------------------------------
    # Crash machinery
    # ------------------------------------------------------------------
    def _kill(self, event: CrashEvent) -> bool:
        if event.side == "server":
            return self._kill_server()
        vehicle = self.vehicles[event.vehicle % len(self.vehicles)]
        if not vehicle.alive:
            return False
        vehicle.kill(event.torn_tail)
        return True

    def _kill_server(self) -> bool:
        if not self.server_up:
            return False
        self.server_up = False
        self.ingestor.close()
        self.plane.close()
        return True

    def _recover(self, event: CrashEvent, now: int) -> None:
        if event.side == "server":
            self._recover_server(now)
        else:
            self.vehicles[event.vehicle % len(self.vehicles)].recover(now)

    def _recover_server(self, now: int) -> None:
        self.ingestor, _ = UplinkIngestor.recover(
            self.server_dir,
            self.config.service_config(self.epoch0),
            fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )
        self.ingestor.on_fresh = self._observe
        self.plane, recovery = BudgetControlPlane.recover(
            self.chains, self.config.vehicle_ids(), self.server_dir,
            self._down_send,
            config=self.scenario.control or _control(),
            resolver_config=self.scenario.resolver or ResolverConfig(),
            shadow_config=ShadowConfig(),
            fsync=self.config.fsync,
        )
        self.plane.percentile_provider = (
            lambda: self.ingestor.service.store.segment_percentiles()
        )
        self.server_up = True
        self.server_recoveries += 1
        self.server_recovery_info.append(recovery)

    # ------------------------------------------------------------------
    # Scenario interventions
    # ------------------------------------------------------------------
    def _doctored_candidate(self, now: int) -> BudgetEpoch:
        last = self.plane.last_good
        return BudgetEpoch(
            epoch_id=self.plane.ledger.next_epoch_id,
            budgets={
                chain: {
                    segment: max(1, int(d_mon * 0.45))
                    for segment, d_mon in segments.items()
                }
                for chain, segments in last.budgets.items()
            },
            basis={"injected": True, "step": now},
            parent_id=last.epoch_id,
        )

    def _stage_validate_then_crash(self, now: int) -> None:
        """Mimic a crash in the validate->publish window at the ledger
        level: the candidate is recorded and validated, the publication
        never happens, and the server goes down."""
        if not self.server_up or self.plane.state is not ControlPlaneState.IDLE:
            return
        outcome = self.plane.resolver.resolve(list(self.plane.window))
        if outcome.ok:
            candidate = outcome.epoch(
                epoch_id=self.plane.ledger.next_epoch_id,
                parent_id=self.plane.last_good.epoch_id,
                basis={"staged": True},
            )
            if candidate.digest() != self.plane.last_good.digest():
                self.plane.ledger.record_epoch(candidate)
                verdict = self.plane.shadow.validate(
                    list(self.plane.window), candidate, self.plane.last_good
                )
                if verdict.accepted:
                    self.plane.ledger.record_validated(
                        candidate.epoch_id, verdict.to_json()
                    )
                    self.staged_abandon_id = candidate.epoch_id
        if self._kill_server():
            self._pending_recoveries.setdefault(
                now + self.scenario.crash_down_for, []
            ).append(CrashEvent(step=now, side="server",
                                down_for=self.scenario.crash_down_for))

    # ------------------------------------------------------------------
    def run(self) -> AdaptResult:
        result = AdaptResult(name=self.scenario.name)
        pending_kills = sorted(self.scenario.crashes, key=lambda e: e.step)
        pending_modes = sorted(self.scenario.mode_events)

        for now in range(self.config.max_steps):
            for event in self._pending_recoveries.pop(now, []):
                self._recover(event, now)
            while pending_modes and pending_modes[0][0] == now:
                _, index, mode = pending_modes.pop(0)
                vehicle = self.vehicles[index % len(self.vehicles)]
                if vehicle.alive:
                    vehicle.set_mode(DegradationMode(mode), now)
            while pending_kills and pending_kills[0].step == now:
                event = pending_kills.pop(0)
                if self._kill(event):
                    self._pending_recoveries.setdefault(
                        now + event.down_for, []
                    ).append(event)
            if self.scenario.validate_then_crash_at == now:
                self._stage_validate_then_crash(now)
            if self.server_up:
                if self.scenario.inject_bad_at == now:
                    self.plane.consider(
                        now, candidate=self._doctored_candidate(now)
                    )
                if self.scenario.force_rederive_at == now:
                    self.plane.consider(now)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    vehicle.generate_and_spool()
            self.up.step(now)
            self.down.step(now)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    vehicle.client.tick(now)
            if self.server_up:
                self.plane.tick(now, self._violation_counts)
            if (
                not pending_kills and not self._pending_recoveries
                and not pending_modes
                and self.server_up
                and all(v.alive and v.drained for v in self.vehicles)
                and all(v.client.idle() for v in self.vehicles)
                and self.up.pending() == 0 and self.down.pending() == 0
                and self.plane.state is ControlPlaneState.IDLE
                and self.plane.distributor.idle()
                and all(v.agent.pending is None for v in self.vehicles)
                and all(
                    v.agent.active is not None
                    and v.agent.active.digest()
                    == self.plane.last_good.digest()
                    for v in self.vehicles
                )
            ):
                result.converged_at = now
                break

        self._finish(result)
        return result

    # ------------------------------------------------------------------
    def _finish(self, result: AdaptResult) -> None:
        scenario = self.scenario
        result.check(
            "converged", result.converged_at is not None,
            f"not converged within {self.config.max_steps} steps"
            if result.converged_at is None else "",
        )

        # --- epoch invariant: nothing unvalidated ever ran anywhere.
        ledger = self.plane.ledger
        ran: Set[int] = set()
        for vehicle in self.vehicles:
            ran |= vehicle.installed_ids
            ran |= vehicle.agent.applied
        unvalidated = ran - ledger.validated
        poisoned = ran & set(ledger.rejected)
        result.check(
            "epoch_invariant", not unvalidated and not poisoned,
            f"ran unvalidated={sorted(unvalidated)} "
            f"rejected={sorted(poisoned)}"
            if unvalidated or poisoned else "",
        )
        received_rejected = {
            vehicle.source: sorted(
                vehicle.agent.received & set(ledger.rejected)
            )
            for vehicle in self.vehicles
            if vehicle.agent.received & set(ledger.rejected)
        }
        result.check(
            "rejected_never_distributed", not received_rejected,
            f"rejected epochs reached vehicles: {received_rejected}"
            if received_rejected else "",
        )

        # --- convergence: one fleet, one digest.
        target = self.plane.last_good.digest()
        stragglers = [
            vehicle.source for vehicle in self.vehicles
            if vehicle.agent.active is None
            or vehicle.agent.active.digest() != target
        ]
        result.check(
            "epoch_convergence", not stragglers,
            f"vehicles not on last-good budgets: {stragglers}"
            if stragglers else "",
        )

        # --- conservation laws.
        result.vehicles = {
            vehicle.source: vehicle.agent.ledger_json()
            for vehicle in self.vehicles
        }
        balanced = all(
            entry["balanced"] for entry in result.vehicles.values()
        )
        result.check(
            "epoch_ledger", balanced,
            "received != applied + pending + superseded (disjoint)"
            if not balanced else "",
        )
        result.uplink_ledger = {
            vehicle.source: vehicle.uplink_ledger_json()
            for vehicle in self.vehicles
        }
        up_balanced = all(
            entry["balanced"] for entry in result.uplink_ledger.values()
        )
        result.check(
            "uplink_ledger", up_balanced,
            "offered != acked + spooled + evicted (disjoint) somewhere"
            if not up_balanced else "",
        )
        result.check(
            "accounting", self.ingestor.service.accounting_ok(),
            "fleet service accounting law violated",
        )

        # --- recovery equivalence (store and epoch ledger).
        live_digest = store_digest(self.ingestor.service)
        self.ingestor.close()
        recovered, _ = UplinkIngestor.recover(
            self.server_dir,
            self.config.service_config(self.epoch0),
            fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )
        recovered_digest = store_digest(recovered.service)
        recovered.close()
        result.check(
            "store_recovery", recovered_digest == live_digest,
            "cold store recovery != live store",
        )
        live_ledger = ledger.to_json()
        self.plane.close()
        cold_ledger, _ = EpochLedger.recover(
            self.server_dir / "epochs.log", fsync=self.config.fsync
        )
        cold_json = cold_ledger.to_json()
        cold_ledger.close()
        result.check(
            "ledger_recovery", cold_json == live_ledger,
            "cold epoch-ledger replay != live ledger",
        )
        for vehicle in self.vehicles:
            vehicle.spooler.close()
            vehicle.agent.close()

        # --- scenario expectations, all derived from the durable ledger
        # (crash-proof, unlike in-memory counters).
        promoted = [
            eid for eid, stage, _ in ledger.published
            if stage == "fleet" and eid > 0
            and ledger.epochs[eid].rollback_of is None
        ]
        if scenario.expect_promotion:
            result.check(
                "promotion", bool(promoted),
                "no re-derived epoch reached a fleet rollout",
            )
        if scenario.expect_reject:
            result.check(
                "rejected", bool(ledger.rejected),
                "scenario expected a shadow-validation rejection",
            )
        if scenario.expect_rollback:
            result.check(
                "rollback", bool(ledger.rollbacks),
                "scenario expected an automatic rollback",
            )
        if scenario.expect_deferral:
            result.check(
                "deferral", self.deferred_acks_seen > 0,
                "scenario expected a deferred epoch ack",
            )
        if scenario.expect_pending_recovery:
            result.check(
                "pending_recovery",
                any(v.pending_recoveries > 0 for v in self.vehicles),
                "no vehicle recovered through the torn-apply window",
            )
        if scenario.expect_abandoned:
            abandoned = [
                eid
                for info in self.server_recovery_info
                for eid in info.get("abandoned", [])
            ]
            result.check(
                "abandoned",
                self.staged_abandon_id is not None
                and self.staged_abandon_id in abandoned,
                f"staged draft {self.staged_abandon_id} not abandoned "
                f"on recovery (abandoned={abandoned})",
            )

        result.epochs = {
            "last_good": self.plane.last_good.epoch_id,
            "last_good_digest": target,
            "ledger": live_ledger,
            "promoted": promoted,
            "staged_abandoned": self.staged_abandon_id,
        }
        result.channels = {
            "up": self.up.stats.to_json(),
            "down": self.down.stats.to_json(),
        }
        result.recoveries = {
            "server": self.server_recoveries,
            "server_info": self.server_recovery_info,
            "vehicles": {
                vehicle.source: {
                    "recoveries": vehicle.recoveries,
                    "pending_applies": vehicle.pending_recoveries,
                }
                for vehicle in self.vehicles if vehicle.recoveries
            },
        }


# ----------------------------------------------------------------------
# Sweep + CLI
# ----------------------------------------------------------------------
def _run_one(
    scenario: AdaptScenario, config: AdaptConfig, workdir: Optional[Path]
) -> AdaptResult:
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-adapt-") as tmp:
            return AdaptDriver(scenario, config, Path(tmp)).run()
    return AdaptDriver(scenario, config, Path(workdir)).run()


def _run_scenario_by_name(payload: Tuple[str, dict]) -> dict:
    """Worker task: rebuild one named default scenario and run it in an
    isolated tempdir.  Names cross the process boundary, results come
    back as JSON -- merged in input order, the parallel report is
    byte-identical to the serial one."""
    name, config_fields = payload
    matching = [s for s in default_scenarios() if s.name == name]
    if not matching:
        raise KeyError(f"unknown adapt scenario {name!r}")
    config = AdaptConfig(**config_fields)
    return _run_one(matching[0], config, None).to_json()


def run_adapt(
    config: Optional[AdaptConfig] = None,
    scenarios: Optional[List[AdaptScenario]] = None,
    workdir: Optional[Path] = None,
    jobs: int = 1,
) -> dict:
    """Run a scenario sweep; returns the JSON report document."""
    config = config or AdaptConfig()
    scenarios = scenarios if scenarios is not None else default_scenarios()
    if jobs > 1 and workdir is None:
        from repro.experiments.parallel import spawn_pool

        with spawn_pool(min(jobs, len(scenarios))) as pool:
            docs = pool.map(
                _run_scenario_by_name,
                [(s.name, asdict(config)) for s in scenarios],
            )
    else:
        docs = [
            _run_one(scenario, config, workdir).to_json()
            for scenario in scenarios
        ]
    return {
        "schema": "repro-adapt-report/1",
        "config": {
            "vehicles": config.vehicles,
            "frames": config.frames,
            "seed": config.seed,
            "fsync": config.fsync,
        },
        "ok": all(doc["ok"] for doc in docs),
        "scenarios": docs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro adapt",
        description="closed-loop budget control plane chaos sweep "
                    "(epochs, shadow validation, canary, rollback)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="shorter run (CI smoke)")
    parser.add_argument("--vehicles", type=int, default=None)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", help="run only NAME (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="PATH", help="write the JSON report here")
    parser.add_argument("--dir", type=Path, default=None,
                        metavar="PATH", help="work under PATH (kept)")
    parser.add_argument("--fsync", choices=("always", "rotate", "never"),
                        default="never")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="scenarios run in N worker processes")
    args = parser.parse_args(argv)

    scenarios = default_scenarios()
    if args.list:
        for scenario in scenarios:
            print(f"{scenario.name:<26s} {scenario.description}")
        return 0
    if args.scenario:
        known = {scenario.name for scenario in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(unknown)}")
        scenarios = [s for s in scenarios if s.name in set(args.scenario)]

    config = AdaptConfig(
        vehicles=args.vehicles or 3,
        frames=args.frames or (96 if args.quick else 120),
        seed=args.seed,
        fsync=args.fsync,
    )
    report = run_adapt(config, scenarios, workdir=args.dir, jobs=args.jobs)
    for entry in report["scenarios"]:
        result = AdaptResult(
            name=entry["name"], ok=entry["ok"],
            converged_at=entry["converged_at"], checks=entry["checks"],
        )
        print(result.render())
    print(
        f"adapt: {'ALL PASS' if report['ok'] else 'FAILURES'} "
        f"({len(report['scenarios'])} scenarios, "
        f"vehicles={config.vehicles}, frames={config.frames}, "
        f"seed={config.seed})"
    )
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"report -> {args.report}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
