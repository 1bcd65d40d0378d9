"""Deterministic chaos harness for the store-and-forward uplink.

One scenario = one fault plan per channel direction + a crash schedule.
The driver owns virtual time (a bare step counter), emits each
vehicle's share of the deterministic fleet stream into its WAL spool,
ticks the retrying clients, steps the adversarial channels, and kills /
recovers either endpoint exactly on schedule.  Because every random
draw comes from a seeded stream and no wall clock is read, a scenario
replays byte-identically -- a failing schedule is a repro, not a flake.

The driver is the *omniscient ledger*: component counters die with the
process they live in, so ground truth is kept here, as per-vehicle seq
sets fed by the spool's ``on_evict`` and the client's ``on_acked``
hooks.  At the end of every scenario it asserts:

- **ledger law** -- ``offered == acked + spooled + evicted`` as a
  *disjoint set union* per vehicle (no record lost, none double-lived);
- **digest convergence** -- the fleet store's content digest equals a
  fault-free reference fed the same stream directly (fault classes
  that lose nothing), which also proves no (m,k) miss was
  double-counted or lost, since miss counters are part of the digest;
- **recovery equivalence** -- an ingestor recovered cold from disk
  (checkpoint + WAL replay) produces the same digest as the live one,
  in *every* scenario;
- **counted eviction** -- scenarios that force the disk budget must
  see ``evicted > 0`` (and still balance the ledger).

Run it: ``python -m repro chaos`` (add ``--quick`` in CI).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.records import TelemetryRecord
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import UplinkIngestor, store_digest
from repro.telemetry.uplink.transport import (
    AdversarialChannel,
    ChannelFaultPlan,
    decode_envelope,
)
from repro.telemetry.uplink.wal import WalConfig, WalSpooler
from repro.telemetry.uplink.window import (
    WindowedClientConfig,
    WindowedUplinkClient,
)

#: Cumulative per-scenario protocol counters the report may carry.
#: ``load_report`` warns on anything else (additive evolution, same
#: contract as the telemetry schema guards).
KNOWN_PROTOCOL_COUNTERS = frozenset({
    # stop-and-wait client (reports written before the driver became
    # windowed-only)
    "batches_sent", "retries",
    # windowed client
    "frames_sent", "retransmits", "fast_retransmits", "dup_acks",
    "window_stalls", "probes", "floor_probes", "shed_records", "hellos",
    "rate_rejects", "hello_rejects",
    # shared
    "records_sent", "timeouts", "acks", "stale_acks", "circuit_opens",
    # gateway side
    "shed_by_class", "auth_rejects", "session_rejects",
    "window_rejects", "gateway_rate_rejects",
})

#: Client counters folded into the per-scenario protocol section
#: (cumulative only -- gauges like ``in_flight`` stay out).
_CLIENT_COUNTER_KEYS = frozenset({
    "frames_sent", "retransmits", "fast_retransmits", "dup_acks",
    "window_stalls", "probes", "floor_probes", "shed_records", "hellos",
    "rate_rejects", "hello_rejects",
    "records_sent", "timeouts", "acks", "stale_acks", "circuit_opens",
})


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ChaosConfig:
    """Fleet shape and driver knobs shared by every scenario."""

    vehicles: int = 3
    frames: int = 40
    seed: int = 2025
    #: Records each live vehicle spools per step.
    emit_per_step: int = 8
    #: Hard cap on driver steps (a scenario that does not converge by
    #: then fails its ``converged`` check).
    max_steps: int = 5000
    #: WAL fsync policy.  Chaos kills *processes*, not power, so
    #: ``never`` keeps sweeps fast without weakening what is tested.
    fsync: str = "never"
    segment_max_records: int = 32
    checkpoint_every: Optional[int] = 4
    #: Fault cadence of the *emitted* stream (0: clean -- chaos usually
    #: injects its own faults in transport; gateway overload scenarios
    #: raise it to get an alert/telemetry/dashboard class mix).
    faulty_every: int = 0

    def __post_init__(self) -> None:
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.emit_per_step < 1:
            raise ValueError("emit_per_step must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            vehicles=self.vehicles, frames=self.frames, seed=self.seed,
            faulty_every=self.faulty_every,
        )

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            queue_capacity=1 << 16,
            store=self.fleet_config().store_config(),
        )

    def windowed_client_config(
        self, token: Optional[str] = None
    ) -> WindowedClientConfig:
        return WindowedClientConfig(
            frame_records=16, window_frames=8, ack_timeout=6,
            backoff_base=2, backoff_max=32, failure_threshold=4,
            cooldown=10, dup_ack_threshold=3, seed=self.seed,
            token=token,
        )


@dataclass(frozen=True)
class CrashEvent:
    """Kill one endpoint at ``step``; recover it ``down_for`` later."""

    step: int
    side: str  # "vehicle" | "server"
    vehicle: int = 0  # vehicle index (vehicle side only)
    down_for: int = 8
    torn_tail: bool = False

    def __post_init__(self) -> None:
        if self.side not in ("vehicle", "server"):
            raise ValueError(f"side must be vehicle|server, got {self.side!r}")
        if self.step < 0 or self.down_for < 1:
            raise ValueError("need step >= 0 and down_for >= 1")


@dataclass
class ChaosScenario:
    """One named fault x crash schedule."""

    name: str
    description: str = ""
    up: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    down: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    crashes: Tuple[CrashEvent, ...] = ()
    #: Vehicle WAL disk budget (None: unbounded).
    wal_max_bytes: Optional[int] = None
    #: Compare the fleet store digest against the fault-free reference
    #: (off only for scenarios that *lose* records by design).
    check_digest: bool = True
    expect_evictions: bool = False

    def make_driver(
        self, config: "ChaosConfig", workdir: Path
    ) -> "ChaosDriver":
        """Driver factory -- gateway scenarios override this."""
        return ChaosDriver(self, config, workdir)


def default_scenarios() -> List[ChaosScenario]:
    """The sweep ``python -m repro chaos`` runs: every fault class,
    three crash points per side, a kitchen-sink mix, and a forced
    disk-budget eviction."""
    return [
        ChaosScenario(
            name="baseline",
            description="clean channels, no crashes (harness sanity)",
        ),
        ChaosScenario(
            name="drop",
            description="15% datagram loss in both directions",
            up=ChannelFaultPlan(drop_prob=0.15),
            down=ChannelFaultPlan(drop_prob=0.15),
        ),
        ChaosScenario(
            name="duplicate",
            description="25% duplication both ways (dedup must absorb)",
            up=ChannelFaultPlan(dup_prob=0.25),
            down=ChannelFaultPlan(dup_prob=0.25),
        ),
        ChaosScenario(
            name="reorder",
            description="heavy reordering + jitter both ways",
            up=ChannelFaultPlan(reorder_prob=0.3, reorder_extra=7,
                                jitter_steps=2),
            down=ChannelFaultPlan(reorder_prob=0.2, jitter_steps=2),
        ),
        ChaosScenario(
            name="corrupt",
            description="bit flips; CRC framing must reject, retry heals",
            up=ChannelFaultPlan(corrupt_prob=0.2),
            down=ChannelFaultPlan(corrupt_prob=0.1),
        ),
        ChaosScenario(
            name="partition",
            description="full two-way partition for 20 steps",
            up=ChannelFaultPlan(partitions=((12, 32),)),
            down=ChannelFaultPlan(partitions=((12, 32),)),
        ),
        ChaosScenario(
            name="vehicle_crash",
            description="vehicle killed at 3 points; one torn WAL tail",
            crashes=(
                CrashEvent(step=6, side="vehicle", vehicle=0),
                CrashEvent(step=18, side="vehicle", vehicle=1,
                           torn_tail=True),
                CrashEvent(step=30, side="vehicle", vehicle=0),
            ),
        ),
        ChaosScenario(
            name="server_crash",
            description="fleet ingestor killed at 3 points",
            crashes=(
                CrashEvent(step=6, side="server"),
                CrashEvent(step=20, side="server"),
                CrashEvent(step=34, side="server"),
            ),
        ),
        ChaosScenario(
            name="chaos_mixed",
            description="drop+dup+reorder+corrupt + partition + crashes",
            up=ChannelFaultPlan(drop_prob=0.08, dup_prob=0.08,
                                reorder_prob=0.1, corrupt_prob=0.05,
                                partitions=((24, 34),)),
            down=ChannelFaultPlan(drop_prob=0.08, dup_prob=0.08,
                                  corrupt_prob=0.05),
            crashes=(
                CrashEvent(step=10, side="vehicle", vehicle=0,
                           torn_tail=True),
                CrashEvent(step=16, side="server"),
            ),
        ),
        ChaosScenario(
            name="eviction",
            description="uplink partitioned while the WAL budget fills:"
                        " oldest records evicted, counted, ledger holds",
            up=ChannelFaultPlan(partitions=((0, 60),)),
            wal_max_bytes=4096,
            check_digest=False,
            expect_evictions=True,
        ),
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Outcome of one scenario run (JSON-friendly)."""

    name: str
    ok: bool = True
    converged_at: Optional[int] = None
    checks: List[dict] = field(default_factory=list)
    ledger: dict = field(default_factory=dict)
    channels: dict = field(default_factory=dict)
    ingest: dict = field(default_factory=dict)
    recoveries: dict = field(default_factory=dict)
    #: Cumulative protocol counters (retransmits, dup-acks, window
    #: stalls, shed-by-class, ...) summed across vehicle lives.
    protocol: dict = field(default_factory=dict)

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
            "ledger": self.ledger,
            "channels": self.channels,
            "ingest": self.ingest,
            "recoveries": self.recoveries,
            "protocol": self.protocol,
        }

    def render(self) -> str:
        flags = " ".join(
            f"{c['name']}={'OK' if c['ok'] else 'FAIL'}" for c in self.checks
        )
        status = "PASS" if self.ok else "FAIL"
        at = self.converged_at if self.converged_at is not None else "-"
        return f"{status:4s} {self.name:<14s} converged@{at!s:<6} {flags}"


# ----------------------------------------------------------------------
# Driver internals
# ----------------------------------------------------------------------
class _Vehicle:
    """One vehicle endpoint: stream cursor + spool + client + ledger."""

    def __init__(
        self,
        source: str,
        records: List[TelemetryRecord],
        wal_config: WalConfig,
        client_config: WindowedClientConfig,
        send,
    ):
        self.source = source
        self.records = records
        self.wal_config = wal_config
        self.client_config = client_config
        self._send = send
        self.cursor = 0
        self.alive = True
        self.lives = 0
        self.recoveries = 0
        self.truncated_lines = 0
        # Ground-truth ledger sets (survive endpoint crashes).
        self.offered: Set[int] = set()
        self.acked: Set[int] = set()
        self.evicted: Set[int] = set()
        #: Seqs the gateway announced as shed (released as *shed*, not
        #: acked -- a fourth disjoint ledger bucket).
        self.shed: Set[int] = set()
        #: Protocol counters folded across client lives.
        self.proto: Dict[str, int] = {}
        self.spooler = WalSpooler.open_fresh(wal_config, source)
        self.client = self._make_client()
        self._wire()

    def _make_client(self) -> WindowedUplinkClient:
        return WindowedUplinkClient(
            self.spooler, self._send, self.client_config, life=self.lives
        )

    def _wire(self) -> None:
        self.spooler.on_evict = lambda lost: self.evicted.update(
            record.seq for record in lost
        )
        self.client.on_acked = lambda released: self.acked.update(
            record.seq for record in released
        )
        self.client.on_shed = lambda released: self.shed.update(
            record.seq for record in released
        )

    def fold_proto(self) -> None:
        """Fold this client life's cumulative counters into the
        ledger-side totals (called before the client is discarded, and
        once at scenario end for the live client)."""
        for key, value in self.client.stats().items():
            if key in _CLIENT_COUNTER_KEYS and isinstance(value, int):
                self.proto[key] = self.proto.get(key, 0) + value

    # ------------------------------------------------------------------
    def emit(self, budget: int) -> None:
        while budget > 0 and self.cursor < len(self.records):
            record = self.records[self.cursor]
            self.spooler.append(record)
            self.offered.add(record.seq)
            self.cursor += 1
            budget -= 1

    @property
    def drained(self) -> bool:
        return self.cursor >= len(self.records)

    # ------------------------------------------------------------------
    def kill(self, torn_tail: bool) -> None:
        """Simulate process death at a record boundary -- or, with
        *torn_tail*, mid-append: the newest WAL line is half-written."""
        self.alive = False
        self.fold_proto()
        handle = self.spooler._file
        if handle is not None and not handle.closed:
            handle.flush()
            handle.close()
        if torn_tail:
            self._tear_tail()

    def _tear_tail(self) -> None:
        # Only the active segment's newest record can be mid-write, and
        # only a still-pending record may be rewound in the ledger.
        active = self.spooler.segments[-1]
        if not active.records:
            return  # nothing pending in the tail file: clean crash
        raw = active.path.read_bytes()
        lines = raw.split(b"\n")
        if len(lines) < 3:  # header + record + trailing ""
            return
        last = lines[-2]
        kept = raw[: len(raw) - len(last) - 1]
        active.path.write_bytes(kept + last[: len(last) // 2])
        # That append "never happened": rewind the cursor and ledger so
        # the recovered vehicle re-spools the same record.
        torn_seq = self.spooler.last_seq
        self.offered.discard(torn_seq)
        self.cursor -= 1

    def recover(self) -> None:
        self.spooler, report = WalSpooler.recover(
            self.wal_config, self.source
        )
        self.lives += 1
        self.recoveries += 1
        self.truncated_lines += report.truncated_lines
        self.client = self._make_client()
        self._wire()
        self.alive = True

    # ------------------------------------------------------------------
    def ledger_json(self) -> dict:
        spooled = set(self.spooler.pending_seqs())
        union = self.acked | spooled | self.evicted | self.shed
        disjoint = (
            len(self.acked) + len(spooled) + len(self.evicted)
            + len(self.shed) == len(union)
        )
        return {
            "offered": len(self.offered),
            "acked": len(self.acked),
            "spooled": len(spooled),
            "evicted": len(self.evicted),
            "shed": len(self.shed),
            "balanced": self.offered == union and disjoint,
        }


class ChaosDriver:
    """Runs one scenario to convergence and verifies its invariants."""

    def __init__(
        self, scenario: ChaosScenario, config: ChaosConfig, workdir: Path
    ):
        self.scenario = scenario
        self.config = config
        self.workdir = Path(workdir) / scenario.name
        fleet = config.fleet_config()
        all_records = FleetLoadGenerator(fleet).materialize()
        streams: Dict[str, List[TelemetryRecord]] = {
            source: [] for source in fleet.vehicle_ids()
        }
        for record in all_records:
            streams[record.source].append(record)

        # The fault-free reference: the same stream, ingested directly.
        reference = TelemetryService(config.service_config())
        reference.ingest_many(all_records)
        reference.pump()
        self.reference_digest = store_digest(reference)

        self.up = AdversarialChannel(
            "uplink", self._deliver_up, scenario.up, seed=config.seed
        )
        self.down = AdversarialChannel(
            "downlink", self._deliver_down, scenario.down, seed=config.seed
        )
        self.vehicles: List[_Vehicle] = []
        for source in fleet.vehicle_ids():
            wal_config = WalConfig(
                directory=self.workdir / source,
                fsync=config.fsync,
                segment_max_records=config.segment_max_records,
                max_bytes=scenario.wal_max_bytes,
            )
            self.vehicles.append(_Vehicle(
                source, streams[source], wal_config,
                self._vehicle_client_config(source),
                self._make_send(source),
            ))
        self.server_dir = self.workdir / "fleet"
        self.server_up = True
        self.server_recoveries = 0
        self.dead_ingests = 0
        self.dead_acks = 0
        self.ingestor = UplinkIngestor(
            TelemetryService(config.service_config()),
            self.server_dir,
            fsync=config.fsync,
            checkpoint_every=config.checkpoint_every,
        )
        self._now = 0

    # ------------------------------------------------------------------
    def _vehicle_client_config(self, source: str):
        """Per-vehicle client config (gateway driver injects tokens)."""
        return self.config.windowed_client_config()

    def _make_send(self, source: str):
        return lambda payload, now: self.up.send(
            payload, src=source, dst="fleet", now=now
        )

    def _deliver_up(self, frame, now: int) -> None:
        if not self.server_up:
            self.up.stats.dead_letter += 1
            self.dead_ingests += 1
            return
        ack = self.ingestor.handle_payload(frame.payload, now)
        if ack is not None:
            self.down.send(ack, src="fleet", dst=frame.src, now=now)

    def _server_step(self, now: int) -> None:
        """Per-step server work (the gateway driver drains its backlog
        and outbox here; the bare ingestor is purely reactive)."""

    def _server_idle(self) -> bool:
        """Extra convergence predicate for stateful servers."""
        return True

    def _deliver_down(self, frame, now: int) -> None:
        vehicle = next(
            (v for v in self.vehicles if v.source == frame.dst), None
        )
        if vehicle is None or not vehicle.alive:
            self.down.stats.dead_letter += 1
            self.dead_acks += 1
            return
        doc = decode_envelope(frame.payload)
        if doc is not None:
            vehicle.client.on_ack(doc, now)

    # ------------------------------------------------------------------
    def _kill(self, event: CrashEvent) -> bool:
        if event.side == "server":
            if not self.server_up:
                return False
            self.server_up = False
            self.ingestor.close()
            return True
        vehicle = self.vehicles[event.vehicle % len(self.vehicles)]
        if not vehicle.alive:
            return False
        vehicle.kill(event.torn_tail)
        return True

    def _recover(self, event: CrashEvent) -> None:
        if event.side == "server":
            self.ingestor, _ = UplinkIngestor.recover(
                self.server_dir,
                self.config.service_config(),
                fsync=self.config.fsync,
                checkpoint_every=self.config.checkpoint_every,
            )
            self.server_up = True
            self.server_recoveries += 1
        else:
            self.vehicles[event.vehicle % len(self.vehicles)].recover()

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        result = ScenarioResult(name=self.scenario.name)
        kills = sorted(self.scenario.crashes, key=lambda e: e.step)
        pending_kills = list(kills)
        pending_recoveries: Dict[int, List[CrashEvent]] = {}

        for now in range(self.config.max_steps):
            self._now = now
            for event in pending_recoveries.pop(now, []):
                self._recover(event)
            while pending_kills and pending_kills[0].step == now:
                event = pending_kills.pop(0)
                if self._kill(event):
                    pending_recoveries.setdefault(
                        now + event.down_for, []
                    ).append(event)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    vehicle.emit(self.config.emit_per_step)
            self.up.step(now)
            self._server_step(now)
            self.down.step(now)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    vehicle.client.tick(now)
            if (
                not pending_kills and not pending_recoveries
                and self.server_up
                and all(v.alive and v.drained for v in self.vehicles)
                and all(v.client.idle() for v in self.vehicles)
                and self.up.pending() == 0 and self.down.pending() == 0
                and self._server_idle()
            ):
                result.converged_at = now
                break

        self._finish(result)
        return result

    # ------------------------------------------------------------------
    def _finish(self, result: ScenarioResult) -> None:
        scenario = self.scenario
        result.check(
            "converged", result.converged_at is not None,
            f"not converged within {self.config.max_steps} steps"
            if result.converged_at is None else "",
        )
        result.ledger = {
            v.source: v.ledger_json() for v in self.vehicles
        }
        balanced = all(
            entry["balanced"] for entry in result.ledger.values()
        )
        result.check(
            "ledger", balanced,
            "offered != acked + spooled + evicted (disjoint) somewhere"
            if not balanced else "",
        )
        evicted_total = sum(len(v.evicted) for v in self.vehicles)
        if scenario.expect_evictions:
            result.check(
                "evictions", evicted_total > 0,
                "scenario expected the disk budget to evict records",
            )
        else:
            result.check(
                "no_evictions", evicted_total == 0,
                f"{evicted_total} records evicted without a budget",
            )
        result.check(
            "accounting", self.ingestor.service.accounting_ok(),
            "fleet service accounting law violated",
        )

        live_digest = store_digest(self.ingestor.service)
        if scenario.check_digest:
            result.check(
                "digest", live_digest == self.reference_digest,
                "fleet store diverged from the fault-free reference",
            )
        self.ingestor.close()
        recovered, _ = UplinkIngestor.recover(
            self.server_dir,
            self.config.service_config(),
            fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )
        recovered_digest = store_digest(recovered.service)
        recovered.close()
        result.check(
            "recovery_digest", recovered_digest == live_digest,
            "cold recovery (checkpoint + WAL replay) != live store",
        )
        for vehicle in self.vehicles:
            vehicle.spooler.close()

        result.channels = {
            "up": self.up.stats.to_json(),
            "down": self.down.stats.to_json(),
        }
        result.ingest = self.ingestor.stats()
        totals: Dict[str, int] = {}
        for vehicle in self.vehicles:
            if vehicle.alive:  # dead clients folded at kill() time
                vehicle.fold_proto()
            for key, value in vehicle.proto.items():
                totals[key] = totals.get(key, 0) + value
        result.protocol = totals
        self._finish_server(result)
        result.recoveries = {
            "server": self.server_recoveries,
            "vehicles": {
                v.source: {
                    "recoveries": v.recoveries,
                    "truncated_lines": v.truncated_lines,
                }
                for v in self.vehicles if v.recoveries
            },
        }

    def _finish_server(self, result: ScenarioResult) -> None:
        """Server-side scenario checks (gateway driver adds its own)."""


# ----------------------------------------------------------------------
# Sweep + CLI
# ----------------------------------------------------------------------
def run_chaos(
    config: Optional[ChaosConfig] = None,
    scenarios: Optional[List[ChaosScenario]] = None,
    workdir: Optional[Path] = None,
) -> dict:
    """Run a scenario sweep; returns the JSON report document."""
    config = config or ChaosConfig()
    scenarios = scenarios if scenarios is not None else default_scenarios()
    results: List[ScenarioResult] = []
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            for scenario in scenarios:
                results.append(
                    scenario.make_driver(config, Path(tmp)).run()
                )
    else:
        for scenario in scenarios:
            results.append(
                scenario.make_driver(config, Path(workdir)).run()
            )
    return {
        "schema": "repro-chaos-report/1",
        "config": {
            "vehicles": config.vehicles,
            "frames": config.frames,
            "seed": config.seed,
            "fsync": config.fsync,
        },
        "ok": all(r.ok for r in results),
        "scenarios": [r.to_json() for r in results],
    }


def load_report(source: Union[str, Path, dict]) -> dict:
    """Load (and sanity-guard) a ``--report`` JSON document.

    Unknown per-scenario protocol counters warn instead of failing --
    the same additive-evolution contract as the telemetry schema
    guards: a report written by a newer build stays readable."""
    if isinstance(source, dict):
        report = source
    else:
        report = json.loads(Path(source).read_text())
    schema = report.get("schema")
    if schema != "repro-chaos-report/1":
        raise ValueError(f"not a chaos report (schema={schema!r})")
    for entry in report.get("scenarios", []):
        counters = entry.get("protocol", {})
        unknown = sorted(set(counters) - KNOWN_PROTOCOL_COUNTERS)
        if unknown:
            warnings.warn(
                f"chaos report scenario {entry.get('name')!r}: ignoring "
                f"unknown protocol counter(s) {unknown} "
                f"(written by a newer build?)",
                stacklevel=2,
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="uplink fault x crash chaos sweep with ledger checks",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small fleet (CI smoke)")
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
    args = parser.parse_args(argv)

    from repro.telemetry.gateway.chaos import gateway_scenarios

    scenarios = default_scenarios() + gateway_scenarios()
    if args.list:
        for scenario in scenarios:
            print(f"{scenario.name:<14s} {scenario.description}")
        return 0
    if args.scenario:
        known = {scenario.name for scenario in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(unknown)}")
        scenarios = [s for s in scenarios if s.name in set(args.scenario)]

    config = ChaosConfig(
        vehicles=args.vehicles or (2 if args.quick else 3),
        frames=args.frames or (16 if args.quick else 40),
        seed=args.seed,
        fsync=args.fsync,
    )
    report = run_chaos(config, scenarios, workdir=args.dir)
    for entry in report["scenarios"]:
        result = ScenarioResult(
            name=entry["name"], ok=entry["ok"],
            converged_at=entry["converged_at"], checks=entry["checks"],
        )
        print(result.render())
    print(
        f"chaos: {'ALL PASS' if report['ok'] else 'FAILURES'} "
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
