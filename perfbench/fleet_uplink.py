"""``fleet_uplink``: a fleet's records through the whole ingest path.

``FleetLoadGenerator`` records (``faulty_every > 0``, so alerts fire)
go ``WalSpooler`` -> ``WindowedUplinkClient`` -> a clean fixed-delay
``AdversarialChannel`` -> ``FleetGateway`` -> ``UplinkIngestor`` ->
``TelemetryService``, acks flowing back over a second channel.  The
gateway runs ``GatewayConfig`` defaults except ``fsync="never"`` (disk
flush time is the sandbox's, not the program's), in a scratch directory
inside the checkout.  An operator ``status_report`` read runs every
``STATUS_EVERY`` steps.  Closed loop on the virtual step clock: the
driver advances one step after the previous one finished.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.telemetry.gateway import FleetGateway, GatewayConfig, status_report
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import store_digest
from repro.telemetry.uplink.transport import (
    AdversarialChannel,
    ChannelFaultPlan,
    decode_envelope,
)
from repro.telemetry.uplink.wal import WalConfig, WalSpooler, encode_entry
from repro.telemetry.uplink.window import (
    WindowedClientConfig,
    WindowedUplinkClient,
)

from perfbench.harness import Rep, Verdict

#: (vehicles, frames) of the synthesized fleet.
SIZES = {"standard": (8, 60), "tiny": (4, 12)}
#: Records each vehicle spools per step.
EMIT_PER_STEP = 8
#: Operator status read cadence, in steps.
STATUS_EVERY = 10
#: Fixed one-way channel delay, in steps.
CHANNEL_DELAY = 2
MAX_STEPS = 5000
#: Scratch directories live here, relative to the working directory.
WORK_ROOT = Path(".perfbench_work")


class Vehicle:
    """One vehicle: its stream, spool, client and ledger sets."""

    def __init__(self, source, records, directory, seed, send):
        self.source = source
        self.records = records
        self.cursor = 0
        self.offered = set()
        self.acked = set()
        self.evicted = set()
        self.shed = set()
        self.spooler = WalSpooler.open_fresh(
            WalConfig(directory=directory, fsync="never"), source
        )
        self.client = WindowedUplinkClient(
            self.spooler, send,
            WindowedClientConfig(seed=seed, token=GatewayConfig().token),
        )
        self.spooler.on_evict = lambda lost: self.evicted.update(
            r.seq for r in lost)
        self.client.on_acked = lambda done: self.acked.update(
            r.seq for r in done)
        self.client.on_shed = lambda done: self.shed.update(
            r.seq for r in done)

    def emit(self, budget: int) -> None:
        batch = self.records[self.cursor:self.cursor + budget]
        if batch:
            self.spooler.append_many(batch)
            self.offered.update(r.seq for r in batch)
            self.cursor += len(batch)

    @property
    def drained(self) -> bool:
        return self.cursor >= len(self.records)

    def ledger(self) -> dict:
        spooled = set(self.spooler.pending_seqs())
        buckets = (self.acked, spooled, self.evicted, self.shed)
        union = set().union(*buckets)
        residual = len(self.offered) - sum(len(b) for b in buckets)
        return {
            "offered": len(self.offered), "acked": len(self.acked),
            "spooled": len(spooled), "evicted": len(self.evicted),
            "shed": len(self.shed),
            "residual": residual + len(self.offered ^ union),
        }


class FleetSystem:
    """Fleet, channels and gateway of one rep, in a scratch directory."""

    def __init__(self, workload: "FleetUplink"):
        WORK_ROOT.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        self.workload = workload
        fleet = workload.fleet_config()
        self.records = FleetLoadGenerator(fleet).materialize()
        streams = {source: [] for source in fleet.vehicle_ids()}
        for record in self.records:
            streams[record.source].append(record)
        seed = workload.seed
        plan = ChannelFaultPlan()
        self.up = AdversarialChannel("uplink", self._deliver_up, plan,
                                     seed=seed, base_delay=CHANNEL_DELAY)
        self.down = AdversarialChannel("downlink", self._deliver_down, plan,
                                       seed=seed, base_delay=CHANNEL_DELAY)
        self.service = TelemetryService(workload.service_config())
        self.gateway = FleetGateway(self.service, self.directory / "fleet",
                                    GatewayConfig(fsync="never"))
        self.vehicles = {}
        for source, records in streams.items():
            self.vehicles[source] = Vehicle(
                source, records, self.directory / source, seed,
                self._sender(source),
            )
        self.backlog_max = 0
        self.checkpoint_bytes = 0
        self.converged = False

    def _sender(self, source):
        return lambda payload, now: self.up.send(
            payload, src=source, dst="fleet", now=now)

    def _deliver_up(self, frame, now: int) -> None:
        self.gateway.handle_payload(frame.payload, now)

    def _deliver_down(self, frame, now: int) -> None:
        doc = decode_envelope(frame.payload)
        if doc is not None:
            self.vehicles[frame.dst].client.on_ack(doc, now)

    def drive(self, rep: Rep) -> None:
        """Step the fleet until every record is acked and every queue is
        empty, timing each step, its gateway step and status reads."""
        steps_ms = rep.samples.setdefault("ingest_step_ms", [])
        status_ms = rep.samples.setdefault("status_read_ms", [])
        gateway = self.gateway
        vehicles = list(self.vehicles.values())
        clock = time.perf_counter
        for now in range(MAX_STEPS):
            step_start = clock()
            for vehicle in vehicles:
                vehicle.emit(EMIT_PER_STEP)
            self.up.step(now)
            if gateway.backlog_records > self.backlog_max:
                self.backlog_max = gateway.backlog_records
            t0 = clock()
            drained = gateway.step(now)
            if drained:
                steps_ms.append((clock() - t0) * 1e3)
            for source, payload in gateway.poll_outbox():
                self.down.send(payload, src="fleet", dst=source, now=now)
            self.down.step(now)
            for vehicle in vehicles:
                vehicle.client.tick(now)
            if now % STATUS_EVERY == 0:
                t0 = clock()
                status_report(self.service, gateway=gateway)
                status_ms.append((clock() - t0) * 1e3)
            rep.chunks.append(clock() - step_start)
            if (
                all(v.drained and v.client.idle() for v in vehicles)
                and self.up.pending() == 0 and self.down.pending() == 0
                and gateway.idle()
            ):
                self.converged = True
                return

    def close(self) -> None:
        for vehicle in self.vehicles.values():
            vehicle.spooler.close()
        self.gateway.ingestor.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another system of this run still lives there


class FleetUplink:
    name = "fleet_uplink"

    def __init__(self, seed: int, size: str = "standard"):
        self.seed = seed
        self.size = size
        self.vehicles, self.frames = SIZES[size]
        self._reference = None

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(vehicles=self.vehicles, frames=self.frames,
                           seed=self.seed, faulty_every=4)

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(store=self.fleet_config().store_config())

    def setup(self):
        return FleetSystem(self)

    def run(self, system) -> Rep:
        rep = Rep(ops=0, seconds=0.0)
        t0 = time.perf_counter()
        system.drive(rep)
        rep.seconds = time.perf_counter() - t0
        rep.ops = sum(len(v.acked) for v in system.vehicles.values())
        rep.op_us = [x * 1e3 for x in rep.samples["ingest_step_ms"]]
        return rep

    # ------------------------------------------------------------------
    def reference_digest(self) -> str:
        """Digest of the same stream ingested straight into a service."""
        if self._reference is None:
            service = TelemetryService(self.service_config())
            service.ingest_many(FleetLoadGenerator(
                self.fleet_config()).materialize())
            service.pump()
            self._reference = store_digest(service)
        return self._reference

    def outputs(self, system) -> dict:
        return {"store": store_digest(system.service)}

    def verify(self, system, outputs=None) -> Verdict:
        """Per-vehicle ledger law with zero residual; every record acked
        and applied; store digest equals the direct-ingest reference."""
        outputs = outputs if outputs is not None else self.outputs(system)
        ledgers = {s: v.ledger() for s, v in system.vehicles.items()}
        offered = sum(e["offered"] for e in ledgers.values())
        acked = sum(e["acked"] for e in ledgers.values())
        residual = sum(abs(e["residual"]) for e in ledgers.values())
        applied = system.service.applied
        verdict = Verdict(attempted=offered, failed=0)
        verdict.digest = outputs["store"]
        verdict.failed = (offered - acked) + max(0, offered - applied) \
            + residual
        verdict.check("converged", system.converged,
                      f"not converged in {MAX_STEPS} steps")
        verdict.check("ledger", residual == 0,
                      f"ledger residual {residual}")
        verdict.check("all_acked_applied",
                      acked == offered == applied == len(system.records),
                      f"offered={offered} acked={acked} applied={applied}")
        verdict.check("accounting", system.service.accounting_ok(),
                      "service accounting law violated")
        verdict.check("store_digest",
                      outputs["store"] == self.reference_digest(),
                      "store differs from direct ingest of the stream")
        return verdict

    def instrument(self, system, tracer) -> None:
        """Count the bytes every checkpoint of the traced rep writes."""
        ingestor = system.gateway.ingestor

        def measure(_args, _result):
            system.checkpoint_bytes += sum(
                path.stat().st_size
                for path in ingestor.directory.glob("*.json"))

        tracer.wrap(ingestor, "checkpoint", measure)

    def layer_counts(self, system) -> dict:
        clients = [v.client.stats() for v in system.vehicles.values()]
        frames_sent = sum(c["frames_sent"] for c in clients)
        resent = sum(c["retransmits"] + c["fast_retransmits"]
                     for c in clients)
        gw = system.gateway.stats()
        ingest = gw["ingest"]
        return {
            "uplink.window.frames_sent": frames_sent,
            "uplink.window.retransmits": resent,
            "uplink.window.useful_ratio":
                (frames_sent - resent) / frames_sent if frames_sent else 0.0,
            "uplink.ingest.frames": ingest["frames"],
            "uplink.ingest.checkpoints": ingest["checkpoints"],
            "uplink.ingest.checkpoint_bytes": system.checkpoint_bytes,
            "uplink.wal.bytes": sum(
                len(encode_entry(record.encode_line())) + 1
                for record in system.records),
            "gateway.backlog_max": system.backlog_max,
            "gateway.rejects": sum(gw[k] for k in (
                "auth_rejects", "session_rejects", "rate_rejects",
                "window_rejects")),
            "gateway.shed": gw["shed_total"],
            "telemetry.store.applied": system.service.applied,
            "telemetry.alerts.fired": len(system.service.alert_log),
        }
