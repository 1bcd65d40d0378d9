"""Gateway chaos scenarios: overload, backpressure, and crash healing.

Extends the uplink chaos harness (:mod:`repro.telemetry.uplink.chaos`)
with a :class:`FleetGateway` standing between the adversarial channel
and the ingestor.  Same determinism contract -- seeded RNG, virtual
step clock, byte-identical replay -- plus the gateway-specific
invariants:

- the per-vehicle ledger law grows a fourth disjoint bucket:
  ``offered == acked + spooled + evicted + shed``;
- shedding is **never silent**: every shed record is settled in dedup,
  announced in an ack, and counted by traffic class -- and the alert
  class is never shed in any mode;
- a gateway crash loses only soft state: sessions and backlog die,
  clients re-handshake on REJECT ``hello``, retransmits replay through
  dedup, and the store digest still converges;
- explicit backpressure (window-update acks, rate ``retry_after``)
  stalls clients without losing records.

``python -m repro chaos`` appends these scenarios to the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional

from repro.telemetry.gateway.overload import (
    CLASS_ALERT,
    OverloadPolicy,
)
from repro.telemetry.gateway.ratelimit import RateLimitConfig
from repro.telemetry.gateway.service import FleetGateway, GatewayConfig
from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    ChaosDriver,
    ChaosScenario,
    CrashEvent,
    ScenarioResult,
)
from repro.telemetry.uplink.transport import ChannelFaultPlan

#: The shared secret every scenario's gateway expects.
GATEWAY_TOKEN = "fleet-secret"

#: Gateway counters folded into the scenario's protocol section.  The
#: client has its own ``rate_rejects`` (REJECTs *received*), so the
#: gateway's count (REJECTs *issued*) gets a distinct name.
_GATEWAY_FOLD = {
    "auth_rejects": "auth_rejects",
    "session_rejects": "session_rejects",
    "window_rejects": "window_rejects",
    "rate_rejects": "gateway_rate_rejects",
}


@dataclass
class GatewayChaosScenario(ChaosScenario):
    """One gateway fault schedule + admission/overload shape."""

    recv_window: int = 128
    drain_per_step: int = 256
    rate: RateLimitConfig = None  # type: ignore[assignment]
    overload: OverloadPolicy = None  # type: ignore[assignment]
    #: Stream fault cadence (nonzero gives a dashboard/telemetry/alert
    #: class mix, which overload shedding needs).
    faulty_every: int = 0
    #: Index of a vehicle configured with the wrong shared secret.
    bad_token_vehicle: Optional[int] = None
    expect_shed: bool = False
    expect_rate_rejects: bool = False
    expect_window_stalls: bool = False
    expect_auth_reject: bool = False

    def __post_init__(self) -> None:
        if self.rate is None:
            self.rate = RateLimitConfig()
        if self.overload is None:
            self.overload = OverloadPolicy()

    def make_driver(
        self, config: ChaosConfig, workdir: Path
    ) -> "GatewayChaosDriver":
        return GatewayChaosDriver(self, config, workdir)


def gateway_scenarios() -> list:
    """The gateway leg of the chaos sweep."""
    return [
        GatewayChaosScenario(
            name="gw_window_stall",
            description="tiny receive window + slow drain: clients "
                        "stall on window updates, then heal",
            recv_window=16,
            drain_per_step=8,
            expect_window_stalls=True,
        ),
        GatewayChaosScenario(
            name="gw_crash_midwindow",
            description="gateway killed twice with windows in flight;"
                        " replay-through-dedup recovery",
            crashes=(
                CrashEvent(step=8, side="server", down_for=6),
                CrashEvent(step=22, side="server", down_for=6),
            ),
        ),
        GatewayChaosScenario(
            name="gw_partition_inflight",
            description="two-way partition drops a full window in "
                        "flight; retransmits heal",
            up=ChannelFaultPlan(partitions=((12, 32),)),
            down=ChannelFaultPlan(partitions=((12, 32),)),
        ),
        GatewayChaosScenario(
            name="gw_rate_flood",
            description="token buckets far below offered load: rate "
                        "rejects + retry_after pushback",
            rate=RateLimitConfig(capacity=24, refill_per_step=4),
            expect_rate_rejects=True,
        ),
        GatewayChaosScenario(
            name="gw_auth_reject",
            description="one vehicle has the wrong shared secret: "
                        "terminal auth reject, records stay spooled",
            bad_token_vehicle=0,
            check_digest=False,
            expect_auth_reject=True,
        ),
        GatewayChaosScenario(
            name="gw_overload_shed",
            description="drain starved until the ladder sheds by "
                        "class; alerts always pass, ledger holds",
            drain_per_step=8,
            recv_window=64,
            overload=OverloadPolicy(
                degraded_above=24, safe_above=64, recover_below=8,
                dwell=4,
            ),
            faulty_every=2,
            check_digest=False,
            expect_shed=True,
        ),
    ]


class GatewayChaosDriver(ChaosDriver):
    """ChaosDriver with a FleetGateway as the server endpoint."""

    def __init__(
        self, scenario: GatewayChaosScenario, config: ChaosConfig,
        workdir: Path,
    ):
        # Adopt the scenario's stream fault cadence.
        config = replace(config, faulty_every=scenario.faulty_every)
        self._vehicle_index: Dict[str, int] = {}
        #: Gateway counters folded across gateway lives (soft state
        #: dies with the process; ground truth lives in the driver).
        self.gw_totals: Dict[str, int] = {}
        self.gw_shed_by_class: Dict[str, int] = {}
        super().__init__(scenario, config, workdir)
        self.gateway = FleetGateway(
            self.ingestor.service, self.server_dir,
            self._gateway_config(), _ingestor=self.ingestor,
        )

    def _gateway_config(self) -> GatewayConfig:
        scenario = self.scenario
        return GatewayConfig(
            token=GATEWAY_TOKEN,
            recv_window=scenario.recv_window,
            drain_records_per_step=scenario.drain_per_step,
            rate=scenario.rate,
            overload=scenario.overload,
            fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )

    def _vehicle_client_config(self, source: str):
        index = self._vehicle_index.setdefault(
            source, len(self._vehicle_index)
        )
        token = GATEWAY_TOKEN
        if index == self.scenario.bad_token_vehicle:
            token = "not-the-secret"
        return self.config.windowed_client_config(token)

    # ------------------------------------------------------------------
    def _deliver_up(self, frame, now: int) -> None:
        if not self.server_up:
            self.up.stats.dead_letter += 1
            self.dead_ingests += 1
            return
        self.gateway.handle_payload(frame.payload, now)

    def _server_step(self, now: int) -> None:
        if not self.server_up:
            return
        self.gateway.step(now)
        for source, payload in self.gateway.poll_outbox():
            self.down.send(payload, src="fleet", dst=source, now=now)

    def _server_idle(self) -> bool:
        return self.gateway.idle()

    # ------------------------------------------------------------------
    def _fold_gateway(self) -> None:
        stats = self.gateway.stats()
        for src_key, dst_key in _GATEWAY_FOLD.items():
            self.gw_totals[dst_key] = (
                self.gw_totals.get(dst_key, 0) + stats[src_key]
            )
        for name, count in stats["shed_by_class"].items():
            self.gw_shed_by_class[name] = (
                self.gw_shed_by_class.get(name, 0) + count
            )

    def _kill(self, event: CrashEvent) -> bool:
        if event.side == "server" and self.server_up:
            self._fold_gateway()
        return super()._kill(event)

    def _recover(self, event: CrashEvent) -> None:
        if event.side != "server":
            super()._recover(event)
            return
        self.gateway, _ = FleetGateway.recover(
            self.server_dir, self._gateway_config(),
            self.config.service_config(),
        )
        self.ingestor = self.gateway.ingestor
        self.server_up = True
        self.server_recoveries += 1

    # ------------------------------------------------------------------
    def _finish_server(self, result: ScenarioResult) -> None:
        scenario = self.scenario
        if self.server_up:
            self._fold_gateway()
        result.protocol.update(self.gw_totals)
        result.protocol["shed_by_class"] = dict(
            sorted(self.gw_shed_by_class.items())
        )
        shed_total = sum(self.gw_shed_by_class.values())
        client_shed = sum(len(v.shed) for v in self.vehicles)

        result.check(
            "alerts_never_shed",
            self.gw_shed_by_class.get(CLASS_ALERT, 0) == 0,
            "the gateway shed alert-bearing records",
        )
        if scenario.expect_shed:
            result.check(
                "shed", shed_total > 0,
                "overload scenario shed nothing",
            )
            if not scenario.crashes:
                # Without crashes every settled shed must have been
                # announced and released client-side: zero silent drops.
                result.check(
                    "shed_announced", client_shed == shed_total,
                    f"client released {client_shed} shed records, "
                    f"gateway settled {shed_total}",
                )
        else:
            result.check(
                "no_shed", shed_total == 0,
                f"{shed_total} records shed without overload pressure",
            )
        if scenario.expect_rate_rejects:
            result.check(
                "rate_rejects",
                self.gw_totals.get("gateway_rate_rejects", 0) > 0,
                "flood scenario saw no rate rejects",
            )
        if scenario.expect_window_stalls:
            result.check(
                "window_stalls",
                result.protocol.get("window_stalls", 0) > 0,
                "backpressure scenario saw no client window stalls",
            )
        if scenario.expect_auth_reject:
            bad = self.vehicles[scenario.bad_token_vehicle or 0]
            result.check(
                "auth_reject",
                self.gw_totals.get("auth_rejects", 0) > 0
                and not bad.acked and not bad.shed,
                "bad-token vehicle was not cleanly rejected",
            )
