#!/usr/bin/env python3
"""Fleet gateway walkthrough: 50 vehicles overload the gate, recover.

One episode through the public `repro.telemetry.gateway` API
(DESIGN.md §14), in four acts:

1. **Overload** -- 50 vehicles stream windowed-ARQ frames into a
   gateway whose drain budget is deliberately starved, so the backlog
   climbs and the overload ladder walks NORMAL -> DEGRADED -> SAFE.
2. **Shed by class, never silently** -- in DEGRADED the gateway sheds
   dashboard traffic, in SAFE telemetry too; alert-bearing records
   always pass.  Every shed seq is settled in dedup, announced in an
   ack, and counted by class.
3. **Ledger law** -- the omniscient driver balances the four disjoint
   buckets per vehicle: ``offered == acked + spooled + evicted + shed``.
4. **Recover** -- once the backlog drains, calm steps de-escalate the
   ladder one rung per dwell back to NORMAL, and the operator status
   dashboard shows the whole story.

Run:  python examples/fleet_gateway.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.telemetry.gateway import (  # noqa: E402
    CLASS_ALERT,
    GatewayChaosScenario,
    GatewayMode,
    OverloadPolicy,
    render_status,
    status_report,
)
from repro.telemetry.uplink.chaos import ChaosConfig  # noqa: E402

VEHICLES = 50

SCENARIO = GatewayChaosScenario(
    name="example_overload",
    description="50-vehicle drain-starved episode: escalate, shed by "
                "class, recover",
    drain_per_step=160,         # below the ~400 records/step offered
    recv_window=256,
    overload=OverloadPolicy(
        degraded_above=600, safe_above=1600, recover_below=64, dwell=4,
    ),
    faulty_every=2,             # mix in misses -> alert-class records
    check_digest=False,         # shedding makes the store a strict subset
    expect_shed=True,
)

CONFIG = ChaosConfig(vehicles=VEHICLES, frames=10, seed=2025)


def main() -> None:
    print(f"== act 1: {VEHICLES} vehicles vs a drain-starved gateway ==")
    with tempfile.TemporaryDirectory(prefix="fleet-gateway-") as tmp:
        driver = SCENARIO.make_driver(CONFIG, Path(tmp))
        result = driver.run()
        gateway = driver.gateway

        print(result.render())
        assert result.ok, [c for c in result.checks if not c["ok"]]
        print(f"episode PASS (converged at step {result.converged_at})")

        print()
        print("== act 2: the ladder's logged transitions ==")
        for step, src, dst, backlog in gateway.ladder.transitions:
            print(f"  step {step:>4}: {src:>8} -> {dst:<8} "
                  f"(backlog {backlog})")

        shed_by_class = result.protocol["shed_by_class"]
        shed_total = sum(shed_by_class.values())
        print(f"shed {shed_total} records by class: {shed_by_class}")
        print(f"alerts shed: {shed_by_class.get(CLASS_ALERT, 0)} (never)")
        assert shed_by_class.get(CLASS_ALERT, 0) == 0
        assert shed_total > 0, "the episode was supposed to overload"

        print()
        print("== act 3: ledger law, per vehicle ==")
        balanced = sum(
            1 for entry in result.ledger.values() if entry["balanced"]
        )
        sample = result.ledger[sorted(result.ledger)[0]]
        print(f"  offered == acked + spooled + evicted + shed "
              f"(e.g. {sample})")
        print(f"ledger balanced for all {balanced} vehicles")
        assert balanced == VEHICLES

        print()
        print("== act 4: calm steps walk the ladder back to NORMAL ==")
        seen = len(gateway.ladder.transitions)
        now = (result.converged_at or 0) + 1
        while gateway.ladder.mode is not GatewayMode.NORMAL:
            gateway.step(now)
            now += 1
        gateway.poll_outbox()  # drain any final window-update acks
        for step, src, dst, backlog in gateway.ladder.transitions[seen:]:
            print(f"  step {step:>4}: {src:>8} -> {dst:<8} "
                  f"(backlog {backlog})")
        print(f"ladder returned to NORMAL at step {now - 1}")

        report = status_report(driver.ingestor.service, gateway=gateway)
        dashboard = render_status(report)
        # 50 vehicle tiles is a lot of terminal; show the headline and
        # the gateway line, then the first few tiles.
        lines = dashboard.splitlines()
        print()
        print("\n".join(lines[:8]))
        print(f"  ... ({VEHICLES} vehicle tiles total)")
    print()
    print("fleet gateway walkthrough complete")


if __name__ == "__main__":
    main()
