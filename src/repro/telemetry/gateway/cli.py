"""``python -m repro gateway`` -- fleet gateway episode + status report.

Runs a deterministic fleet episode through the full stack (windowed
ARQ clients -> adversarial channel -> :class:`FleetGateway` -> ingest
-> telemetry store), verifies the chaos invariants on the way out, and
prints the operator status dashboard (or the JSON document behind it).

``--overload`` starves the gateway's drain budget so the overload
ladder escalates and sheds by class mid-episode -- the dashboard then
shows the shed accounting and the ladder's logged transitions.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.telemetry.gateway.chaos import GatewayChaosScenario
from repro.telemetry.gateway.overload import OverloadPolicy
from repro.telemetry.gateway.status import render_status, status_report
from repro.telemetry.uplink.chaos import ChaosConfig, ScenarioResult


def episode_scenario(overload: bool) -> GatewayChaosScenario:
    """The episode the CLI (and the example) runs."""
    if overload:
        return GatewayChaosScenario(
            name="episode_overload",
            description="drain-starved episode: ladder escalates, "
                        "sheds by class, recovers",
            drain_per_step=8,
            recv_window=64,
            overload=OverloadPolicy(
                degraded_above=24, safe_above=64, recover_below=8,
                dwell=4,
            ),
            faulty_every=2,
            check_digest=False,
            expect_shed=True,
        )
    return GatewayChaosScenario(
        name="episode",
        description="clean gateway episode (handshake, windowed "
                    "uplink, status report)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro gateway",
        description="overload-hardened fleet gateway: run an episode "
                    "and print the fleet status report",
    )
    parser.add_argument("--vehicles", type=int, default=5)
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--overload", action="store_true",
                        help="starve the drain budget so the overload "
                             "ladder escalates and sheds by class")
    parser.add_argument("--json", action="store_true",
                        help="print the status document as JSON")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="PATH",
                        help="write the status JSON here")
    args = parser.parse_args(argv)

    scenario = episode_scenario(args.overload)
    config = ChaosConfig(
        vehicles=args.vehicles, frames=args.frames, seed=args.seed,
    )
    with tempfile.TemporaryDirectory(prefix="repro-gateway-") as tmp:
        driver = scenario.make_driver(config, Path(tmp))
        result: ScenarioResult = driver.run()
        report = status_report(
            driver.ingestor.service, gateway=driver.gateway
        )
    report["episode"] = result.to_json()

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_status(report))
        print()
        print(result.render())
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"report -> {args.report}")
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
