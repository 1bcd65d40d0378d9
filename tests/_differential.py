"""Differential fixture layer: byte-level comparison and artifact pins.

The batched/columnar hot paths (calendar queue in the simulator kernel,
struct-of-arrays ingest in the telemetry store) are sold on a single
claim: *the fast path is observationally identical to the reference
path* (:mod:`repro.bench.reference`).  This module is the machinery
that proves it, two ways:

- :func:`assert_identical` compares results produced by different
  implementations as canonical JSON, byte for byte;
- :func:`compute_pins` digests every observable artifact that has no
  golden file of its own; ``tests/golden/artifact_pins.json`` freezes
  those digests, so any change to the production path that alters an
  artifact fails its pin.

Canonicalization matters: "the dicts compare equal" is a weaker claim
than the suite makes.  Every payload is serialized with sorted keys and
fixed separators before comparison, so the assertion really is about
bytes, and a diff prints the first divergent line instead of two
ten-kilobyte blobs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional


def canonical(payload: Any) -> str:
    """Canonical JSON form of *payload* (sorted keys, no whitespace).

    Tuples become lists, enums/objects fall back to ``str`` -- good
    enough for digest payloads, which are plain types by construction.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def assert_identical(results: Dict[str, Any], context: str = "") -> str:
    """Assert every implementation produced byte-identical canonical JSON.

    *results* maps an implementation name to its result.  Returns the
    (shared) canonical form.  On mismatch the error names the pair and
    the first character where the serializations diverge.
    """
    assert len(results) >= 2, "need at least two implementations to differ"
    items = sorted(results.items())
    ref_name, ref_payload = items[0]
    ref = canonical(ref_payload)
    for name, payload in items[1:]:
        got = canonical(payload)
        if got != ref:
            where = _first_divergence(ref, got)
            raise AssertionError(
                f"{context or 'payload'}: {name!r} diverges from "
                f"{ref_name!r} at {where}"
            )
    return ref


def _first_divergence(a: str, b: str) -> str:
    """Human-oriented pointer at the first differing character."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            lo = max(0, i - 40)
            return (
                f"offset {i}: ...{a[lo:i + 40]!r} != ...{b[lo:i + 40]!r}"
            )
    return f"length {len(a)} != {len(b)}"


def sha256_canonical(payload: Any) -> str:
    """sha256 hex digest of :func:`canonical` -- what the pins store."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Pinned artifacts (``tests/golden/artifact_pins.json``)
# ----------------------------------------------------------------------
#: sha256 pins of every artifact the differential suite compares that
#: has no golden file of its own.  Regenerate (after an *intentional*
#: behaviour change only) with
#: ``PYTHONPATH=src python tests/_differential.py --regen``.
PINS_FILE = Path(__file__).parent / "golden" / "artifact_pins.json"
PINS_SCHEMA = "repro-pins/1"

#: Fault-campaign frame count of ``tests/test_fault_campaign.py``.
CAMPAIGN_PIN_FRAMES = 40
#: Gateway chaos fleet shape (vehicles, frames, seed).
GATEWAY_PIN_SHAPE = (3, 10, 2025)
#: Adaptive chaos frame count and the scenarios pinned.
ADAPT_PIN_FRAMES = 96
ADAPT_PIN_SCENARIOS = ("adapt_baseline", "canary_rollback")
#: DAG campaign frame count (shorter than ``test_dag_campaign.py``'s
#: golden run, so the pin covers a second, independent horizon).
DAG_PIN_FRAMES = 24
#: ChainReport stream cases: name -> (worker ms, frames); all-OK vs
#: deadline-miss heavy.
CHAIN_REPORT_CASES = {"on_time": (5, 12), "late": (50, 8)}


def load_pins() -> dict:
    data = json.loads(PINS_FILE.read_text())
    assert data["schema"] == PINS_SCHEMA
    return data


def campaign_payloads(result) -> Dict[str, dict]:
    """Per-scenario ``ScenarioResult`` payloads of a campaign result."""
    return {s.name: dataclasses.asdict(s) for s in result.scenarios}


def gateway_report(name: str) -> dict:
    """One gateway chaos scenario's result document."""
    from repro.telemetry.gateway import gateway_scenarios
    from repro.telemetry.uplink.chaos import ChaosConfig

    vehicles, frames, seed = GATEWAY_PIN_SHAPE
    config = ChaosConfig(vehicles=vehicles, frames=frames, seed=seed)
    scenario = {s.name: s for s in gateway_scenarios()}[name]
    with tempfile.TemporaryDirectory() as tmp:
        return scenario.make_driver(config, Path(tmp)).run().to_json()


def adapt_report(name: str) -> list:
    """One adaptive chaos scenario's per-scenario report entries."""
    from repro.adaptive.chaos import AdaptConfig, default_scenarios, run_adapt

    scenario = {s.name: s for s in default_scenarios()}[name]
    report = run_adapt(AdaptConfig(frames=ADAPT_PIN_FRAMES), [scenario])
    return report["scenarios"]


def dag_digests() -> Dict[str, dict]:
    """Per-scenario digest and digest payload of the DAG campaign."""
    from repro.faults import DagCampaign, DagCampaignConfig

    result = DagCampaign(
        config=DagCampaignConfig(n_frames=DAG_PIN_FRAMES)
    ).run()
    return {
        s.name: {"digest": s.digest(), "payload": s.digest_payload()}
        for s in result.scenarios
    }


def chain_report_stream(case: str, sim_cls: Optional[type] = None) -> dict:
    """ChainReport, latencies and exceptions of one pipeline run
    (*sim_cls*: the kernel class hosting it, default ``Simulator``)."""
    from _harness import PipelineWorld
    from repro.sim import Simulator, msec

    worker_ms, frames = CHAIN_REPORT_CASES[case]
    world = PipelineWorld(
        worker_time=lambda i: msec(worker_ms), d_mon=msec(20),
        sim_cls=sim_cls or Simulator,
    )
    world.publish_frames(frames)
    world.run(until=msec(200 * frames))
    report = world.chain_runtime.finalize()
    return {
        "report": dataclasses.asdict(report),
        "latencies": world.runtime.latencies,
        "exceptions": world.runtime.exceptions,
    }


def compute_pins() -> dict:
    """Every pinned artifact's digest (the pins file's content)."""
    from repro.faults import CampaignConfig, run_default_campaign
    from repro.telemetry.gateway import gateway_scenarios

    campaign = campaign_payloads(run_default_campaign(
        CampaignConfig(n_frames=CAMPAIGN_PIN_FRAMES)
    ))
    vehicles, frames, seed = GATEWAY_PIN_SHAPE
    return {
        "schema": PINS_SCHEMA,
        "fault_campaign": {
            "n_frames": CAMPAIGN_PIN_FRAMES,
            "scenarios": {
                name: sha256_canonical(payload)
                for name, payload in campaign.items()
            },
        },
        "gateway_chaos": {
            "vehicles": vehicles, "frames": frames, "seed": seed,
            "scenarios": {
                s.name: sha256_canonical(gateway_report(s.name))
                for s in gateway_scenarios()
            },
        },
        "adaptive_chaos": {
            "frames": ADAPT_PIN_FRAMES,
            "scenarios": {
                name: sha256_canonical(adapt_report(name))
                for name in ADAPT_PIN_SCENARIOS
            },
        },
        "chain_report": {
            case: sha256_canonical(chain_report_stream(case))
            for case in CHAIN_REPORT_CASES
        },
        "dag_campaign": {
            "n_frames": DAG_PIN_FRAMES,
            "scenarios": {
                name: sha256_canonical(entry)
                for name, entry in dag_digests().items()
            },
        },
    }


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/_differential.py --regen")
    sys.path.insert(0, str(Path(__file__).parent))
    PINS_FILE.write_text(
        json.dumps(compute_pins(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {PINS_FILE}")
