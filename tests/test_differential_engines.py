"""The differential suite: fast paths vs references, byte for byte.

Production runs one path per concern: the calendar-queue kernel and the
columnar telemetry ingest.  Their references live in
:mod:`repro.bench.reference` and are compared here:

- golden-trace stacks and ``ChainReport`` streams run on the production
  kernel and on :class:`HeapSimulator` -- fingerprints and reports must
  match byte for byte;
- the fleet record stream goes through the reference per-record pump
  (:class:`ScalarTelemetryService`), the production pump and the native
  columnar ``ingest_batch`` -- store digest, alert log and conservation
  counters must match byte for byte;
- gateway and adaptive chaos reports, ``ChainReport`` streams and the
  24-frame DAG campaign digests are pinned by sha256 in
  ``tests/golden/artifact_pins.json`` (the pins were produced under both
  the fast and the reference engines, which agreed).

The other pinned artifacts are checked where they are produced:
golden-trace fingerprints (``test_golden_traces.py``), fault-campaign
payloads (``test_fault_campaign.py``) and the golden-horizon DAG
digests (``test_dag_campaign.py``).
"""

import pytest

from _differential import (
    ADAPT_PIN_FRAMES,
    ADAPT_PIN_SCENARIOS,
    CHAIN_REPORT_CASES,
    DAG_PIN_FRAMES,
    GATEWAY_PIN_SHAPE,
    adapt_report,
    assert_identical,
    chain_report_stream,
    dag_digests,
    gateway_report,
    load_pins,
    sha256_canonical,
)

import repro.perception.stack
from repro.bench.reference import HeapSimulator, ScalarTelemetryService
from repro.faults import default_dag_scenarios
from repro.telemetry.batch import RecordBatch
from repro.telemetry.gateway import gateway_scenarios
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import store_digest
from repro.tracing.golden import GOLDEN_FRAMES, golden_scenarios, stack_fingerprint

#: Whole module re-runs stacks and chaos sweeps.
pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# Golden traces: production kernel vs heap reference
# ----------------------------------------------------------------------
class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(golden_scenarios()))
    def test_fingerprint_identical_across_sim_engines(self, name, monkeypatch):
        def run():
            stack = golden_scenarios()[name]()
            stack.run(n_frames=GOLDEN_FRAMES)
            return stack, stack_fingerprint(stack)

        _, calendar = run()
        monkeypatch.setattr(repro.perception.stack, "Simulator", HeapSimulator)
        stack, heap = run()
        assert isinstance(stack.sim, HeapSimulator)
        assert_identical(
            {"calendar": calendar, "heap": heap}, context=f"golden:{name}"
        )


# ----------------------------------------------------------------------
# Gateway and adaptive chaos reports (pinned)
# ----------------------------------------------------------------------
class TestGatewayChaos:
    @pytest.mark.parametrize("name", [s.name for s in gateway_scenarios()])
    def test_report_matches_pin(self, name):
        pins = load_pins()["gateway_chaos"]
        assert (pins["vehicles"], pins["frames"], pins["seed"]) == (
            GATEWAY_PIN_SHAPE
        )
        assert sha256_canonical(gateway_report(name)) == (
            pins["scenarios"][name]
        ), f"gateway:{name} diverged from its pin"


class TestAdaptiveChaos:
    @pytest.mark.parametrize("name", ADAPT_PIN_SCENARIOS)
    def test_report_matches_pin(self, name):
        pins = load_pins()["adaptive_chaos"]
        assert pins["frames"] == ADAPT_PIN_FRAMES
        assert sha256_canonical(adapt_report(name)) == (
            pins["scenarios"][name]
        ), f"adapt:{name} diverged from its pin"


# ----------------------------------------------------------------------
# DAG campaign: all 9 scenarios (pinned)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dag_by_name():
    return dag_digests()


class TestDagCampaign:
    def test_matrix_is_complete(self, dag_by_name):
        expected = {s.name for s in default_dag_scenarios()}
        assert len(expected) == 9
        assert set(dag_by_name) == expected
        pins = load_pins()["dag_campaign"]
        assert pins["n_frames"] == DAG_PIN_FRAMES
        assert set(pins["scenarios"]) == expected

    @pytest.mark.parametrize(
        "name", [s.name for s in default_dag_scenarios()]
    )
    def test_scenario_digest_identical(self, dag_by_name, name):
        assert sha256_canonical(dag_by_name[name]) == (
            load_pins()["dag_campaign"]["scenarios"][name]
        ), f"dag:{name} diverged from its pin"


# ----------------------------------------------------------------------
# Telemetry fleet stream: scalar pump vs columnar pump vs columnar batch
# ----------------------------------------------------------------------
class TestTelemetryFleetStream:
    """One fleet record stream through every ingest path.

    Three runs must converge: per-record ingest drained by the
    reference scalar pump, per-record ingest drained by the production
    columnar pump, and the native columnar ``ingest_batch`` fast path.
    Store digest, alert log, and the conservation counters are all
    compared.
    """

    FLEET = FleetConfig(vehicles=4, frames=60)

    def _observables(self, service):
        digest = store_digest(service)  # pumps any pending records
        stats = service.stats()
        return {
            "digest": digest,
            "alerts": service.alert_log.to_jsonl(),
            "offered": stats["offered"],
            "applied": stats["applied"],
            "dropped": stats["dropped"],
            "violations": stats["violations"],
            "alerts_by_rule": stats["alerts_by_rule"],
            "accounting_ok": stats["accounting_ok"],
        }

    def _config(self):
        return ServiceConfig(store=self.FLEET.store_config())

    def _records(self):
        return FleetLoadGenerator(self.FLEET).materialize()

    def test_pump_engines_identical(self):
        records = self._records()

        def run_with(service):
            service.ingest_many(records)
            return self._observables(service)

        assert_identical(
            {
                "scalar": run_with(ScalarTelemetryService(self._config())),
                "columnar": run_with(TelemetryService(self._config())),
            },
            context="fleet:pump",
        )

    def test_columnar_batch_matches_scalar_reference(self):
        records = self._records()

        scalar = ScalarTelemetryService(self._config())
        scalar.ingest_many(records)

        columnar = TelemetryService(self._config())
        accepted = columnar.ingest_batch(RecordBatch.from_records(records))
        assert accepted == len(records)

        assert_identical(
            {
                "scalar": self._observables(scalar),
                "columnar": self._observables(columnar),
            },
            context="fleet:columnar",
        )


# ----------------------------------------------------------------------
# ChainReport stream: production kernel vs heap reference (and pinned)
# ----------------------------------------------------------------------
class TestChainReportStream:
    @pytest.mark.parametrize("case", sorted(CHAIN_REPORT_CASES))
    def test_reports_identical_across_sim_engines(self, case):
        calendar = chain_report_stream(case)
        heap = chain_report_stream(case, sim_cls=HeapSimulator)
        assert_identical(
            {"calendar": calendar, "heap": heap},
            context=f"chain_report:{case}",
        )
        assert sha256_canonical(calendar) == (
            load_pins()["chain_report"][case]
        ), f"chain_report:{case} diverged from its pin"
