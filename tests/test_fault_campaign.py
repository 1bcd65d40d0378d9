"""The full fault campaign: coverage, oracles, determinism, lesions.

The default scenario matrix is expensive (~20 s), so it runs once as a
module-scoped fixture and every assertion reads from that result --
including the byte-level pins of every ``ScenarioResult`` payload in
``tests/golden/artifact_pins.json``.
"""

import pytest

from _differential import (
    CAMPAIGN_PIN_FRAMES,
    campaign_payloads,
    load_pins,
    sha256_canonical,
)

from repro.faults import (
    CampaignConfig,
    FaultCampaign,
    default_scenarios,
    run_default_campaign,
)

#: Whole module exercises multi-second stack/campaign runs.
pytestmark = pytest.mark.slow

N_FRAMES = 40


@pytest.fixture(scope="module")
def campaign_result():
    return run_default_campaign(CampaignConfig(n_frames=N_FRAMES))


def scenario_by_name(name):
    return {s.name: s for s in default_scenarios()}[name]


class TestCampaignMatrix:
    def test_covers_at_least_six_fault_classes(self, campaign_result):
        assert len(campaign_result.fault_classes_covered) >= 6

    def test_every_scenario_passes_both_oracles(self, campaign_result):
        for scenario in campaign_result.scenarios:
            detail = "\n".join(
                f.detail for f in (scenario.soundness.failures
                                   + scenario.completeness.failures)[:5]
            )
            assert scenario.soundness.passed, f"{scenario.name}:\n{detail}"
            assert scenario.completeness.passed, f"{scenario.name}:\n{detail}"
        assert campaign_result.passed

    def test_every_scenario_injects_and_detects(self, campaign_result):
        for scenario in campaign_result.scenarios:
            assert scenario.injections > 0, scenario.name
            assert scenario.detections > 0, scenario.name

    def test_oracles_actually_checked_something(self, campaign_result):
        for scenario in campaign_result.scenarios:
            assert scenario.soundness.checked > 0, scenario.name

    def test_escalation_reached_safe_under_sustained_faults(
        self, campaign_result
    ):
        by_name = {s.name: s for s in campaign_result.scenarios}
        # A sensor silent from boot is an unbounded violation stream:
        # the ladder must escalate all the way.
        assert by_name["silent_sensor_boot"].safe_state_entries == 1
        # A short loss burst recovers: ends NORMAL, no safe state.
        assert by_name["loss_burst"].final_mode == "normal"
        assert by_name["loss_burst"].safe_state_entries == 0

    def test_render_report_mentions_verdict(self, campaign_result):
        report = campaign_result.render_report()
        assert "campaign: PASS" in report
        for scenario in campaign_result.scenarios:
            assert scenario.name in report


class TestPinnedPayloads:
    """Every scenario's full result payload is frozen byte for byte."""

    def test_pins_cover_the_matrix(self, campaign_result):
        pins = load_pins()["fault_campaign"]
        assert pins["n_frames"] == N_FRAMES == CAMPAIGN_PIN_FRAMES
        assert set(pins["scenarios"]) == {
            s.name for s in campaign_result.scenarios
        }

    @pytest.mark.parametrize("name", [s.name for s in default_scenarios()])
    def test_payload_matches_pin(self, campaign_result, name):
        payload = campaign_payloads(campaign_result)[name]
        assert sha256_canonical(payload) == (
            load_pins()["fault_campaign"]["scenarios"][name]
        ), f"{name}: campaign payload diverged from its pin"


class TestOracleDiscrimination:
    """Disabling violation reporting must make completeness fail."""

    def test_silent_monitor_fails_no_silent_violation(self):
        config = CampaignConfig(
            n_frames=N_FRAMES, degradation=False, watchdog=False,
            disable_violation_reporting=True,
        )
        result = FaultCampaign(
            [scenario_by_name("loss_burst")], config
        ).run().scenarios[0]
        assert not result.completeness.passed
        assert result.completeness.failures
        # The lesion silences reports, it does not fabricate events:
        # soundness still holds vacuously-or-better.
        assert result.soundness.passed

    def test_same_scenario_with_reporting_passes(self):
        config = CampaignConfig(
            n_frames=N_FRAMES, degradation=False, watchdog=False
        )
        result = FaultCampaign(
            [scenario_by_name("loss_burst")], config
        ).run().scenarios[0]
        assert result.completeness.passed


class TestWatchdogDependence:
    def test_boot_silence_undetected_without_watchdog(self):
        """The sync-based monitor never arms without a first sample; the
        watchdog is what turns boot silence into timeouts."""
        scenario = scenario_by_name("silent_sensor_boot")
        config = CampaignConfig(
            n_frames=N_FRAMES, degradation=False, watchdog=False
        )
        result = FaultCampaign([scenario], config).run_scenario(scenario)
        assert not result.completeness.passed

    def test_watchdog_required_scenarios_skipped_when_disabled(self):
        config = CampaignConfig(
            n_frames=N_FRAMES, degradation=False, watchdog=False
        )
        result = FaultCampaign(config=config).run()
        names = {s.name for s in result.scenarios}
        assert "silent_sensor_boot" not in names
        assert "silent_sensor" in names


class TestDeterminism:
    def test_identical_runs_produce_identical_records(self):
        scenario = scenario_by_name("loss_burst")
        config = CampaignConfig(n_frames=24)

        def fingerprint():
            campaign = FaultCampaign([scenario], config)
            result = campaign.run_scenario(scenario)
            return (
                result.detections,
                result.injections,
                result.soundness.checked,
                result.completeness.checked,
                tuple(result.mode_transitions),
            )

        assert fingerprint() == fingerprint()


class TestConfigValidation:
    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_frames=8)

    def test_frames_env_override(self, monkeypatch):
        from repro.faults import campaign_frames

        monkeypatch.setenv("REPRO_FAULT_FRAMES", "64")
        assert campaign_frames() == 64
        monkeypatch.setenv("REPRO_FAULT_FRAMES", "junk")
        assert campaign_frames() == 48
        monkeypatch.setenv("REPRO_FAULT_FRAMES", "4")
        assert campaign_frames() == 16  # floor
