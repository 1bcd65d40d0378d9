"""The multiprocessing fan-out must be byte-identical to serial runs.

Every shard builds its own simulator with deterministic RNG streams, so
process placement cannot leak into results -- these tests prove it by
comparing merged parallel output against a serial run of the same
shards.  Kept small: few scenarios, few frames.
"""

import json

import pytest

from repro.adaptive.chaos import (
    AdaptConfig,
    default_scenarios as adapt_scenarios,
    run_adapt,
)
from repro.experiments.parallel import (
    run_campaign_parallel,
    run_experiments_parallel,
)
from repro.faults.campaign import CampaignConfig, FaultCampaign, default_scenarios

#: Whole module exercises multi-second stack/campaign runs.
pytestmark = pytest.mark.slow

SCENARIOS = ["loss_burst", "clock_step", "silent_sensor_boot"]
N_FRAMES = 16  # minimum the config admits with default warmup/tail


@pytest.fixture
def config():
    return CampaignConfig(n_frames=N_FRAMES)


class TestCampaignParallel:
    def test_matches_serial_bytewise(self, config):
        registry = {s.name: s for s in default_scenarios()}
        campaign = FaultCampaign(
            [registry[n] for n in SCENARIOS], config=config
        )
        serial = campaign.run()
        parallel = run_campaign_parallel(SCENARIOS, config=config, jobs=2)
        assert serial.render_report() == parallel.render_report()
        assert len(serial.scenarios) == len(parallel.scenarios)
        for a, b in zip(serial.scenarios, parallel.scenarios):
            assert a == b, f"scenario {a.name} diverged between runs"

    def test_merge_preserves_input_order(self, config):
        reordered = list(reversed(SCENARIOS))
        result = run_campaign_parallel(reordered, config=config, jobs=2)
        assert [s.name for s in result.scenarios] == reordered

    def test_serial_fallback_for_single_job(self, config):
        result = run_campaign_parallel(SCENARIOS[:1], config=config, jobs=4)
        assert [s.name for s in result.scenarios] == SCENARIOS[:1]

    def test_watchdog_skip_rule_replicated(self, config):
        """Scenarios requiring the watchdog drop out, exactly as serially."""
        no_watchdog = CampaignConfig(n_frames=N_FRAMES, watchdog=False)
        result = run_campaign_parallel(SCENARIOS, config=no_watchdog, jobs=2)
        assert [s.name for s in result.scenarios] == [
            "loss_burst", "clock_step"  # silent_sensor_boot needs watchdog
        ]

    def test_unknown_scenario_rejected(self, config):
        with pytest.raises(KeyError, match="nope"):
            run_campaign_parallel(["nope"], config=config)


class TestExperimentsParallel:
    def test_matches_serial_bytewise(self, monkeypatch):
        # Spawned workers inherit os.environ, so the frame override
        # reaches them the same way it reaches the serial run.
        monkeypatch.setenv("REPRO_FRAMES", "40")
        monkeypatch.setenv("REPRO_FAULT_FRAMES", "16")
        from repro.experiments.runner import EXPERIMENTS

        names = ["budgeting", "fig02"]
        serial = [(name, EXPERIMENTS[name]()) for name in names]
        parallel = run_experiments_parallel(names, jobs=2)
        assert serial == parallel

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="nope"):
            run_experiments_parallel(["nope"], jobs=2)


class TestAdaptParallel:
    def test_jobs_match_serial_bytewise(self):
        registry = {s.name: s for s in adapt_scenarios()}
        scenarios = [registry["adapt_baseline"], registry["shadow_reject"]]
        config = AdaptConfig(frames=96)
        serial = run_adapt(config, scenarios)
        parallel = run_adapt(config, scenarios, jobs=2)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
