"""The shared order-flipped trial loop and the monitor-overhead gate."""

import pytest

from repro.bench.monitor_gate import MonitorGateResult, run_gate
from repro.bench.paired import paired_medians


class TestPairedMedians:
    def test_order_flips_every_trial_after_warmup(self):
        calls = []
        medians = paired_medians(
            lambda: calls.append("a"),
            lambda: calls.append("b"),
            trials=3,
            extra=lambda: calls.append("x"),
        )
        assert calls == [
            "a", "b", "x",  # warmup
            "a", "b", "x",
            "b", "a", "x",
            "a", "b", "x",
        ]
        assert all(m >= 0 for m in medians)

    def test_without_extra_side(self):
        a, b, extra = paired_medians(lambda: None, lambda: None, trials=1)
        assert a >= 0 and b >= 0 and extra is None

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            paired_medians(lambda: None, lambda: None, trials=0)

    def test_failing_trial_raises(self):
        def wrong():
            raise AssertionError("bad result")

        with pytest.raises(AssertionError):
            paired_medians(lambda: None, wrong, trials=1)


class TestMonitorGate:
    def test_gate_runs_and_reports(self):
        result = run_gate(trials=1, threshold=10.0)
        assert result.frames == 10
        assert result.unmonitored_median_ns > 0
        assert result.monitored_median_ns > 0
        text = result.render()
        assert "us/frame" in text
        assert ("PASS" in text) == result.passed

    def test_cost_per_frame_and_threshold_boundary(self):
        kwargs = dict(
            trials=1, frames=10,
            unmonitored_median_ns=40_000_000, monitored_median_ns=50_000_000,
        )
        result = MonitorGateResult(threshold=0.25, **kwargs)
        assert result.overhead == 0.25
        assert result.monitor_us_per_frame == pytest.approx(1000.0)
        assert result.passed
        assert not MonitorGateResult(threshold=0.249, **kwargs).passed
