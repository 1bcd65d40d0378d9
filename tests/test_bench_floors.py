"""Relative throughput floors: the bench gate that keeps designed
speedups (windowed ARQ >= 2x stop-and-wait) from silently eroding."""

import pytest

from repro.bench.harness import (
    THROUGHPUT_FLOORS,
    check_throughput_floors,
    validate_suite,
)


def _suite(benchmarks):
    entries = {}
    for name, units_per_s in benchmarks.items():
        entries[name] = {
            "layer": "telemetry", "iterations": 3, "units": 100,
            "unit": "records", "median_ns": 1_000_000, "p95_ns": 1_100_000,
            "min_ns": 900_000, "units_per_s": units_per_s,
        }
    return {"schema": "repro-bench/1", "suite": "e2e",
            "benchmarks": entries}


FLOORS = {"fast": ("slow", 2.0)}


class TestCheckThroughputFloors:
    def test_ratio_above_floor_passes(self):
        report = check_throughput_floors(
            _suite({"slow": 100.0, "fast": 250.0}), floors=FLOORS
        )
        (check,) = report.checks
        assert check.ok
        assert check.ratio == pytest.approx(2.5)
        assert report.passed
        assert "2.50x" in report.render()

    def test_ratio_below_floor_fails(self):
        report = check_throughput_floors(
            _suite({"slow": 100.0, "fast": 150.0}), floors=FLOORS
        )
        assert not report.passed
        assert "BELOW FLOOR" in report.render()

    def test_exactly_at_floor_passes(self):
        report = check_throughput_floors(
            _suite({"slow": 100.0, "fast": 200.0}), floors=FLOORS
        )
        assert report.passed

    def test_floored_bench_absent_is_skipped(self):
        # Old baselines without the new bench stay valid.
        report = check_throughput_floors(
            _suite({"slow": 100.0}), floors=FLOORS
        )
        assert report.checks == []
        assert report.passed

    def test_missing_reference_fails(self):
        # The ratio the floor exists to prove is unmeasurable: fail.
        report = check_throughput_floors(
            _suite({"fast": 250.0}), floors=FLOORS
        )
        (check,) = report.checks
        assert not check.ok
        assert check.ratio is None
        assert not report.passed

    def test_zero_reference_throughput_fails(self):
        report = check_throughput_floors(
            _suite({"slow": 0.0, "fast": 250.0}), floors=FLOORS
        )
        assert not report.passed

    def test_default_floors_pin_the_windowed_uplink(self):
        assert "uplink_roundtrip_windowed" in THROUGHPUT_FLOORS
        reference, required = THROUGHPUT_FLOORS["uplink_roundtrip_windowed"]
        assert reference == "uplink_roundtrip"
        assert required == 2.0

    def test_default_floors_pin_the_clustering_reference(self):
        assert THROUGHPUT_FLOORS["perception_numerics"] == (
            "perception_numerics_bfs", 5.0
        )

    def test_synthetic_suites_are_schema_valid(self):
        validate_suite(_suite({"slow": 100.0, "fast": 250.0}))
