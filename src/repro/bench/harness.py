"""Benchmark harness: timing, statistics, JSON persistence, regression
comparison.

A benchmark is a callable returning the number of *units* it processed
(events fired, frames simulated, CSP solves...).  The harness times
repeated calls with ``perf_counter_ns``, reports median / p95 / min wall
time per iteration and derived units-per-second throughput, and persists
suites as machine-readable ``BENCH_<suite>.json`` files with a stable
schema, so CI can archive them and ``--compare`` can fail the build on
slowdowns.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Schema identifier written into (and required from) every bench file.
SCHEMA = "repro-bench/1"

#: Default slowdown tolerance for --compare (fraction of baseline median).
DEFAULT_THRESHOLD = 0.30

#: Relative throughput floors checked on every suite run: bench name
#: -> (reference bench in the same suite, minimum units_per_s ratio).
#: These encode *designed* speedups -- the pipelined windowed uplink
#: exists to beat stop-and-wait, so the gate fails if it stops doing
#: so -- and are robust to machine speed because both sides run on the
#: same host in the same invocation.
THROUGHPUT_FLOORS: Dict[str, tuple] = {
    "uplink_roundtrip_windowed": ("uplink_roundtrip", 2.0),
    # Calendar-queue kernel vs the old lazy-cancel heap on identical
    # rearm/cancel-storm workloads (the ``*_heap`` twins run
    # ``repro.bench.reference.HeapSimulator`` in-process).
    "timer_rearm": ("timer_rearm_heap", 2.0),
    "kernel_cancel_sweep": ("kernel_cancel_sweep_heap", 2.0),
    # Batched SoA ingest vs the per-record scalar telemetry path on the
    # same pre-materialized fleet stream.
    "ingest_batched": ("telemetry_ingest", 2.0),
    # Cell-graph clustering vs the per-point BFS; ground classification
    # is common to both sides, so the ratio understates the clustering
    # gain.
    "perception_numerics": ("perception_numerics_bfs", 5.0),
}


@dataclass
class BenchResult:
    """Statistics of one benchmark."""

    name: str
    #: Which layer of the system the benchmark exercises (kernel, dds,
    #: monitor, perception, budgeting, faults, e2e).
    layer: str
    iterations: int
    units: int
    unit: str
    median_ns: int
    p95_ns: int
    min_ns: int
    #: Units processed per second at the median iteration time.
    units_per_s: float

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "iterations": self.iterations,
            "units": self.units,
            "unit": self.unit,
            "median_ns": self.median_ns,
            "p95_ns": self.p95_ns,
            "min_ns": self.min_ns,
            "units_per_s": round(self.units_per_s, 1),
        }


def run_bench(
    name: str,
    fn: Callable[[], int],
    *,
    layer: str,
    unit: str,
    iterations: int = 7,
    warmup: int = 1,
) -> BenchResult:
    """Time *fn* and fold the samples into a :class:`BenchResult`."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    units = 0
    for _ in range(warmup):
        units = int(fn())
    samples: List[int] = []
    for _ in range(iterations):
        t0 = time.perf_counter_ns()
        units = int(fn())
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    median_ns = int(statistics.median(samples))
    p95_index = min(len(samples) - 1, int(round(0.95 * (len(samples) - 1))))
    per_second = units / (median_ns / 1e9) if median_ns > 0 else 0.0
    return BenchResult(
        name=name,
        layer=layer,
        iterations=iterations,
        units=max(units, 0),
        unit=unit,
        median_ns=median_ns,
        p95_ns=int(samples[p95_index]),
        min_ns=int(samples[0]),
        units_per_s=per_second,
    )


def suite_to_json(suite: str, results: List[BenchResult]) -> dict:
    """The persisted representation of one benchmark suite."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "python": platform.python_version(),
        "benchmarks": {r.name: r.to_json() for r in results},
    }


def write_suite(path: Path, suite: str, results: List[BenchResult]) -> Path:
    """Write a suite file (two-space indent, trailing newline, sorted keys)."""
    payload = suite_to_json(suite, results)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_suite(path: Path) -> dict:
    """Load and schema-check a previously written suite file."""
    data = json.loads(Path(path).read_text())
    validate_suite(data)
    return data


def validate_suite(data: dict) -> None:
    """Raise ``ValueError`` unless *data* matches the bench schema."""
    if not isinstance(data, dict):
        raise ValueError("bench file must contain a JSON object")
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported bench schema {data.get('schema')!r}")
    for key in ("suite", "benchmarks"):
        if key not in data:
            raise ValueError(f"bench file missing {key!r}")
    if not isinstance(data["benchmarks"], dict):
        raise ValueError("'benchmarks' must be an object")
    required = {"median_ns", "p95_ns", "units", "unit", "units_per_s", "layer"}
    for name, entry in data["benchmarks"].items():
        missing = required - set(entry)
        if missing:
            raise ValueError(f"benchmark {name!r} missing fields {sorted(missing)}")
        if entry["median_ns"] <= 0:
            raise ValueError(f"benchmark {name!r} has non-positive median_ns")


@dataclass
class Comparison:
    """Per-benchmark verdict of a --compare run."""

    name: str
    baseline_median_ns: int
    current_median_ns: int
    #: current / baseline median -- above 1.0 means slower.
    ratio: float
    regressed: bool


@dataclass
class CompareReport:
    """Outcome of comparing a fresh run against a baseline file."""

    suite: str
    threshold: float
    comparisons: List[Comparison] = field(default_factory=list)
    #: Benchmarks in the baseline that the current run did not produce.
    missing: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.missing and not any(c.regressed for c in self.comparisons)

    def render(self) -> str:
        lines = [
            f"{'benchmark':32s} {'baseline':>12s} {'current':>12s} "
            f"{'ratio':>7s}  verdict"
        ]
        for c in sorted(self.comparisons, key=lambda c: c.name):
            verdict = "REGRESSED" if c.regressed else "ok"
            lines.append(
                f"{c.name:32s} {c.baseline_median_ns/1e6:>10.3f}ms "
                f"{c.current_median_ns/1e6:>10.3f}ms {c.ratio:>6.2f}x  {verdict}"
            )
        for name in self.missing:
            lines.append(f"{name:32s} {'-':>12s} {'-':>12s} {'-':>7s}  MISSING")
        lines.append(
            f"compare ({self.suite}, threshold +{self.threshold:.0%}): "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def compare_suites(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Compare a fresh suite against a baseline; flag >threshold slowdowns.

    Benchmarks present only in the current run are ignored (new benches
    must not fail old baselines); benchmarks present only in the
    baseline are reported as missing and fail the comparison.
    """
    validate_suite(current)
    validate_suite(baseline)
    report = CompareReport(
        suite=str(current.get("suite", "?")), threshold=threshold
    )
    current_benchmarks: Dict[str, dict] = current["benchmarks"]
    for name, base in sorted(baseline["benchmarks"].items()):
        entry = current_benchmarks.get(name)
        if entry is None:
            report.missing.append(name)
            continue
        ratio = entry["median_ns"] / base["median_ns"]
        report.comparisons.append(
            Comparison(
                name=name,
                baseline_median_ns=int(base["median_ns"]),
                current_median_ns=int(entry["median_ns"]),
                ratio=ratio,
                regressed=ratio > 1.0 + threshold,
            )
        )
    return report


@dataclass
class FloorCheck:
    """One relative-throughput-floor verdict."""

    name: str
    reference: str
    ratio: Optional[float]  # None: one side missing from the run
    required: float
    ok: bool


@dataclass
class FloorReport:
    """Outcome of checking a suite run against THROUGHPUT_FLOORS."""

    checks: List[FloorCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            shown = "?" if c.ratio is None else f"{c.ratio:.2f}x"
            verdict = "ok" if c.ok else "BELOW FLOOR"
            lines.append(
                f"floor {c.name} >= {c.required:.1f}x {c.reference}: "
                f"{shown}  {verdict}"
            )
        return "\n".join(lines)


def check_throughput_floors(
    data: dict, floors: Optional[Dict[str, tuple]] = None
) -> FloorReport:
    """Check a suite document's designed relative speedups.

    A floored bench absent from the run is skipped (old baselines stay
    valid); a floored bench whose *reference* is absent fails -- the
    ratio it exists to prove can no longer be measured."""
    validate_suite(data)
    floors = THROUGHPUT_FLOORS if floors is None else floors
    benchmarks: Dict[str, dict] = data["benchmarks"]
    report = FloorReport()
    for name, (reference, required) in sorted(floors.items()):
        entry = benchmarks.get(name)
        if entry is None:
            continue
        base = benchmarks.get(reference)
        if base is None or not base.get("units_per_s"):
            report.checks.append(FloorCheck(
                name=name, reference=reference, ratio=None,
                required=required, ok=False,
            ))
            continue
        ratio = entry["units_per_s"] / base["units_per_s"]
        report.checks.append(FloorCheck(
            name=name, reference=reference, ratio=ratio,
            required=required, ok=ratio >= required,
        ))
    return report


def render_suite(results: List[BenchResult]) -> str:
    """Human-readable table of one suite run."""
    lines = [
        f"{'benchmark':32s} {'layer':>10s} {'median':>12s} {'p95':>12s} "
        f"{'throughput':>18s}"
    ]
    for r in results:
        lines.append(
            f"{r.name:32s} {r.layer:>10s} {r.median_ns/1e6:>10.3f}ms "
            f"{r.p95_ns/1e6:>10.3f}ms {r.units_per_s:>12,.0f} {r.unit}/s"
        )
    return "\n".join(lines)
