"""Shared pieces of the benchmark: the workload protocol, the timed loop,
statistics, digests and the one-line JSON result.

A workload object is built from ``(seed, size)`` and offers:

- ``setup()`` -- build the system and generate its inputs (timed as
  ``setup_s``), returning an opaque system object;
- ``run(system)`` -- the timed part, returning a :class:`Rep`;
- ``outputs(system)`` and ``verify(system, outputs)`` -- the outputs the
  checks judge, and the checks, returning a :class:`Verdict` (run
  outside every timed interval);
- ``layer_counts(system)`` -- per-layer counts read from public state
  after a traced rep.

Simulated workloads set ``needs_truth_rep``: their checks need ground
truth recorded during the run, so ``setup(truth=True)`` builds an
untimed copy of the rep that records it.  A workload may also offer
``instrument(system, tracer)`` to add count wrappers to a traced rep.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import Outcome

#: Seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Held-out seed: every check except the digests, for claims made later.
HELDOUT_SEED = 2
#: Set-ups timed per run at least (extra ones build and discard a
#: system): the shortest of many millisecond-scale set-ups repeats far
#: better than the shortest of a few.
SETUP_SAMPLES = 40


@dataclass
class Rep:
    """One timed repetition of a workload."""

    #: Operations completed (activations or records).
    ops: int
    #: Host seconds of the timed part.
    seconds: float
    #: Host seconds of consecutive slices of the timed part (a virtual
    #: period, a fleet step).  Same seed and size give the same slices
    #: doing the same work in every rep.
    chunks: List[float] = field(default_factory=list)
    #: Per-operation host-cost samples in microseconds, one per op in op
    #: order; empty for batch workloads, whose op cost is derived from
    #: the throughput.
    op_us: List[float] = field(default_factory=list)
    #: Workload-specific sample lists (microseconds or milliseconds, as
    #: named), pooled across reps.
    samples: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of a workload's output checks."""

    attempted: int
    failed: int
    checks: List[dict] = field(default_factory=list)
    digest: Optional[str] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(min(rank, len(ordered))) - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_of(doc) -> str:
    body = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def close(system) -> None:
    """Release a finished system's files, if it holds any."""
    closer = getattr(system, "close", None)
    if closer is not None:
        closer()


def monitor_outputs(monitors: dict, runtimes: dict, through: int) -> dict:
    """Digestible monitor outputs of a simulated deployment: per-segment
    latencies and exception records, and each chain's finalized report.
    ``monitors`` and ``runtimes`` map names to monitors and
    ``ChainRuntime``s."""
    segments = {}
    for name, monitor in sorted(monitors.items()):
        segments[name] = {
            "latencies": [[n, lat, o.value] for n, lat, o in monitor.latencies],
            "exceptions": [[e.activation, e.deadline, e.raised_at]
                           for e in monitor.exceptions],
        }
    reports = {}
    for name, runtime in sorted(runtimes.items()):
        report = runtime.finalize(through_activation=through)
        reports[name] = {
            "misses": [int(m) for m in report.misses],
            "ok": report.ok_count,
            "recovered": report.recovered_count,
            "miss": report.miss_count,
            "skipped": report.skipped_count,
            "mk_satisfied": report.mk_satisfied,
            "max_window_misses": report.max_window_misses,
        }
    return {"segments": segments, "reports": reports}


def core_counts(monitors, runtimes, activations: int) -> dict:
    """Per-layer ``core`` counts from monitors' and runtimes' public
    state."""
    exceptions = recovered = propagated = 0
    for monitor in monitors:
        exceptions += len(monitor.exceptions)
        for _n, _lat, outcome in monitor.latencies:
            recovered += outcome is Outcome.RECOVERED
            propagated += outcome is Outcome.MISS
    return {
        "core.exceptions": exceptions,
        "core.recovered": recovered,
        "core.propagated": propagated,
        "core.mk_violations": sum(r.window.violations for r in runtimes),
        "core.activations": activations,
    }


def timed_reps(workload, seconds: float, min_reps: int = 3):
    """Set up and run reps until ``seconds`` of timed work are done.

    Returns ``(setup_seconds, reps, last_system)``.
    """
    setups: List[float] = []
    reps: List[Rep] = []
    system = None
    measured = 0.0
    while measured < seconds or len(reps) < min_reps:
        # Free the previous rep first, so that no rep pays for collecting
        # another's cycles and peak RSS does not grow with the number of
        # reps that fit in the run.
        close(system)
        system = None
        gc.collect()
        t0 = time.perf_counter()
        system = workload.setup()
        setups.append(time.perf_counter() - t0)
        rep = workload.run(system)
        reps.append(rep)
        measured += rep.seconds
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        t0 = time.perf_counter()
        extra = workload.setup()
        setups.append(time.perf_counter() - t0)
        close(extra)
        del extra
    return setups, reps, system


def best_of(series: List[List[float]]) -> List[float]:
    """Element-wise minimum of the reps' equally long series."""
    if len({len(s) for s in series}) != 1:
        raise ValueError("reps did different work: series lengths differ")
    return [min(column) for column in zip(*series)]


def e2e_metrics(setups: List[float], reps: List[Rep],
                open_loop: bool = False) -> dict:
    """The end-to-end metrics every workload reports.

    Batch and closed-loop timings are best-of-reps, taken slice by
    slice: every rep does the same work (same seed, same size), so each
    slice's shortest time across the run's reps is its cost with the
    least outside interference, and the rep's best time is the sum of
    those.  On a shared host the per-second median of a fixed loop
    swings by +-30% as neighbours come and go, while the minimum of
    short slices over a 10-20 s window repeats within about 5%.  Per-op
    costs are likewise the median over ops of each op's best time, and
    ``setup_s`` the shortest set-up.

    An open-loop real-clock rep does not repeat its timing conditions
    (thread wake-ups, sleep overshoot), so its op cost is the plain
    median over every op of the run, which repeats better than a
    best-of there.
    """
    chunks = best_of([rep.chunks for rep in reps])
    best = sum(chunks) if chunks else min(rep.seconds for rep in reps)
    ops = reps[0].ops
    if open_loop:
        op_cost = median(x for rep in reps for x in rep.op_us)
    else:
        op_us = best_of([rep.op_us for rep in reps])
        op_cost = median(op_us) if op_us else best * 1e6 / ops
    return {
        "setup_s": {"value": min(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "ops_per_s": {"value": ops / best, "unit": "1/s"},
        "op_us_p50": {"value": op_cost, "unit": "us"},
    }


def pooled(reps: List[Rep], key: str) -> List[float]:
    return [x for rep in reps for x in rep.samples.get(key, ())]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True)
