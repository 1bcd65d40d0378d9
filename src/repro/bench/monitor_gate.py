"""Paired A/B gate for the host cost of online monitoring.

The simulator analogue of the paper's Fig. 11: the same seeded
two-ECU perception stack (``stack_monitored`` / ``stack_unmonitored``
of the e2e suite) runs with and without its local and remote monitors,
order-flipped and compared by medians
(:func:`repro.bench.paired.paired_medians`).  The report gives the
monitors' host cost per frame and the overhead over the unmonitored
stack; the gate fails when that overhead exceeds the threshold.

Simulated time is unaffected by host speed -- execution times come
from the workload models -- so this measures what the monitor threads,
their timers and their bookkeeping cost the *host*, not the latency
they add inside the simulation.

Run it directly::

    PYTHONPATH=src python -m repro.bench.monitor_gate

It exits non-zero when the overhead exceeds :data:`DEFAULT_THRESHOLD`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.bench.paired import paired_medians
from repro.bench.suites import _E2E_FRAMES, _run_stack

#: Trials per side.  Odd, so the order-flip interleave is balanced
#: around the median sample.
DEFAULT_TRIALS = 15

#: Maximum tolerated median overhead of the monitored stack over the
#: unmonitored one.
DEFAULT_THRESHOLD = 0.25


@dataclass
class MonitorGateResult:
    """Outcome of one monitored-vs-unmonitored gate run."""

    trials: int
    frames: int
    threshold: float
    unmonitored_median_ns: int
    monitored_median_ns: int

    @property
    def overhead(self) -> float:
        """monitored / unmonitored - 1."""
        return self.monitored_median_ns / self.unmonitored_median_ns - 1.0

    @property
    def monitor_us_per_frame(self) -> float:
        """Host microseconds the monitors add to one frame."""
        delta = self.monitored_median_ns - self.unmonitored_median_ns
        return delta / self.frames / 1e3

    @property
    def passed(self) -> bool:
        return self.overhead <= self.threshold

    def render(self) -> str:
        lines = [
            f"monitor overhead gate ({self.trials} interleaved trials, "
            f"{self.frames} frames/trial)",
            f"  stack, monitors off   "
            f"{self.unmonitored_median_ns / 1e6:>9.3f}ms",
            f"  stack, monitors on    "
            f"{self.monitored_median_ns / 1e6:>9.3f}ms",
            f"  monitor cost          {self.monitor_us_per_frame:>9.1f}us/frame "
            f"({self.overhead:+.2%})",
            f"  verdict: overhead {self.overhead:+.2%} "
            f"{'<=' if self.passed else '>'} threshold "
            f"{self.threshold:+.2%} -- {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def run_gate(
    trials: int = DEFAULT_TRIALS, threshold: float = DEFAULT_THRESHOLD
) -> MonitorGateResult:
    """Run the interleaved monitored/unmonitored trials."""
    unmonitored, monitored, _ = paired_medians(
        lambda: _run_stack(False), lambda: _run_stack(True), trials
    )
    return MonitorGateResult(
        trials=trials,
        frames=_E2E_FRAMES,
        threshold=threshold,
        unmonitored_median_ns=unmonitored,
        monitored_median_ns=monitored,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.monitor_gate",
        description="Fail when the monitored perception stack is more "
        f"than {DEFAULT_THRESHOLD:.0%} slower than the unmonitored one.",
    )
    parser.parse_args(argv)
    result = run_gate()
    print(result.render())
    return 0 if result.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
