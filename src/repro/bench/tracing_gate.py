"""Same-process A/B gate for the disabled-tracing kernel hot path.

Span tracing is wired into the kernel dispatch loop behind ``is None``
guards (see :mod:`repro.sim.kernel`); the design contract is that those
guards are near-free while tracing is off.  This module *measures* that
contract instead of trusting it: it times the real kernel with tracing
disabled against an in-process replica of the pre-tracing dispatch loop
(no ``spans`` guard, no ``ctx`` slot on events) and fails when the
guarded path's median exceeds the replica's by more than the threshold.

Noise handling: both sides run in the same process through
:func:`repro.bench.paired.paired_medians` -- interleaved A/B with the
order flipped on every trial, compared by medians.

The recorder-attached cost (spans *on*) is reported alongside for
context but never gated -- recording spans does real work, and its cost
is a documented trade-off, not a regression.

Run it directly::

    PYTHONPATH=src python -m repro.bench.tracing_gate --threshold 0.03
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.bench.paired import paired_medians

#: Events dispatched per timing trial.  Large enough that a trial takes
#: several milliseconds, so perf_counter granularity and per-call
#: overheads disappear into the measurement.
DEFAULT_EVENTS = 20_000

#: Trials per side.  Odd, so the order-flip interleave is balanced
#: around the median sample.
DEFAULT_TRIALS = 15

#: Maximum tolerated median overhead of the guarded (tracing present
#: but disabled) path over the pre-tracing replica.
DEFAULT_THRESHOLD = 0.03


# ----------------------------------------------------------------------
# Replica of the pre-tracing hot path
# ----------------------------------------------------------------------
class _BaselineEvent:
    """``ScheduledEvent`` as it was before span tracing: no ctx slot."""

    __slots__ = ("callback", "args", "time", "cancelled", "label")

    def __init__(
        self,
        callback: Callable[..., None],
        args: tuple,
        time: int,
        label: str = "",
    ) -> None:
        self.callback = callback
        self.args = args
        self.time = time
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        self.cancelled = True


class _BaselineSim:
    """Replica of the pre-tracing ``Simulator`` schedule/drain hot path.

    Only the members the dispatch workload touches are replicated, but
    those are replicated faithfully -- same past-check, same heap entry
    layout, same pre-bound ``heappop``, same full-drain loop -- so the
    A/B difference isolates exactly what tracing added: the ``ctx``
    slot initializer, the per-schedule guard, and the fast-path
    ``spans is None`` branch in ``run``.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Any] = []
        self._next_seq = itertools.count().__next__

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> _BaselineEvent:
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time}, now is {self.now}")
        event = _BaselineEvent(callback, args, time, label=label)
        heapq.heappush(self._heap, (time, priority, self._next_seq(), event))
        return event

    def run(self) -> int:
        count = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _prio, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            event.callback(*event.args)
            count += 1
        return count


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------
def _drive(sim: Any, n_events: int) -> int:
    callback = (lambda: None)
    schedule_at = sim.schedule_at
    for i in range(n_events):
        schedule_at(i, callback)
    return sim.run()


def _baseline_trial(n_events: int) -> int:
    return _drive(_BaselineSim(), n_events)


def _guarded_trial(n_events: int) -> int:
    from repro.sim import Simulator

    return _drive(Simulator(), n_events)


def _recorder_trial(n_events: int) -> int:
    from repro.sim import Simulator
    from repro.tracing.spans import SpanRecorder

    sim = Simulator()
    recorder = SpanRecorder(sim)
    sim.spans = recorder
    root = recorder.begin("gate", "compute", parent=None)
    recorder.current = root.context
    fired = _drive(sim, n_events)
    recorder.end(root)
    return fired


def _checked(fn: Callable[[int], int], n_events: int) -> Callable[[], int]:
    """A zero-argument trial that fails unless every event fired."""

    def trial() -> int:
        fired = fn(n_events)
        if fired != n_events:
            raise AssertionError(f"trial fired {fired} of {n_events} events")
        return fired

    return trial


# ----------------------------------------------------------------------
# Gate
# ----------------------------------------------------------------------
@dataclass
class GateResult:
    """Outcome of one A/B gate run."""

    trials: int
    n_events: int
    threshold: float
    baseline_median_ns: int
    guarded_median_ns: int
    recorder_median_ns: int
    #: guarded / baseline - 1: the cost of tracing being merely present.
    disabled_overhead: float
    #: recorder / baseline - 1: the cost of tracing being on (reported,
    #: never gated).
    enabled_overhead: float

    @property
    def passed(self) -> bool:
        return self.disabled_overhead <= self.threshold

    def render(self) -> str:
        per_event = self.guarded_median_ns / self.n_events
        lines = [
            f"tracing overhead gate ({self.trials} interleaved trials, "
            f"{self.n_events} events/trial)",
            f"  pre-tracing replica   {self.baseline_median_ns / 1e6:>9.3f}ms",
            f"  guarded, spans off    {self.guarded_median_ns / 1e6:>9.3f}ms "
            f"({per_event:.0f}ns/event, "
            f"{self.disabled_overhead:+.2%} vs replica)",
            f"  recorder, spans on    {self.recorder_median_ns / 1e6:>9.3f}ms "
            f"({self.enabled_overhead:+.2%} vs replica, informational)",
            f"  verdict: disabled overhead {self.disabled_overhead:+.2%} "
            f"{'<=' if self.passed else '>'} threshold "
            f"{self.threshold:+.2%} -- {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def run_gate(
    trials: int = DEFAULT_TRIALS,
    n_events: int = DEFAULT_EVENTS,
    threshold: float = DEFAULT_THRESHOLD,
) -> GateResult:
    """Run the interleaved A/B trials and fold them into a verdict."""
    baseline_median, guarded_median, recorder_median = paired_medians(
        _checked(_baseline_trial, n_events),
        _checked(_guarded_trial, n_events),
        trials,
        extra=_checked(_recorder_trial, n_events),
    )
    return GateResult(
        trials=trials,
        n_events=n_events,
        threshold=threshold,
        baseline_median_ns=baseline_median,
        guarded_median_ns=guarded_median,
        recorder_median_ns=recorder_median,
        disabled_overhead=guarded_median / baseline_median - 1.0,
        enabled_overhead=recorder_median / baseline_median - 1.0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.tracing_gate",
        description="Fail when the disabled-tracing kernel hot path is "
        "more than --threshold slower than a pre-tracing replica.",
    )
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    args = parser.parse_args(argv)
    result = run_gate(
        trials=args.trials, n_events=args.events, threshold=args.threshold
    )
    print(result.render())
    return 0 if result.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
