"""``stack_clean``: the paper's two-ECU Autoware stack, nominal run.

``PerceptionStack(StackConfig(seed=...))`` with monitors on, default
clouds and no faults -- the Fig. 9 nominal run.  Perception does most of
the host work; the monitors only arm and cancel timeouts.  Batch job on
virtual time.
"""

from __future__ import annotations

import time

from repro.faults.ground_truth import GroundTruthRecorder
from repro.faults.oracles import check_completeness, check_soundness
from repro.perception import PerceptionStack, StackConfig
from repro.sim import msec, usec

from perfbench.harness import (
    Rep,
    Verdict,
    core_counts,
    digest_of,
    monitor_outputs,
)

SIZES = {"standard": 12, "tiny": 10}
#: Leading and trailing activations the oracles skip (pipeline fill and
#: drain), as the fault campaign does.
WARMUP = 2
TAIL = 4
#: Slack added to the PTP error bound for the soundness oracle.
EPSILON_MARGIN = usec(500)
#: Virtual time per timed slice of a rep.
SLICE = msec(10)


def sliced(sim, chunks):
    """``sim.run`` that advances ``until`` in ``SLICE`` steps, appending
    each step's host seconds to ``chunks``.  Running to consecutive
    horizons fires the same events in the same order as one run."""
    run_whole = sim.run
    clock = time.perf_counter

    def run(until=None, max_events=None):
        if until is None or max_events is not None:
            return run_whole(until=until, max_events=max_events)
        fired = 0
        while True:
            step = min(until, (sim.now // SLICE + 1) * SLICE)
            t0 = clock()
            fired += run_whole(until=step)
            chunks.append(clock() - t0)
            if step >= until:
                return fired

    return run


class StackClean:
    name = "stack_clean"
    needs_truth_rep = True

    def __init__(self, seed: int, size: str = "standard"):
        self.seed = seed
        self.size = size
        self.n_frames = SIZES[size]

    def setup(self, truth: bool = False):
        stack = PerceptionStack(StackConfig(seed=self.seed))
        stack.truth = GroundTruthRecorder(stack) if truth else None
        return stack

    def run(self, stack) -> Rep:
        chunks = []
        stack.sim.run = sliced(stack.sim, chunks)
        t0 = time.perf_counter()
        stack.run(n_frames=self.n_frames)
        for runtime in stack.chain_runtimes.values():
            runtime.advance_window(self.n_frames - 1)
        seconds = time.perf_counter() - t0
        return Rep(ops=len(stack.chain_runtimes) * self.n_frames,
                   seconds=seconds, chunks=chunks)

    # ------------------------------------------------------------------
    def monitors(self, stack) -> dict:
        sources = dict(stack.local_runtimes)
        sources.update(stack.remote_monitors)
        return dict(sorted(sources.items()))

    def outputs(self, stack) -> dict:
        """Per-segment latencies, exception records and chain reports.
        Cluster contents (and their member order) are not included."""
        return monitor_outputs(self.monitors(stack), stack.chain_runtimes,
                               self.n_frames - 1)

    def verify(self, stack, outputs=None) -> Verdict:
        """Soundness and no-silent-violation oracles over the ground
        truth.  Needs a stack built with ``truth=True``."""
        outputs = outputs if outputs is not None else self.outputs(stack)
        first, last = WARMUP, self.n_frames - TAIL
        attempted = sum(
            1 for monitor in self.monitors(stack).values()
            for n, _lat, _o in monitor.latencies if first <= n < last
        )
        verdict = Verdict(attempted=attempted, failed=0)
        verdict.digest = digest_of(outputs)
        epsilon = stack.ptp.error_bound() + EPSILON_MARGIN
        soundness = check_soundness(stack, stack.truth, epsilon, first, last)
        completeness = check_completeness(stack, stack.truth, first, last)
        verdict.failed = len(soundness.failures) + len(completeness.failures)
        verdict.check("soundness", soundness.passed, soundness.summary())
        verdict.check("completeness", completeness.passed,
                      completeness.summary())
        return verdict

    def layer_counts(self, stack) -> dict:
        runtimes = stack.chain_runtimes.values()
        counts = core_counts(self.monitors(stack).values(), runtimes,
                             len(runtimes) * self.n_frames)
        links = (stack.link_front, stack.link_rear, stack.link_12)
        counts["network.frames"] = sum(link.stats.sent for link in links)
        return counts
