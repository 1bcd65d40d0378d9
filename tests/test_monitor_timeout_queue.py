"""Regression: the monitor's timeout queue must not leak stale entries.

Before the eager-cancel rework, every completed segment left its
timeout entry resident in the monitor's heap until the deadline
surfaced at the root -- a run of N frames kept O(N) dead tuples alive
and paid O(log N) per lazy pop.  Now `_complete` / `_raise_exception` /
re-arm all cancel the entry's :class:`~repro.sim.calendar.CancelToken`
eagerly, and the queue compacts once enough entries die, so physical
size stays bounded by the compaction threshold regardless of how many
cycles ran.  This module pins that bound.
"""

import pytest

from _harness import PipelineWorld

from repro.sim import msec
from repro.sim.calendar import _MIN_COMPACT

#: Physical-size ceiling: live entries plus at most one compaction
#: window of dead ones (the threshold is ``max(_MIN_COMPACT, live)``
#: and live is O(1) here, so 2x the floor is a generous pin).
SIZE_BOUND = 2 * _MIN_COMPACT

#: Far more arm/complete cycles than the bound -- the pre-fix heap
#: would hold ~N_FRAMES stale tuples at this point.
N_FRAMES = 300


def _run_world(frames=N_FRAMES):
    world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
    world.publish_frames(frames)
    world.run(until=msec(100 * frames + 200))
    return world


class TestTimeoutQueueBound:
    @pytest.mark.slow
    def test_size_bounded_after_many_cancel_cycles(self):
        world = _run_world()
        queue = world.monitor._timeout_queue
        assert world.runtime.pending == {}, "all segments should complete"
        assert len(queue) <= SIZE_BOUND, (
            f"{len(queue)} resident entries after "
            f"{N_FRAMES} cycles -- stale timeouts are leaking again"
        )
        assert queue.live == 0


class TestEagerCancelHooks:
    """Each monitor path that retires a pending activation frees its
    timeout entry immediately (not merely at the deadline)."""

    def test_completion_cancels_token(self):
        world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
        world.publish_frames(1)
        world.run(until=msec(150))
        # The frame completed well before its deadline, yet the entry
        # is already dead.
        assert world.runtime.pending == {}
        assert world.monitor._timeout_queue.live == 0

    def test_rearm_overwrite_cancels_previous_token(self):
        world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
        runtime = world.runtime
        world.publish_frames(2)
        world.run(until=msec(2))
        # Force a second arm of an activation that is still pending:
        # the first token must die, leaving exactly one live entry.
        (n, entry) = next(iter(runtime.pending.items()))
        first_token = entry.token
        assert first_token is not None and not first_token.cancelled
        runtime._arm(n, world.sim.now, entry.data)
        assert first_token.cancelled
        second_token = runtime.pending[n].token
        assert second_token is not None
        assert second_token is not first_token
        assert not second_token.cancelled

    def test_timeout_path_still_fires(self):
        # Sanity: eager cancellation must not eat *live* deadlines.
        world = PipelineWorld(worker_time=lambda i: msec(50), d_mon=msec(20))
        world.publish_frames(1)
        world.run(until=msec(300))
        assert len(world.runtime.exceptions) == 1
