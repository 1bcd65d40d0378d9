"""Unit tests for the simulation kernel (event queue, time, RNG streams)."""

import random

import pytest

from repro.bench.reference import HeapSimulator
from repro.sim import Simulator, msec, nsec, sec, usec
from repro.sim.kernel import SimulationError, fmt_time


class TestTimeHelpers:
    def test_usec(self):
        assert usec(1) == 1_000
        assert usec(2.5) == 2_500

    def test_msec(self):
        assert msec(1) == 1_000_000
        assert msec(0.001) == 1_000

    def test_sec(self):
        assert sec(1) == 1_000_000_000
        assert sec(0.25) == 250_000_000

    def test_nsec_rounds(self):
        assert nsec(1.6) == 2

    def test_fmt_time_units(self):
        assert fmt_time(5) == "5ns"
        assert fmt_time(usec(3)) == "3.000us"
        assert fmt_time(msec(7)) == "7.000ms"
        assert fmt_time(sec(2)) == "2.000000s"


class TestScheduling:
    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(msec(10), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [msec(10)]
        assert sim.now == msec(10)

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_at(msec(5), lambda: sim.schedule_after(msec(3), lambda: times.append(sim.now)))
        sim.run()
        assert times == [msec(8)]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(msec(3), order.append, "c")
        sim.schedule_at(msec(1), order.append, "a")
        sim.schedule_at(msec(2), order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_ties_broken_by_priority_then_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule_at(msec(1), order.append, "late", priority=5)
        sim.schedule_at(msec(1), order.append, "first", priority=0)
        sim.schedule_at(msec(1), order.append, "second", priority=0)
        sim.run()
        assert order == ["first", "second", "late"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(msec(1), fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.schedule_at(msec(5), lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(msec(1), lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1, lambda: None)

    def test_run_until_stops_but_preserves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(msec(1), fired.append, 1)
        sim.schedule_at(msec(10), fired.append, 2)
        sim.run(until=msec(5))
        assert fired == [1]
        assert sim.now == msec(5)
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_time_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=msec(100))
        assert sim.now == msec(100)

    def test_event_at_exactly_until_still_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(msec(5), fired.append, "edge")
        sim.run(until=msec(5))
        assert fired == ["edge"]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule_after(1, loop)

        sim.schedule_after(1, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_pending_events_counts_uncancelled(self):
        sim = Simulator()
        a = sim.schedule_at(1, lambda: None)
        sim.schedule_at(2, lambda: None)
        a.cancel()
        assert sim.pending_events == 1


class TestRngStreams:
    def test_streams_are_deterministic_across_runs(self):
        a = Simulator(seed=42).rng("x").integers(0, 1 << 30, 10)
        b = Simulator(seed=42).rng("x").integers(0, 1 << 30, 10)
        assert list(a) == list(b)

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=42)
        a = sim.rng("x").integers(0, 1 << 30, 10)
        b = sim.rng("y").integers(0, 1 << 30, 10)
        assert list(a) != list(b)

    def test_streams_differ_by_seed(self):
        a = Simulator(seed=1).rng("x").integers(0, 1 << 30, 10)
        b = Simulator(seed=2).rng("x").integers(0, 1 << 30, 10)
        assert list(a) != list(b)

    def test_same_stream_object_is_cached(self):
        sim = Simulator()
        assert sim.rng("x") is sim.rng("x")


class TestTraceHooks:
    def test_hooks_receive_name_time_fields(self):
        sim = Simulator()
        seen = []
        sim.add_trace_hook(lambda name, t, fields: seen.append((name, t, fields)))
        sim.schedule_at(msec(2), lambda: sim.emit_trace("tick", value=7))
        sim.run()
        assert seen == [("tick", msec(2), {"value": 7})]


def _twin_script(sim_cls):
    """Schedule/cancel/reschedule/``run(until=)`` workload; returns
    every firing as ``(tag, now)`` plus ``(now, pending)`` checkpoints.

    Times sit on a 250 us grid spanning dozens of calendar buckets, so
    many events share an instant (ordered by priority, then insertion)
    and ``run(until=)`` stops exactly on occupied instants.  Callbacks
    chain ``schedule_after`` / ``call_now`` follow-ups into the bucket
    being drained.  Every draw comes from one seeded stream, so
    identical firing order means identical scripts.
    """
    sim = sim_cls(seed=3)
    rng = random.Random(11)
    fired = []
    handles = []

    def grid(n):
        return rng.randrange(n) * usec(250)

    def fire(tag):
        fired.append((tag, sim.now))
        if tag < 1000 and tag % 4 == 0:
            handles.append(sim.schedule_after(
                grid(12), fire, tag + 1000,
                priority=rng.randrange(3),
            ))
        if tag < 1000 and tag % 9 == 0:
            sim.call_now(fire, tag + 2000)

    for tag in range(300):
        handles.append(sim.schedule_at(
            grid(160), fire, tag, priority=rng.randrange(3)
        ))
    checkpoints = []
    for until in (msec(5), msec(5), msec(12), msec(30)):
        for _ in range(25):
            i = rng.randrange(len(handles))
            if rng.random() < 0.4:
                handles[i].cancel()
            else:
                # Use the returned handle: the heap reference hands back
                # a fresh one, the calendar kernel the same one.
                handles[i] = sim.reschedule(
                    handles[i], sim.now + grid(80),
                    priority=rng.randrange(3),
                )
        sim.run(until=until)
        checkpoints.append((sim.now, sim.pending_events))
    assert sim.step()
    checkpoints.append((sim.now, sim.pending_events))
    sim.run()
    checkpoints.append((sim.now, sim.pending_events))
    return fired, checkpoints


class TestHeapReferenceTwin:
    """The heap kernel behind the ``*_heap`` bench floors fires the same
    events at the same instants as the production calendar kernel."""

    def test_same_firing_order_and_clock(self):
        fired, checkpoints = _twin_script(Simulator)
        assert (fired, checkpoints) == _twin_script(HeapSimulator)
        # The script really exercised cancellation, rearming of fired
        # handles and same-instant ties.
        tags = [tag for tag, _ in fired]
        assert set(range(300)) - set(tags), "no cancellation took effect"
        assert len(set(tags)) < len(tags), "no handle fired twice"
        assert any(a[1] == b[1] for a, b in zip(fired, fired[1:]))
        assert checkpoints[-1][1] == 0
