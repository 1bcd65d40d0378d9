"""Discrete-event simulation substrate.

This package is the stand-in for the paper's execution platform (PREEMPT_RT
Linux on multicore ECUs).  It provides:

- :mod:`repro.sim.kernel` -- a deterministic event-driven simulator with an
  integer-nanosecond clock and named, seeded random streams.
- :mod:`repro.sim.threads` -- generator-based simulated threads and the
  syscall objects they yield (``Compute``, ``Sleep``, ``WaitSem``, ...).
- :mod:`repro.sim.scheduler` -- a preemptive fixed-priority multicore
  scheduler with optional thread migration (global vs. partitioned).
- :mod:`repro.sim.sync` -- counting semaphores with timed wait (the
  ``sem_timedwait`` the paper's monitor thread relies on) and event flags.
- :mod:`repro.sim.timers` -- one-shot and periodic timers.
- :mod:`repro.sim.cpu` -- ECUs, cores and frequency governors (the paper
  explicitly allows thread migration and frequency scaling, which produce
  the heavy latency tails seen in its Fig. 9).
- :mod:`repro.sim.workload` -- execution-time models used by the synthetic
  perception services.

Time is kept in integer nanoseconds throughout to avoid floating-point
accumulation errors; use the helpers :func:`usec`, :func:`msec` and
:func:`sec` to build durations.
"""

from repro.sim.calendar import CalendarQueue, CancelToken
from repro.sim.kernel import (
    Simulator,
    ScheduledEvent,
    nsec,
    usec,
    msec,
    sec,
    fmt_time,
)
from repro.sim.threads import (
    Compute,
    Sleep,
    WaitSem,
    Yield,
    SimThread,
    ThreadState,
)
from repro.sim.scheduler import MulticoreScheduler, SchedulerPolicy
from repro.sim.sync import Semaphore, EventFlag
from repro.sim.timers import Timer, PeriodicTimer
from repro.sim.cpu import (
    Core,
    Ecu,
    ConstantGovernor,
    OndemandGovernor,
    BurstyGovernor,
)
from repro.sim.workload import (
    ExecutionTimeModel,
    ConstantModel,
    AffineModel,
    LogNormalModel,
    HeavyTailModel,
    ShiftedParetoModel,
)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "CalendarQueue",
    "CancelToken",
    "nsec",
    "usec",
    "msec",
    "sec",
    "fmt_time",
    "Compute",
    "Sleep",
    "WaitSem",
    "Yield",
    "SimThread",
    "ThreadState",
    "MulticoreScheduler",
    "SchedulerPolicy",
    "Semaphore",
    "EventFlag",
    "Timer",
    "PeriodicTimer",
    "Core",
    "Ecu",
    "ConstantGovernor",
    "OndemandGovernor",
    "BurstyGovernor",
    "ExecutionTimeModel",
    "ConstantModel",
    "AffineModel",
    "LogNormalModel",
    "HeavyTailModel",
    "ShiftedParetoModel",
]
