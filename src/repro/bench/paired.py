"""Order-flipped paired trials: the noise handling of the A/B gates.

Both sides of an A/B comparison run in the same process, interleaved,
with the order flipped on every trial, so clock drift, CPU-frequency
changes and allocator warmup hit both sides symmetrically.  Verdicts
compare *medians* over the trial set, which drops one-off scheduler
hiccups on either side.  :mod:`repro.bench.tracing_gate` and
:mod:`repro.bench.monitor_gate` are built on :func:`paired_medians`.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Tuple

Trial = Callable[[], object]


def _time_ns(trial: Trial) -> int:
    t0 = time.perf_counter_ns()
    trial()
    return time.perf_counter_ns() - t0


def paired_medians(
    a: Trial,
    b: Trial,
    trials: int,
    extra: Optional[Trial] = None,
) -> Tuple[int, int, Optional[int]]:
    """Median wall time (ns) of *a*, *b* and the optional *extra* side.

    Every side runs once untimed first (imports, bytecode caches,
    allocator pools).  Then each trial times *a* and *b* back to back,
    *a* first on even trials and *b* first on odd ones, followed by
    *extra* when given (reported, never paired).  A trial signals a
    wrong result by raising.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sides = (a, b) if extra is None else (a, b, extra)
    for side in sides:
        side()
    a_ns: List[int] = []
    b_ns: List[int] = []
    extra_ns: List[int] = []
    for trial in range(trials):
        if trial % 2 == 0:
            a_ns.append(_time_ns(a))
            b_ns.append(_time_ns(b))
        else:
            b_ns.append(_time_ns(b))
            a_ns.append(_time_ns(a))
        if extra is not None:
            extra_ns.append(_time_ns(extra))
    return (
        int(statistics.median(a_ns)),
        int(statistics.median(b_ns)),
        int(statistics.median(extra_ns)) if extra_ns else None,
    )
