#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_storm --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Output checks run after
the timed part; the exit code is nonzero when any check fails.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stack_clean", "chain_storm", "fleet_uplink", "ipc_realtime")
#: Untraced + traced rep pairs a trace run makes at least.
MIN_TRACE_PAIRS = 2


def load(name: str):
    """Import the workload class (and with it the program)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources under {ROOT}/src")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if name == "stack_clean":
        from perfbench.stack_clean import StackClean as cls
    elif name == "chain_storm":
        from perfbench.chain_storm import ChainStorm as cls
    elif name == "fleet_uplink":
        from perfbench.fleet_uplink import FleetUplink as cls
    else:
        from perfbench.ipc_realtime import IpcRealtime as cls
    return cls


def check_outputs(workload, timed_system, seed: int):
    """Run the output checks outside every timed interval.

    A fresh system with ground-truth recording repeats the timed rep;
    its monitor outputs must equal the timed rep's, and their digest
    the pinned one for the default seed.
    """
    from perfbench import harness

    outputs = workload.outputs(timed_system)
    if getattr(workload, "needs_truth_rep", False):
        system = workload.setup(truth=True)
        workload.run(system)
        verdict = workload.verify(system)
        harness.close(system)
        verdict.check("timed_rep_matches_checked_rep",
                      harness.digest_of(outputs) == verdict.digest,
                      "timed rep produced different monitor outputs")
    else:
        verdict = workload.verify(timed_system, outputs)
    pinned = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    key = f"{workload.name}/{workload.size}"
    if seed == harness.DEFAULT_SEED and key in pinned:
        verdict.check("pinned_digest", verdict.digest == pinned[key],
                      f"digest {verdict.digest} != pinned {pinned[key]}")
    return verdict


def untraced(workload, seconds: float):
    from perfbench import harness

    setups, reps, system = harness.timed_reps(workload, seconds)
    metrics = harness.e2e_metrics(setups, reps,
                                  getattr(workload, "open_loop", False))
    return metrics, system


def traced(workload, seconds: float):
    """Alternate untraced and traced reps; per-layer metrics."""
    from perfbench import harness, layers
    from perfbench.tracer import LayerTracer

    plain, profiled = [], []
    measured = 0.0
    system = None
    while measured < seconds or len(profiled) < MIN_TRACE_PAIRS:
        harness.close(system)
        system = None
        gc.collect()
        system = workload.setup()
        plain.append(workload.run(system))
        harness.close(system)
        system = None
        gc.collect()
        system = workload.setup()
        tracer = LayerTracer()
        instrument = getattr(workload, "instrument", None)
        if instrument is not None:
            instrument(system, tracer)
        with tracer:
            rep = workload.run(system)
        buckets, calls = tracer.fold()
        profiled.append((rep, buckets, calls, tracer))
        measured += plain[-1].seconds + rep.seconds
    counts = workload.layer_counts(system)
    return layers.per_layer_metrics(workload, plain, profiled, counts), system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"),
                        default="standard",
                        help="tiny: a seconds-long smoke size (self-tests)")
    args = parser.parse_args(argv)

    cls = load(args.workload)
    from perfbench import harness

    workload = cls(args.seed, args.size)
    started = time.perf_counter()
    if args.trace:
        metrics, system = traced(workload, args.seconds)
    else:
        metrics, system = untraced(workload, args.seconds)
    verdict = check_outputs(workload, system, args.seed)
    harness.close(system)
    for check in verdict.checks:
        state = "ok" if check["ok"] else f"FAIL {check['detail']}"
        print(f"check {check['name']}: {state}")
    print(f"{workload.name} seed={args.seed} size={args.size} "
          f"digest={verdict.digest} wall={time.perf_counter() - started:.1f}s")
    correct = verdict.ok and verdict.failed == 0
    print(harness.result_line(correct, verdict.attempted, verdict.failed,
                              metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
