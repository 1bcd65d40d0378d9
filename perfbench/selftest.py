#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

- A tiny-size run of every workload, untraced and traced, prints every
  metric ``BENCHMARK.json`` names, with its unit, and passes its checks.
- Negative tests: a monitor output with one exception record removed,
  an unbalanced ledger and a missed IPC exception each fail a check.
- Without the program's sources the command exits nonzero and prints
  no result.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import HELDOUT_SEED  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

FAILURES = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{'' if ok else ': ' + detail}")
    if not ok:
        FAILURES.append(name)


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", str(HELDOUT_SEED),
                        "--seconds", "1", "--trace", str(trace),
                        "--size", "tiny"])
            name = f"tiny {workload} trace={trace}"
            if proc.returncode != 0:
                expect(name, False, proc.stdout[-800:] + proc.stderr[-800:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            missing = [m["name"] for m in wanted[trace]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(metrics) - {m["name"] for m in wanted[trace]})
            expect(name, result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0 and not missing and not extra,
                   f"missing={missing} extra={extra} result={result}")


def test_tampered_exception_record() -> None:
    from perfbench.chain_storm import ChainStorm

    workload = ChainStorm(HELDOUT_SEED, "tiny")
    system = workload.setup(truth=True)
    workload.run(system)
    outputs = workload.outputs(system)
    clean = workload.verify(system, outputs)
    expect("storm clean verdict passes", clean.ok, str(clean.checks))
    segment = next(s for s in outputs["segments"].values()
                   if s["exceptions"])
    segment["exceptions"].pop()
    tampered = workload.verify(system, outputs)
    expect("removed exception record fails a check",
           not tampered.ok and tampered.failed > 0
           and tampered.digest != clean.digest, str(tampered.checks))


def test_unbalanced_ledger() -> None:
    from perfbench.fleet_uplink import FleetUplink

    workload = FleetUplink(HELDOUT_SEED, "tiny")
    system = workload.setup()
    try:
        workload.run(system)
        expect("fleet clean verdict passes", workload.verify(system).ok)
        vehicle = next(iter(system.vehicles.values()))
        vehicle.acked.discard(next(iter(vehicle.acked)))
        verdict = workload.verify(system)
        failed = {c["name"] for c in verdict.checks if not c["ok"]}
        expect("unbalanced ledger fails a check",
               "ledger" in failed and verdict.failed > 0, str(failed))
    finally:
        system.close()


def test_missed_ipc_exception() -> None:
    from perfbench.ipc_realtime import IpcRealtime

    workload = IpcRealtime(HELDOUT_SEED, "tiny")
    system = workload.setup()
    workload.run(system)
    expect("ipc clean verdict passes", workload.verify(system).ok)
    system.exceptions.pop()
    verdict = workload.verify(system)
    failed = {c["name"] for c in verdict.checks if not c["ok"]}
    expect("missed IPC exception fails a check",
           "late_activations_raise" in failed and verdict.failed > 0,
           str(failed))


def test_without_sources() -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "chain_storm", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        printed_result = any(line.startswith("{")
                             for line in proc.stdout.splitlines())
        expect("no sources: nonzero exit, no result",
               proc.returncode != 0 and not printed_result,
               f"exit={proc.returncode} stdout={proc.stdout[-300:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # other scratch directories still live there


def main() -> int:
    test_tampered_exception_record()
    test_unbalanced_ledger()
    test_missed_ipc_exception()
    test_without_sources()
    test_tiny_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
