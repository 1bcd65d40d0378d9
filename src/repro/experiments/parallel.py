"""Multiprocessing fan-out for independent experiment shards.

The figure experiments and the fault-campaign scenarios are embarrassingly
parallel: every shard builds its own :class:`~repro.sim.kernel.Simulator`
with named, deterministically seeded RNG streams, so a shard's result does
not depend on which process runs it or in which order shards finish.  The
runners here exploit that: shards are distributed over a ``spawn`` worker
pool and the results are merged **in input order**, which makes parallel
output byte-identical to a serial run.

Two sharding axes are provided:

- :func:`run_experiments_parallel` -- one worker task per figure
  experiment (``python -m repro all -j4``).
- :func:`run_campaign_parallel` -- one worker task per fault scenario
  (the 11-scenario matrix).

Scenario/experiment *names* cross the process boundary, never the objects
themselves: :class:`~repro.faults.campaign.FaultScenario` carries lambda
injector builders, which do not pickle.  Workers rebuild the registry
from the name.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import List, Optional, Sequence, Tuple

#: Path inserted into ``sys.path`` by workers so spawned interpreters can
#: import ``repro`` even when the parent set it up programmatically.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _worker_init(package_root: str) -> None:
    if package_root not in sys.path:
        sys.path.insert(0, package_root)


def _run_experiment_by_name(name: str) -> Tuple[str, str]:
    """Worker task: execute one figure experiment, return its rendering."""
    from repro.experiments.runner import EXPERIMENTS

    return name, EXPERIMENTS[name]()


def _run_scenario_by_name(payload: Tuple[str, object]):
    """Worker task: rebuild one named scenario and run it on a fresh stack."""
    from repro.faults.campaign import FaultCampaign, default_scenarios

    name, config = payload
    matching = [s for s in default_scenarios() if s.name == name]
    if not matching:
        raise KeyError(f"unknown fault scenario {name!r}")
    return FaultCampaign(config=config).run_scenario(matching[0])


def spawn_pool(jobs: int):
    """Worker pool shared by every parallel runner.

    spawn (not fork): workers import repro afresh, so they cannot
    inherit mutated parent state that a serial run would not see.
    """
    context = multiprocessing.get_context("spawn")
    return context.Pool(
        processes=jobs, initializer=_worker_init, initargs=(_PACKAGE_ROOT,)
    )


def run_experiments_parallel(
    names: Sequence[str], jobs: int = 2
) -> List[Tuple[str, str]]:
    """Run figure experiments across *jobs* processes.

    Returns ``(name, rendered output)`` pairs **in the order given**, so
    printing them reproduces the serial runner's output byte for byte.
    """
    from repro.experiments.runner import EXPERIMENTS

    names = list(names)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}")
    if jobs <= 1 or len(names) <= 1:
        return [_run_experiment_by_name(n) for n in names]
    with spawn_pool(min(jobs, len(names))) as pool:
        return pool.map(_run_experiment_by_name, names)


def run_campaign_parallel(
    scenario_names: Optional[Sequence[str]] = None,
    config=None,
    jobs: int = 2,
):
    """Run the fault campaign with one worker task per scenario.

    Merging preserves the scenario order of
    :func:`~repro.faults.campaign.default_scenarios` (or of
    *scenario_names*), so the resulting
    :class:`~repro.faults.campaign.CampaignResult` -- and its rendered
    report -- is identical to ``FaultCampaign(config=config).run()``.
    """
    from repro.faults.campaign import (
        CampaignConfig,
        CampaignResult,
        default_scenarios,
    )

    config = config or CampaignConfig()
    registry = {s.name: s for s in default_scenarios()}
    if scenario_names is None:
        scenario_names = [s.name for s in default_scenarios()]
    unknown = [n for n in scenario_names if n not in registry]
    if unknown:
        raise KeyError(f"unknown fault scenarios {unknown}")
    # Replicate the serial runner's skip rule before sharding.
    names = [
        n for n in scenario_names
        if config.watchdog or not registry[n].watchdog_required
    ]
    payloads = [(n, config) for n in names]
    if jobs <= 1 or len(payloads) <= 1:
        results = [_run_scenario_by_name(p) for p in payloads]
    else:
        with spawn_pool(min(jobs, len(payloads))) as pool:
            results = pool.map(_run_scenario_by_name, payloads)
    return CampaignResult(scenarios=results)
