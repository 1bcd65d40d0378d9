"""Per-layer attribution of host time, from outside the program.

The benchmark's traced reps run under ``cProfile``: every Python
function frame is a span, and a frame's self time is its duration minus
its child frames.  Each frame belongs to the layer named after the
``repro`` module that defines it.  Time spent in code outside the
repository (the standard library, numpy, builtins) is folded into the
layers of its callers, in proportion to the time each caller spent in
it -- so a ``json.dump`` inside ``UplinkIngestor.checkpoint`` counts as
uplink time.  A frame inside a private method is attributed to its own
module's layer; spans around public functions only would hand most of
the monitors' and the scheduler's work to whichever public function
happened to be on the stack.

Counts that need call arguments or results come from wrappers the
tracer puts around public functions for the duration of a traced rep:
``Simulator.run`` (kernel events fired), ``euclidean_clusters`` (points
clustered), and any a workload adds through :meth:`LayerTracer.wrap`.
Nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from typing import Dict, Optional, Tuple

import repro.perception.clustering as clustering
from repro.sim.kernel import Simulator

#: Layer names (self-time metrics are ``<layer>.self_ms``).
LAYERS = ("sim", "network", "dds", "ros", "core", "perception",
          "uplink", "gateway", "telemetry", "ipc")

#: Bucket names finer than a layer, keyed by module path below ``repro``.
_SUBBUCKETS = {
    "perception/clustering.py": "perception.clustering",
    "perception/ground_filter.py": "perception.ground_filter",
    "perception/fusion.py": "perception.fusion",
    "perception/scenario.py": "perception.scenario",
    "telemetry/uplink/wal.py": "uplink.wal",
    "telemetry/uplink/window.py": "uplink.window",
    "telemetry/uplink/transport.py": "uplink.transport",
    "telemetry/uplink/ingest.py": "uplink.ingest",
    "telemetry/store.py": "telemetry.store",
    "telemetry/batch.py": "telemetry.store",
    "telemetry/alerts.py": "telemetry.alerts",
}

#: Package prefix below ``repro`` -> layer (first match wins).
_PACKAGES = (
    ("telemetry/uplink/chaos.py", None),
    ("telemetry/gateway/chaos.py", None),
    ("telemetry/uplink/", "uplink"),
    ("telemetry/gateway/", "gateway"),
    ("telemetry/", "telemetry"),
    ("sim/", "sim"),
    ("network/", "network"),
    ("dds/", "dds"),
    ("ros/", "ros"),
    ("core/", "core"),
    ("perception/", "perception"),
    ("ipc/", "ipc"),
)

#: Public functions whose inclusive time or call count is a metric:
#: metric -> ((module path below repro, function name), ...).
CALLS = {
    "uplink.wal.append": (("telemetry/uplink/wal.py", "append_many"),),
    "uplink.ingest.checkpoint": (("telemetry/uplink/ingest.py",
                                  "checkpoint"),),
    "gateway.step": (("telemetry/gateway/service.py", "step"),),
    "telemetry.store.apply": (("telemetry/store.py", "apply_batch"),
                              ("telemetry/store.py", "apply")),
    "telemetry.status": (("telemetry/gateway/status.py", "status_report"),),
    "dds.write": (("dds/writer.py", "write"),),
    "ros.enqueue": (("ros/executor.py", "enqueue"),),
}

_REPRO = os.sep + "repro" + os.sep
_HARNESS = os.sep + "perfbench" + os.sep


def _module_path(filename: str) -> Optional[str]:
    index = filename.rfind(_REPRO)
    if index < 0:
        return None
    return filename[index + len(_REPRO):].replace(os.sep, "/")


def bucket_of(filename: str) -> Optional[str]:
    """Bucket of a frame's file: a layer or sub-layer name, ``"other"``
    for code of this repository outside every layer, or ``None`` for
    code outside the repository (folded into its callers)."""
    if _HARNESS in filename:
        return "other"
    path = _module_path(filename)
    if path is None:
        return None
    if path in _SUBBUCKETS:
        return _SUBBUCKETS[path]
    for prefix, layer in _PACKAGES:
        if path.startswith(prefix):
            return layer if layer is not None else "other"
    return "other"


def layer_of(bucket: str) -> str:
    return bucket.split(".", 1)[0]


class LayerTracer:
    """Profile one traced rep and fold it into per-bucket self time."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.events = 0
        self.points = 0
        self._restore = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.wrap(Simulator, "run", self._count_events)
        self.wrap(clustering, "euclidean_clusters", self._count_points)
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def wrap(self, owner, name, counter) -> None:
        """Replace ``owner.name`` until the rep ends with a wrapper that
        calls ``counter(args, result)`` after each call."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counter(args, result)
            return result

        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _count_events(self, _args, result) -> None:
        self.events += int(result)

    def _count_points(self, args, _result) -> None:
        self.points += len(args[0])

    # ------------------------------------------------------------------
    def fold(self) -> Tuple[Dict[str, float], Dict[str, Tuple[int, float]]]:
        """Returns ``(bucket -> self seconds, call metric -> (calls,
        inclusive seconds))``."""
        stats = pstats.Stats(self.profile).stats
        shares: Dict[tuple, Dict[Optional[str], float]] = {}
        visiting = set()

        def share_of(func) -> Dict[Optional[str], float]:
            if func in shares:
                return shares[func]
            bucket = bucket_of(func[0])
            if bucket is not None:
                shares[func] = {bucket: 1.0}
                return shares[func]
            # Recursive callers (this frame's own cycle) are skipped: the
            # cycle's time belongs to whoever entered it.
            callers = {c: v[2] for c, v in stats[func][4].items()
                       if c != func and c in stats and c not in visiting}
            total = sum(callers.values())
            if not callers or total <= 0:
                return {"other": 1.0}
            visiting.add(func)
            out: Dict[Optional[str], float] = {}
            for caller, tt in callers.items():
                for bucket, part in share_of(caller).items():
                    out[bucket] = out.get(bucket, 0.0) + part * tt / total
            visiting.discard(func)
            shares[func] = out
            return out

        buckets: Dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            if tt <= 0:
                continue
            for bucket, part in share_of(func).items():
                buckets[bucket] = buckets.get(bucket, 0.0) + tt * part

        calls: Dict[str, Tuple[int, float]] = {}
        for metric, targets in CALLS.items():
            n, seconds = 0, 0.0
            for func, (_cc, nc, _tt, ct, _callers) in stats.items():
                path = _module_path(func[0])
                if (path, func[2]) in targets:
                    n += nc
                    seconds += ct
            calls[metric] = (n, seconds)
        return buckets, calls
