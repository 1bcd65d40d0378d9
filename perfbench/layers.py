"""Per-layer metrics of a trace run, named and mapped in
``layer_map.json`` (metric -> unit, layer, and the end-to-end metric
and workload it should move).

Times come from the traced reps (median over reps); counts from the
first traced rep, and repeat exactly run to run except where the map
notes a real-clock count; real-clock percentiles and step timings from
the untraced reps of the same run.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.harness import median, percentile, pooled
from perfbench.tracer import LAYERS, layer_of

LAYER_MAP = json.loads(
    (Path(__file__).resolve().parent / "layer_map.json").read_text())

_SUBBUCKET_METRICS = {
    "perception.clustering.self_ms": "perception.clustering",
    "perception.ground_filter.self_ms": "perception.ground_filter",
    "perception.fusion.self_ms": "perception.fusion",
    "perception.scenario.self_ms": "perception.scenario",
}

#: Inclusive call times (ms) read from the profile.
_CALL_MS = {
    "uplink.wal.append_ms": "uplink.wal.append",
    "uplink.ingest.checkpoint_ms": "uplink.ingest.checkpoint",
    "gateway.step_ms": "gateway.step",
    "telemetry.store.apply_ms": "telemetry.store.apply",
    "telemetry.status_ms": "telemetry.status",
}

#: Untraced sample percentiles: metric -> (sample key, percentile).
_SAMPLES = {
    "gateway.ingest_step_ms_p50": ("ingest_step_ms", 50),
    "gateway.ingest_step_ms_p99": ("ingest_step_ms", 99),
    "telemetry.status_read_ms_p50": ("status_read_ms", 50),
    "ipc.monitor.exec_us_p50": ("exec_us", 50),
    "ipc.monitor.exec_us_p99": ("exec_us", 99),
    "ipc.monitor_latency_us_p50": ("monitor_latency_us", 50),
    "ipc.monitor_latency_us_p99": ("monitor_latency_us", 99),
    "ipc.detection_overshoot_us_p50": ("detection_overshoot_us", 50),
    "ipc.detection_overshoot_us_p99": ("detection_overshoot_us", 99),
    "ipc.generator_lag_us_p50": ("generator_lag_us", 50),
    "ipc.generator_lag_us_p99": ("generator_lag_us", 99),
}


def per_layer_metrics(workload, plain, profiled, counts) -> dict:
    """``plain``: untraced Reps; ``profiled``: ``(rep, buckets, calls,
    tracer)`` per traced rep; ``counts``: the workload's public-state
    counts after the last traced rep."""
    values = {name: 0.0 for name in LAYER_MAP}

    def layer_ms(buckets, layer):
        return 1e3 * sum(t for b, t in buckets.items()
                         if layer_of(b) == layer)

    for layer in LAYERS:
        values[f"{layer}.self_ms"] = median(
            layer_ms(b, layer) for _r, b, _c, _t in profiled)
    for metric, bucket in _SUBBUCKET_METRICS.items():
        values[metric] = median(
            1e3 * b.get(bucket, 0.0) for _r, b, _c, _t in profiled)
    for metric, call in _CALL_MS.items():
        values[metric] = median(
            1e3 * c[call][1] for _r, _b, c, _t in profiled)
    for metric, (key, q) in _SAMPLES.items():
        values[metric] = percentile(pooled(plain, key), q)
    values["ipc.post_us_p99"] = (
        percentile([x for r in plain for x in r.op_us], 99)
        if workload.name == "ipc_realtime" else 0.0)

    _rep, _buckets, calls, tracer = profiled[0]
    values["sim.events"] = tracer.events
    plain_seconds = median(r.seconds for r in plain)
    values["sim.events_per_s"] = tracer.events / plain_seconds
    values["dds.samples"] = calls["dds.write"][0]
    values["ros.callbacks"] = calls["ros.enqueue"][0]
    values["perception.clustering.points"] = tracer.points
    if tracer.points:
        values["perception.clustering.us_per_point"] = (
            1e3 * values["perception.clustering.self_ms"] / tracer.points)
    activations = counts.pop("core.activations", 0)
    values.update(counts)
    if activations:
        values["core.us_per_activation"] = (
            1e3 * values["core.self_ms"] / activations)

    traced_ms = median(1e3 * r.seconds for r, _b, _c, _t in profiled)
    attributed = median(
        sum(layer_ms(b, layer) for layer in LAYERS)
        for _r, b, _c, _t in profiled)
    values["trace.traced_ms"] = traced_ms
    values["trace.unattributed_ms"] = max(0.0, traced_ms - attributed)
    values["trace.unattributed_pct"] = (
        100.0 * values["trace.unattributed_ms"] / traced_ms)
    if getattr(workload, "open_loop", False):
        # The run's length is fixed by the schedule: compare op costs.
        base = median(x for r in plain for x in r.op_us)
        with_trace = median(x for r, _b, _c, _t in profiled for x in r.op_us)
    else:
        base = median(r.seconds / r.ops for r in plain)
        with_trace = median(r.seconds / r.ops for r, _b, _c, _t in profiled)
    values["trace.overhead_pct"] = 100.0 * (with_trace / base - 1.0)

    return {name: {"value": float(values[name]), "unit": spec["unit"]}
            for name, spec in LAYER_MAP.items()}
