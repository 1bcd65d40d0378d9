"""Fleet status endpoint: one JSON document over the telemetry store.

:func:`status_report` is the gateway's operator view -- the same
document a ``GET /status`` would serve, built from the live
:class:`~repro.telemetry.service.TelemetryService`:

- per-vehicle heartbeat/liveness tiles (last-seen age against a
  heartbeat deadline, open sequence gaps, reorders, duplicates);
- fleet-wide per-segment latency percentiles (p50/p95/p99 from the
  merged streaming sketches);
- the (m,k) chain summary and an alert feed (most recent first).

:func:`render_status` turns the document into the terminal dashboard
``python -m repro gateway`` prints after its episode (``--json`` prints
the document itself).  Both are pure functions
of the service state, so a status report replays byte-identically with
the run that produced it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.telemetry.service import TelemetryService

#: A vehicle whose last record is older than this many nanoseconds is
#: flagged stale in the heartbeat tiles (2 virtual seconds).
DEFAULT_STALE_AFTER_NS = 2_000_000_000


def status_report(
    service: TelemetryService,
    now_ns: Optional[int] = None,
    stale_after_ns: int = DEFAULT_STALE_AFTER_NS,
    alert_tail: int = 10,
    gateway: Optional[object] = None,
) -> dict:
    """Build the status document (JSON-able, deterministic ordering)."""
    store = service.store
    if now_ns is None:
        now_ns = service.watermark_ns
    vehicles = []
    for source in sorted(store.sources):
        state = store.source_state(source)
        age_ns = (
            now_ns - state.last_seen_ns if state.last_seen_ns >= 0 else -1
        )
        vehicles.append({
            "source": source,
            "records": state.records,
            "last_seen_ns": state.last_seen_ns,
            "age_ns": age_ns,
            "stale": bool(age_ns < 0 or age_ns > stale_after_ns),
            "last_seq": state.last_seq,
            "open_gaps": state.seq_gaps,
            "gap_open": bool(state.gap_open),
            "reorders": state.reorders,
            "duplicates": state.duplicates,
            "level": state.level.value
            if hasattr(state.level, "value") else state.level,
        })
    alerts = service.alert_log.alerts
    report = {
        "schema": "repro-gateway-status/1",
        "now_ns": now_ns,
        "vehicles": vehicles,
        "stale_vehicles": sum(1 for v in vehicles if v["stale"]),
        "latency": store.segment_percentiles(),
        "chains": store.chain_summary(),
        "violations": store.total_violations(),
        "violations_by_source": store.violations_by_source(),
        "alert_counts": service.alert_log.counts_by_rule(),
        "alert_feed": [
            alert.to_json() for alert in alerts[-alert_tail:][::-1]
        ],
        "service": service.stats(),
    }
    if gateway is not None and hasattr(gateway, "stats"):
        report["gateway"] = gateway.stats()
    return report


def _fmt_ns(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value / 1e6:8.3f}ms"


def render_status(report: dict) -> str:
    """The terminal dashboard for one status document."""
    lines: List[str] = []
    lines.append(
        f"fleet status @ {report['now_ns']} ns  "
        f"(vehicles={len(report['vehicles'])}, "
        f"stale={report['stale_vehicles']}, "
        f"violations={report['violations']})"
    )
    gateway = report.get("gateway")
    if gateway:
        shed = gateway.get("shed_by_class", {})
        lines.append(
            f"  gateway: mode={gateway.get('mode')} "
            f"sessions={gateway.get('sessions')} "
            f"backlog={gateway.get('backlog_records')} "
            f"shed={sum(shed.values())} {dict(sorted(shed.items()))}"
        )
    lines.append("")
    lines.append(
        f"  {'vehicle':<14} {'records':>8} {'age':>12} {'gaps':>5} "
        f"{'reord':>6} {'dups':>5}  liveness"
    )
    for vehicle in report["vehicles"]:
        age = vehicle["age_ns"]
        age_text = "-" if age < 0 else f"{age / 1e6:.1f}ms"
        flag = "STALE" if vehicle["stale"] else "ok"
        lines.append(
            f"  {vehicle['source']:<14} {vehicle['records']:>8} "
            f"{age_text:>12} {vehicle['open_gaps']:>5} "
            f"{vehicle['reorders']:>6} {vehicle['duplicates']:>5}  {flag}"
        )
    lines.append("")
    lines.append(
        f"  {'segment':<22} {'count':>8} {'p50':>10} {'p95':>10} "
        f"{'p99':>10}"
    )
    for name, tile in report["latency"].items():
        lines.append(
            f"  {name:<22} {tile['count']:>8} "
            f"{_fmt_ns(tile['p50']):>10} {_fmt_ns(tile['p95']):>10} "
            f"{_fmt_ns(tile['p99']):>10}"
        )
    feed = report["alert_feed"]
    lines.append("")
    lines.append(f"  alerts ({sum(report['alert_counts'].values())} total)")
    for alert in feed:
        lines.append(
            f"    [{alert['severity']}] {alert['rule']} "
            f"{alert['source']} @ {alert['timestamp_ns']} "
            f"{alert['detail']}".rstrip()
        )
    if not feed:
        lines.append("    (none)")
    return "\n".join(lines)
