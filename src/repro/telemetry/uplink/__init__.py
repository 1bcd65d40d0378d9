"""Durable store-and-forward telemetry uplink.

Vehicle side: :class:`WalSpooler` (append-before-emit write-ahead log)
drained by :class:`WindowedUplinkClient` (pipelined sliding-window ARQ:
cumulative + selective acks, fast retransmit, exponential backoff with
deterministic jitter, circuit breaker) over an
:class:`AdversarialChannel`.  The stop-and-wait
:class:`RetryingUplinkClient` it replaced stays as the baseline of the
``uplink_roundtrip`` bench floor and of the protocol-equivalence
property tests; the adaptive control-plane sweep still drives it.  Fleet side: :class:`UplinkIngestor`
(at-least-once in, exactly-once applied via :class:`DedupWatermark`,
append-before-ack durability, checkpoint + WAL-replay recovery).
:mod:`repro.telemetry.uplink.chaos` sweeps fault x crash schedules
over the windowed client and asserts the ledger law
``offered == acked + spooled + evicted``.
"""

from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    ChaosDriver,
    ChaosScenario,
    CrashEvent,
    default_scenarios,
    run_chaos,
)
from repro.telemetry.uplink.client import (
    CircuitState,
    RetryingUplinkClient,
    UplinkClientConfig,
)
from repro.telemetry.uplink.ingest import (
    CHECKPOINT_SCHEMA,
    DedupWatermark,
    IngestRecoveryReport,
    UplinkIngestor,
    store_digest,
)
from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    BATCH_SCHEMA,
    FRAME_SCHEMA,
    AdversarialChannel,
    ChannelFaultPlan,
    ChannelStats,
    decode_batch,
    decode_envelope,
    decode_frame,
    encode_ack,
    encode_batch,
    encode_envelope,
    encode_frame,
)
from repro.telemetry.uplink.window import (
    WindowedClientConfig,
    WindowedUplinkClient,
)
from repro.telemetry.uplink.wal import (
    FSYNC_POLICIES,
    RecordLog,
    RecoveryReport,
    WAL_SCHEMA,
    WalConfig,
    WalCorruptionError,
    WalSpooler,
)

__all__ = [
    "ACK_SCHEMA",
    "AdversarialChannel",
    "BATCH_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "ChannelFaultPlan",
    "ChannelStats",
    "ChaosConfig",
    "ChaosDriver",
    "ChaosScenario",
    "CircuitState",
    "CrashEvent",
    "DedupWatermark",
    "FRAME_SCHEMA",
    "FSYNC_POLICIES",
    "IngestRecoveryReport",
    "RecordLog",
    "RecoveryReport",
    "RetryingUplinkClient",
    "UplinkClientConfig",
    "UplinkIngestor",
    "WAL_SCHEMA",
    "WalConfig",
    "WalCorruptionError",
    "WalSpooler",
    "WindowedClientConfig",
    "WindowedUplinkClient",
    "decode_batch",
    "decode_envelope",
    "decode_frame",
    "default_scenarios",
    "encode_ack",
    "encode_batch",
    "encode_envelope",
    "encode_frame",
    "run_chaos",
    "store_digest",
]
