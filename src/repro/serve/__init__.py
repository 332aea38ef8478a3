"""repro.serve — BPS as a service: the multi-tenant streaming daemon.

``bps serve`` turns the single-trace live engine (:mod:`repro.live`)
into an always-on, shared-infrastructure service: many concurrent
JSONL trace streams over TCP, unix socket, and HTTP, one independent
watermarked :class:`~repro.live.stream.MetricStream` +
:class:`~repro.live.anomaly.BpsAnomalyDetector` per tenant, one
aggregated Prometheus scrape plus a JSON query API.  Robustness is the
product: per-tenant budgets with a documented load-shedding ladder
(:mod:`repro.serve.budget`), crash/garbage isolation through the
existing :class:`~repro.trace_io.policy.ErrorPolicy` /
:class:`~repro.live.sinks.FailSafeSink` machinery
(:mod:`repro.serve.tenant`), idle eviction and bounded rosters
(:mod:`repro.serve.registry`), bounded write queues with slow-consumer
disconnects, and graceful SIGTERM drain (:mod:`repro.serve.server`).
"""

from repro.serve.budget import (
    SHED_LADDER,
    Admission,
    IngestMeter,
    TenantBudget,
)
from repro.serve.protocol import (
    control_line,
    decode_stream_line,
    record_line,
    validate_tenant_name,
)
from repro.serve.registry import ServeConfig, TenantRegistry
from repro.serve.server import BpsServer, run_server
from repro.serve.tenant import (
    ACTIVE,
    DRAINED,
    EVICTED,
    QUARANTINED,
    Outcome,
    Tenant,
)

__all__ = [
    "SHED_LADDER",
    "Admission",
    "IngestMeter",
    "TenantBudget",
    "control_line",
    "decode_stream_line",
    "record_line",
    "validate_tenant_name",
    "ServeConfig",
    "TenantRegistry",
    "BpsServer",
    "run_server",
    "ACTIVE",
    "DRAINED",
    "EVICTED",
    "QUARANTINED",
    "Outcome",
    "Tenant",
]
