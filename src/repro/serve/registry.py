"""Tenant registry: creation, lookup, idle eviction, aggregation.

The registry is the daemon's single source of truth about who is
streaming.  It creates tenants on demand (bounded by ``max_tenants`` —
one more robustness envelope: a client fabricating fresh tenant names
cannot grow the heap without limit), evicts idle tenants with a final
snapshot flush, and renders the two aggregated read paths:

- the Prometheus exposition (one ``{tenant="..."}`` label per stream),
  produced by the *same* :func:`~repro.live.sinks.format_prometheus`
  the file sink uses, so file and HTTP scrapes are identical by
  construction;
- the JSON query API payloads (``/tenants``, ``/tenants/<name>``).

Terminal tenants (drained / quarantined / evicted) are kept for
inspection up to ``max_terminal`` and then dropped oldest-first, so a
daemon that has served a million short streams holds a bounded roster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ServeError
from repro.live.anomaly import BpsAnomalyDetector
from repro.live.sinks import (
    JsonlSink,
    atomic_write_text,
    format_prometheus,
)
from repro.serve.budget import TenantBudget
from repro.serve.protocol import MAX_HTTP_BODY_BYTES, validate_tenant_name
from repro.serve.tenant import ACTIVE, Tenant


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to build one tenant after another."""

    window: float = 1.0
    block_size: int = 512
    budget: TenantBudget = field(default_factory=TenantBudget)
    error_mode: str = "salvage"
    max_error_ratio: float = 0.25
    #: Tenants idle longer than this are evicted (None = never).
    idle_timeout: float | None = 300.0
    #: Fleet bound on concurrently-known tenants.
    max_tenants: int = 1024
    #: Terminal tenants kept for inspection before being dropped.
    max_terminal: int = 1024
    #: Directory for per-tenant JSONL event sinks (None = no files).
    out_dir: str | None = None
    #: Aggregated Prometheus exposition file (None = HTTP scrape only).
    prom_out: str | None = None
    sink_errors: str = "disable"
    #: Anomaly detection per tenant (drop_factor <= 0 disables).
    drop_factor: float = 3.0
    baseline_history: int = 8
    #: Root-cause attribution: attach ranked suspects to every flagged
    #: window (needs the detector).
    attribute: bool = False
    #: Slow-consumer bound: seconds a client may stall an ack write.
    write_timeout: float = 10.0
    #: Cap on one HTTP ingest body (a corrupted or hostile
    #: Content-Length must not balloon the daemon).
    max_body_bytes: int = MAX_HTTP_BODY_BYTES

    def __post_init__(self) -> None:
        if not (self.window > 0):
            raise ServeError(f"window must be > 0, got {self.window}")
        if self.max_body_bytes < 1:
            raise ServeError(
                f"max_body_bytes must be >= 1, "
                f"got {self.max_body_bytes}")
        if self.max_tenants < 1:
            raise ServeError(
                f"max_tenants must be >= 1, got {self.max_tenants}")
        if self.idle_timeout is not None and not (self.idle_timeout > 0):
            raise ServeError(
                f"idle_timeout must be > 0, got {self.idle_timeout}")
        if self.attribute and self.drop_factor <= 1.0:
            raise ServeError(
                "attribution needs the anomaly detector; it is "
                f"disabled at drop_factor={self.drop_factor}")


class TenantRegistry:
    """Create/lookup/evict tenants; render the aggregated views."""

    def __init__(self, config: ServeConfig, *,
                 clock: Callable[[], float] | None = None) -> None:
        if clock is None:
            import time
            clock = time.monotonic
        self.config = config
        self.clock = clock
        self.tenants: dict[str, Tenant] = {}
        #: Tenant names in terminal states, oldest first (drop order).
        self._terminal_order: list[str] = []
        self.tenants_created = 0
        self.tenants_evicted_idle = 0
        self.tenants_dropped = 0
        self.rejected_creates = 0
        if config.out_dir is not None:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)

    # -- creation / lookup -------------------------------------------------

    def get(self, name: str) -> Tenant | None:
        return self.tenants.get(name)

    def get_or_create(self, name: str) -> Tenant:
        """The named tenant, created on first sight.

        Raises :class:`~repro.errors.ServeError` for an invalid name or
        when the fleet bound is hit — the connection handler turns that
        into a protocol error for this client only.
        """
        tenant = self.tenants.get(name)
        if tenant is not None:
            return tenant
        validate_tenant_name(name)
        active = sum(1 for t in self.tenants.values()
                     if t.state == ACTIVE)
        if active >= self.config.max_tenants:
            self.rejected_creates += 1
            raise ServeError(
                f"tenant limit reached ({self.config.max_tenants} "
                f"active); refusing new tenant {name!r}")
        tenant = self._build(name)
        self.tenants[name] = tenant
        self.tenants_created += 1
        return tenant

    def _build(self, name: str) -> Tenant:
        config = self.config
        sinks = []
        if config.out_dir is not None:
            sinks.append(JsonlSink(
                Path(config.out_dir) / f"{name}.jsonl"))
        detector = None
        if config.drop_factor > 1.0:
            detector = BpsAnomalyDetector(
                drop_factor=config.drop_factor,
                history=config.baseline_history)
        return Tenant(
            name,
            window=config.window,
            block_size=config.block_size,
            budget=config.budget,
            error_mode=config.error_mode,
            max_error_ratio=config.max_error_ratio,
            detector=detector,
            attribute=config.attribute,
            sinks=sinks,
            sink_errors=config.sink_errors,
            clock=self.clock,
        )

    # -- lifecycle sweeps --------------------------------------------------

    def note_terminal(self, tenant: Tenant) -> None:
        """Record a terminal transition; drop the oldest past the cap."""
        if tenant.name in self._terminal_order:
            return
        self._terminal_order.append(tenant.name)
        while len(self._terminal_order) > self.config.max_terminal:
            oldest = self._terminal_order.pop(0)
            if self.tenants.pop(oldest, None) is not None:
                self.tenants_dropped += 1

    def evict_idle(self) -> list[Tenant]:
        """Finalize every tenant idle past the timeout; return them."""
        timeout = self.config.idle_timeout
        if timeout is None:
            return []
        evicted = []
        for tenant in list(self.tenants.values()):
            if tenant.state == ACTIVE and tenant.idle_seconds > timeout:
                tenant.end(f"idle for {tenant.idle_seconds:.1f}s "
                           f"(timeout {timeout:g}s)")
                self.note_terminal(tenant)
                self.tenants_evicted_idle += 1
                evicted.append(tenant)
        return evicted

    def drain_all(self, reason: str = "drain") -> list[Tenant]:
        """Finalize every active tenant (graceful-shutdown path)."""
        drained = []
        for tenant in list(self.tenants.values()):
            if tenant.state == ACTIVE:
                tenant.end(reason)
                drained.append(tenant)
            self.note_terminal(tenant)
        return drained

    # -- aggregated views --------------------------------------------------

    def prometheus_text(self, *, refresh: bool = True) -> str:
        """The fleet's scrape exposition, one tenant label per stream."""
        states = []
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            if refresh:
                tenant.refresh_snapshot()
            states.append(tenant.prom_state())
        return format_prometheus(states)

    def write_prom_file(self) -> None:
        """Rewrite the aggregated exposition file (fsync + rename)."""
        if self.config.prom_out is None:
            return
        atomic_write_text(Path(self.config.prom_out),
                          self.prometheus_text())

    def statuses(self) -> dict:
        """The ``/tenants`` JSON payload."""
        return {
            "tenants": [self.tenants[name].status()
                        for name in sorted(self.tenants)],
            "counters": {
                "tenants_created": self.tenants_created,
                "tenants_active": sum(
                    1 for t in self.tenants.values()
                    if t.state == ACTIVE),
                "tenants_evicted_idle": self.tenants_evicted_idle,
                "tenants_dropped": self.tenants_dropped,
                "rejected_creates": self.rejected_creates,
            },
        }
