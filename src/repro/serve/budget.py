"""Per-tenant ingest budgets and the load-shedding ladder.

One misbehaving tenant must never degrade the others.  The budget layer
is where that promise is enforced *before* a record reaches the metric
stream, as a documented ladder of degradation rungs — each rung trades
a little more of the offender's fidelity for the fleet's health, and
each rung's cost is accounted exactly (DESIGN.md §13):

========  ================  =========================================
rung      name              guarantee
========  ================  =========================================
0         ``exact``         within budget: totals and lateness exact
1         ``throttle``      token-bucket arrears pause the *reader*
                            (TCP backpressure); totals exact, the
                            client is slowed, delays are summed in
                            :attr:`IngestMeter.throttled_seconds`
2         ``shed``          arrears beyond ``shed_factor`` bucket
                            depths: records are dropped before ingest
                            and counted (``records_shed`` /
                            ``bytes_shed``) — admitted totals stay
                            exact, shed mass is accounted, never
                            silently lost
3         ``evict``         more than ``evict_after_sheds`` shed
                            records: the tenant is finalized, flushed,
                            and refused — the daemon stays healthy
========  ================  =========================================

The meter is pure bookkeeping over an injectable clock, so every rung
transition is unit-testable without sockets or sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ServeError

#: Ladder rungs in escalation order (rung index == position).
SHED_LADDER = ("exact", "throttle", "shed", "evict")


@dataclass(frozen=True)
class TenantBudget:
    """Ingest limits for one tenant (None = unlimited on that axis)."""

    max_bytes_per_sec: float | None = None
    max_records_per_sec: float | None = None
    #: Token-bucket depth, in seconds of sustained budget.
    burst_seconds: float = 1.0
    #: Arrears beyond this many bucket depths shed instead of throttle.
    shed_factor: float = 4.0
    #: Shed records beyond this count evict the tenant (None = never).
    evict_after_sheds: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_bytes_per_sec", "max_records_per_sec"):
            value = getattr(self, name)
            if value is not None and not (value > 0):
                raise ServeError(f"{name} must be > 0, got {value}")
        if not (self.burst_seconds > 0):
            raise ServeError(
                f"burst_seconds must be > 0, got {self.burst_seconds}")
        if not (self.shed_factor >= 1):
            raise ServeError(
                f"shed_factor must be >= 1, got {self.shed_factor}")
        if self.evict_after_sheds is not None \
                and self.evict_after_sheds < 1:
            raise ServeError(
                f"evict_after_sheds must be >= 1, "
                f"got {self.evict_after_sheds}")

    @property
    def unlimited(self) -> bool:
        return (self.max_bytes_per_sec is None
                and self.max_records_per_sec is None)


@dataclass(frozen=True)
class Admission:
    """One :meth:`IngestMeter.admit` verdict."""

    #: ``admit`` | ``shed`` | ``evict``.
    action: str
    #: Seconds the reader should pause before the next read (rung 1).
    delay: float = 0.0
    #: The ladder rung that produced this verdict (index into
    #: :data:`SHED_LADDER`).
    rung: int = 0

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


class _TokenBucket:
    """Classic token bucket allowed to run into bounded arrears."""

    __slots__ = ("rate", "capacity", "level", "last")

    def __init__(self, rate: float, burst_seconds: float,
                 now: float) -> None:
        self.rate = rate
        self.capacity = rate * burst_seconds
        self.level = self.capacity
        self.last = now

    def refill(self, now: float) -> None:
        if now > self.last:
            self.level = min(self.capacity,
                             self.level + (now - self.last) * self.rate)
            self.last = now

    def arrears_depths(self, cost: float) -> float:
        """Bucket depths of arrears if ``cost`` were consumed now."""
        if cost <= self.level:
            return 0.0
        return (cost - self.level) / self.capacity

    def consume(self, cost: float) -> float:
        """Take ``cost`` tokens (may go negative); owed delay seconds."""
        self.level -= cost
        if self.level >= 0:
            return 0.0
        return -self.level / self.rate


class IngestMeter:
    """Budget accounting for one tenant; every verdict is exact.

    ``admit(nbytes)`` is called once per decoded record *before* the
    record reaches the metric stream.  The meter never sleeps and never
    raises mid-stream — it returns an :class:`Admission` and the caller
    (the connection handler) applies the delay or drops the record, so
    the accounting stays identical whether the transport is TCP, a unix
    socket, or an HTTP body.
    """

    def __init__(self, budget: TenantBudget, *,
                 clock: Callable[[], float]) -> None:
        self.budget = budget
        self.clock = clock
        now = clock()
        self._bytes = (_TokenBucket(budget.max_bytes_per_sec,
                                    budget.burst_seconds, now)
                       if budget.max_bytes_per_sec else None)
        self._records = (_TokenBucket(budget.max_records_per_sec,
                                      budget.burst_seconds, now)
                         if budget.max_records_per_sec else None)
        self.records_admitted = 0
        self.bytes_admitted = 0
        self.records_shed = 0
        self.bytes_shed = 0
        self.throttle_delays = 0
        self.throttled_seconds = 0.0
        self.evicted = False

    @property
    def rung(self) -> int:
        """The highest ladder rung this meter has reached so far."""
        if self.evicted:
            return 3
        if self.records_shed:
            return 2
        if self.throttle_delays:
            return 1
        return 0

    def admit(self, nbytes: int) -> Admission:
        """Judge one record of ``nbytes`` payload against the budget."""
        if self.evicted:
            return Admission(action="evict", rung=3)
        budget = self.budget
        if budget.unlimited:
            self.records_admitted += 1
            self.bytes_admitted += nbytes
            return Admission(action="admit")
        now = self.clock()
        arrears = 0.0
        for bucket, cost in ((self._bytes, float(nbytes)),
                             (self._records, 1.0)):
            if bucket is None:
                continue
            bucket.refill(now)
            arrears = max(arrears, bucket.arrears_depths(cost))
        if arrears > budget.shed_factor:
            # Rung 2: the flood outran throttling — drop with exact
            # accounting instead of queueing unbounded arrears.
            self.records_shed += 1
            self.bytes_shed += nbytes
            if budget.evict_after_sheds is not None and \
                    self.records_shed > budget.evict_after_sheds:
                self.evicted = True
                return Admission(action="evict", rung=3)
            return Admission(action="shed", rung=2)
        delay = 0.0
        for bucket, cost in ((self._bytes, float(nbytes)),
                             (self._records, 1.0)):
            if bucket is None:
                continue
            delay = max(delay, bucket.consume(cost))
        self.records_admitted += 1
        self.bytes_admitted += nbytes
        if delay > 0.0:
            self.throttle_delays += 1
            self.throttled_seconds += delay
            return Admission(action="admit", delay=delay, rung=1)
        return Admission(action="admit")

    def counters(self) -> dict:
        """The meter's exact accounting (JSON API / status payloads)."""
        return {
            "records_admitted": self.records_admitted,
            "bytes_admitted": self.bytes_admitted,
            "records_shed": self.records_shed,
            "bytes_shed": self.bytes_shed,
            "throttle_delays": self.throttle_delays,
            "throttled_seconds": self.throttled_seconds,
            "rung": self.rung,
            "rung_name": SHED_LADDER[self.rung],
        }

