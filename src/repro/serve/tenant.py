"""One tenant of the ``bps serve`` daemon: stream, budget, lifecycle.

A tenant is the unit of fault isolation.  It owns an independent
watermarked :class:`~repro.live.stream.MetricStream`, a
:class:`~repro.live.anomaly.BpsAnomalyDetector`, an
:class:`~repro.serve.budget.IngestMeter`, and its *own*
:class:`~repro.trace_io.policy.ErrorPolicy`-driven salvage session —
nothing is shared with other tenants, so nothing one tenant does
(flood, garbage, crash, stall) can reach another tenant's numbers.

Lifecycle::

    ACTIVE --(salvage budget exhausted / internal crash)--> QUARANTINED
    ACTIVE --(shed budget exhausted)---------------------->  EVICTED
    ACTIVE --(end control / idle timeout / drain)--------->  DRAINED

Every terminal transition finalizes the stream (when it holds records)
and flushes the tenant's sinks with a last ``final`` event, so a
tenant's exact totals survive its own demise.  All verdicts are
returned as plain :class:`Outcome` values — the tenant never sleeps,
never touches a socket, and never raises across the feed boundary,
which is what keeps a misbehaving connection from poisoning the event
loop.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Callable

from repro.errors import SalvageError, TraceFormatError
from repro.live.anomaly import BpsAnomalyDetector
from repro.live.stream import LiveResult, MetricStream
from repro.serve.budget import Admission, IngestMeter, TenantBudget
from repro.serve.protocol import decode_wire_line
from repro.trace_io.policy import ErrorPolicy, SalvageSession

ACTIVE = "active"
QUARANTINED = "quarantined"
EVICTED = "evicted"
DRAINED = "drained"


class Outcome:
    """One feed verdict handed back to the connection handler."""

    __slots__ = ("kind", "admission", "control", "reason")

    def __init__(self, kind: str, *, admission: Admission | None = None,
                 control: dict | None = None, reason: str = "") -> None:
        #: ``ok`` | ``duplicate`` | ``shed`` | ``evicted`` |
        #: ``bad-line`` | ``quarantined`` | ``control`` | ``closed``.
        self.kind = kind
        self.admission = admission
        self.control = control
        self.reason = reason

    @property
    def delay(self) -> float:
        return self.admission.delay if self.admission else 0.0


class _SeqTracker:
    """Exactly-once admission for client-numbered records.

    Tracks the dense prefix as a single integer (``next_seq``: the
    first sequence number not yet admitted) plus a sparse set of
    numbers admitted ahead of it, so memory stays bounded by the
    reorder window, not the stream length.  ``admit`` returns False
    for anything seen before — duplicated frames, resent prefixes
    after a reconnect — and advances the prefix over any contiguous
    ahead-entries it unlocks.
    """

    __slots__ = ("next_seq", "_ahead")

    def __init__(self) -> None:
        self.next_seq = 0
        self._ahead: set[int] = set()

    def admit(self, seq: int) -> bool:
        if seq < self.next_seq or seq in self._ahead:
            return False
        if seq != self.next_seq:
            self._ahead.add(seq)
            return True
        self.next_seq += 1
        while self.next_seq in self._ahead:
            self._ahead.remove(self.next_seq)
            self.next_seq += 1
        return True


#: Anomaly events kept per tenant for the ``/anomalies`` query (a
#: bounded ring — a pathological stream must not grow the heap).
MAX_KEPT_ANOMALIES = 256


class _PromCapture:
    """In-memory sink capturing the scrape-endpoint state per tenant."""

    def __init__(self) -> None:
        self.latest: dict = {}
        self.latest_window: dict = {}
        self.anomaly_count = 0
        self.last_severity: float | None = None
        self.anomalies: deque = deque(maxlen=MAX_KEPT_ANOMALIES)

    def emit(self, event: dict) -> None:
        kind = event.get("type")
        if kind == "anomaly":
            self.anomaly_count += 1
            if event.get("stalled"):
                self.last_severity = math.inf
            elif event.get("severity") is not None:
                self.last_severity = float(event["severity"])
            self.anomalies.append(dict(event))
        elif kind == "window":
            self.latest_window = event
        elif kind in ("snapshot", "final"):
            self.latest = event


class Tenant:
    """One isolated stream with budgets, salvage, and a lifecycle."""

    def __init__(
        self,
        name: str,
        *,
        window: float,
        block_size: int = 512,
        origin: float | None = None,
        budget: TenantBudget | None = None,
        error_mode: str = "salvage",
        max_error_ratio: float = 0.25,
        detector: BpsAnomalyDetector | None = None,
        attribute: bool = False,
        sinks=(),
        sink_errors: str | None = "disable",
        clock: Callable[[], float] = None,
    ) -> None:
        if clock is None:
            import time
            clock = time.monotonic
        self.name = name
        self.clock = clock
        self.state = ACTIVE
        self.state_reason = ""
        self.created_at = clock()
        self.last_activity = self.created_at
        self.budget = budget or TenantBudget()
        self.meter = IngestMeter(self.budget, clock=clock)
        self.prom = _PromCapture()
        #: Proof-of-continuity for session resume: a reconnecting
        #: client must echo this to reattach (guards against a stray
        #: client accidentally writing into someone else's stream).
        self.resume_token = os.urandom(8).hex()
        self.resumed_sessions = 0
        #: Records actually folded into the stream (duplicates and
        #: shed records excluded) — what acks report as ``records``.
        self.records_admitted = 0
        #: Seq-numbered lines dropped because their number was already
        #: admitted (chaos duplication, reconnect replays).
        self.duplicate_records = 0
        self._seq = _SeqTracker()
        self._session = SalvageSession(
            ErrorPolicy(error_mode, max_error_ratio=max_error_ratio),
            f"tenant:{name}")
        self._line_number = 0
        self._max_duration = 0.0
        self._last_end = float("-inf")
        attributor = None
        if attribute and detector is not None:
            from repro.diagnose.attribute import Attributor

            attributor = Attributor.for_detector(
                detector, window=window, origin=origin)
        self.stream = MetricStream(
            window=window, block_size=block_size, origin=origin,
            sinks=[self.prom, *sinks], sink_errors=sink_errors,
            detector=detector, attributor=attributor)
        self.result: LiveResult | None = None
        self.crash_error: str = ""

    # -- feed --------------------------------------------------------------

    def touch(self) -> None:
        self.last_activity = self.clock()

    @property
    def idle_seconds(self) -> float:
        return self.clock() - self.last_activity

    def feed_line(self, line: str) -> Outcome | None:
        """Fold one wire line in; returns the verdict (None = blank).

        Never raises: decode failures go through the tenant's salvage
        budget, unexpected internal failures quarantine the tenant —
        in both cases the verdict says so and the caller closes or
        keeps the connection, but the daemon and every other tenant
        keep running.
        """
        if self.state != ACTIVE:
            return Outcome("closed", reason=self.state_reason
                           or self.state)
        self.touch()
        self._line_number += 1
        try:
            decoded = decode_wire_line(line)
        except TraceFormatError as exc:
            return self._bad_line(str(exc), line)
        if decoded is None:
            return None
        kind, payload, seq = decoded
        if kind == "control":
            return Outcome("control", control=payload)
        return self.feed_record(payload, seq=seq)

    @property
    def next_seq(self) -> int:
        """First sequence number not yet admitted (resume point)."""
        return self._seq.next_seq

    def feed_record(self, record, *, seq: int | None = None) -> Outcome:
        """Budget-check and ingest one already-decoded record.

        ``seq`` engages exactly-once admission: a sequence number seen
        before is dropped (kind ``"duplicate"``) *before* it touches
        the budget meter or the stream, so replays cost nothing and
        count nothing.
        """
        if self.state != ACTIVE:
            return Outcome("closed", reason=self.state_reason
                           or self.state)
        if seq is not None and not self._seq.admit(seq):
            self.duplicate_records += 1
            return Outcome("duplicate")
        admission = self.meter.admit(record.nbytes)
        if admission.action == "shed":
            return Outcome("shed", admission=admission)
        if admission.action == "evict":
            self._terminate(EVICTED,
                            f"shed budget exhausted "
                            f"({self.meter.records_shed} records shed)")
            return Outcome("evicted", admission=admission,
                           reason=self.state_reason)
        try:
            self._ingest(record)
        except Exception as exc:  # noqa: BLE001 — crash isolation
            return self._crashed(exc)
        self._session.kept()
        self.records_admitted += 1
        return Outcome("ok", admission=admission)

    def _ingest(self, record) -> None:
        if record.duration > self._max_duration:
            self._max_duration = record.duration
        if record.end > self._last_end:
            self._last_end = record.end
        self.stream.ingest(record)
        self.stream.advance_watermark(
            self._last_end - self._max_duration)

    def _bad_line(self, reason: str, text: str) -> Outcome:
        try:
            self._session.bad(self._line_number, reason, text)
        except SalvageError as exc:
            self._terminate(QUARANTINED, str(exc))
            return Outcome("quarantined", reason=str(exc))
        except TraceFormatError as exc:
            # Strict mode: the first malformed line quarantines.
            self._terminate(QUARANTINED, str(exc))
            return Outcome("quarantined", reason=str(exc))
        return Outcome("bad-line", reason=reason)

    def _crashed(self, exc: Exception) -> Outcome:
        self.crash_error = f"{type(exc).__name__}: {exc}"
        self._terminate(QUARANTINED,
                        f"internal failure: {self.crash_error}")
        return Outcome("quarantined", reason=self.state_reason)

    # -- lifecycle ---------------------------------------------------------

    def end(self, reason: str = "end of stream") -> LiveResult | None:
        """Client-requested or drain-time finalize (state DRAINED)."""
        self._terminate(DRAINED, reason)
        return self.result

    def _terminate(self, state: str, reason: str) -> None:
        """Settle the stream, flush sinks, park in a terminal state."""
        if self.state != ACTIVE:
            return
        self.state = state
        self.state_reason = reason
        try:
            if self.stream.ops > 0:
                self.result = self.stream.finalize(
                    label=f"serve:{self.name}")
            else:
                # Nothing ingested: still close the sinks so files
                # exist and FailSafe counters settle.
                for sink in self.stream.sinks:
                    close = getattr(sink, "close", None)
                    if close is not None:
                        close()
        except Exception as exc:  # noqa: BLE001 — never cross the wall
            self.crash_error = self.crash_error or \
                f"{type(exc).__name__}: {exc}"
            self.result = None

    # -- queries -----------------------------------------------------------

    @property
    def quarantine_report(self):
        return self._session.report

    def refresh_snapshot(self) -> None:
        """Refresh the scrape-state gauges (the read folds buffered
        records in)."""
        if self.state == ACTIVE:
            try:
                if self.stream.ops == 0:
                    return
                self.prom.emit(self.stream.snapshot().as_event())
            except Exception as exc:  # noqa: BLE001
                self._crashed(exc)

    def prom_state(self) -> tuple:
        """This tenant's :func:`~repro.live.sinks.format_prometheus` row."""
        return ({"tenant": self.name}, self.prom.latest,
                self.prom.latest_window, self.prom.anomaly_count,
                self.prom.last_severity)

    def anomaly_events(self) -> dict:
        """The ``/tenants/<name>/anomalies`` JSON payload."""
        return {
            "tenant": self.name,
            "anomaly_count": self.prom.anomaly_count,
            "kept": len(self.prom.anomalies),
            "anomalies": list(self.prom.anomalies),
        }

    def _stream_counters(self) -> tuple:
        """(records, bytes, late records) of the stream.

        A read folds the stream's ingest buffer in, so it sits behind
        the same wall as ingest: a failure quarantines this tenant and
        leaves the stream's counters unknown (None), instead of failing
        a roster read that covers every tenant.
        """
        stream = self.stream
        try:
            return stream.ops, stream.nbytes, stream.late_records
        except Exception as exc:  # noqa: BLE001 — crash isolation
            if self.state == ACTIVE:
                self._crashed(exc)
            return None, None, None

    def status(self) -> dict:
        """The JSON-API view of this tenant (exact counters only)."""
        report = self._session.report
        records, nbytes, late = self._stream_counters()
        payload = {
            "tenant": self.name,
            "state": self.state,
            "state_reason": self.state_reason,
            "records": records,
            "records_admitted": self.records_admitted,
            "duplicate_records": self.duplicate_records,
            "resumed_sessions": self.resumed_sessions,
            "next_seq": self.next_seq,
            "bytes": nbytes,
            "late_records": late,
            "quarantined_lines": report.skipped,
            "error_ratio": report.error_ratio,
            "idle_seconds": self.idle_seconds,
            "budget": self.meter.counters(),
        }
        if self.crash_error:
            payload["crash_error"] = self.crash_error
        if self.result is not None:
            m = self.result.metrics
            payload["final"] = {
                "bps": m.bps, "iops": m.iops,
                "bandwidth": m.bandwidth, "arpt": m.arpt,
                "union_io_time": m.union_io_time,
                "exec_time": m.exec_time,
                "ops": m.app_ops, "blocks": m.app_blocks,
                "bytes": m.app_bytes,
                "windows": len(self.result.windows),
                "anomalies": len(self.result.anomalies),
            }
        return payload
