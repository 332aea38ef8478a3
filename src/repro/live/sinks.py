"""Pluggable telemetry sinks for the live metric stream.

A sink is anything with ``emit(event: dict)`` and (optionally)
``close()``; the stream pushes plain-dict events — ``window``,
``snapshot``, ``anomaly``, ``final`` — so sinks stay decoupled from the
metric machinery.  Three implementations ship:

- :class:`MemorySink` — keeps events in a list (tests, notebooks);
- :class:`JsonlSink` — one JSON object per line, append-structured, the
  same shape a downstream collector would tail;
- :class:`PrometheusSink` — Prometheus-style text exposition rewritten
  atomically on every update, the node-exporter "textfile collector"
  pattern: point a scraper at the file and the run's live gauges show
  up under ``repro_live_*``.

Telemetry must never corrupt the measurement: :class:`FailSafeSink`
wraps any sink in an error policy (``raise`` | ``warn`` — warn and
drop the event | ``disable`` — warn and stop writing after N
consecutive failures), so a full disk or a dead scrape target degrades
the telemetry path while the metric stream itself stays exact.
:class:`MetricStream` applies the policy via its ``sink_errors``
argument.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path
from typing import IO

from repro.errors import LiveStreamError

#: Valid ``sink_errors`` policies, in escalation order.
SINK_ERROR_POLICIES = ("raise", "warn", "disable")

#: Event fields exported as Prometheus gauges (cumulative families).
_PROM_GAUGES = (
    ("bps", "repro_live_bps", "Blocks per second (paper Eq. 1)"),
    ("iops", "repro_live_iops", "Application operations per second"),
    ("bandwidth", "repro_live_bandwidth_bytes", "Bytes per second"),
    ("arpt", "repro_live_arpt_seconds", "Average response time"),
    ("io_time", "repro_live_union_io_time_seconds",
     "Union (overlap-collapsed) I/O time"),
    ("ops", "repro_live_ops_total", "Application operations seen"),
    ("blocks", "repro_live_blocks_total", "Application blocks seen"),
)


def atomic_write_text(path: Path, text: str) -> None:
    """Durable atomic file replace: write temp, fsync, rename.

    The textfile-collector contract: a reader must never observe a
    torn or stale exposition.  The fsync *before* the rename matters —
    without it a crash between write and rename can leave the rename
    durable while the data is not, i.e. a stale scrape file.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _format_prom_value(value) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _format_prom_labels(labels: dict) -> str:
    return ",".join(f'{k}="{v}"' for k, v in labels.items())


def format_prometheus(states, *, prefix_help: bool = True) -> str:
    """Render Prometheus text exposition for one or more metric states.

    ``states`` is an iterable of ``(labels, latest, latest_window,
    anomaly_count, last_severity)`` tuples — one per exported stream (a
    single run for :class:`PrometheusSink`, one per tenant for the
    ``bps serve`` scrape endpoint).  ``labels`` is a dict of extra
    label pairs (e.g. ``{"tenant": "a"}``) merged before the ``scope``
    label; ``last_severity`` is the most recent anomaly's severity
    (``math.inf`` for a stalled window, None when nothing has flagged
    yet — the gauge is omitted).  The file sink and the HTTP endpoint
    both call this, so the two expositions are identical by
    construction.
    """
    states = list(states)
    lines: list[str] = []
    for field, name, help_text in _PROM_GAUGES:
        wrote_help = False
        for labels, latest, latest_window, _count, _sev in states:
            for scope, event in (("cumulative", latest),
                                 ("window", latest_window)):
                if field not in event:
                    continue
                if not wrote_help:
                    if prefix_help:
                        lines.append(f"# HELP {name} {help_text}")
                        lines.append(f"# TYPE {name} gauge")
                    wrote_help = True
                pairs = _format_prom_labels(
                    {**labels, "scope": scope})
                lines.append(f"{name}{{{pairs}}} "
                             f"{_format_prom_value(event[field])}")
    # Anomaly families: the flag count and the latest flag's severity
    # (+Inf = fully stalled window), so alerting can key on flags
    # rather than re-deriving drops from raw BPS.
    if prefix_help:
        lines.append("# HELP repro_anomalies_total "
                     "Windows flagged by the BPS anomaly detector")
        lines.append("# TYPE repro_anomalies_total counter")
    for labels, _latest, _latest_window, count, _sev in states:
        pairs = _format_prom_labels(labels)
        suffix = f"{{{pairs}}}" if pairs else ""
        lines.append(f"repro_anomalies_total{suffix} {count}")
    wrote_help = False
    for labels, _latest, _latest_window, _count, severity in states:
        if severity is None:
            continue
        if not wrote_help and prefix_help:
            lines.append("# HELP repro_last_anomaly_severity "
                         "baseline/observed BPS of the most recent "
                         "flagged window (+Inf = stalled)")
            lines.append("# TYPE repro_last_anomaly_severity gauge")
            wrote_help = True
        pairs = _format_prom_labels(labels)
        suffix = f"{{{pairs}}}" if pairs else ""
        lines.append(f"repro_last_anomaly_severity{suffix} "
                     f"{_format_prom_value(severity)}")
    return "\n".join(lines) + "\n"


class FailSafeSink:
    """Error-policy wrapper around any sink.

    - ``policy="raise"`` — transparent: sink errors propagate (the
      pre-wrapper behaviour);
    - ``policy="warn"`` — each failing ``emit`` warns and drops that
      event; the sink keeps being tried (a transient full disk may
      recover);
    - ``policy="disable"`` — like ``warn`` until ``max_failures``
      *consecutive* failures, then the sink is disabled for the rest of
      the run (a permanently dead target shouldn't warn once per
      window).

    A successful emit resets the consecutive-failure count.  ``close``
    failures follow the same policy.  Counters (``failures``,
    ``dropped_events``, ``disabled``, ``last_error``) are exposed for
    tests and post-run reporting.
    """

    def __init__(self, sink, *, policy: str = "warn",
                 max_failures: int = 5) -> None:
        if policy not in SINK_ERROR_POLICIES:
            raise LiveStreamError(
                f"sink error policy must be one of "
                f"{SINK_ERROR_POLICIES}, got {policy!r}")
        if max_failures < 1:
            raise LiveStreamError(
                f"max_failures must be >= 1, got {max_failures}")
        self.sink = sink
        self.policy = policy
        self.max_failures = max_failures
        self.failures = 0
        self.consecutive_failures = 0
        self.dropped_events = 0
        self.disabled = False
        self.last_error: Exception | None = None

    def _handle(self, exc: Exception, what: str) -> None:
        if self.policy == "raise":
            raise exc
        self.failures += 1
        self.consecutive_failures += 1
        self.last_error = exc
        inner = type(self.sink).__name__
        if self.policy == "disable" and \
                self.consecutive_failures >= self.max_failures:
            self.disabled = True
            warnings.warn(
                f"telemetry sink {inner} disabled after "
                f"{self.consecutive_failures} consecutive failures "
                f"(last: {type(exc).__name__}: {exc})", RuntimeWarning,
                stacklevel=3)
        else:
            warnings.warn(
                f"telemetry sink {inner} failed during {what}, "
                f"event dropped: {type(exc).__name__}: {exc}",
                RuntimeWarning, stacklevel=3)

    def emit(self, event: dict) -> None:
        if self.disabled:
            self.dropped_events += 1
            return
        try:
            self.sink.emit(event)
        except Exception as exc:  # noqa: BLE001 — isolate the stream
            self.dropped_events += 1
            self._handle(exc, "emit")
        else:
            self.consecutive_failures = 0

    def close(self) -> None:
        if self.disabled:
            return
        close = getattr(self.sink, "close", None)
        if close is None:
            return
        try:
            close()
        except Exception as exc:  # noqa: BLE001
            self._handle(exc, "close")


def apply_sink_policy(sinks, policy: str | None,
                      max_failures: int = 5) -> list:
    """Wrap every sink per ``policy`` (None/'raise' = no wrapping)."""
    sinks = list(sinks)
    if policy is None or policy == "raise":
        return sinks
    return [sink if isinstance(sink, FailSafeSink)
            else FailSafeSink(sink, policy=policy,
                              max_failures=max_failures)
            for sink in sinks]


class MemorySink:
    """Collects events in memory; the test/notebook sink."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.closed = False

    def emit(self, event: dict) -> None:
        if self.closed:
            raise LiveStreamError("emit() on a closed sink")
        self.events.append(dict(event))

    def close(self) -> None:
        self.closed = True

    def of_type(self, kind: str) -> list[dict]:
        """Events of one type, in emission order."""
        return [e for e in self.events if e.get("type") == kind]


class JsonlSink:
    """Streams events as JSON lines to a path or open text handle."""

    def __init__(self, destination: str | Path | IO[str]) -> None:
        if isinstance(destination, (str, Path)):
            self._handle: IO[str] = open(destination, "w")
            self._owns = True
        else:
            self._handle = destination
            self._owns = False
        self.events_written = 0

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._handle.flush()
        if self._owns:
            self._handle.close()


class PrometheusSink:
    """Maintains a Prometheus text-exposition file of the live gauges.

    Every ``window``/``snapshot``/``final`` event rewrites the file
    (write-then-rename, so a scraper never reads a torn exposition)
    with the latest cumulative gauges plus the most recent window's
    figures labelled ``{scope="window"}``.  Anomalies increment
    ``repro_anomalies_total`` and update
    ``repro_last_anomaly_severity``.
    """

    def __init__(self, path: str | Path,
                 labels: dict | None = None) -> None:
        self.path = Path(path)
        self.labels = dict(labels or {})
        self._latest: dict = {}
        self._latest_window: dict = {}
        self.anomaly_count = 0
        #: Severity of the most recent anomaly (inf = stalled window,
        #: None until something flags).
        self.last_severity: float | None = None

    def emit(self, event: dict) -> None:
        kind = event.get("type")
        if kind == "anomaly":
            self.anomaly_count += 1
            if event.get("stalled"):
                self.last_severity = math.inf
            elif event.get("severity") is not None:
                self.last_severity = float(event["severity"])
        elif kind == "window":
            self._latest_window = event
        elif kind in ("snapshot", "final"):
            self._latest = event
        self._rewrite()

    def close(self) -> None:
        self._rewrite()

    def state(self) -> tuple:
        """This sink's :func:`format_prometheus` state tuple."""
        return (self.labels, self._latest, self._latest_window,
                self.anomaly_count, self.last_severity)

    def _rewrite(self) -> None:
        atomic_write_text(self.path, format_prometheus([self.state()]))
