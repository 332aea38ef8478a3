"""Replay a recorded trace through the live pipeline — ``bps watch``.

Any supported trace format becomes a completion stream: records are
delivered in **end-time order** (the order a real tracer would emit
them as operations finish), as columnar chunks of up to
:data:`~repro.live.stream.CHUNK_ROWS` rows through
:meth:`~repro.live.stream.MetricStream.push_chunk`, optionally paced
against the wall clock so a 30-second trace takes 30 seconds
(``speed=1.0``), 3 seconds (``speed=10``), or no time at all
(``speed=None`` — the ``--speed max`` mode CI uses to check
streamed-equals-batch).  A paced replay also cuts chunks at every
pacing quantum, so windows still close as the wall clock reaches
them.

The watermark follows delivery: after delivering a chunk whose last
record ends at ``e``, no future record *ends* before ``e``, so any
future *start* is above ``e - D`` where ``D`` is the longest request
duration.  The replayer tracks the running maximum duration and
advances the watermark to ``e - max_duration_seen`` — adaptive lag, no
configuration.  A pathological trace whose longest request appears
last still settles exactly: stragglers fold in late (cumulative
metrics are order-independent) and windows are corrected at finalize.

Pacing is **batched**: owed trace time accumulates across deliveries
and is slept only once it reaches :data:`PACE_QUANTUM` (wall seconds),
so the sleep count is proportional to replayed duration, not record
count.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Iterable

import numpy as np

from repro.core.records import TraceCollection
from repro.errors import LiveStreamError
from repro.live.chunk import chunk_trace
from repro.live.sinks import apply_sink_policy
from repro.live.stream import CHUNK_ROWS, LiveResult, MetricStream

#: Owed wall time below which the pacer keeps accumulating instead of
#: sleeping — one quantum-sized sleep replaces hundreds of sub-
#: millisecond ones without changing total slept time.
PACE_QUANTUM = 0.005


class _CallbackSink:
    """Adapter: forwards selected event types to a callable."""

    def __init__(self, callback: Callable[[dict], None],
                 kinds: tuple[str, ...]) -> None:
        self._callback = callback
        self._kinds = kinds

    def emit(self, event: dict) -> None:
        if event.get("type") in self._kinds:
            self._callback(event)


class _Pacer:
    """Batched wall-clock pacing: sleep owed time in quanta."""

    __slots__ = ("speed", "sleep", "_previous_end", "_owed")

    def __init__(self, speed: float | None,
                 sleep: Callable[[float], None]) -> None:
        self.speed = speed
        self.sleep = sleep
        self._previous_end: float | None = None
        self._owed = 0.0

    def pace(self, end: float) -> None:
        """Account delivery up to trace time ``end``; sleep if owed."""
        if self.speed is None:
            return
        if self._previous_end is not None and end > self._previous_end:
            self._owed += (end - self._previous_end) / self.speed
        self._previous_end = end
        if self._owed >= PACE_QUANTUM:
            self.sleep(self._owed)
            self._owed = 0.0

    def split(self, chunk) -> list:
        """Cut ``chunk`` at every pacing quantum of trace time, so a
        paced replay delivers rows as the wall clock reaches them."""
        if self.speed is None:
            return [chunk]
        tick = np.floor(chunk.end / (PACE_QUANTUM * self.speed))
        cuts = [0, *(np.flatnonzero(np.diff(tick)) + 1).tolist(),
                len(chunk)]
        return [chunk.select(slice(lo, hi))
                for lo, hi in zip(cuts, cuts[1:])]


def watch_trace(
    trace: TraceCollection,
    *,
    window: float | None = None,
    bins: int = 20,
    origin: float | None = None,
    block_size: int = 512,
    speed: float | None = None,
    watermark_lag: float | None = None,
    sinks: Iterable = (),
    sink_errors: str | None = None,
    sink_max_failures: int = 5,
    detector=None,
    attribute: bool = False,
    server_of: Callable | None = None,
    exec_time: float | None = None,
    on_window: Callable[[dict], None] | None = None,
    sleep: Callable[[float], None] = _time.sleep,
) -> LiveResult:
    """Stream ``trace`` through the live pipeline and settle it.

    ``window`` is the metric-window width in trace seconds; when None
    it is derived as span / ``bins``.  ``origin`` anchors window 0
    (default: the trace's first start).  ``speed`` is the pacing factor
    (None = as fast as possible); ``sleep`` is injectable for tests.
    ``watermark_lag`` replaces the adaptive watermark (delivered end
    minus the longest duration seen) with a fixed lag — the same
    contract :class:`~repro.live.tap.LiveTap` runs live, so a replay
    with the lag a live run used settles windows on identical record
    sets (the streaming/offline attribution parity tests rely on it).
    ``on_window`` is called with each ``window``/``anomaly`` event dict
    as it closes — the CLI's console renderer.

    ``attribute=True`` attaches an :class:`~repro.diagnose.attribute.
    Attributor` sized to the detector's baseline; flagged windows then
    carry ranked ``suspects``.  ``server_of`` maps a chunk to per-row
    server keys for server-level suspects (see
    :func:`repro.diagnose.offline.stripe_server_of`).
    """
    if len(trace) == 0:
        raise LiveStreamError("cannot watch an empty trace")
    if speed is not None and speed <= 0:
        raise LiveStreamError(f"speed must be > 0, got {speed}")
    if watermark_lag is not None and watermark_lag <= 0:
        raise LiveStreamError(
            f"watermark lag must be > 0, got {watermark_lag}")
    first, last = trace.span()
    if origin is None:
        origin = first
    if window is None:
        span = last - first
        if span <= 0:
            raise LiveStreamError(
                "trace has zero wall extent; pass an explicit window")
        window = span / max(1, bins)

    attributor = None
    if attribute:
        from repro.diagnose.attribute import Attributor
        from repro.live.anomaly import BpsAnomalyDetector

        if detector is None:
            detector = BpsAnomalyDetector()
        attributor = Attributor.for_detector(
            detector, window=window, origin=origin, server_of=server_of)

    # Apply the fail-safe policy to caller sinks only; the on_window
    # callback is the CLI's own renderer and stays transparent.
    stream_sinks = apply_sink_policy(sinks, sink_errors,
                                     sink_max_failures)
    if on_window is not None:
        stream_sinks.append(_CallbackSink(on_window,
                                          ("window", "anomaly")))
    pacer = _Pacer(speed, sleep)

    # With an explicit fixed lag the stream's own start-driven
    # watermark must honor it too, or it would outrun the promise and
    # settle windows early (orphaning still-arriving records from
    # their attribution buckets).
    stream = MetricStream(
        window=window, block_size=block_size, origin=origin,
        sinks=stream_sinks, detector=detector, attributor=attributor,
        watermark_lag=0.0 if watermark_lag is None else watermark_lag)
    max_duration = 0.0
    for whole in chunk_trace(trace, chunk_size=CHUNK_ROWS,
                             order="completion"):
        for chunk in pacer.split(whole):
            chunk_last = float(chunk.end[-1])
            pacer.pace(chunk_last)
            top = float(np.max(chunk.end - chunk.start))
            if top > max_duration:
                max_duration = top
            stream.push_chunk(chunk)
            lag = max_duration if watermark_lag is None else watermark_lag
            stream.advance_watermark(chunk_last - lag)
    return stream.finalize(exec_time=exec_time, label="watch")
