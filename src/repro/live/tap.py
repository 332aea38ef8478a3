"""Feed the live pipeline from a running simulation.

:class:`LiveTap` subscribes to a system's
:class:`~repro.middleware.tracing.TraceRecorder` completion callbacks,
so every application-layer record flows into a
:class:`~repro.live.stream.MetricStream` at the simulated instant the
operation completes — the run observes its own BPS while in flight,
the same posture as tailing live Lustre/syscall stats instead of
parsing a trace afterwards.

Watermark: completions arrive in *end*-time order, so a long request
that started early lands out of start order.  The tap advances the
stream watermark from a passive engine heartbeat (``now -
watermark_lag``); the lag bounds how long a request may stay in flight
before its window is considered settled.  Records that outlive the lag
are folded in late (cumulative metrics stay exact; the affected window
is corrected at :meth:`LiveTap.result`).

The heartbeat is a pure observer: it schedules engine callbacks but
touches no simulated state and draws no randomness, so a tapped run
stays bit-identical to an untapped one (asserted in the tests), and it
stops rescheduling once the system's processes have finished so the
event loop still drains.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.records import IORecord
from repro.errors import LiveStreamError
from repro.live.stream import LiveResult, MetricStream
from repro.util.units import BLOCK_SIZE


class LiveTap:
    """Live metrics for one simulated run."""

    def __init__(
        self,
        system,
        *,
        window: float,
        block_size: int = BLOCK_SIZE,
        sinks: Iterable = (),
        sink_errors: str | None = None,
        sink_max_failures: int = 5,
        detector=None,
        attribute: bool = False,
        watermark_lag: float | None = None,
        heartbeat_s: float | None = None,
        snapshot_every: int = 0,
    ) -> None:
        if window <= 0:
            raise LiveStreamError(f"window width must be > 0, got {window}")
        #: Default lag: two windows of in-flight tolerance.
        self.watermark_lag = (2.0 * window if watermark_lag is None
                              else watermark_lag)
        group_columns = {}
        server_of = None
        if system.pfs is not None:
            layout = system.pfs.default_layout
            server_of = first_stripe_server(layout.servers,
                                            layout.stripe_size)
            group_columns["server"] = server_of
        attributor = None
        if attribute:
            from repro.diagnose.attribute import Attributor
            from repro.live.anomaly import BpsAnomalyDetector

            if detector is None:
                detector = BpsAnomalyDetector()
            attributor = Attributor.for_detector(
                detector, window=window, origin=system.engine.now,
                server_of=server_of)
        self.stream = MetricStream(
            window=window,
            block_size=block_size,
            origin=system.engine.now,
            watermark_lag=self.watermark_lag,
            sinks=sinks,
            sink_errors=sink_errors,
            sink_max_failures=sink_max_failures,
            detector=detector,
            attributor=attributor,
            group_columns=group_columns,
        )
        self.system = system
        self.snapshot_every = snapshot_every
        self._records = 0
        self._closed = False
        system.recorder.subscribe(self._on_record)
        self._heartbeat_s = heartbeat_s
        if heartbeat_s is not None:
            if heartbeat_s <= 0:
                raise LiveStreamError(
                    f"heartbeat must be > 0, got {heartbeat_s}")
            system.engine.call_later(heartbeat_s, self._tick)

    # -- feed --------------------------------------------------------------

    def _on_record(self, record: IORecord) -> None:
        self.stream.ingest(record)
        self._records += 1
        if self.snapshot_every and \
                self._records % self.snapshot_every == 0:
            self.stream.snapshot(emit=True)

    def _tick(self) -> None:
        if self._closed:
            return
        engine = self.system.engine
        self.stream.advance_watermark(engine.now - self.watermark_lag)
        # Keep ticking only while application processes are alive —
        # an unconditional reschedule would keep the event loop from
        # ever draining.
        if engine.live_processes > 0:
            engine.call_later(self._heartbeat_s, self._tick)

    # -- settle ------------------------------------------------------------

    def result(self, *, exec_time: float | None = None,
               label: str = "live") -> LiveResult:
        """Detach from the recorder and settle the stream.

        ``exec_time`` should be the run's measured execution time when
        available (e.g. ``RunMeasurement.exec_time``); it defaults to
        the stream's own wall span.
        """
        if self._closed:
            raise LiveStreamError("result() called twice")
        self._closed = True
        self.system.recorder.unsubscribe(self._on_record)
        return self.stream.finalize(exec_time=exec_time, label=label)


def first_stripe_server(servers, stripe_size: int):
    """The first-stripe rule: chunk -> per-row ``serverN`` key array.

    A striped request touches several servers; attributing it to the
    one holding its first byte (``servers[stripe % len(servers)]``)
    keeps the breakdown cheap and stable.  Requests at unknown
    (negative) offsets land in ``"?"``.  The tap's ``server`` breakdown,
    its attributor and :func:`repro.diagnose.stripe_server_of` all use
    this one function.
    """
    width = len(servers)
    # names[stripe % width] is the server; names[width] is "?".
    names = np.array([f"server{s}" for s in servers] + ["?"],
                     dtype=object)

    def key_of(chunk) -> np.ndarray:
        slot = (chunk.offset // stripe_size) % width
        return names[np.where(chunk.offset < 0, width, slot)]

    return key_of
