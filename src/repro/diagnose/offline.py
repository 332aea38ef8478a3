"""Offline root-cause attribution over a recorded trace.

:func:`diagnose_trace` replays a :class:`~repro.core.records.TraceCollection`
through the exact streaming pipeline ``bps watch --attribute`` runs —
same completion-order delivery, same detector, same
:class:`~repro.diagnose.attribute.Attributor` — so the post-hoc
diagnosis and a live one over the same records are identical by
construction (asserted suspect-for-suspect in the parity tests).

Server attribution on a bare trace needs the stripe geometry the
recording system used; :func:`stripe_server_of` rebuilds the live
tap's first-stripe key from ``(n_servers, stripe_size)``, defaulting to
the system's default layout convention (``servers[stripe % width]``,
64 KiB stripes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.records import TraceCollection
from repro.diagnose.attribute import Suspect, ranked_suspects
from repro.diagnose.graph import DiagnoseError
from repro.live.tap import first_stripe_server
from repro.util.units import KiB


def stripe_server_of(n_servers: int,
                     stripe_size: int = 64 * KiB) -> Callable:
    """Chunk -> per-row ``serverN`` keys for a default striped layout.

    The live tap's first-stripe rule
    (:func:`repro.live.tap.first_stripe_server`) over servers
    ``0..n_servers-1``: the server holding a record's first byte claims
    the record; unknown offsets land on ``"?"``.
    """
    if n_servers < 1:
        raise DiagnoseError(f"server count must be >= 1, got {n_servers}")
    if stripe_size < 1:
        raise DiagnoseError(f"stripe size must be >= 1, got {stripe_size}")
    return first_stripe_server(range(n_servers), stripe_size)


@dataclass(frozen=True)
class Diagnosis:
    """Everything :func:`diagnose_trace` settles."""

    #: The replay's :class:`~repro.live.stream.LiveResult` (anomalies
    #: carry their ``suspects`` payloads).
    result: object

    @property
    def anomalies(self) -> tuple:
        return self.result.anomalies

    @property
    def suspects(self) -> tuple[Suspect, ...]:
        """Every suspect across the run, strongest evidence first."""
        return ranked_suspects(self.result.anomalies)

    @property
    def top_suspect(self) -> Suspect | None:
        suspects = self.suspects
        return suspects[0] if suspects else None

    def as_dict(self) -> dict:
        """JSON-safe report (the ``bps diagnose --json`` payload)."""
        return {
            "windows": len(self.result.windows),
            "anomalies": [a.as_event() for a in self.result.anomalies],
            "suspects": [s.as_event() for s in self.suspects],
            "top_suspect": (self.top_suspect.as_event()
                            if self.top_suspect else None),
        }


def diagnose_trace(
    trace: TraceCollection,
    *,
    window: float | None = None,
    bins: int = 20,
    origin: float | None = None,
    block_size: int = 512,
    detector=None,
    server_of: Callable | None = None,
    watermark_lag: float | None = None,
    exec_time: float | None = None,
) -> Diagnosis:
    """Run the offline attribution path over a recorded trace.

    ``window``/``bins`` follow the ``bps watch`` convention (explicit
    width, or span / ``bins``); ``detector`` defaults to a stock
    :class:`~repro.live.anomaly.BpsAnomalyDetector`.  Pass ``server_of``
    (e.g. :func:`stripe_server_of`) to enable server-level suspects on
    a trace whose offsets follow a known stripe geometry; like every
    ``server_of`` it maps a :class:`~repro.live.chunk.RecordChunk` to a
    per-row key array.

    ``watermark_lag`` pins the replay to a fixed settle lag instead of
    the adaptive one.  To reproduce a live run's attribution exactly,
    pass the lag the live tap used; a lag longer than the longest
    request makes every window's evidence complete on both paths, so
    the two produce identical ranked suspects.
    """
    from repro.live.anomaly import BpsAnomalyDetector
    from repro.live.replay import watch_trace

    if detector is None:
        detector = BpsAnomalyDetector()
    result = watch_trace(
        trace, window=window, bins=bins, origin=origin,
        block_size=block_size, detector=detector,
        attribute=True, server_of=server_of,
        watermark_lag=watermark_lag, exec_time=exec_time)
    return Diagnosis(result=result)
