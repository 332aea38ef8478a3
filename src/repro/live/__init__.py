"""repro.live — streaming metrics: BPS while the run is in flight.

The offline methodology (gather every record, then one sort+merge
sweep, paper §III.B/Fig. 3) becomes an online pipeline:

- :mod:`repro.live.union` — :class:`StreamingUnion`, the incremental
  interval-union accumulator (batch merge sweep + watermark),
  provably — and bit-for-bit — equal to the batch
  :func:`~repro.core.intervals.union_time`;
- :mod:`repro.live.stream` — :class:`MetricStream`, per-window and
  cumulative BPS/IOPS/bandwidth/ARPT series with per-pid / per-op /
  per-server breakdowns, folded in chunk by chunk (record-at-a-time
  ``ingest`` buffers into chunks);
- :mod:`repro.live.anomaly` — :class:`BpsAnomalyDetector`, rolling-
  baseline drop detection over closed windows;
- :mod:`repro.live.sinks` — pluggable telemetry sinks (in-memory,
  JSONL event stream, Prometheus-style text exposition) plus
  :class:`FailSafeSink`, the error-policy wrapper that keeps a dying
  sink from corrupting the metric stream;
- :mod:`repro.live.chunk` — :class:`RecordChunk`, the columnar wire
  format behind :meth:`MetricStream.push_chunk`, the one fold path;
- :mod:`repro.live.tap` — :class:`LiveTap`, completion-callback feed
  from a running simulation;
- :mod:`repro.live.replay` — :func:`watch_trace`, the paced trace
  replayer behind ``bps watch``.
"""

from repro.live.anomaly import Anomaly, BpsAnomalyDetector
from repro.live.chunk import RecordChunk, chunk_trace
from repro.live.replay import watch_trace
from repro.live.sinks import (
    FailSafeSink,
    JsonlSink,
    MemorySink,
    PrometheusSink,
    apply_sink_policy,
    format_prometheus,
)
from repro.live.stream import (
    GroupStats,
    LiveResult,
    LiveSnapshot,
    MetricStream,
    WindowStats,
)
from repro.live.tap import LiveTap
from repro.live.union import StreamingUnion

__all__ = [
    "StreamingUnion",
    "MetricStream",
    "RecordChunk",
    "chunk_trace",
    "WindowStats",
    "GroupStats",
    "LiveSnapshot",
    "LiveResult",
    "Anomaly",
    "BpsAnomalyDetector",
    "MemorySink",
    "JsonlSink",
    "PrometheusSink",
    "FailSafeSink",
    "apply_sink_policy",
    "format_prometheus",
    "LiveTap",
    "watch_trace",
]
