"""Perf bench: the streaming metrics engine at trace scale.

Two figures are measured on synthetic overlapping traces:

1. **Ingest throughput** — records/second through the live pipeline
   delivered two ways: record at a time through
   :meth:`MetricStream.ingest` (which buffers into chunks) and as
   columnar chunks through :meth:`MetricStream.push_chunk`, plus a bare
   :class:`~repro.live.union.StreamingUnion` fed the same chunks for
   scale.  Every path is asserted **bit-identical** to the batch
   pipeline — the speed is only interesting because the answer is
   exact.  Chunked and record-at-a-time delivery must each clear an
   absolute floor (``REQUIRED_RPS``, ``REQUIRED_PER_RECORD_RPS``).

2. **Per-window latency** — wall time from a window becoming settled to
   its ``window`` event reaching a sink, i.e. the cost of the
   ``ingest`` call that closes it (folding the buffered rows, then
   clip-union + stats + emit), reported as mean/p99 over the run's
   windows.

Figures land in ``benchmarks/output/perf_streaming_ingest.{txt,json}``;
the JSON carries the measured rates *and* the floors, and CI's
perf-regression gate re-checks them from there.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized variant.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.intervals import union_time
from repro.core.metrics import compute_metrics
from repro.core.records import TraceCollection
from repro.live import (
    MetricStream,
    StreamingUnion,
    chunk_trace,
)
from repro.util.tables import TextTable
from repro.util.units import MiB

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

SCALES = (10**4, 10**5) if SMOKE else (10**5, 10**6)
CHUNK = 8192
#: Absolute floor for *chunked* full-stream ingest at the largest scale
#: (records/second).  Deliberately conservative — CI boxes vary, and
#: the floor exists to catch order-of-magnitude regressions, not to
#: race the hardware.  The same number is exported in the JSON artifact
#: for the CI perf-regression gate.
REQUIRED_RPS = 150_000.0 if SMOKE else 250_000.0
#: Floor on record-at-a-time delivery through the buffered ``ingest``.
REQUIRED_PER_RECORD_RPS = 20_000.0


def synthesize(n, *, seed=20130520):
    """Near-sorted completion stream with realistic out-of-orderness."""
    rng = np.random.default_rng(seed)
    start = np.sort(rng.uniform(0.0, n / 2000.0, size=n))
    duration = rng.exponential(0.005, size=n)
    duration[rng.random(n) < 0.01] = 0.0
    end = start + duration
    pid = rng.integers(0, 16, size=n)
    nbytes = rng.integers(512, 1 * MiB, size=n)
    op = np.where(rng.random(n) < 0.7, "read", "write")
    trace = TraceCollection.from_arrays(pid=pid, nbytes=nbytes,
                                        start=start, end=end, op=op)
    # Delivery in completion order — what a live tracer produces.
    records = sorted(trace, key=lambda r: (r.end, r.start))
    return trace, records


class _LatencySink:
    """Timestamps every window event against a caller-held clock."""

    def __init__(self):
        self.marks = []
        self.t0 = 0.0

    def emit(self, event):
        if event.get("type") == "window":
            self.marks.append(time.perf_counter() - self.t0)


def _assert_exact(result, batch, trace, streamed_t, label):
    exact = (streamed_t == union_time(trace.intervals())
             and result.metrics.bps == batch.bps
             and result.metrics.union_io_time == batch.union_io_time
             and result.metrics.app_ops == batch.app_ops
             and result.metrics.app_blocks == batch.app_blocks)
    assert exact, f"{label} != batch"


def test_streaming_ingest_throughput(artifact, artifact_json):
    table = TextTable(["records", "union only (rec/s)",
                       "per-record (rec/s)", "chunked (rec/s)",
                       "== batch"])
    scales_out = []
    headline = {}
    for n in SCALES:
        trace, records = synthesize(n)
        span = trace.span()
        window = (span[1] - span[0]) / 50

        interval_chunks = [chunk.intervals() for chunk in chunk_trace(
            trace, chunk_size=CHUNK, order="completion")]
        t0 = time.perf_counter()
        union = StreamingUnion()
        for intervals in interval_chunks:
            union.add_batch(intervals)
        streamed_t = union.finalize()
        union_rps = n / (time.perf_counter() - t0)

        stream = MetricStream(window=window, block_size=512,
                              origin=span[0])
        t0 = time.perf_counter()
        for record in records:
            stream.ingest(record)
        result = stream.finalize()
        per_record_rps = n / (time.perf_counter() - t0)

        batch = compute_metrics(trace,
                                exec_time=result.metrics.exec_time,
                                block_size=512)
        _assert_exact(result, batch, trace, streamed_t, "per-record")

        # Chunk construction is part of the measured cost: a real live
        # tap pays it too.
        chunked = MetricStream(window=window, block_size=512,
                               origin=span[0])
        t0 = time.perf_counter()
        for chunk in chunk_trace(trace, chunk_size=CHUNK,
                                 order="completion"):
            chunked.push_chunk(chunk)
        chunked_result = chunked.finalize()
        chunked_rps = n / (time.perf_counter() - t0)
        _assert_exact(chunked_result, batch, trace,
                      chunked_result.metrics.union_io_time, "chunked")

        headline = {"records": n, "union_rps": union_rps,
                    "per_record_rps": per_record_rps,
                    "chunked_rps": chunked_rps}
        scales_out.append(dict(headline,
                               late=result.late_records,
                               windows=len(result.windows)))
        table.add_row([f"{n:.0e}", f"{union_rps:,.0f}",
                       f"{per_record_rps:,.0f}", f"{chunked_rps:,.0f}",
                       "yes (bit-identical)"])

    mode = "smoke" if SMOKE else "full"
    artifact("perf_streaming_ingest",
             f"streaming metrics ingest throughput ({mode} mode, "
             f"chunk={CHUNK})\n" + table.render())
    artifact_json("perf_streaming_ingest", {
        "bench": "streaming_ingest_throughput",
        "mode": mode,
        "chunk_size": CHUNK,
        "cpu_count": os.cpu_count(),
        "scales": scales_out,
        "headline": headline,
        "floors": {
            "chunked_rps": REQUIRED_RPS,
            "per_record_rps": REQUIRED_PER_RECORD_RPS,
        },
    })
    assert headline["per_record_rps"] >= REQUIRED_PER_RECORD_RPS, (
        f"per-record ingest {headline['per_record_rps']:,.0f} rec/s is "
        f"below the {REQUIRED_PER_RECORD_RPS:,.0f} rec/s floor")
    assert headline["chunked_rps"] >= REQUIRED_RPS, (
        f"chunked ingest {headline['chunked_rps']:,.0f} rec/s at "
        f"{SCALES[-1]:.0e} records is below the {REQUIRED_RPS:,.0f} "
        f"rec/s floor")


def test_per_window_close_latency(artifact, artifact_json):
    n = SCALES[-1]
    trace, records = synthesize(n)
    span = trace.span()
    sink = _LatencySink()
    stream = MetricStream(window=(span[1] - span[0]) / 200,
                          block_size=512, origin=span[0],
                          sinks=[sink])
    closes = []
    for record in records:
        before = len(sink.marks)
        sink.t0 = time.perf_counter()
        stream.ingest(record)
        after = time.perf_counter() - sink.t0
        if len(sink.marks) > before:
            # This ingest closed >= 1 window; charge it the full call.
            closes.append(after)
    stream.finalize()

    assert closes, "no window ever closed mid-stream"
    arr = np.asarray(closes)
    table = TextTable(["records", "windows closed mid-stream",
                       "close latency mean", "p99", "max"])
    table.add_row([f"{n:.0e}", str(len(closes)),
                   f"{arr.mean() * 1e6:.0f}us",
                   f"{np.percentile(arr, 99) * 1e6:.0f}us",
                   f"{arr.max() * 1e3:.2f}ms"])
    mode = "smoke" if SMOKE else "full"
    artifact("perf_streaming_latency",
             f"per-window close latency ({mode} mode)\n" + table.render())
    artifact_json("perf_streaming_latency", {
        "bench": "per_window_close_latency",
        "mode": mode,
        "records": n,
        "closes": len(closes),
        "mean_s": float(arr.mean()),
        "p99_s": float(np.percentile(arr, 99)),
        "max_s": float(arr.max()),
        "floors": {"p99_s": 0.1},
    })
    # A window close must stay far below a window's own width in real
    # time — otherwise the "live" engine couldn't keep up with itself.
    assert np.percentile(arr, 99) < 0.1
