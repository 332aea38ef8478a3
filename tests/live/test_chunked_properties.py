"""Property suite: chunked ingest == record-at-a-time ingest == batch.

The one fold path's acceptance property, pinned under Hypothesis:
however a delivery sequence is cut into chunks — including chunk
boundaries landing mid-window or adversarial watermark lag — the
settled result agrees with record-at-a-time
:meth:`MetricStream.ingest` and with the batch pipeline:

- **exactly** (``==``) for everything integer-or-union-derived:
  cumulative ops/blocks/bytes, union I/O time, BPS, IOPS, bandwidth,
  per-window ops and io_time, and every per-group breakdown figure;
- to float re-association for the per-window block/byte masses and the
  ARPT duration sum (the documented deviation in
  :mod:`repro.live.chunk` — a window's mass spanning a chunk boundary
  accumulates in a different grouping).

Record-at-a-time ingest also settles windows at the same points as a
chunked feed cut where the stream's own watermark crosses a window
edge: the window and anomaly event sequences agree.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.live import (
    BpsAnomalyDetector,
    MemorySink,
    MetricStream,
    RecordChunk,
)

finite_start = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)
length = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)


@st.composite
def record_lists(draw, max_size=30):
    n = draw(st.integers(min_value=1, max_value=max_size))
    out = []
    for k in range(n):
        start = draw(finite_start)
        # At least one record must have positive duration — a trace
        # whose union time is zero has no defined metrics (both paths
        # raise identically; not the property under test).
        dur = draw(length) if k else draw(
            st.floats(min_value=0.01, max_value=25.0, allow_nan=False))
        out.append(IORecord(
            pid=draw(st.integers(min_value=0, max_value=3)),
            op=draw(st.sampled_from(["read", "write"])),
            nbytes=draw(st.integers(min_value=0, max_value=10_000)),
            start=start,
            end=start + dur,
            offset=0,
            success=draw(st.booleans()),
            retries=draw(st.integers(min_value=0, max_value=2))))
    return out


@st.composite
def deliveries(draw, max_size=30):
    """(records in delivery order, chunk cut points, window width)."""
    records = draw(record_lists(max_size=max_size))
    n = len(records)
    cuts = draw(st.lists(st.integers(min_value=1, max_value=max(1, n)),
                         max_size=5))
    window = draw(st.floats(min_value=0.5, max_value=40.0,
                            allow_nan=False))
    return records, sorted({0, n, *[c for c in cuts if c < n]}), window


def _chunks(records, cuts):
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            yield RecordChunk.from_records(records[lo:hi])


def _per_record(records, window, **kwargs):
    """Record-at-a-time delivery through the buffered ``ingest``."""
    stream = MetricStream(window=window, **kwargs)
    for record in records:
        stream.ingest(record)
    return stream.finalize()


def _chunked(records, cuts, window, **kwargs):
    stream = MetricStream(window=window, **kwargs)
    for chunk in _chunks(records, cuts):
        stream.push_chunk(chunk)
    return stream.finalize()


def _assert_equivalent(a, b):
    """a == b: exact for ints/unions/rates, isclose for float masses."""
    ma, mb = a.metrics, b.metrics
    assert ma.app_ops == mb.app_ops
    assert ma.app_blocks == mb.app_blocks
    assert ma.app_bytes == mb.app_bytes
    assert ma.union_io_time == mb.union_io_time
    assert ma.bps == mb.bps
    assert ma.iops == mb.iops
    assert ma.bandwidth == mb.bandwidth
    assert math.isclose(ma.arpt, mb.arpt, rel_tol=1e-9, abs_tol=1e-12)
    assert ma.extras["failed_records"] == mb.extras["failed_records"]
    assert ma.extras["total_retries"] == mb.extras["total_retries"]
    assert len(a.windows) == len(b.windows)
    for wa, wb in zip(a.windows, b.windows):
        assert wa.index == wb.index
        assert wa.ops == wb.ops
        assert wa.io_time == wb.io_time  # clipped union: exact
        assert math.isclose(wa.blocks, wb.blocks,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(wa.bytes, wb.bytes,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(wa.arpt, wb.arpt,
                            rel_tol=1e-9, abs_tol=1e-12)
    assert set(a.breakdowns) == set(b.breakdowns)
    for name in a.breakdowns:
        ga = {g.key: g for g in a.breakdowns[name]}
        gb = {g.key: g for g in b.breakdowns[name]}
        assert ga.keys() == gb.keys()
        for key in ga:
            assert ga[key].ops == gb[key].ops
            assert ga[key].blocks == gb[key].blocks
            assert ga[key].bytes == gb[key].bytes
            assert ga[key].io_time == gb[key].io_time
            assert ga[key].bps == gb[key].bps


def _batch(records, result, block_size=512):
    trace = TraceCollection(records)
    return compute_metrics(trace, exec_time=result.metrics.exec_time,
                           block_size=block_size)


class TestChunkedEqualsPerRecord:
    @given(case=deliveries())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_chunk_boundaries(self, case):
        records, cuts, window = case
        ref = _per_record(records, window)
        out = _chunked(records, cuts, window)
        _assert_equivalent(out, ref)

    @given(case=deliveries(),
           lag=st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_adversarial_watermark_lag(self, case, lag):
        records, cuts, window = case
        ref = _per_record(records, window, watermark_lag=lag)
        out = _chunked(records, cuts, window, watermark_lag=lag)
        _assert_equivalent(out, ref)

    @given(case=deliveries())
    @settings(max_examples=60, deadline=None)
    def test_chunked_equals_batch(self, case):
        records, cuts, window = case
        out = _chunked(records, cuts, window)
        batch = _batch(records, out)
        assert out.metrics.bps == batch.bps
        assert out.metrics.iops == batch.iops
        assert out.metrics.bandwidth == batch.bandwidth
        assert out.metrics.union_io_time == batch.union_io_time
        assert out.metrics.app_blocks == batch.app_blocks
        # Per-window io_time re-sums to the cumulative union exactly.
        assert math.isclose(sum(w.io_time for w in out.windows),
                            out.metrics.union_io_time,
                            rel_tol=1e-9, abs_tol=1e-12)


def _settle_cuts(records, window, lag):
    """Cut right after each record whose start-driven watermark
    (``start - lag``) crosses into a window past every earlier one —
    the only deliveries that can settle a window."""
    origin = records[0].start
    cuts = {0, len(records)}
    top = None
    for k, record in enumerate(records):
        index = math.floor((record.start - lag - origin) / window)
        if top is not None and index > top:
            cuts.add(k + 1)
        top = index if top is None else max(top, index)
    return sorted(cuts)


def _events(records, window, lag, feed):
    sink = MemorySink()
    stream = MetricStream(window=window, watermark_lag=lag, sinks=[sink],
                          detector=BpsAnomalyDetector(min_history=2))
    feed(stream)
    stream.finalize()
    return sink.events


class TestIngestSettlesLikeChunks:
    @given(records=record_lists(),
           window=st.floats(min_value=0.5, max_value=40.0,
                            allow_nan=False),
           lag=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_same_window_events_and_anomalies(self, records, window, lag):
        def one_at_a_time(stream):
            for record in records:
                stream.ingest(record)

        def cut_at_settle_points(stream):
            for chunk in _chunks(records, _settle_cuts(records, window,
                                                       lag)):
                stream.push_chunk(chunk)

        got = _events(records, window, lag, one_at_a_time)
        want = _events(records, window, lag, cut_at_settle_points)
        assert [e["type"] for e in got] == [e["type"] for e in want]
        for a, b in zip(got, want):
            if a["type"] == "window":
                assert (a["index"], a["ops"], a["io_time"]) == \
                    (b["index"], b["ops"], b["io_time"])
                for key in ("blocks", "bytes", "bps", "bandwidth",
                            "arpt"):
                    assert math.isclose(a[key], b[key], rel_tol=1e-9,
                                        abs_tol=1e-9), key
            elif a["type"] == "anomaly":
                assert a["index"] == b["index"]
                assert math.isclose(a["bps"], b["bps"], rel_tol=1e-9,
                                    abs_tol=1e-9)
