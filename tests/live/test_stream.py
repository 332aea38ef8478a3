"""MetricStream: windowed + cumulative live metrics."""

import numpy as np
import pytest

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.errors import LiveStreamError
from repro.live import MemorySink, MetricStream


def steady_records(n=60, gap=0.01, dur=0.02, nbytes=4096):
    """Overlapping steady stream: one op every ``gap`` s, each ``dur`` long."""
    return [
        IORecord(pid=i % 2, op="read" if i % 2 else "write",
                 nbytes=nbytes, start=i * gap, end=i * gap + dur,
                 file="f", offset=i * nbytes)
        for i in range(n)
    ]


def feed(stream, records):
    for record in sorted(records, key=lambda r: (r.end, r.start)):
        stream.ingest(record)


class TestCumulative:
    def test_final_metrics_bit_identical_to_batch(self):
        records = steady_records()
        stream = MetricStream(window=0.05, block_size=512)
        feed(stream, records)
        result = stream.finalize()
        batch = compute_metrics(TraceCollection(records),
                                exec_time=result.metrics.exec_time,
                                block_size=512)
        assert result.metrics.bps == batch.bps
        assert result.metrics.iops == batch.iops
        assert result.metrics.bandwidth == batch.bandwidth
        assert result.metrics.union_io_time == batch.union_io_time
        assert result.metrics.app_blocks == batch.app_blocks

    def test_snapshot_is_exact_mid_stream(self):
        records = steady_records(n=30)
        stream = MetricStream(window=0.05)
        half = sorted(records, key=lambda r: (r.end, r.start))[:15]
        for record in half:
            stream.ingest(record)
        snap = stream.snapshot()
        batch = compute_metrics(TraceCollection(half), exec_time=1.0)
        assert snap.bps == batch.bps
        assert snap.ops == 15

    def test_arpt_tracks_mean_duration(self):
        records = steady_records(n=10, dur=0.02)
        stream = MetricStream(window=0.05)
        feed(stream, records)
        result = stream.finalize()
        assert result.metrics.arpt == pytest.approx(0.02)


class TestWindows:
    def test_window_io_times_sum_to_cumulative_union(self):
        records = steady_records()
        stream = MetricStream(window=0.07, block_size=512)
        feed(stream, records)
        result = stream.finalize()
        total = sum(w.io_time for w in result.windows)
        assert total == pytest.approx(result.metrics.union_io_time,
                                      rel=1e-12)

    def test_window_blocks_sum_to_cumulative(self):
        records = steady_records()
        stream = MetricStream(window=0.07, block_size=512)
        feed(stream, records)
        result = stream.finalize()
        assert sum(w.blocks for w in result.windows) == \
            pytest.approx(result.metrics.app_blocks, rel=1e-12)

    def test_windows_close_as_watermark_passes(self):
        sink = MemorySink()
        stream = MetricStream(window=0.1, sinks=[sink])
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.05))
        assert not sink.of_type("window")
        stream.advance_watermark(0.25)
        closed = sink.of_type("window")
        assert [e["index"] for e in closed] == [0]

    def test_idle_windows_present_in_series(self):
        stream = MetricStream(window=0.1)
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.05))
        stream.ingest(IORecord(0, "read", 512, 0.95, 1.0))
        result = stream.finalize()
        assert len(result.windows) == 10
        assert result.windows[5].ops == 0
        assert result.windows[5].bps == 0.0

    def test_late_record_corrected_at_finalize(self):
        sink = MemorySink()
        stream = MetricStream(window=0.1, sinks=[sink])
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.05))
        stream.advance_watermark(0.5)          # window 0 closes
        provisional = sink.of_type("window")[0]
        stream.ingest(IORecord(0, "read", 512, 0.01, 0.06))  # late
        result = stream.finalize()
        assert stream.late_window_updates >= 1
        assert result.late_records >= 1
        assert result.windows[0].ops == 2
        assert provisional["ops"] == 1  # the stream corrected itself

    def test_earlier_start_delivered_later_opens_the_series(self):
        # Before the first window settles, a row landing below the
        # lowest window seen moves the start of the series: its window
        # is emitted like any other instead of being skipped.
        sink = MemorySink()
        stream = MetricStream(window=1.0, origin=0.0, sinks=[sink])
        stream.ingest(IORecord(0, "read", 512, 2.5, 2.6))
        stream.ingest(IORecord(1, "read", 512, 1.2, 1.3))  # started first
        stream.ingest(IORecord(0, "read", 512, 3.5, 3.6))
        assert [e["index"] for e in sink.of_type("window")] == [1, 2]
        assert sink.of_type("window")[0]["ops"] == 1
        assert stream.late_records == 1  # under the 2.5 watermark
        assert stream.late_window_updates == 0
        result = stream.finalize()
        assert [w.index for w in result.windows] == [1, 2, 3]

    def test_spread_is_overlap_proportional(self):
        stream = MetricStream(window=1.0, block_size=512, origin=0.0)
        # 2 blocks over [0.5, 1.5): half the mass in each window.
        stream.ingest(IORecord(0, "read", 1024, 0.5, 1.5))
        result = stream.finalize()
        assert result.windows[0].blocks == pytest.approx(1.0)
        assert result.windows[1].blocks == pytest.approx(1.0)


class TestBreakdowns:
    def test_default_groups_pid_and_op(self):
        stream = MetricStream(window=0.1)
        feed(stream, steady_records(n=20))
        result = stream.finalize()
        assert {g.key for g in result.breakdowns["pid"]} == {"0", "1"}
        assert {g.key for g in result.breakdowns["op"]} == \
            {"read", "write"}

    def test_group_ops_partition_total(self):
        stream = MetricStream(window=0.1)
        feed(stream, steady_records(n=20))
        result = stream.finalize()
        assert sum(g.ops for g in result.breakdowns["pid"]) == 20
        assert sum(g.blocks for g in result.breakdowns["op"]) == \
            result.metrics.app_blocks

    def test_custom_group(self):
        stream = MetricStream(
            window=0.1,
            group_columns={"half": lambda chunk: np.where(
                chunk.offset < 3 * 4096, "low", "high")})
        feed(stream, steady_records(n=6))
        halves = {g.key: g.ops for g in stream.breakdown("half")}
        assert halves == {"low": 3, "high": 3}

    def test_unknown_group_rejected(self):
        stream = MetricStream(window=0.1)
        with pytest.raises(LiveStreamError):
            stream.breakdown("nope")


class TestContract:
    def test_finalize_empty_stream_rejected(self):
        with pytest.raises(LiveStreamError):
            MetricStream(window=0.1).finalize()

    def test_ingest_after_finalize_rejected(self):
        stream = MetricStream(window=0.1)
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.1))
        stream.finalize()
        with pytest.raises(LiveStreamError):
            stream.ingest(IORecord(0, "read", 512, 0.2, 0.3))

    def test_finalize_twice_rejected(self):
        stream = MetricStream(window=0.1)
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.1))
        stream.finalize()
        with pytest.raises(LiveStreamError):
            stream.finalize()

    def test_bad_window_rejected(self):
        with pytest.raises(LiveStreamError):
            MetricStream(window=0.0)
        with pytest.raises(LiveStreamError):
            MetricStream(window=0.1, block_size=0)

    def test_final_event_emitted_and_sinks_closed(self):
        sink = MemorySink()
        stream = MetricStream(window=0.1, sinks=[sink])
        stream.ingest(IORecord(0, "read", 512, 0.0, 0.1))
        stream.finalize()
        assert sink.of_type("final")
        assert sink.closed


class TestIngestBuffer:
    """``ingest`` buffers rows; every query must still see them."""

    QUERIES = {
        "ops": lambda s: s.ops,
        "snapshot": lambda s: s.snapshot().ops,
        "breakdown": lambda s: sum(g.ops for g in s.breakdown("pid")),
        "union_io_time": lambda s: s.union_io_time(),
        "finalize": lambda s: s.finalize().metrics.app_ops,
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_query_sees_buffered_rows(self, query):
        records = steady_records(n=4, gap=0.001, dur=0.002)
        stream = MetricStream(window=1.0)
        for record in records:
            stream.ingest(record)
        assert stream._rows  # all in window 0: nothing settled yet
        got = self.QUERIES[query](stream)
        if query == "union_io_time":
            assert got == compute_metrics(TraceCollection(records),
                                          exec_time=1.0).union_io_time
        else:
            assert got == len(records)
        assert not stream._rows

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_refused_before_buffering(self, bad):
        records = steady_records(n=4, gap=0.001, dur=0.002)
        stream = MetricStream(window=1.0)
        for record in records:
            stream.ingest(record)
        with pytest.raises(LiveStreamError, match="non-finite"):
            stream.ingest(IORecord(0, "read", 512, bad, bad))
        # Nothing of the refused row stays behind to break reads.
        assert stream.ops == len(records)
        assert stream.finalize().metrics.app_ops == len(records)

    def test_infinite_watermark_settles_every_window(self):
        sink = MemorySink()
        stream = MetricStream(window=0.1, sinks=[sink])
        for record in steady_records(n=20):
            stream.ingest(record)
        stream.advance_watermark(np.inf)
        assert [e["index"] for e in sink.of_type("window")] == [0, 1, 2]

    def test_full_buffer_folds_in(self, monkeypatch):
        monkeypatch.setattr("repro.live.stream.CHUNK_ROWS", 3)
        stream = MetricStream(window=100.0)
        for record in steady_records(n=7):
            stream.ingest(record)
        # The first row folds alone (no watermark yet), then 3 + 3.
        assert stream._ops == 7 and not stream._rows
