"""Unit tests for the columnar chunk wire format."""

import numpy as np
import pytest

from repro.core.records import IORecord, TraceCollection
from repro.errors import AnalysisError, LiveStreamError
from repro.live import RecordChunk, chunk_trace
from repro.live.chunk import CHUNK_COLUMNS


def _records(n=10, seed=3):
    rng = np.random.default_rng(seed)
    start = np.cumsum(rng.uniform(0.0, 0.5, n))
    return [IORecord(pid=int(p), op="read" if r < 0.5 else "write",
                     nbytes=int(b), start=float(s),
                     end=float(s + d), offset=int(k),
                     success=bool(r < 0.9), retries=int(p) % 3)
            for k, (p, r, b, s, d) in enumerate(zip(
                rng.integers(0, 4, n), rng.random(n),
                rng.integers(1, 4096, n), start,
                rng.uniform(0.0, 2.0, n)))]


def _columns(records):
    """The wire columns of ``records``, spelled out field by field."""
    return {name: [getattr(r, name) for r in records]
            for name in CHUNK_COLUMNS}


def _joined(chunks):
    """The wire columns of consecutive chunks, concatenated."""
    out = {}
    for chunk in chunks:
        for name, values in chunk.to_columns().items():
            out.setdefault(name, []).extend(values)
    return out


class TestBuild:
    def test_scalars_broadcast(self):
        chunk = RecordChunk.build(pid=7, nbytes=1024,
                                  start=np.array([0.0, 1.0]),
                                  end=np.array([0.5, 1.5]))
        assert len(chunk) == 2
        assert chunk.pid.tolist() == [7, 7]
        assert chunk.nbytes.tolist() == [1024, 1024]
        assert [str(v) for v in chunk.op] == ["read", "read"]
        assert chunk.success.all()
        assert chunk.retries.tolist() == [0, 0]
        assert chunk.durations.tolist() == [0.5, 0.5]

    def test_rejects_nan_timestamps(self):
        with pytest.raises(LiveStreamError, match="NaN"):
            RecordChunk.build(pid=0, nbytes=1,
                              start=np.array([0.0, float("nan")]),
                              end=np.array([1.0, 2.0]))

    def test_rejects_end_before_start(self):
        with pytest.raises(LiveStreamError, match="ends before"):
            RecordChunk.build(pid=0, nbytes=1, start=np.array([2.0]),
                              end=np.array([1.0]))

    def test_rejects_negative_sizes_and_retries(self):
        with pytest.raises(LiveStreamError, match="negative record size"):
            RecordChunk.build(pid=0, nbytes=-1, start=np.array([0.0]),
                              end=np.array([1.0]))
        with pytest.raises(LiveStreamError, match="negative retry"):
            RecordChunk.build(pid=0, nbytes=1, retries=-2,
                              start=np.array([0.0]), end=np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(LiveStreamError, match="length"):
            RecordChunk.build(pid=np.array([1, 2, 3]), nbytes=1,
                              start=np.array([0.0, 1.0]),
                              end=np.array([1.0, 2.0]))

    def test_rejects_2d_columns(self):
        with pytest.raises(LiveStreamError, match="1-D"):
            RecordChunk.build(pid=0, nbytes=1,
                              start=np.zeros((2, 2)),
                              end=np.ones((2, 2)))


class TestRoundTrips:
    def test_records_round_trip(self):
        records = _records()
        chunk = RecordChunk.from_records(records)
        assert chunk.to_columns() == _columns(records)

    def test_columns_round_trip(self):
        chunk = RecordChunk.from_records(_records())
        back = RecordChunk.from_columns(chunk.to_columns())
        assert back.to_columns() == chunk.to_columns()

    def test_from_columns_ignores_trace_only_keys(self):
        trace = TraceCollection(_records())
        columns = trace.to_columns()
        assert "file" in columns and "layer" in columns
        chunk = RecordChunk.from_columns(columns)
        assert len(chunk) == len(trace)

    def test_from_columns_requires_core_fields(self):
        with pytest.raises(LiveStreamError, match="missing 'nbytes'"):
            RecordChunk.from_columns({"pid": [1], "start": [0.0],
                                      "end": [1.0]})


class TestSelect:
    def test_mask_and_slice(self):
        chunk = RecordChunk.from_records(_records(8))
        mask = chunk.pid == chunk.pid[0]
        sub = chunk.select(mask)
        assert len(sub) == int(mask.sum())
        assert (sub.pid == chunk.pid[0]).all()
        window = chunk.select(slice(2, 5))
        assert len(window) == 3
        assert window.start.tolist() == chunk.start[2:5].tolist()

    def test_intervals_shape(self):
        chunk = RecordChunk.from_records(_records(5))
        ivs = chunk.intervals()
        assert ivs.shape == (5, 2)
        assert (ivs[:, 0] == chunk.start).all()
        assert (ivs[:, 1] == chunk.end).all()


class TestChunkTrace:
    def test_completion_order_matches_replay(self):
        # What a live tracer emits (and `bps watch` replays): records
        # sorted by completion, ties broken by start.
        trace = TraceCollection(_records(23))
        assert _joined(chunk_trace(trace, chunk_size=7)) == \
            _columns(sorted(trace, key=lambda r: (r.end, r.start)))

    def test_record_order_is_storage_order(self):
        records = _records(12)
        trace = TraceCollection(records)
        assert _joined(chunk_trace(trace, chunk_size=5,
                                   order="record")) == _columns(records)

    def test_chunk_sizes(self):
        trace = TraceCollection(_records(10))
        sizes = [len(c) for c in chunk_trace(trace, chunk_size=4)]
        assert sizes == [4, 4, 2]

    def test_empty_trace_yields_nothing(self):
        assert list(chunk_trace(TraceCollection(), chunk_size=4)) == []

    def test_bad_parameters(self):
        trace = TraceCollection(_records(3))
        with pytest.raises(LiveStreamError, match="chunk size"):
            list(chunk_trace(trace, chunk_size=0))
        with pytest.raises(LiveStreamError, match="unknown chunk order"):
            list(chunk_trace(trace, chunk_size=2, order="random"))


class TestColumnArray:
    def test_numeric_and_decoded_categorical(self):
        records = _records(6)
        trace = TraceCollection(records)
        assert trace.column_array("start").tolist() == \
            [r.start for r in records]
        assert [str(v) for v in trace.column_array("op")] == \
            [r.op for r in records]

    def test_unknown_column(self):
        with pytest.raises(AnalysisError, match="unknown column"):
            TraceCollection(_records(2)).column_array("latency")
