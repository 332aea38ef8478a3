"""JSONL trace round-trip and error handling."""

import gc
import io
import json
import threading
import time

import pytest

from repro.core.records import IORecord, TraceCollection
from repro.errors import TraceFormatError
from repro.trace_io.jsonltrace import read_jsonl_trace, write_jsonl_trace


def sample_trace():
    return TraceCollection([
        IORecord(0, "read", 4096, 0.0, 0.125, file="data", offset=0),
        IORecord(1, "write", 512, 0.1, 0.3, success=False, layer="fs"),
    ])


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(sample_trace(), path)
        loaded = read_jsonl_trace(path)
        assert len(loaded) == 2
        assert loaded[1].layer == "fs"
        assert loaded[1].success is False

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        write_jsonl_trace(sample_trace(), buffer)
        buffer.seek(0)
        assert len(read_jsonl_trace(buffer)) == 2


class TestReading:
    def test_unknown_keys_ignored(self):
        line = json.dumps({"pid": 0, "op": "read", "nbytes": 512,
                           "start": 0.0, "end": 1.0,
                           "queue_depth": 32})
        loaded = read_jsonl_trace(io.StringIO(line + "\n"))
        assert loaded[0].nbytes == 512

    def test_defaults_applied(self):
        line = json.dumps({"pid": 0, "op": "read", "nbytes": 512,
                           "start": 0.0, "end": 1.0})
        record = read_jsonl_trace(io.StringIO(line + "\n"))[0]
        assert record.layer == "app"
        assert record.success is True
        assert record.offset == -1

    def test_missing_key_reports_line(self):
        line = json.dumps({"pid": 0, "op": "read"})
        with pytest.raises(TraceFormatError, match=":1"):
            read_jsonl_trace(io.StringIO(line + "\n"))

    def test_invalid_json_rejected(self):
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            read_jsonl_trace(io.StringIO("{not json\n"))

    def test_non_object_rejected(self):
        with pytest.raises(TraceFormatError, match="expected an object"):
            read_jsonl_trace(io.StringIO("[1, 2]\n"))

    def test_comments_and_blanks_skipped(self):
        line = json.dumps({"pid": 0, "op": "read", "nbytes": 512,
                           "start": 0.0, "end": 1.0})
        text = f"# comment\n\n{line}\n"
        assert len(read_jsonl_trace(io.StringIO(text))) == 1

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError):
            read_jsonl_trace(io.StringIO(""))


class TestConcurrency:
    def test_reading_does_not_starve_other_threads(self, tmp_path):
        """A thread ticking every 1 ms keeps running while a large trace
        is read (a scrape must not queue behind the whole read)."""
        path = tmp_path / "big.jsonl"
        path.write_text("".join(
            json.dumps({"pid": i % 4, "op": "read", "nbytes": 4096,
                        "start": i * 1e-3, "end": i * 1e-3 + 5e-4}) + "\n"
            for i in range(50_000)))
        stop = threading.Event()
        gaps = []

        def tick():
            last = time.perf_counter()
            while not stop.is_set():
                time.sleep(0.001)
                now = time.perf_counter()
                gaps.append(now - last)
                last = now

        # A full collection over the earlier tests' objects pauses every
        # thread whoever holds the GIL; that is not what this measures.
        gc.disable()
        ticker = threading.Thread(target=tick)
        ticker.start()
        try:
            assert len(read_jsonl_trace(path)) == 50_000
        finally:
            stop.set()
            ticker.join(timeout=5.0)
            gc.enable()
        assert not ticker.is_alive()
        assert max(gaps) < 0.15
