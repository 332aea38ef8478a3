"""Telemetry sinks: memory, JSONL, Prometheus, fail-safe wrapping."""

import io
import json
import warnings

import pytest

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.errors import LiveStreamError
from repro.live import (
    BpsAnomalyDetector,
    FailSafeSink,
    JsonlSink,
    MemorySink,
    MetricStream,
    PrometheusSink,
    apply_sink_policy,
)


def run_stream(*sinks, detector=None):
    stream = MetricStream(window=0.1, block_size=512, sinks=list(sinks),
                          detector=detector)
    for i in range(20):
        stream.ingest(IORecord(0, "read", 4096, i * 0.02,
                               i * 0.02 + 0.015))
    return stream.finalize()


class TestMemorySink:
    def test_collects_typed_events(self):
        sink = MemorySink()
        run_stream(sink)
        assert sink.of_type("window")
        assert len(sink.of_type("final")) == 1
        assert sink.closed

    def test_events_are_copied_from_the_emitter(self):
        sink = MemorySink()
        event = {"type": "window", "bps": 1.0}
        sink.emit(event)
        event["bps"] = 2.0  # emitter reuses its dict
        assert sink.events[0]["bps"] == 1.0

    def test_emit_after_close_rejected(self):
        sink = MemorySink()
        sink.close()
        with pytest.raises(LiveStreamError):
            sink.emit({"type": "window"})


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        run_stream(sink)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == sink.events_written
        events = [json.loads(line) for line in lines]
        assert events[-1]["type"] == "final"
        assert {"window", "final"} <= {e["type"] for e in events}

    def test_accepts_open_handle_without_closing_it(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        run_stream(sink)
        assert not handle.closed  # caller owns the handle
        assert handle.getvalue().count("\n") == sink.events_written


class TestPrometheusSink:
    def test_exposition_file_has_gauges(self, tmp_path):
        path = tmp_path / "metrics.prom"
        run_stream(PrometheusSink(path))
        text = path.read_text()
        assert '# TYPE repro_live_bps gauge' in text
        assert 'repro_live_bps{scope="cumulative"}' in text
        assert 'repro_live_bps{scope="window"}' in text
        assert "repro_anomalies_total 0" in text

    def test_final_gauges_match_result(self, tmp_path):
        path = tmp_path / "metrics.prom"
        result = run_stream(PrometheusSink(path))
        for line in path.read_text().splitlines():
            if line.startswith('repro_live_bps{scope="cumulative"}'):
                assert float(line.split()[-1]) == result.metrics.bps
                break
        else:
            pytest.fail("cumulative BPS gauge missing")

    def test_anomaly_counter_increments(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusSink(path)
        stream = MetricStream(window=0.1, block_size=512, sinks=[sink],
                              detector=BpsAnomalyDetector(min_history=3))
        # Healthy traffic, then a stall long enough to flag.
        t = 0.0
        for _ in range(50):
            stream.ingest(IORecord(0, "read", 65536, t, t + 0.09))
            t += 0.1
        stream.ingest(IORecord(0, "read", 512, t + 2.0, t + 2.001))
        stream.finalize()
        text = path.read_text()
        count = int(text.rsplit("repro_anomalies_total ", 1)[1]
                    .split()[0])
        assert count >= 1
        assert count == sink.anomaly_count


class _AlwaysFails:
    """A sink whose every emit/close raises (dead scrape target)."""

    def __init__(self):
        self.attempts = 0

    def emit(self, event):
        self.attempts += 1
        raise OSError("no space left on device")

    def close(self):
        raise OSError("close failed too")


class TestFailSafeSink:
    def test_policy_validation(self):
        with pytest.raises(LiveStreamError):
            FailSafeSink(MemorySink(), policy="ignore")
        with pytest.raises(LiveStreamError):
            FailSafeSink(MemorySink(), policy="disable", max_failures=0)

    def test_raise_policy_is_transparent(self):
        wrapped = FailSafeSink(_AlwaysFails(), policy="raise")
        with pytest.raises(OSError):
            wrapped.emit({"type": "window"})

    def test_warn_policy_drops_and_keeps_trying(self):
        inner = _AlwaysFails()
        wrapped = FailSafeSink(inner, policy="warn")
        with pytest.warns(RuntimeWarning, match="event dropped"):
            for _ in range(8):
                wrapped.emit({"type": "window"})
        assert inner.attempts == 8  # never disabled
        assert wrapped.dropped_events == 8
        assert not wrapped.disabled

    def test_disable_policy_stops_after_consecutive_failures(self):
        inner = _AlwaysFails()
        wrapped = FailSafeSink(inner, policy="disable", max_failures=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(10):
                wrapped.emit({"type": "window"})
        assert any("disabled after 3" in str(w.message) for w in caught)
        assert inner.attempts == 3
        assert wrapped.disabled
        assert wrapped.dropped_events == 10
        assert isinstance(wrapped.last_error, OSError)

    def test_success_resets_the_consecutive_counter(self):
        class Flaky:
            def __init__(self):
                self.n = 0

            def emit(self, event):
                self.n += 1
                if self.n % 2:  # every odd attempt fails
                    raise OSError("flaky")

        wrapped = FailSafeSink(Flaky(), policy="disable", max_failures=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(12):
                wrapped.emit({"type": "window"})
        assert not wrapped.disabled  # failures never run consecutively

    def test_close_failure_follows_policy(self):
        wrapped = FailSafeSink(_AlwaysFails(), policy="warn")
        with pytest.warns(RuntimeWarning, match="during close"):
            wrapped.close()

    def test_apply_sink_policy(self):
        sinks = [MemorySink(), FailSafeSink(MemorySink())]
        assert apply_sink_policy(sinks, None) == sinks
        assert apply_sink_policy(sinks, "raise") == sinks
        wrapped = apply_sink_policy(sinks, "warn")
        assert isinstance(wrapped[0], FailSafeSink)
        assert wrapped[1] is sinks[1]  # already wrapped: left alone


class TestStreamWithFailingSinks:
    def test_streamed_equals_batch_with_every_sink_failing(self):
        records = [IORecord(0, "read", 4096, i * 0.02, i * 0.02 + 0.015)
                   for i in range(40)]
        stream = MetricStream(
            window=0.1, block_size=512,
            sinks=[_AlwaysFails(), _AlwaysFails()],
            sink_errors="warn")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for record in records:
                stream.ingest(record)
            result = stream.finalize()
        batch = compute_metrics(TraceCollection(records),
                                exec_time=result.metrics.exec_time,
                                block_size=512)
        assert result.metrics.bps == batch.bps
        assert result.metrics.iops == batch.iops
        assert result.metrics.bandwidth == batch.bandwidth
        assert result.metrics.union_io_time == batch.union_io_time
        assert result.metrics.app_blocks == batch.app_blocks

    def test_default_policy_still_raises(self):
        stream = MetricStream(window=0.1, block_size=512,
                              sinks=[_AlwaysFails()])
        with pytest.raises(OSError):
            stream.ingest(IORecord(0, "read", 4096, 0.0, 0.2))
            stream.finalize()

    def test_healthy_sink_unaffected_by_failing_neighbour(self):
        healthy = MemorySink()
        stream = MetricStream(
            window=0.1, block_size=512,
            sinks=[_AlwaysFails(), healthy],
            sink_errors="disable")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(20):
                stream.ingest(IORecord(0, "read", 4096, i * 0.02,
                                       i * 0.02 + 0.015))
            stream.finalize()
        assert healthy.of_type("window")
        assert len(healthy.of_type("final")) == 1
