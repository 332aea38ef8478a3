"""Observability satellites: JSON-safe severity, anomaly Prometheus
families, finalize-time flag delivery, and trailing-window quiet."""

import io
import json
import math

from repro.core.records import IORecord
from repro.live import (
    BpsAnomalyDetector,
    JsonlSink,
    MemorySink,
    MetricStream,
    PrometheusSink,
)
from repro.live.anomaly import Anomaly
from repro.live.sinks import format_prometheus


def stalled_anomaly(**over):
    fields = dict(kind="bps-drop", window_index=7, window_start=0.7,
                  window_end=0.8, bps=0.0, baseline=1200.0,
                  severity=math.inf)
    fields.update(over)
    return Anomaly(**fields)


class TestSeveritySentinel:
    def test_stalled_severity_round_trips_through_json(self):
        event = stalled_anomaly().as_event()
        back = json.loads(json.dumps(event))
        assert back["severity"] is None
        assert back["stalled"] is True

    def test_finite_severity_round_trips_untouched(self):
        event = stalled_anomaly(bps=300.0, severity=4.0).as_event()
        back = json.loads(json.dumps(event))
        assert back["severity"] == 4.0
        assert back["stalled"] is False

    def test_jsonl_sink_lines_stay_parseable(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        sink.emit(stalled_anomaly().as_event())
        sink.emit(stalled_anomaly(bps=300.0, severity=4.0).as_event())
        sink.close()
        lines = [json.loads(line)
                 for line in handle.getvalue().splitlines()]
        assert lines[0]["stalled"] and lines[0]["severity"] is None
        assert not lines[1]["stalled"] and lines[1]["severity"] == 4.0


class TestPrometheusAnomalyFamilies:
    def test_sink_counts_anomalies_and_tracks_severity(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusSink(path)
        sink.emit(stalled_anomaly(bps=300.0, severity=4.0).as_event())
        sink.emit(stalled_anomaly().as_event())
        text = path.read_text()
        assert "repro_anomalies_total 2" in text
        assert "repro_live_anomalies_total" not in text
        assert "repro_last_anomaly_severity +Inf" in text

    def test_severity_gauge_absent_until_first_flag(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusSink(path)
        sink.emit({"type": "window", "bps": 100.0})
        assert "repro_last_anomaly_severity" not in path.read_text()

    def test_unflagged_state_has_no_severity(self):
        text = format_prometheus([({}, {"bps": 10.0}, {}, 3, None)])
        assert "repro_anomalies_total 3" in text
        assert "repro_last_anomaly_severity" not in text


def steady(index, window=1.0, ops=5, nbytes=65536):
    """``ops`` short records inside window ``index``."""
    out = []
    for k in range(ops):
        start = index * window + k * (window / (ops + 1))
        out.append(IORecord(pid=k % 2, op="read", nbytes=nbytes,
                            start=start, end=start + 0.05))
    return out


class TestFinalizeFlagDelivery:
    def test_unsettled_final_window_is_flagged_at_finalize(self):
        """A dip in the last window must reach the sinks even though
        no watermark ever passes it (the run just ends)."""
        sink = MemorySink()
        stream = MetricStream(window=1.0, origin=0.0, sinks=[sink],
                              detector=BpsAnomalyDetector(
                                  drop_factor=3.0, history=8,
                                  min_history=3))
        for index in range(6):
            for record in stream_records(index):
                stream.ingest(record)
        # Window 6: a single tiny record — a collapse, never settled.
        stream.ingest(IORecord(pid=0, op="read", nbytes=512,
                               start=6.0, end=6.9))
        stream.advance_watermark(6.0)
        result = stream.finalize()
        flagged = [a.window_index for a in result.anomalies]
        assert 6 in flagged
        assert any(e.get("index") == 6
                   for e in sink.of_type("anomaly"))

    def test_late_correction_rejudged_on_original_baseline(self):
        """A dirty window is re-judged against the baseline it was
        first judged with — a drifted end-of-run baseline must not
        flag a window that was healthy when it closed."""
        detector = BpsAnomalyDetector(drop_factor=3.0, history=8,
                                      min_history=3)
        stream = MetricStream(window=1.0, origin=0.0, detector=detector)
        for index in range(5):
            for record in stream_records(index):
                stream.ingest(record)
            stream.advance_watermark(float(index + 1))
        # Late record lands in the long-settled window 1 (tiny: barely
        # changes the stats; must not create a retroactive flag).
        stream.ingest(IORecord(pid=0, op="read", nbytes=512,
                               start=1.95, end=1.96))
        assert stream.late_records == 1  # a read folds the buffer in
        assert 1 in stream._dirty_windows
        # The detector's baseline then shoots up (a fail-fast storm).
        detector._baseline.extend([1e9] * 8)
        result = stream.finalize()
        assert all(a.window_index != 1 for a in result.anomalies)


def stream_records(index):
    return steady(index)


class TestTrailingWindows:
    def test_spillover_tail_is_not_a_stall(self):
        """Windows past the last *start* hold only spillover from long
        records still draining; their quiet is end-of-trace."""
        detector = BpsAnomalyDetector(drop_factor=3.0, history=8,
                                      min_history=3)
        stream = MetricStream(window=1.0, origin=0.0, detector=detector)
        for index in range(5):
            for record in steady(index):
                stream.ingest(record)
        # One long record: starts in window 4, drains through window 9.
        stream.ingest(IORecord(pid=0, op="read", nbytes=4096,
                               start=4.9, end=9.5))
        result = stream.finalize()
        assert all(a.window_index <= 4 for a in result.anomalies)

    def test_mid_run_silence_still_flags(self):
        """An empty window WITH later starts on record is a real stall."""
        detector = BpsAnomalyDetector(drop_factor=3.0, history=8,
                                      min_history=3)
        stream = MetricStream(window=1.0, origin=0.0, detector=detector)
        for index in range(5):
            for record in steady(index):
                stream.ingest(record)
        # Window 5 empty; work resumes in window 6.
        for record in steady(6):
            stream.ingest(record)
        result = stream.finalize()
        flagged = [a.window_index for a in result.anomalies]
        assert 5 in flagged
        stalled = [a for a in result.anomalies if a.window_index == 5]
        assert math.isinf(stalled[0].severity)
