"""CLI toolkit end to end."""

import json
import socket

import pytest

from repro.cli import main
from repro.core.records import IORecord, TraceCollection
from repro.trace_io.csvtrace import write_csv_trace
from repro.trace_io.jsonltrace import write_jsonl_trace


@pytest.fixture
def csv_trace(tmp_path):
    trace = TraceCollection([
        IORecord(0, "read", 4096, 0.0, 0.5),
        IORecord(1, "read", 4096, 0.25, 0.75),
    ])
    path = tmp_path / "trace.csv"
    write_csv_trace(trace, path)
    return path


class TestAnalyze:
    def test_analyze_csv(self, csv_trace, capsys):
        assert main(["analyze", str(csv_trace)]) == 0
        out = capsys.readouterr().out
        assert "BPS (blocks/s)" in out
        assert "2 records" in out
        assert "2 processes" in out

    def test_analyze_jsonl_by_suffix(self, tmp_path, capsys):
        trace = TraceCollection([IORecord(0, "read", 512, 0.0, 1.0)])
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(trace, path)
        assert main(["analyze", str(path)]) == 0
        assert "BPS" in capsys.readouterr().out

    def test_explicit_format_and_block_size(self, csv_trace, capsys):
        assert main(["analyze", str(csv_trace), "--format", "csv",
                     "--block-size", "4096"]) == 0
        out = capsys.readouterr().out
        assert "application blocks (B) | 2" in out

    def test_bins_prints_time_series(self, csv_trace, capsys):
        assert main(["analyze", str(csv_trace), "--bins", "4"]) == 0
        out = capsys.readouterr().out
        assert "BPS over time" in out
        assert out.count("[") >= 4  # one window row per bin

    def test_exec_time_override(self, csv_trace, capsys):
        assert main(["analyze", str(csv_trace),
                     "--exec-time", "10.0"]) == 0
        assert "10.000s" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert main(["analyze", "/no/such/trace.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_trace_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("pid,op\n")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestFigures:
    def test_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out

    def test_no_id_lists(self, capsys):
        assert main(["figures"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_table1_renders(self, capsys):
        assert main(["figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "ARPT" in out and "positive" in out

    def test_unknown_figure_is_error(self, capsys):
        assert main(["figures", "fig99"]) == 1
        assert "unknown figure" in capsys.readouterr().err

    def test_nan_scale_is_error(self, capsys):
        assert main(["figures", "fig4", "--scale", "nan"]) == 1
        assert "bad scale factor" in capsys.readouterr().err


class TestCompare:
    def test_compare_two_traces(self, csv_trace, tmp_path, capsys):
        fast = TraceCollection([
            IORecord(0, "read", 4096, 0.0, 0.1),
            IORecord(1, "read", 4096, 0.05, 0.15),
        ])
        fast_path = tmp_path / "fast.csv"
        write_csv_trace(fast, fast_path)
        assert main(["compare", str(csv_trace), str(fast_path)]) == 0
        out = capsys.readouterr().out
        assert "B/A" in out
        assert "BPS agrees: yes" in out

    def test_compare_missing_file(self, csv_trace, capsys):
        assert main(["compare", str(csv_trace), "/no/such.csv"]) == 1


class TestGantt:
    def test_gantt_renders(self, csv_trace, capsys):
        assert main(["gantt", str(csv_trace), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "pid" in out
        assert "#" in out
        assert "overlap surplus" in out

    def test_gantt_missing_file(self, capsys):
        assert main(["gantt", "/no/such.csv"]) == 1


class TestExperiments:
    def test_registry_listed(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Hpio" in out and "IOzone" in out


class TestSweep:
    def test_sweep_runs_and_prints_cc(self, capsys):
        assert main(["sweep", "set4", "--scale", "0.25",
                     "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "BPS" in out and "MISLEADING" in out

    def test_sweep_with_ci_and_detail(self, capsys):
        assert main(["sweep", "set5", "--scale", "0.25", "--reps", "2",
                     "--ci", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out
        assert "exec_time" in out

    def test_sweep_csv_export(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "set5", "--scale", "0.25", "--reps", "2",
                     "--csv", str(target)]) == 0
        text = target.read_text()
        header, *rows = text.strip().splitlines()
        assert header.startswith("point,iops,")
        assert len(rows) == 6  # one row per queue depth

    def test_nan_job_timeout_is_error(self, capsys):
        assert main(["sweep", "set1", "--smoke",
                     "--job-timeout", "nan"]) == 1
        assert "error: job_timeout" in capsys.readouterr().err

    def test_unreachable_grid_workers_is_error(self, capsys):
        # Addresses mean the socket dispatcher; they are never ignored
        # in favour of the local pool.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["sweep", "set1", "--smoke", "--grid-workers",
                     f"127.0.0.1:{port}"]) == 1
        assert "no grid workers reachable" in capsys.readouterr().err


class TestSimulate:
    def test_iozone_local(self, capsys):
        assert main(["simulate", "--workload", "iozone",
                     "--size", "2MiB", "--record", "64KiB"]) == 0
        out = capsys.readouterr().out
        assert "BPS (blocks/s)" in out
        assert "iozone" in out

    def test_ior_on_pfs(self, capsys):
        assert main(["simulate", "--workload", "ior", "--kind", "pfs",
                     "--servers", "2", "--size", "2MiB",
                     "--nproc", "2"]) == 0
        assert "ior" in capsys.readouterr().out

    def test_hpio(self, capsys):
        assert main(["simulate", "--workload", "hpio", "--kind", "pfs",
                     "--regions", "128", "--record", "512"]) == 0
        out = capsys.readouterr().out
        assert "fs amplification" in out

    def test_bad_workload_config_is_error(self, capsys):
        # record size bigger than the file
        assert main(["simulate", "--workload", "iozone",
                     "--size", "4KiB", "--record", "64KiB"]) == 1


@pytest.fixture
def jsonl_trace(tmp_path):
    trace = TraceCollection([
        IORecord(0, "read", 4096, i * 0.01, i * 0.01 + 0.02)
        for i in range(40)
    ])
    path = tmp_path / "trace.jsonl"
    write_jsonl_trace(trace, path)
    return path


class TestWatch:
    def test_watch_streams_windows_and_summary(self, jsonl_trace,
                                               capsys):
        assert main(["watch", str(jsonl_trace), "--bins", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 windows" in out
        assert "cumulative (streamed)" in out
        assert "BPS (blocks/s)" in out

    def test_watch_matches_analyze(self, jsonl_trace, capsys):
        assert main(["watch", str(jsonl_trace)]) == 0
        watch_out = capsys.readouterr().out
        assert main(["analyze", str(jsonl_trace)]) == 0
        analyze_out = capsys.readouterr().out

        def summary_rows(text):
            return [line for line in text.splitlines()
                    if line.startswith(("BPS", "IOPS", "union I/O"))]
        assert summary_rows(watch_out) == summary_rows(analyze_out)

    def test_watch_explicit_window(self, jsonl_trace, capsys):
        assert main(["watch", str(jsonl_trace),
                     "--window", "0.1"]) == 0
        assert "windows" in capsys.readouterr().out

    def test_watch_writes_sinks(self, jsonl_trace, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main(["watch", str(jsonl_trace),
                     "--jsonl-out", str(events),
                     "--prom-out", str(prom)]) == 0
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        assert lines[-1]["type"] == "final"
        assert "repro_live_bps" in prom.read_text()

    def test_watch_paced_speed(self, jsonl_trace, capsys):
        # Very fast pacing factor: finishes instantly but takes the
        # paced code path.
        assert main(["watch", str(jsonl_trace),
                     "--speed", "1000000"]) == 0
        assert "cumulative" in capsys.readouterr().out

    def test_watch_bad_speed_rejected(self, jsonl_trace, capsys):
        with pytest.raises(SystemExit):
            main(["watch", str(jsonl_trace), "--speed", "-1"])
        with pytest.raises(SystemExit):
            main(["watch", str(jsonl_trace), "--speed", "soon"])

    def test_watch_no_detector(self, jsonl_trace, capsys):
        assert main(["watch", str(jsonl_trace),
                     "--no-detector"]) == 0
        assert "0 anomalies" in capsys.readouterr().out

    def test_watch_empty_trace_is_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["watch", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestStdinTraces:
    def stdin_payload(self, n=10):
        lines = [json.dumps({"pid": 0, "op": "read", "nbytes": 4096,
                             "start": i * 0.01,
                             "end": i * 0.01 + 0.02})
                 for i in range(n)]
        return "\n".join(lines) + "\n"

    def test_analyze_reads_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            self.stdin_payload()))
        assert main(["analyze", "-"]) == 0
        out = capsys.readouterr().out
        assert "trace: -" in out
        assert "10 records" in out

    def test_watch_reads_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            self.stdin_payload()))
        assert main(["watch", "-", "--bins", "3"]) == 0
        assert "3 windows" in capsys.readouterr().out

    def test_replay_reads_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            self.stdin_payload()))
        assert main(["replay", "-", "--device", "sata-ssd"]) == 0
        out = capsys.readouterr().out
        assert "replayed 10 records" in out

    def test_stdin_format_override(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "pid,op,nbytes,start,end\n0,read,4096,0.0,1.0\n"))
        assert main(["analyze", "-", "--format", "csv"]) == 0
        assert "1 records" in capsys.readouterr().out


class TestChaos:
    def test_serve_check_with_schedule_file_and_json_artifact(
            self, tmp_path, capsys):
        from repro.chaos import ChaosSchedule, schedule_to_dict

        # A quiet lines-mode schedule keeps this CLI test fast; the
        # adversarial defaults are exercised in tests/chaos/.
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(json.dumps(
            schedule_to_dict(ChaosSchedule(seed=4, mode="lines"))))
        report_path = tmp_path / "report.json"
        assert main(["chaos", "--check", "serve", "--records", "60",
                     "--schedule", str(schedule_path),
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["checks"][0]["check"] == "serve"
        assert "identical" in capsys.readouterr().err

    def test_malformed_schedule_file_is_an_error(self, tmp_path,
                                                 capsys):
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(json.dumps({"seed": 0, "evnets": []}))
        assert main(["chaos", "--check", "serve",
                     "--schedule", str(schedule_path)]) == 1
        assert "unknown schedule keys" in capsys.readouterr().err

    def test_unknown_check_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--check", "saturday"])
