"""Salvage-mode ingestion: quarantine accounting, budgets, formats."""

import io
import json
from pathlib import Path

import pytest

from repro.core.metrics import compute_metrics
from repro.errors import SalvageError, TraceFormatError
from repro.trace_io import ErrorPolicy, read_trace
from repro.trace_io.csvtrace import read_csv_trace
from repro.trace_io.jsonltrace import read_jsonl_trace
from repro.trace_io.policy import (
    DEFAULT_MAX_ERROR_RATIO,
    QuarantineReport,
    SalvageSession,
)

FIXTURE = Path(__file__).parent.parent / "data" / "corrupted_trace.jsonl"


def good_line(index):
    return json.dumps({"pid": index % 2, "op": "read", "nbytes": 4096,
                       "start": 0.1 * index, "end": 0.1 * index + 0.05})


class TestPolicyValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(TraceFormatError, match="error policy mode"):
            ErrorPolicy("lenient")

    def test_bad_ratio_rejected(self):
        with pytest.raises(TraceFormatError, match="max_error_ratio"):
            ErrorPolicy("salvage", max_error_ratio=0.0)
        with pytest.raises(TraceFormatError, match="max_error_ratio"):
            ErrorPolicy("salvage", max_error_ratio=1.5)

    def test_default_budget(self):
        assert DEFAULT_MAX_ERROR_RATIO == 0.25


class TestJsonlSalvage:
    def test_strict_raises_on_first_bad_line(self):
        text = good_line(0) + "\nNOT JSON\n" + good_line(2) + "\n"
        with pytest.raises(TraceFormatError, match=":2"):
            read_jsonl_trace(io.StringIO(text))

    def test_salvage_keeps_healthy_records(self):
        lines = [good_line(0), "NOT JSON"] + \
            [good_line(i) for i in range(2, 8)]
        policy = ErrorPolicy("salvage")
        trace = read_jsonl_trace(io.StringIO("\n".join(lines)),
                                 errors=policy)
        assert len(trace) == 7
        report = policy.report
        assert report.records_kept == 7
        assert report.skipped == 1
        assert report.entries[0].line_number == 2
        assert "invalid JSON" in report.entries[0].reason

    def test_fixture_report_is_accurate(self):
        policy = ErrorPolicy("salvage")
        trace = read_trace(str(FIXTURE), errors=policy)
        assert len(trace) == 95
        report = policy.report
        assert report.lines_seen == 100
        assert report.skipped == 5
        assert report.error_ratio == pytest.approx(0.05)
        assert sorted(e.line_number for e in report.entries) == \
            [14, 30, 48, 62, 89]

    def test_salvaged_metrics_match_clean_subset(self):
        # Reading the corrupted file in salvage mode must produce the
        # exact metrics of a file containing only its healthy lines.
        bad_lines = {14, 30, 48, 62, 89}
        clean = "\n".join(
            line for number, line in enumerate(
                FIXTURE.read_text().splitlines(), start=1)
            if number not in bad_lines)
        expected = read_jsonl_trace(io.StringIO(clean))
        salvaged = read_trace(str(FIXTURE), errors="salvage")
        first, last = expected.span()
        metrics_expected = compute_metrics(expected,
                                           exec_time=last - first)
        metrics_salvaged = compute_metrics(salvaged,
                                           exec_time=last - first)
        assert metrics_salvaged.bps == metrics_expected.bps
        assert metrics_salvaged.iops == metrics_expected.iops
        assert metrics_salvaged.union_io_time == \
            metrics_expected.union_io_time

    def test_budget_exceeded_raises_salvage_error(self):
        lines = [good_line(i) for i in range(4)] + ["junk"] * 6
        with pytest.raises(SalvageError, match="refusing to salvage"):
            read_jsonl_trace(io.StringIO("\n".join(lines)),
                             errors="salvage")

    def test_budget_can_be_widened(self):
        lines = [good_line(i) for i in range(4)] + ["junk"] * 6
        policy = ErrorPolicy("salvage", max_error_ratio=0.9)
        trace = read_jsonl_trace(io.StringIO("\n".join(lines)),
                                 errors=policy)
        assert len(trace) == 4

    def test_garbage_file_fails_fast(self):
        # Incremental budget check: a long all-garbage file is
        # abandoned after the fast-fail window, not read to the end.
        lines = ["garbage"] * 10_000
        policy = ErrorPolicy("salvage")
        with pytest.raises(SalvageError):
            read_jsonl_trace(io.StringIO("\n".join(lines)),
                             errors=policy)
        assert policy.report.lines_seen < 100

    def test_quarantine_file_gets_the_bad_lines(self, tmp_path):
        quarantine = tmp_path / "bad.txt"
        policy = ErrorPolicy("salvage", quarantine_path=quarantine)
        read_trace(str(FIXTURE), errors=policy)
        quarantined = quarantine.read_text().splitlines()
        assert len(quarantined) == 5
        assert "GARBAGE LINE FROM A CRASHED TRACER" in quarantined[3]

    def test_all_lines_bad_still_reports_no_records(self):
        policy = ErrorPolicy("salvage", max_error_ratio=1.0)
        with pytest.raises(TraceFormatError, match="no records"):
            read_jsonl_trace(io.StringIO("junk\njunk\n"), errors=policy)


class TestCsvSalvage:
    def test_salvage_skips_bad_rows(self):
        rows = ["pid,op,nbytes,start,end",
                "0,read,notanint,0.1,0.2"]
        rows += [f"{i % 2},write,512,{i}.0,{i}.5" for i in range(7)]
        policy = ErrorPolicy("salvage")
        trace = read_csv_trace(io.StringIO("\n".join(rows) + "\n"),
                               errors=policy)
        assert len(trace) == 7
        assert policy.report.skipped == 1
        assert policy.report.entries[0].line_number == 2

    def test_strict_csv_unchanged(self):
        text = ("pid,op,nbytes,start,end\n"
                "0,read,notanint,0.0,0.1\n")
        with pytest.raises(TraceFormatError):
            read_csv_trace(io.StringIO(text))


def record_line(**fields):
    """A JSONL record line; ``fields`` replace those of a valid record."""
    return json.dumps({"pid": 0, "op": "read", "nbytes": 4096,
                       "start": 0.5, "end": 0.75, **fields})


#: Fields no trace column can hold, and how the reason names them.
UNSTORABLE = {
    "nan-start": ({"start": float("nan")},
                  "non-finite timestamps [nan, 0.75]"),
    "nan-end": ({"end": float("nan")}, "non-finite timestamps [0.5, nan]"),
    "infinite-end": ({"end": float("inf")},
                     "non-finite timestamps [0.5, inf]"),
    "retries-2**32": ({"retries": 2**32},
                      "retries 4294967296 does not fit in int32"),
    "pid-2**64": ({"pid": 2**64},
                  "pid 18446744073709551616 does not fit in int64"),
    "offset-below-int64": ({"offset": -2**63 - 1},
                           "offset -9223372036854775809 does not fit"),
}


class TestUnstorableRecords:
    """A record the trace columns cannot hold is one bad line, not a
    failed run."""

    @staticmethod
    def jsonl_with(fields, tmp_path):
        lines = [record_line(start=i, end=i + 0.5) for i in range(100)]
        lines.insert(40, record_line(**fields))
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("fields, reason", UNSTORABLE.values(),
                             ids=UNSTORABLE)
    def test_jsonl_salvage_quarantines_the_line(self, tmp_path, fields,
                                                reason):
        policy = ErrorPolicy("salvage")
        trace = read_trace(str(self.jsonl_with(fields, tmp_path)),
                           errors=policy)
        [entry] = policy.report.entries
        assert entry.line_number == 41
        assert entry.reason.startswith(f"bad record: {reason}")
        assert compute_metrics(trace, exec_time=100.0).app_ops == 100

    @pytest.mark.parametrize("fields, reason", UNSTORABLE.values(),
                             ids=UNSTORABLE)
    def test_jsonl_strict_names_file_and_line(self, tmp_path, fields,
                                              reason):
        path = self.jsonl_with(fields, tmp_path)
        with pytest.raises(TraceFormatError) as caught:
            read_jsonl_trace(path)
        assert str(caught.value).startswith(
            f"{path}:41: bad record: {reason}")

    @pytest.mark.parametrize("fields, reason", [
        ({"start": 10**400}, "int too large to convert to float"),
        ({"nbytes": float("inf")}, "cannot convert float infinity"),
    ], ids=["huge-int-start", "infinite-nbytes"])
    def test_jsonl_overflow_is_a_bad_record(self, fields, reason):
        policy = ErrorPolicy("salvage")
        text = "\n".join([record_line(**fields)] + [record_line()] * 9)
        read_jsonl_trace(io.StringIO(text), errors=policy)
        [entry] = policy.report.entries
        assert entry.line_number == 1
        assert entry.reason.startswith(f"bad record: {reason}")

    @pytest.mark.parametrize("row, reason", [
        ("0,read,4096,nan,0.75,0", "non-finite timestamps [nan, 0.75]"),
        ("0,read,4096,0.5,inf,0", "non-finite timestamps [0.5, inf]"),
        ("0,read,4096,0.5,0.75,4294967296",
         "retries 4294967296 does not fit in int32"),
        ("18446744073709551616,read,4096,0.5,0.75,0",
         "pid 18446744073709551616 does not fit in int64"),
    ], ids=["nan-start", "infinite-end", "retries-2**32", "pid-2**64"])
    def test_csv_salvage_and_strict(self, tmp_path, row, reason):
        rows = [f"{i % 2},write,512,{i}.0,{i}.5,0" for i in range(100)]
        rows.insert(40, row)
        path = tmp_path / "trace.csv"
        path.write_text("pid,op,nbytes,start,end,retries\n"
                        + "\n".join(rows) + "\n")
        policy = ErrorPolicy("salvage")
        trace = read_csv_trace(path, errors=policy)
        [entry] = policy.report.entries
        assert entry.line_number == 42
        assert entry.reason.startswith("bad record {")
        assert entry.reason.endswith(f": {reason}")
        assert compute_metrics(trace, exec_time=100.0).app_ops == 100
        with pytest.raises(TraceFormatError, match=f"{path}:42: bad record"):
            read_csv_trace(path)


class TestNoRecordsContext:
    def test_jsonl_error_names_file_and_line_count(self):
        with pytest.raises(TraceFormatError,
                           match=r"0 data line\(s\) examined"):
            read_jsonl_trace(io.StringIO("# only a comment\n"))

    def test_report_summary_mentions_budget(self):
        report = QuarantineReport("x.jsonl", max_error_ratio=0.25)
        report.lines_seen = 10
        report.records_kept = 10
        assert "kept 10 record(s)" in report.summary()


class TestSessionAccounting:
    def test_strict_session_raises_with_location(self):
        session = SalvageSession(None, "trace.jsonl")
        with pytest.raises(TraceFormatError, match="trace.jsonl:7"):
            session.bad(7, "boom")

    def test_finish_applies_exact_budget_to_small_files(self):
        # 2 of 3 lines bad: way past the budget, but below the
        # fast-fail minimum — the EOF check must still catch it.
        session = SalvageSession("salvage", "tiny.jsonl")
        session.kept()
        session.bad(2, "bad")
        session.bad(3, "bad")
        with pytest.raises(SalvageError):
            session.finish()
