"""JSONL trace round-trip and error handling."""

import gc
import io
import json
import threading
import time

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import IORecord, TraceCollection
from repro.errors import TraceFormatError
from repro.trace_io import jsonltrace
from repro.trace_io.jsonltrace import (
    decode_jsonl_line,
    read_jsonl_trace,
    write_jsonl_trace,
)
from repro.trace_io.policy import ErrorPolicy, SalvageSession


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


def per_line_read(source, errors=None):
    """The reference: the per-line loop the block decoder replaced."""
    name = getattr(source, "name", "<stream>")
    session = SalvageSession(errors, name)
    trace = TraceCollection()
    for line_number, raw in enumerate(source, start=1):
        try:
            record = decode_jsonl_line(raw)
        except TraceFormatError as exc:
            session.bad(line_number, str(exc), raw)
            continue
        if record is not None:
            trace.add(record)
            session.kept()
    session.finish()
    if len(trace) == 0:
        raise TraceFormatError(
            f"{name}: trace contains no records "
            f"({session.report.lines_seen} data line(s) examined)")
    return trace


@st.composite
def record_objects(draw):
    """A valid record object with a random subset of the optional keys."""
    start = draw(st.floats(0, 100))
    record = {"pid": draw(st.integers(-3, 9)),
              "op": draw(st.sampled_from(["read", "write"])),
              "nbytes": draw(st.integers(0, 2**40)),
              "start": start, "end": start + draw(st.floats(0, 1))}
    optional = {"file": draw(st.sampled_from(
                    ["", "/data/f", "/data/[x].dat", "/data/f#1", "\u00df"])),
                "offset": draw(st.integers(-1, 2**40)),
                "success": draw(st.booleans()),
                "layer": draw(st.sampled_from(["app", "fs"])),
                "retries": draw(st.integers(0, 3))}
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        record[key] = optional[key]
    return record


#: Field values the block path must refuse or take exactly: each
#: replaces fields of a valid record.
ODD_FIELDS = {
    "float-nbytes": {"nbytes": 4096.0}, "bool-nbytes": {"nbytes": True},
    "negative-nbytes": {"nbytes": -1}, "string-pid": {"pid": "5"},
    "null-file": {"file": None}, "int-success": {"success": 1},
    "zero-success": {"success": 0}, "int-op": {"op": 7},
    "nul-op": {"op": "read\u0000"}, "nan-start": {"start": float("nan")},
    "nan-end": {"end": float("nan")}, "infinite-end": {"end": float("inf")},
    "-infinite-start": {"start": float("-inf")},
    "bool-start": {"start": True}, "2**70-times": {"start": 2**70,
                                                   "end": 2**71},
    "10**400-start": {"start": 10**400}, "end-before-start": {"end": -1.0},
    "pid-2**64": {"pid": 2**64}, "pid-2**63": {"pid": 2**63},
    "offset-below-int64": {"offset": -2**63 - 1},
    "retries-2**32": {"retries": 2**32}, "retries-2**31": {"retries": 2**31},
    "retries-2**31-1": {"retries": 2**31 - 1},
    "negative-retries": {"retries": -1}, "infinite-pid": {"pid": float("inf")},
    "nested-array": {"extra": {"deep": [1, 2]}},
    "nested-object": {"extra": {"deep": 1}},
    "bracket-in-name": {"file": "/data/[x].dat"},
    "hash-in-name": {"file": "/data/f#1"},
}

CLEAN = json.dumps({"pid": 1, "op": "read", "nbytes": 4096, "start": 2.0,
                    "end": 2.5, "file": "/data/f"})

#: Lines a joined-block parse could get wrong, by kind.
ODD_LINES = {
    "split-object": CLEAN.replace(", ", ",\n", 1),
    "two-objects": CLEAN + ", " + CLEAN,
    "wrapped-object": "[" + CLEAN + "]",
    "open-open": "[[", "close-close": "]]", "open": "[", "close": "]",
    "separator": "],[", "empty-array": "[]",
    "comment": "# a comment", "indented-comment": "\t# note",
    "comment-with-bracket": "  # [x]", "hash": "#",
    "blank": "", "spaces": "   ", "tab": "\t",
    "int": "1", "string": '"text"', "null": "null", "true": "true",
    "nan": "NaN", "empty-object": "{}",
    "unclosed": "{not json", "garbage": "GARBAGE @@", "inverted": "}{",
    "bom": "\ufeff" + CLEAN, "formfeed-before": "\f" + CLEAN,
    "formfeed-after": CLEAN + "\f", "line-separator": "\u2028" + CLEAN,
    "next-line": CLEAN + "\x85",
    "duplicate-key-string": CLEAN[:-1] + ', "pid": "x"}',
    "duplicate-key-int": CLEAN[:-1] + ', "pid": 4}',
}


@st.composite
def trace_documents(draw):
    """The lines of a trace: records, with a few odd lines and records
    with odd fields among them."""
    lines = draw(st.lists(
        st.builds(json.dumps, record_objects(),
                  separators=st.sampled_from([None, (",", ":")])),
        min_size=8, max_size=80))
    odd = draw(st.lists(st.sampled_from(list(ODD_LINES.values())),
                        max_size=4)) + draw(st.lists(
        st.builds(lambda record, fields: json.dumps({**record, **fields}),
                  record_objects(),
                  st.sampled_from(list(ODD_FIELDS.values()))),
        max_size=3))
    for line in odd:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


def read_outcome(read, source, errors):
    try:
        trace = read(source, errors=errors)
        # The string columns as the stream gets them, types included
        # (``to_columns`` would hide a 7 that should be "7").
        result = repr((trace.to_columns(), *(
            trace.column_array(name).tolist()
            for name in ("op", "file", "layer"))))
    except TraceFormatError as exc:  # SalvageError included
        result = (type(exc).__name__, str(exc))
    report = errors.report
    entries = [(e.line_number, e.reason, e.text) for e in report.entries]
    return result, entries, report.lines_seen, report.records_kept


def read_both_ways(folder, text, *, read_block, parse_block, mode,
                   budget=1.0, from_file=True):
    """What the per-line reader and the block reader make of ``text``:
    columns or exception, report, and quarantine file bytes."""
    path = folder / "trace.jsonl"
    path.write_bytes(text.encode())
    outcomes = []
    with mock.patch.object(jsonltrace, "READ_BLOCK_BYTES", read_block), \
            mock.patch.object(jsonltrace, "PARSE_BLOCK_CHARS", parse_block):
        for read in (per_line_read, read_jsonl_trace):
            quarantine = folder / f"{read.__name__}.quarantine"
            policy = ErrorPolicy(mode, max_error_ratio=budget,
                                 quarantine_path=quarantine)
            if from_file:
                with open(path) as handle:
                    outcome = read_outcome(read, handle, policy)
            else:
                outcome = read_outcome(read, io.StringIO(text), policy)
            kept = quarantine.read_bytes() if quarantine.exists() else None
            outcomes.append((*outcome, kept))
    return outcomes


class TestBlockDecode:
    @settings(max_examples=300, deadline=None)
    @given(lines=trace_documents(),
           newlines=st.sampled_from(["\n", "\r\n", "mixed"]),
           final_newline=st.booleans(),
           read_block=st.integers(1, 600) | st.integers(1, 1 << 14),
           parse_block=st.integers(1, 300) | st.integers(1, 1 << 12),
           mode=st.sampled_from(["strict", "salvage"]),
           budget=st.sampled_from([0.25, 1.0]),
           from_file=st.booleans(),
           data=st.data())
    def test_block_reader_equals_per_line_reader(
            self, tmp_path_factory, lines, newlines, final_newline,
            read_block, parse_block, mode, budget, from_file, data):
        if newlines == "mixed":
            ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                      min_size=len(lines),
                                      max_size=len(lines)))
        else:
            ends = [newlines] * len(lines)
        if not final_newline:
            ends[-1] = ""
        text = "".join(line + end for line, end in zip(lines, ends))
        reference, block = read_both_ways(
            tmp_path_factory.mktemp("doc"), text, read_block=read_block,
            parse_block=parse_block, mode=mode, budget=budget,
            from_file=from_file)
        assert block == reference

    @pytest.mark.parametrize("mode", ["strict", "salvage"])
    @pytest.mark.parametrize("odd", [
        *(json.dumps({**json.loads(CLEAN), **fields})
          for fields in ODD_FIELDS.values()),
        *ODD_LINES.values()], ids=[*ODD_FIELDS, *ODD_LINES])
    def test_one_odd_line_among_clean_ones(self, tmp_path, odd, mode):
        lines = [json.dumps({"pid": 1, "op": "read", "nbytes": 4096,
                             "start": i, "end": i + 0.5, "file": "/data/f"})
                 for i in range(20)]
        lines.insert(10, odd)
        # Blocks of about four lines: the odd line's neighbours are clean.
        reference, block = read_both_ways(
            tmp_path, "\n".join(lines) + "\n", read_block=300,
            parse_block=120, mode=mode)
        assert block == reference

    def test_clean_file_builds_no_record(self, tmp_path, monkeypatch):
        path = tmp_path / "clean.jsonl"
        write_jsonl_trace(TraceCollection(
            IORecord(i % 4, "read", 4096, i * 1e-3, i * 1e-3 + 5e-4,
                     file="/data/f", offset=4096 * i)
            for i in range(20_000)), path)
        with open(path) as handle:
            expected = per_line_read(handle).to_columns()
        calls = []
        monkeypatch.setattr(jsonltrace, "decode_jsonl_line",
                            lambda line: calls.append(line))
        assert read_jsonl_trace(path).to_columns() == expected
        assert calls == []

    def test_only_a_refused_block_is_read_line_by_line(self, monkeypatch):
        good = [json.dumps({"pid": 0, "op": "read", "nbytes": 512,
                            "start": i, "end": i + 0.5}) + "\n"
                for i in range(30)]
        lines = good[:10] + ['{"pid": 0, "op": "read", "nbytes": 512.0, '
                             '"start": 10, "end": 10.5}\n'] + good[10:]
        seen = []

        def spy(line):
            seen.append(line)
            return decode_jsonl_line(line)

        monkeypatch.setattr(jsonltrace, "decode_jsonl_line", spy)
        # Blocks of about 10 lines: only the block of line 11 falls back.
        monkeypatch.setattr(jsonltrace, "READ_BLOCK_BYTES",
                            len(good[0]) * 10)
        trace = read_jsonl_trace(io.StringIO("".join(lines)))
        assert len(trace) == 31 and trace[10].nbytes == 512
        assert lines[10] in seen and len(seen) <= 11

    def test_each_json_call_is_bounded(self, tmp_path, monkeypatch):
        """The GIL is held for one ``json.loads`` call at a time, so no
        call may get more than the bound plus one line (and the
        wrapping brackets)."""
        path = tmp_path / "big.jsonl"
        write_jsonl_trace(TraceCollection(
            IORecord(i % 4, "write", 65536, i * 1e-3, i * 1e-3 + 5e-4,
                     file=f"/data/file{i % 7}.dat", offset=65536 * i)
            for i in range(13_000)), path)
        text = path.read_text()
        assert len(text) >= 2 << 20
        longest = max(map(len, text.splitlines(keepends=True)))
        sizes = []

        class SizedJson:
            JSONDecodeError = json.JSONDecodeError

            @staticmethod
            def loads(document):
                sizes.append(len(document))
                return json.loads(document)

        monkeypatch.setattr(jsonltrace, "json", SizedJson)
        assert len(read_jsonl_trace(path)) == 13_000
        assert len(sizes) >= len(text) // jsonltrace.PARSE_BLOCK_CHARS
        assert max(sizes) <= (jsonltrace.PARSE_BLOCK_CHARS + longest
                              + len("[[],[]]"))
