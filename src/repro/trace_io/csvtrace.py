"""Native CSV trace format.

Header: ``pid,op,nbytes,start,end,file,offset,success``.
The first five columns are required (they are the paper's record plus
the operation); the rest are optional and default sensibly.  Lines
starting with ``#`` and blank lines are ignored.

``errors="salvage"`` skips malformed *rows* into a quarantine report
(:mod:`repro.trace_io.policy`); a missing/garbled header is structural
and always raises — there is nothing to salvage around it.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import IO

from repro.core.records import IORecord, TraceCollection
from repro.errors import AnalysisError, TraceFormatError
from repro.trace_io.policy import ErrorPolicy, SalvageSession, check_storable

REQUIRED_COLUMNS = ("pid", "op", "nbytes", "start", "end")
OPTIONAL_COLUMNS = ("file", "offset", "success", "retries")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "y"):
        return True
    if lowered in ("0", "false", "no", "n"):
        return False
    raise TraceFormatError(f"unparseable boolean {text!r}")


def read_csv_trace(source: str | Path | IO[str], *,
                   errors: ErrorPolicy | str | None = None,
                   ) -> TraceCollection:
    """Read a CSV trace from a path or open text stream."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return _read(handle, name=str(source), errors=errors)
    return _read(source, name=getattr(source, "name", "<stream>"),
                 errors=errors)


def _read(handle: IO[str], name: str,
          errors: ErrorPolicy | str | None) -> TraceCollection:
    session = SalvageSession(errors, name)
    filtered = (line for line in handle
                if line.strip() and not line.lstrip().startswith("#"))
    reader = csv.DictReader(filtered)
    if reader.fieldnames is None:
        raise TraceFormatError(f"{name}: empty trace file")
    fields = [f.strip() for f in reader.fieldnames]
    missing = [c for c in REQUIRED_COLUMNS if c not in fields]
    if missing:
        raise TraceFormatError(
            f"{name}: missing required columns {missing}; header was {fields}"
        )
    trace = TraceCollection()
    for line_number, row in enumerate(reader, start=2):
        row = {(k or "").strip(): (v or "").strip() for k, v in row.items()}
        try:
            record = IORecord(
                pid=int(row["pid"]),
                op=row["op"],
                nbytes=int(row["nbytes"]),
                start=float(row["start"]),
                end=float(row["end"]),
                file=row.get("file", "") or "",
                offset=int(row["offset"]) if row.get("offset") else -1,
                success=_parse_bool(row["success"])
                if row.get("success") else True,
                retries=int(row["retries"]) if row.get("retries") else 0,
            )
            check_storable(record)
        except (TraceFormatError, KeyError, ValueError,
                AnalysisError) as exc:
            session.bad(line_number, f"bad record {row!r}: {exc}",
                        ",".join(str(v) for v in row.values()))
            continue
        trace.add(record)
        session.kept()
    session.finish()
    if len(trace) == 0:
        raise TraceFormatError(
            f"{name}: trace contains no records "
            f"({session.report.lines_seen} data row(s) examined)")
    return trace


def write_csv_trace(trace: TraceCollection,
                    destination: str | Path | IO[str]) -> None:
    """Write a trace in the native CSV format."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            _write(trace, handle)
        return
    _write(trace, destination)


def _write(trace: TraceCollection, handle: IO[str]) -> None:
    writer = csv.writer(handle)
    writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
    for record in trace:
        writer.writerow([
            record.pid, record.op, record.nbytes,
            repr(record.start), repr(record.end),
            record.file, record.offset, int(record.success),
            record.retries,
        ])


def trace_to_csv_text(trace: TraceCollection) -> str:
    """The CSV serialisation as a string (convenience for tests)."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()
