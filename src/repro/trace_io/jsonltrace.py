"""JSON-lines trace format: one JSON object per record.

Required keys per line: ``pid``, ``op``, ``nbytes``, ``start``, ``end``.
Optional: ``file``, ``offset``, ``success``, ``layer``, ``retries``.
Unknown keys are ignored (forward compatibility with richer tracers).

``errors="salvage"`` (or an :class:`~repro.trace_io.policy.ErrorPolicy`)
skips malformed lines into a quarantine report instead of raising; see
:mod:`repro.trace_io.policy`.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import IO

from repro.core.records import IORecord, LAYER_APP, TraceCollection
from repro.errors import AnalysisError, TraceFormatError
from repro.trace_io.policy import ErrorPolicy, SalvageSession

_REQUIRED = ("pid", "op", "nbytes", "start", "end")

#: Bytes of lines read per block.  Iterating a text handle line by line
#: releases the GIL on every 8 KiB raw read without handing it over, so
#: a waiting thread (a metrics scrape) can stall for the whole read;
#: ``readlines`` blocks of about 1 MiB keep other threads running.
READ_BLOCK_BYTES = 1 << 20


def record_from_object(obj) -> IORecord:
    """Build an :class:`IORecord` from one decoded JSONL object.

    Raises :class:`~repro.errors.TraceFormatError` with the *reason*
    only (no file:line prefix — the caller owns location context).
    Shared by the file reader below and the ``bps serve`` wire
    protocol, so a line means exactly the same thing on disk and on
    the socket.
    """
    if not isinstance(obj, dict):
        raise TraceFormatError(
            f"expected an object, got {type(obj).__name__}")
    missing = [k for k in _REQUIRED if k not in obj]
    if missing:
        raise TraceFormatError(f"missing keys {missing}")
    try:
        return IORecord(
            pid=int(obj["pid"]),
            op=str(obj["op"]),
            nbytes=int(obj["nbytes"]),
            start=float(obj["start"]),
            end=float(obj["end"]),
            file=str(obj.get("file", "")),
            offset=int(obj.get("offset", -1)),
            success=bool(obj.get("success", True)),
            layer=str(obj.get("layer", LAYER_APP)),
            retries=int(obj.get("retries", 0)),
        )
    except (TypeError, ValueError, AnalysisError) as exc:
        raise TraceFormatError(f"bad record: {exc}") from exc


def decode_jsonl_line(line: str) -> IORecord | None:
    """Decode one JSONL trace line into a record.

    Returns None for blank lines and ``#`` comments.  Raises
    :class:`~repro.errors.TraceFormatError` (reason only) on malformed
    input — the single line-decode path shared by file ingestion and
    the streaming daemon.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}") from exc
    return record_from_object(obj)


def read_jsonl_trace(source: str | Path | IO[str], *,
                     errors: ErrorPolicy | str | None = None,
                     ) -> TraceCollection:
    """Read a JSONL trace from a path or open text stream."""
    if isinstance(source, (str, Path)):
        with open(source) as handle:
            return _read(handle, name=str(source), errors=errors)
    return _read(source, name=getattr(source, "name", "<stream>"),
                 errors=errors)


def _read(handle: IO[str], name: str,
          errors: ErrorPolicy | str | None) -> TraceCollection:
    session = SalvageSession(errors, name)
    trace = TraceCollection()
    blocks = iter(lambda: handle.readlines(READ_BLOCK_BYTES), [])
    for line_number, raw in enumerate(chain.from_iterable(blocks),
                                      start=1):
        try:
            record = decode_jsonl_line(raw)
        except TraceFormatError as exc:
            session.bad(line_number, str(exc), raw)
            continue
        if record is None:
            continue
        trace.add(record)
        session.kept()
    session.finish()
    if len(trace) == 0:
        raise TraceFormatError(
            f"{name}: trace contains no records "
            f"({session.report.lines_seen} data line(s) examined)")
    return trace


def write_jsonl_trace(trace: TraceCollection,
                      destination: str | Path | IO[str]) -> None:
    """Write a trace as JSON lines."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w") as handle:
            _write(trace, handle)
        return
    _write(trace, destination)


def _write(trace: TraceCollection, handle: IO[str]) -> None:
    for record in trace:
        handle.write(json.dumps({
            "pid": record.pid,
            "op": record.op,
            "nbytes": record.nbytes,
            "start": record.start,
            "end": record.end,
            "file": record.file,
            "offset": record.offset,
            "success": record.success,
            "layer": record.layer,
            "retries": record.retries,
        }) + "\n")
