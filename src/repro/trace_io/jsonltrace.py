"""JSON-lines trace format: one JSON object per record.

Required keys per line: ``pid``, ``op``, ``nbytes``, ``start``, ``end``.
Optional: ``file``, ``offset``, ``success``, ``layer``, ``retries``.
Unknown keys are ignored (forward compatibility with richer tracers).

``errors="salvage"`` (or an :class:`~repro.trace_io.policy.ErrorPolicy`)
skips malformed lines into a quarantine report instead of raising; see
:mod:`repro.trace_io.policy`.

Block decode
------------

:func:`read_jsonl_trace` parses a file straight into columns and builds
the trace with one :meth:`TraceCollection.from_arrays` call; no
:class:`IORecord` is made on the way.  The file is read in blocks of
about :data:`READ_BLOCK_BYTES`, and each block is parsed as
``[[line 1],[line 2],...]``, one ``json.loads`` per sub-block of about
:data:`PARSE_BLOCK_CHARS` characters:

- **Exactness.** When no line holds a ``[`` or ``]``, every bracket in
  that text is a wrapper's, and strict JSON forbids a raw newline inside
  a string, so wrapper *i* holds exactly line *i*: an empty wrapper is a
  blank line, and a line that is not one JSON value is a decode error or
  a wrapper of two values.  (Joining the lines with plain commas would
  not be exact: ``{"a": 1`` and ``"b": 2}`` on two lines would merge
  into one object, and ``{..}, {..}`` on one line would split in two.)
- **Columns.** Every value must be an object with the required keys.
  Its fields are checked as arrays with the per-line rules (including
  :func:`~repro.trace_io.policy.check_storable`), and a column is taken
  only when NumPy builds it from JSON types whose cast equals the
  per-line ``int()``/``float()``/``str()``/``bool()``.
- **Fallback.** A block those checks cannot prove identical to the
  per-line result (a bracket, a decode error, a missing key, a float
  size, a rejected value, ...) is read again line by line through
  :func:`decode_jsonl_line`, so records, salvage line numbers,
  quarantine reasons and strict-mode errors are the per-line reader's.
  ``#`` comment lines are dropped before the parse, as the per-line
  reader skips them.
- **Bound.** The C JSON parser holds the GIL for a whole call, so one
  call per 1 MiB block stalls every other thread of the process (a
  metrics scrape) for the call; :data:`PARSE_BLOCK_CHARS` caps it.  The
  column arrays are built once per block, not per sub-block: NumPy
  releases the GIL briefly inside some calls, and a release every few
  hundred lines keeps restarting the interval after which a waiting
  thread asks for the GIL, so that thread would starve for whole blocks.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO

import numpy as np

from repro.core.records import IORecord, LAYER_APP, TraceCollection
from repro.errors import AnalysisError, TraceFormatError
from repro.trace_io.policy import ErrorPolicy, SalvageSession, check_storable

_REQUIRED = ("pid", "op", "nbytes", "start", "end")
#: Optional keys and the value a line without them gets.
_DEFAULTS = {"file": "", "offset": -1, "success": True,
             "layer": LAYER_APP, "retries": 0}
#: Every record field; also the keywords of ``from_arrays``.
_FIELDS = _REQUIRED + tuple(_DEFAULTS)
_get_fields = itemgetter(*_FIELDS)
_record_fields = attrgetter(*_FIELDS)
#: Dtype of each field's column in a decoded block (``from_arrays``
#: narrows ``retries`` to int32).
_DTYPES = (np.int64, object, np.int64, np.float64, np.float64, object,
           np.int64, np.bool_, object, np.int64)
#: Per field, the dtypes NumPy may infer from a block's JSON values for
#: the block to keep the column: those whose cast to the column dtype
#: equals the per-line ``int()``, ``float()`` or ``bool()``.  None marks
#: a string field, whose values must all be ``str``.
_BOOL = (np.dtype(np.bool_),)
_INT = (np.dtype(np.int64), *_BOOL)
_FLOAT = (np.dtype(np.float64), *_INT)
_KINDS = (_INT, None, _INT, _FLOAT, _FLOAT, None, _INT, _BOOL, None, _INT)

#: Bytes of lines read per block.  Iterating a text handle line by line
#: releases the GIL on every 8 KiB raw read without handing it over, so
#: a waiting thread (a metrics scrape) can stall for the whole read;
#: ``readlines`` blocks of about 1 MiB keep other threads running.
READ_BLOCK_BYTES = 1 << 20

#: Characters of a block parsed per ``json.loads`` call.  The C parser
#: holds the GIL for the whole call: reading a 100,000-line trace on a
#: 2-vCPU host while a thread scraped metrics every 0.1 s, the scrapes
#: during the read took 15.5-20.2 ms (median) with one call per 1 MiB
#: block and 11.4-11.5 ms with calls of at most 64 KiB.
PARSE_BLOCK_CHARS = 1 << 16


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
        record = IORecord(
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
        check_storable(record)
    except (TypeError, ValueError, OverflowError, AnalysisError) as exc:
        raise TraceFormatError(f"bad record: {exc}") from exc
    return record


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
    blocks = []
    lines_read = 0
    for lines in iter(lambda: handle.readlines(READ_BLOCK_BYTES), []):
        columns = _decode_block(lines)
        if columns is None:
            columns = _decode_lines(lines, lines_read, session)
        else:
            session.kept(len(columns[0]))
        lines_read += len(lines)
        blocks.append(columns)
    session.finish()
    if session.report.records_kept == 0:
        raise TraceFormatError(
            f"{name}: trace contains no records "
            f"({session.report.lines_seen} data line(s) examined)")
    return TraceCollection.from_arrays(**{
        field: np.concatenate(column)
        for field, column in zip(_FIELDS, zip(*blocks))})


def _decode_lines(lines: list[str], lines_before: int,
                  session: SalvageSession) -> list[np.ndarray]:
    """One block's columns, decoded and accounted line by line."""
    records = []
    for line_number, raw in enumerate(lines, start=lines_before + 1):
        try:
            record = decode_jsonl_line(raw)
        except TraceFormatError as exc:
            session.bad(line_number, str(exc), raw)
            continue
        if record is not None:
            records.append(record)
            session.kept()
    return _columns(map(_record_fields, records))


def _columns(rows) -> list[np.ndarray]:
    """Typed column arrays from rows of :data:`_FIELDS` values."""
    columns = list(zip(*rows)) or [()] * len(_FIELDS)
    return [np.array(values, dtype=dtype)
            for values, dtype in zip(columns, _DTYPES)]


def _decode_block(lines: list[str]) -> list[np.ndarray] | None:
    """One block's columns, or None where only the per-line reader is
    exact (see the module docstring)."""
    body = "".join(lines)
    if "#" in body:
        lines = [line for line in lines
                 if not line.lstrip().startswith("#")]
        body = "".join(lines)
    if "[" in body or "]" in body:
        return None
    text = "],[".join(lines)
    pieces = []
    start = 0
    while start < len(text):
        # Cut after the first line that reaches past the bound.
        cut = text.find("],[", start + PARSE_BLOCK_CHARS)
        if cut < 0:
            cut = len(text)
        try:
            wrappers = json.loads("[[" + text[start:cut] + "]]")
        except (json.JSONDecodeError, RecursionError):
            return None
        if max(map(len, wrappers)) > 1:
            return None
        # Each piece keeps only its field tuples, so few parsed objects
        # live at a time and the cyclic GC seldom runs.
        fields = _object_fields(list(chain.from_iterable(wrappers)))
        if fields is None:
            return None
        if fields:  # not blank lines only
            pieces.append(fields)
        start = cut + 3
    if not pieces:  # blank and comment lines only
        return _columns(())
    return _typed_columns([list(chain.from_iterable(field))
                           for field in zip(*pieces)])


def _object_fields(values: list) -> list[tuple] | None:
    """The :data:`_FIELDS` values of parsed record objects, one tuple
    per field, or None unless every value is an object with the
    required keys."""
    try:
        try:
            return list(zip(*map(_get_fields, values)))
        except KeyError:  # an optional key is absent somewhere
            return list(zip(*(_get_fields({**_DEFAULTS, **value})
                              for value in values)))
    except (KeyError, TypeError):  # not an object, or a required key absent
        return None


def _typed_columns(fields: list[list]) -> list[np.ndarray] | None:
    """One block's column arrays, or None unless each equals what
    :func:`record_from_object` makes of every value."""
    # Once per block, not per sub-block (see "Bound" in the module
    # docstring).
    columns = []
    for field, kinds, dtype in zip(fields, _KINDS, _DTYPES):
        if kinds is None:
            if set(map(type, field)) != {str}:
                return None
            columns.append(np.array(field, dtype=object))
            continue
        column = np.array(field)
        if column.dtype not in kinds:
            return None
        columns.append(column.astype(dtype))
    # IORecord's checks and check_storable as array checks; the int64
    # columns fit their dtype by construction.
    _pid, _op, nbytes, start, end, _file, _offset, _success, _layer, \
        retries = columns
    if not (np.isfinite(start).all() and np.isfinite(end).all()
            and (end >= start).all() and (nbytes >= 0).all()
            and (retries >= 0).all() and (retries < 1 << 31).all()):
        return None
    return columns


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
