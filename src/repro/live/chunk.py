"""Columnar record chunks — the wire format of the one fold path.

:class:`RecordChunk` moves records in *columns*: one NumPy array per
field, mirroring the :meth:`~repro.core.records.TraceCollection.to_columns`
layout, so windows, breakdowns, the union and the attribution graph
all update with array ops
(:meth:`~repro.live.stream.MetricStream.push_chunk`,
:meth:`~repro.diagnose.graph.TraceGraph.add_chunk`) instead of one
Python frame per record.  Record-at-a-time delivery
(:meth:`~repro.live.stream.MetricStream.ingest`) buffers rows and folds
them in through the same path.

Exactness contract
------------------

Chunked ingest preserves the subsystem's headline guarantee: the
cumulative union time, BPS, IOPS, and bandwidth are **bit-identical** to
the batch :func:`~repro.core.metrics.compute_metrics` however the rows
are cut into chunks — those quantities are ratios of exact integer
totals over the canonical-union time, and the canonical union does not
depend on how its inputs were grouped.  Two quantities depend on the
cut only up to float *re-association*: the cumulative duration sum
behind ARPT, and the overlap-proportional per-window block/byte masses
(a window whose mass spans a chunk boundary receives
``(a + b) + (c + d)`` where another cut computes ``((a + b) + c) + d``).
Per-window *I/O times* stay exact — clipped interval endpoints are
selected, never computed, and the per-window union is
order-independent.  The property suite pins all of this down
(``tests/live/test_chunked_properties.py``).  The attribution graph is
bit-identical under every cut: its one float sum continues in row order
(see :mod:`repro.diagnose.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.records import TraceCollection
from repro.errors import LiveStreamError

#: Columns a chunk carries, in wire order.  The subset of
#: :meth:`TraceCollection.to_columns` the live engine consumes (``file``
#: and ``layer`` are accepted on the wire and ignored: the tap feeds the
#: stream application-layer records only).
CHUNK_COLUMNS = ("pid", "nbytes", "start", "end", "op",
                 "offset", "success", "retries")


@dataclass
class RecordChunk:
    """A batch of completed I/O records, one NumPy array per field."""

    pid: np.ndarray
    nbytes: np.ndarray
    start: np.ndarray
    end: np.ndarray
    op: np.ndarray
    offset: np.ndarray
    success: np.ndarray
    retries: np.ndarray

    def __len__(self) -> int:
        return int(self.start.shape[0])

    @property
    def durations(self) -> np.ndarray:
        """Per-record response times (``end - start``)."""
        return self.end - self.start

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, *, pid, nbytes, start, end, op="read", offset=-1,
              success=True, retries=0) -> "RecordChunk":
        """Validated chunk from columns; scalars broadcast over rows.

        This is the one place chunk invariants are checked (non-negative
        sizes, ``end >= start``, no NaN) — :meth:`MetricStream.push_chunk`
        trusts its input, so every ingress route goes through here or
        through :meth:`from_trace` (whose collection already validated).
        """
        start_arr = np.ascontiguousarray(start, dtype=np.float64)
        if start_arr.ndim != 1:
            raise LiveStreamError("chunk columns must be 1-D")
        n = start_arr.shape[0]

        def numeric(values, dtype):
            arr = np.asarray(values, dtype=dtype)
            if arr.ndim == 0:
                return np.full(n, arr[()], dtype=dtype)
            if arr.shape != (n,):
                raise LiveStreamError(
                    f"chunk column length {arr.shape} != ({n},)")
            return arr

        end_arr = numeric(end, np.float64)
        nbytes_arr = numeric(nbytes, np.int64)
        retries_arr = numeric(retries, np.int32)
        if np.any(np.isnan(start_arr)) or np.any(np.isnan(end_arr)):
            raise LiveStreamError("NaN timestamps in chunk")
        if np.any(end_arr < start_arr):
            bad = int(np.argmax(end_arr < start_arr))
            raise LiveStreamError(
                f"chunk record {bad} ends before it starts: "
                f"[{start_arr[bad]}, {end_arr[bad]}]")
        if np.any(nbytes_arr < 0):
            raise LiveStreamError("negative record size in chunk")
        if np.any(retries_arr < 0):
            raise LiveStreamError("negative retry count in chunk")

        if isinstance(op, str):
            op_arr = np.full(n, op, dtype=object) if n else \
                np.empty(0, dtype=object)
        else:
            op_arr = np.asarray(op)
            if op_arr.shape != (n,):
                raise LiveStreamError(
                    f"chunk column length {op_arr.shape} != ({n},)")
        return cls(
            pid=numeric(pid, np.int64), nbytes=nbytes_arr,
            start=start_arr, end=end_arr, op=op_arr,
            offset=numeric(offset, np.int64),
            success=numeric(success, np.bool_), retries=retries_arr)

    @classmethod
    def from_records(cls, records) -> "RecordChunk":
        """Chunk from a sequence of :class:`~repro.core.records.IORecord`
        (one Python pass per row: the record-at-a-time entry)."""
        records = list(records)
        n = len(records)
        return cls.build(
            pid=np.fromiter((r.pid for r in records), np.int64, count=n),
            nbytes=np.fromiter((r.nbytes for r in records), np.int64,
                               count=n),
            start=np.fromiter((r.start for r in records), np.float64,
                              count=n),
            end=np.fromiter((r.end for r in records), np.float64, count=n),
            op=np.array([r.op for r in records], dtype=object),
            offset=np.fromiter((r.offset for r in records), np.int64,
                               count=n),
            success=np.fromiter((r.success for r in records), np.bool_,
                                count=n),
            retries=np.fromiter((r.retries for r in records), np.int32,
                                count=n))

    @classmethod
    def from_columns(cls, columns: dict) -> "RecordChunk":
        """Chunk from the :meth:`TraceCollection.to_columns` wire dict.

        Only ``pid``/``nbytes``/``start``/``end`` are required; the rest
        default like :meth:`build`.  Extra keys (``file``, ``layer``) are
        ignored, so a journal row round-trips unchanged.
        """
        kwargs = {}
        for name in CHUNK_COLUMNS:
            if name in columns:
                kwargs[name] = columns[name]
        for required in ("pid", "nbytes", "start", "end"):
            if required not in kwargs:
                raise LiveStreamError(
                    f"chunk columns missing {required!r}")
        return cls.build(**kwargs)

    def to_columns(self) -> dict[str, list]:
        """Plain-Python columns — the JSON-able wire inverse."""
        return {
            "pid": self.pid.tolist(),
            "nbytes": self.nbytes.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "op": [str(v) for v in self.op],
            "offset": self.offset.tolist(),
            "success": self.success.tolist(),
            "retries": self.retries.tolist(),
        }

    # -- slicing -----------------------------------------------------------

    def select(self, index) -> "RecordChunk":
        """Row subset by boolean mask or index array (no re-validation)."""
        return RecordChunk(
            pid=self.pid[index], nbytes=self.nbytes[index],
            start=self.start[index], end=self.end[index],
            op=self.op[index], offset=self.offset[index],
            success=self.success[index], retries=self.retries[index])

    def intervals(self) -> np.ndarray:
        """(n, 2) float array of (start, end) pairs, in row order."""
        return np.column_stack((self.start, self.end))


def chunk_trace(trace: TraceCollection, *, chunk_size: int,
                order: str = "completion") -> Iterator[RecordChunk]:
    """Slice a trace into :class:`RecordChunk` batches.

    ``order`` is "completion" (end-time order — what a live tracer
    emits, and what ``bps watch`` replays: a stable sort on ``(end,
    start)``) or "record" (storage order).
    """
    if chunk_size < 1:
        raise LiveStreamError(
            f"chunk size must be >= 1, got {chunk_size}")
    n = len(trace)
    if n == 0:
        return
    columns = {
        name: trace.column_array(name)
        for name in CHUNK_COLUMNS
    }
    if order == "completion":
        perm = np.lexsort((columns["start"], columns["end"]))
        columns = {name: arr[perm] for name, arr in columns.items()}
    elif order != "record":
        raise LiveStreamError(
            f"unknown chunk order {order!r}; known: completion, record")
    whole = RecordChunk(**columns)
    for lo in range(0, n, chunk_size):
        yield whole.select(slice(lo, min(lo + chunk_size, n)))
