"""Per-window causal trace graphs — the evidence base for attribution.

A :class:`TraceGraph` folds completed I/O records into one bucket per
metric window, keyed by the **directly-follows chain** of the request
path: ``pid -> op -> server``.  Each edge carries the counters the
attributor diffs against its baseline (operations, blocks, response
time, retries, failures), and each bucket additionally keeps the
record intervals *clipped to the window* per server, so a window's
per-server clipped-union occupancy — who owned the window's active
time — is computable at close
(:func:`repro.core.intervals.union_time`).

Records arrive as :class:`~repro.live.chunk.RecordChunk` columns and
fold in with array operations (:meth:`TraceGraph.add_chunk`): per row,
Python only numbers the row's edge; the bookkeeping loop runs once per
edge a chunk touches.

Two properties are load-bearing:

- **window-of-start bucketing** — a record belongs wholly to the
  window containing its *start* (its interval clipped to that window's
  bounds for occupancy).  Counts, maxima and the interval union are
  commutative, and each edge's response-time sum continues in row
  order however the rows were cut into chunks, so the streaming feed
  (completion order, out of start order) and the offline replay build
  identical graphs, which is what makes streaming and offline
  attribution agree suspect-for-suspect;
- **bounded memory** — the attributor pops each bucket as its window
  closes, so a long-running stream holds O(open windows) of graph
  state, never O(run).

The ``server`` vertex comes from a caller-supplied ``server_of``, a
chunk -> per-row key array function (the contract of
:class:`~repro.live.stream.MetricStream` breakdowns), normally the
first-stripe rule :func:`repro.live.tap.first_stripe_server`; without
one every record lands on ``"?"`` and server-level attribution
degrades gracefully to pid/op signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.intervals import union_time
from repro.core.records import IORecord
from repro.errors import ReproError
from repro.live.chunk import RecordChunk


class DiagnoseError(ReproError):
    """Invalid diagnose configuration or use."""


@dataclass(frozen=True)
class GraphEdge:
    """One ``pid -> op -> server`` chain of a closed window."""

    pid: int
    op: str
    server: str
    ops: int
    blocks: int
    dur_sum: float
    retries: int
    failures: int


@dataclass(frozen=True)
class WindowGraph:
    """The settled graph of one closed window."""

    index: int
    edges: tuple[GraphEdge, ...]
    #: server -> union of the window-clipped record intervals (the
    #: share of the window's active time this server owned).
    occupancy: dict
    #: server -> latest (unclipped) completion time of any record that
    #: *started* here — how far this window's requests reached into the
    #: future.  The attributor's lookback uses it to tell "server went
    #: idle" from "server's requests are still in flight".
    max_end: dict = field(default_factory=dict)
    #: pid -> latest (unclipped) completion time, same contract.
    pid_max_end: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(e.ops for e in self.edges)

    @property
    def failures(self) -> int:
        return sum(e.failures for e in self.edges)

    @property
    def retries(self) -> int:
        return sum(e.retries for e in self.edges)

    @property
    def dur_sum(self) -> float:
        return sum(e.dur_sum for e in self.edges)

    def by_server(self) -> dict:
        """server -> [ops, dur_sum, retries, failures] over its edges."""
        out: dict = {}
        for e in self.edges:
            row = out.setdefault(e.server, [0, 0.0, 0, 0])
            row[0] += e.ops
            row[1] += e.dur_sum
            row[2] += e.retries
            row[3] += e.failures
        return out

    def by_pid(self) -> dict:
        """pid -> [ops, dur_sum, retries, failures] over its edges."""
        out: dict = {}
        for e in self.edges:
            row = out.setdefault(e.pid, [0, 0.0, 0, 0])
            row[0] += e.ops
            row[1] += e.dur_sum
            row[2] += e.retries
            row[3] += e.failures
        return out


class _Bucket:
    """Open-window accumulator."""

    __slots__ = ("edges", "server_intervals", "server_max_end",
                 "pid_max_end")

    def __init__(self) -> None:
        #: (pid, op, server) -> [ops, blocks, retries, failures, dur_sum]
        self.edges: dict[tuple, list] = {}
        #: server -> (k, 2) arrays of clipped [lo, hi) intervals.
        self.server_intervals: dict[str, list] = {}
        #: server -> max unclipped record end (commutative max).
        self.server_max_end: dict[str, float] = {}
        #: pid -> max unclipped record end (commutative max).
        self.pid_max_end: dict[int, float] = {}


class TraceGraph:
    """Incrementally maintained per-window dependency graph."""

    def __init__(self, *, window: float, origin: float | None = None,
                 server_of: Callable[[RecordChunk], np.ndarray] | None = None,
                 block_size: int = 512) -> None:
        if not (window > 0) or math.isnan(window):
            raise DiagnoseError(f"window width must be > 0, got {window}")
        if block_size <= 0:
            raise DiagnoseError(f"bad block size {block_size}")
        self.window = float(window)
        self.origin = origin
        self.block_size = block_size
        self.server_of = server_of
        self._buckets: dict[int, _Bucket] = {}

    # -- feed --------------------------------------------------------------

    def add_record(self, record: IORecord) -> None:
        """Fold one completed record in (a one-row :meth:`add_chunk`)."""
        self.add_chunk(RecordChunk.from_records([record]))

    def add_chunk(self, chunk: RecordChunk) -> None:
        """Fold a chunk's rows into their start windows' buckets.

        One dict probe per row numbers its ``(start window, pid, op,
        server)`` edge; counts are ``bincount``\\ s over that group
        index and max ends ``np.maximum.at``, so the bucket bookkeeping
        runs once per edge.  The window index must match
        :meth:`repro.live.stream.MetricStream._index_of` bit-for-bit
        (``floor``) or a record could land in a different bucket than
        the window it is judged under.
        """
        n = len(chunk)
        if n == 0:
            return
        if self.origin is None:
            self.origin = float(chunk.start[0])
        start, end = chunk.start, chunk.end
        index = np.floor((start - self.origin) / self.window).astype(
            np.int64)
        server = (np.full(n, "?", dtype=object) if self.server_of is None
                  else self.server_of(chunk))
        # Edge key -> group number, in first-seen order.
        keys: dict = {}
        group = np.array([keys.setdefault(key, len(keys)) for key in zip(
            index.tolist(), chunk.pid.tolist(), chunk.op.tolist(),
            server.tolist())])
        edges = len(keys)
        # Float bincounts of int64 columns are exact below 2**53.
        counts = np.column_stack((
            np.bincount(group, minlength=edges),
            np.bincount(group, weights=-(-chunk.nbytes // self.block_size),
                        minlength=edges),
            np.bincount(group, weights=chunk.retries, minlength=edges),
            np.bincount(group[~chunk.success], minlength=edges),
        )).astype(np.int64).tolist()
        reach = np.full(edges, -math.inf)
        np.maximum.at(reach, group, end)
        # Occupancy: each row's interval clipped to its start window.
        hi = np.minimum(self.origin + (index + 1) * self.window, end)
        keep = hi > start
        kept = group[keep]
        clipped = np.column_stack((start[keep], hi[keep]))[
            np.argsort(kept, kind="stable")]
        bounds = np.cumsum(np.bincount(kept, minlength=edges)).tolist()

        rows = []
        for (w, pid, op, srv), add, last, lo, up in zip(
                keys, counts, reach.tolist(), [0, *bounds], bounds):
            bucket = self._buckets.get(w)
            if bucket is None:
                bucket = self._buckets[w] = _Bucket()
            row = bucket.edges.get((pid, op, srv))
            if row is None:
                row = bucket.edges[(pid, op, srv)] = [0, 0, 0, 0, 0.0]
            row[:4] = [a + b for a, b in zip(row, add)]
            rows.append(row)
            if up > lo:
                bucket.server_intervals.setdefault(srv, []).append(
                    clipped[lo:up])
            if last > bucket.server_max_end.get(srv, -math.inf):
                bucket.server_max_end[srv] = last
            if last > bucket.pid_max_end.get(pid, -math.inf):
                bucket.pid_max_end[pid] = last
        # Response-time sums continue each edge's running sum in row
        # order: bincount adds its input sequentially, and each edge's
        # first term is its sum so far, so every chunk cut of the same
        # rows yields the same floats.
        dur_sum = np.bincount(
            np.concatenate((np.arange(edges), group)),
            weights=np.concatenate(([row[4] for row in rows], end - start)))
        for row, total in zip(rows, dur_sum.tolist()):
            row[4] = total

    # -- close -------------------------------------------------------------

    def window_graph(self, index: int) -> WindowGraph:
        """The settled graph of window ``index`` (empty if untouched)."""
        bucket = self._buckets.get(index)
        if bucket is None:
            return WindowGraph(index=index, edges=(), occupancy={},
                               max_end={}, pid_max_end={})
        edges = tuple(
            GraphEdge(pid=pid, op=op, server=server, ops=row[0],
                      blocks=row[1], dur_sum=row[4], retries=row[2],
                      failures=row[3])
            for (pid, op, server), row in sorted(bucket.edges.items()))
        occupancy = {
            server: union_time(np.concatenate(parts))
            for server, parts in sorted(bucket.server_intervals.items())
        }
        return WindowGraph(index=index, edges=edges, occupancy=occupancy,
                           max_end=dict(sorted(
                               bucket.server_max_end.items())),
                           pid_max_end=dict(sorted(
                               bucket.pid_max_end.items())))

    def pop_window(self, index: int) -> WindowGraph:
        """Settle window ``index`` and release its bucket (the
        streaming close path — keeps graph memory O(open windows))."""
        graph = self.window_graph(index)
        self._buckets.pop(index, None)
        return graph

    @property
    def open_windows(self) -> int:
        """Buckets currently held (diagnostic)."""
        return len(self._buckets)
