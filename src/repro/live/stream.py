"""The live metric pipeline: windowed + cumulative BPS while records arrive.

:class:`MetricStream` folds completed I/O records (from the
tracing-middleware tap, a trace replay, or a serve tenant) into,
online:

- **cumulative** metrics — B, N, bytes, and the streaming union time,
  so BPS/IOPS/bandwidth are exact at any moment and the *final*
  cumulative BPS is bit-identical to the batch
  :func:`~repro.core.metrics.compute_metrics` (see
  :mod:`repro.live.union` for the proof sketch; ARPT streams as
  running-sum/count and agrees to float-accumulation precision);
- a **windowed series** — fixed event-time windows of width ``window``;
  each record's blocks/bytes are spread over the windows it overlaps in
  proportion to overlap (the :func:`~repro.core.timeline.binned_bps`
  convention), and each window's I/O time is the union of the record
  intervals *clipped* to the window, so window BPS is blocks over
  *active* time and per-window I/O times sum exactly to the cumulative
  union time;
- **per-group breakdowns** — cumulative B/T/BPS keyed by pid and op out
  of the box, plus any caller-supplied columnar grouping (the live tap
  adds a per-server key on parallel file systems).

There is one fold path: :meth:`MetricStream.push_chunk` updates all of
the above with array ops over a columnar
:class:`~repro.live.chunk.RecordChunk`.  :meth:`MetricStream.ingest`
is its record-at-a-time front end — it buffers records and folds them
in as one chunk (see :class:`MetricStream` for when).

Windows close when the watermark passes their right edge; closing emits
a ``window`` event to every attached sink and feeds the anomaly
detector.  A late record that lands in an already-closed window is
folded into the stored stats (cumulative figures stay exact) and
counted in :attr:`MetricStream.late_window_updates`; the closed-window
event already emitted is *provisional* in that case, and
:meth:`finalize` returns the corrected series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core.intervals import union_time
from repro.core.metrics import MetricSet
from repro.core.records import IORecord
from repro.errors import LiveStreamError
from repro.live.chunk import RecordChunk
from repro.live.sinks import apply_sink_policy
from repro.live.union import StreamingUnion
from repro.util.units import BLOCK_SIZE

#: Rows :meth:`MetricStream.ingest` buffers before folding them in as
#: one chunk.  Not a knob: the buffer also flushes whenever a watermark
#: would settle a window and before every read, so the size only
#: bounds memory and sets how coarse lateness accounting gets.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class WindowStats:
    """One closed event-time window of the stream."""

    index: int
    start: float
    end: float
    #: Records *starting* in this window.
    ops: int
    #: Block/byte mass landing in the window (overlap-proportional).
    blocks: float
    bytes: float
    #: Union of record intervals clipped to the window (active time).
    io_time: float
    #: blocks / io_time (0.0 for an idle window).
    bps: float
    iops: float
    bandwidth: float
    #: Mean response time of records starting in the window (0.0 if none).
    arpt: float

    def as_event(self) -> dict:
        """The sink-facing representation."""
        return {
            "type": "window", "index": self.index,
            "t0": self.start, "t1": self.end, "ops": self.ops,
            "blocks": self.blocks, "bytes": self.bytes,
            "io_time": self.io_time, "bps": self.bps,
            "iops": self.iops, "bandwidth": self.bandwidth,
            "arpt": self.arpt,
        }


@dataclass(frozen=True)
class GroupStats:
    """Cumulative share of one group (one pid, one op, one server...)."""

    key: str
    ops: int
    blocks: int
    bytes: int
    io_time: float
    bps: float


@dataclass(frozen=True)
class LiveSnapshot:
    """Cumulative state of the stream at one instant."""

    time: float
    ops: int
    blocks: int
    bytes: int
    io_time: float
    bps: float
    iops: float
    bandwidth: float
    arpt: float
    windows_closed: int
    late_records: int

    def as_event(self) -> dict:
        return {"type": "snapshot", **self.__dict__}


@dataclass(frozen=True)
class LiveResult:
    """Everything :meth:`MetricStream.finalize` settles."""

    metrics: MetricSet
    windows: tuple[WindowStats, ...]
    anomalies: tuple
    breakdowns: dict[str, tuple[GroupStats, ...]]
    late_records: int
    late_window_updates: int


class _WindowAgg:
    __slots__ = ("ops", "blocks", "bytes", "dur_sum", "intervals")

    def __init__(self) -> None:
        self.ops = 0
        self.blocks = 0.0
        self.bytes = 0.0
        self.dur_sum = 0.0
        #: Clipped (k, 2) interval arrays, one per folded chunk.  The
        #: window union is order-independent, so how rows were cut into
        #: chunks never changes the closed window's I/O time.
        self.intervals: list[np.ndarray] = []

    def combined_intervals(self) -> np.ndarray | None:
        """Every clipped interval of this window as one (n, 2) array."""
        if not self.intervals:
            return None
        if len(self.intervals) == 1:
            return self.intervals[0]
        return np.concatenate(self.intervals)

    def is_empty(self) -> bool:
        return self.ops == 0 and not self.intervals and self.blocks == 0.0


class _GroupAgg:
    __slots__ = ("ops", "blocks", "bytes", "union")

    def __init__(self) -> None:
        self.ops = 0
        self.blocks = 0
        self.bytes = 0
        self.union = StreamingUnion()


class MetricStream:
    """Online BPS/IOPS/bandwidth/ARPT over a stream of I/O records.

    :meth:`ingest` only buffers a record.  The buffer folds in as one
    :class:`~repro.live.chunk.RecordChunk` when it holds
    :data:`CHUNK_ROWS` rows, when a watermark — promised from outside
    or by the stream's own start times (``start - watermark_lag``) —
    would settle a window, and before any read of stream state.

    Watermarks take effect at that flush, *after* the buffered rows
    are folded.  So a window settles on exactly the records delivered
    before the watermark that settled it, whatever the buffer size.
    Lateness is chunk-granular: a row is late when its start is below
    the watermark of the previous flush, and rows of one flush are
    never late relative to each other.  A late row waits in the buffer
    like any other, so a window that only late rows reach settles at
    the next flush.
    """

    def __init__(
        self,
        *,
        window: float,
        block_size: int = BLOCK_SIZE,
        origin: float | None = None,
        watermark_lag: float = 0.0,
        sinks: Iterable = (),
        sink_errors: str | None = None,
        sink_max_failures: int = 5,
        detector=None,
        attributor=None,
        group_columns: dict | None = None,
    ) -> None:
        if not (window > 0) or math.isnan(window):
            raise LiveStreamError(f"window width must be > 0, got {window}")
        if block_size <= 0:
            raise LiveStreamError(f"bad block size {block_size}")
        if attributor is not None and attributor.window != float(window):
            raise LiveStreamError(
                f"attributor window {attributor.window} != stream "
                f"window {window}")
        self.window = float(window)
        self.block_size = block_size
        self.origin = origin
        self.attributor = attributor
        if attributor is not None and attributor.graph.origin is None:
            # Sync the graph's window grid now if the anchor is known;
            # otherwise the first fold pins both to the first start.
            attributor.graph.origin = origin
        # sink_errors None/'raise' keeps sinks transparent; 'warn' /
        # 'disable' wrap them fail-safe (repro.live.sinks.FailSafeSink)
        # so a dying sink cannot corrupt the metric stream.
        self.sinks = apply_sink_policy(sinks, sink_errors,
                                       sink_max_failures)
        self.detector = detector
        self._union = StreamingUnion(watermark_lag=watermark_lag)
        self._lag = watermark_lag
        self._rows: list[IORecord] = []
        #: Highest watermark promised so far; applied at each flush.
        self._ahead = -math.inf
        #: Window index of ``_ahead`` (None until it is first known).
        self._horizon: int | None = None
        # Cumulative counters.
        self._ops = 0
        self._blocks = 0
        self._bytes = 0
        self._dur_sum = 0.0
        self._failed = 0
        self._retries = 0
        self._first_start = math.inf
        self._last_end = -math.inf
        # Windowed state.  The emission pointer stays None until the
        # first closure, then advances monotonically: any record landing
        # below it is by construction late (its start is under the
        # watermark), so closed windows are never re-emitted.
        self._windows: dict[int, _WindowAgg] = {}
        self._next_emit: int | None = None
        self._min_index: int | None = None
        self._max_index: int | None = None
        #: Highest window index any record *started* in — windows past
        #: it hold only spillover from earlier starts, so their silence
        #: is end-of-trace, not a stall (see :meth:`_observe`).
        self._last_start_index: int | None = None
        self.late_window_updates = 0
        #: Emitted windows later corrected by late records; re-judged
        #: against the detector baseline at finalize so a flag earned
        #: by the corrected stats still reaches the sinks.
        self._dirty_windows: set[int] = set()
        #: window index -> the rolling baseline it was judged against
        #: when first observed (the finalize re-judgement must use the
        #: same baseline, not the end-of-run one).
        self._judged_baselines: dict[int, float] = {}
        # Breakdowns: name -> fn(RecordChunk) -> per-row key array.
        self._group_columns = {"pid": lambda chunk: chunk.pid,
                               "op": lambda chunk: chunk.op,
                               **(group_columns or {})}
        self._groups: dict[str, dict[str, _GroupAgg]] = {
            name: {} for name in self._group_columns
        }
        self.anomalies: list = []
        self._finalized = False

    # -- ingest ------------------------------------------------------------

    def ingest(self, record: IORecord) -> None:
        """Deliver one completed I/O record.

        The record is buffered and folded in with its neighbours as one
        chunk (see the class docstring for when); every query sees it.
        """
        if self._finalized:
            raise LiveStreamError("ingest() after finalize()")
        # Checked here, not when the buffer folds: a bad row left in
        # the buffer would make every later flush and read raise.
        if not (math.isfinite(record.start) and math.isfinite(record.end)):
            raise LiveStreamError(
                f"non-finite interval ({record.start}, {record.end})")
        if self.origin is None:
            self.origin = record.start
        rows = self._rows
        rows.append(record)
        if self._promise(record.start - self._lag) or \
                len(rows) >= CHUNK_ROWS:
            self._flush()

    def push_chunk(self, chunk) -> None:
        """Fold one columnar :class:`~repro.live.chunk.RecordChunk` in.

        The one fold path: windows, breakdowns, and the union update
        with array ops — no per-record Python.  Rows still buffered by
        :meth:`ingest` fold in first, so delivery order is kept.  Per-
        window float masses and the ARPT duration sum depend on how rows
        were cut into chunks only up to float re-association (see
        :mod:`repro.live.chunk`).

        The chunk is trusted: validation happens in
        :meth:`RecordChunk.build` / :meth:`RecordChunk.from_columns`.
        """
        if self._finalized:
            raise LiveStreamError("push_chunk() after finalize()")
        if len(chunk) == 0:
            return
        self._fold_rows()
        self._fold(chunk)
        self._promise(float(chunk.start.max()) - self._lag)
        self._settle()

    def advance_watermark(self, to: float) -> None:
        """Externally promise no future record starts below ``to``."""
        if math.isnan(to):
            raise LiveStreamError("NaN watermark")
        if self._promise(to):
            self._flush()

    def _promise(self, mark: float) -> bool:
        """Raise the pending watermark; True if that may settle a window."""
        if not mark > self._ahead:
            return False
        self._ahead = mark
        if self.origin is None or mark == math.inf:
            return True
        index = int(math.floor((mark - self.origin) / self.window))
        settles = self._horizon is None or index > self._horizon
        self._horizon = index
        return settles

    def _fold_rows(self) -> None:
        rows = self._rows
        if rows:
            self._rows = []
            self._fold(RecordChunk.from_records(rows))

    def _flush(self) -> None:
        """Fold the buffered rows in, then apply the promised watermark."""
        self._fold_rows()
        self._settle()

    def _settle(self) -> None:
        self._union.advance_watermark(self._ahead)
        self._close_settled_windows()

    def _fold(self, chunk) -> None:
        if self.origin is None:
            self.origin = float(chunk.start[0])
        if self.attributor is not None:
            if self.attributor.graph.origin is None:
                self.attributor.graph.origin = self.origin
            self.attributor.add_chunk(chunk)
        self._union.add_batch(chunk.intervals())
        blocks = -(-chunk.nbytes // self.block_size)
        duration = chunk.end - chunk.start
        self._ops += len(chunk)
        self._blocks += int(blocks.sum())
        self._bytes += int(chunk.nbytes.sum())
        self._dur_sum += float(duration.sum())
        self._failed += int(np.count_nonzero(~chunk.success))
        self._retries += int(chunk.retries.sum())
        first_start = float(chunk.start.min())
        last_end = float(chunk.end.max())
        if first_start < self._first_start:
            self._first_start = first_start
        if last_end > self._last_end:
            self._last_end = last_end
        self._spread_chunk_groups(chunk, blocks)
        self._spread_chunk_windows(chunk, blocks, duration)

    # -- windows -----------------------------------------------------------

    def _index_of(self, t: float) -> int:
        return int(math.floor((t - self.origin) / self.window))

    def _window_bounds(self, index: int) -> tuple[float, float]:
        return (self.origin + index * self.window,
                self.origin + (index + 1) * self.window)

    def _spread_chunk_windows(self, chunk, blocks: np.ndarray,
                              duration: np.ndarray) -> None:
        """Spread a chunk's mass and clipped intervals over its windows.

        Expands each record into its (record, window) overlap pairs with
        a repeat/arange trick, computes clip bounds and overlap
        fractions elementwise (clipped endpoints are selected floats,
        so window I/O times are exact), then accumulates per-window mass
        with ``bincount`` — which sums in pair order, i.e. record order.
        """
        origin = self.origin
        window = self.window
        start, end = chunk.start, chunk.end
        n = start.shape[0]
        first = np.floor((start - origin) / window).astype(np.int64)
        last = np.floor((end - origin) / window).astype(np.int64)
        # A record ending exactly on a window edge contributes nothing
        # to that window: clip to [start, end) — the scalar rule.
        edge = (last > first) & (end == origin + last * window)
        last = last - edge
        zero = duration == 0.0
        last = np.where(zero, first, last)

        counts = last - first + 1
        total = int(counts.sum())
        rec_of = np.repeat(np.arange(n), counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        widx = first[rec_of] + offsets
        w0 = origin + widx * window
        w1 = origin + (widx + 1) * window
        lo = np.maximum(start[rec_of], w0)
        hi = np.minimum(end[rec_of], w1)
        dur_pairs = duration[rec_of]
        frac = np.divide(np.maximum(hi - lo, 0.0), dur_pairs,
                         out=np.zeros(total), where=dur_pairs > 0.0)
        is_first = offsets == 0
        # Zero-duration records put their whole mass in the start window.
        contrib = np.where(zero[rec_of], 1.0, frac)

        uniq, inv = np.unique(widx, return_inverse=True)
        nuniq = uniq.shape[0]
        blocks_mass = np.bincount(inv, weights=blocks[rec_of] * contrib,
                                  minlength=nuniq)
        bytes_mass = np.bincount(inv, weights=chunk.nbytes[rec_of] * contrib,
                                 minlength=nuniq)
        first_inv = inv[is_first]  # one pair per record, in record order
        ops_add = np.bincount(first_inv, minlength=nuniq)
        dur_add = np.bincount(first_inv, weights=duration,
                              minlength=nuniq)
        if self._next_emit is not None:
            relevant = is_first | (hi > lo)
            late_pairs = relevant & (widx < self._next_emit)
            self.late_window_updates += int(np.count_nonzero(late_pairs))
            if np.any(late_pairs):
                self._dirty_windows.update(
                    int(i) for i in np.unique(widx[late_pairs]))

        windows = self._windows
        for j, index in enumerate(uniq.tolist()):
            agg = windows.get(index)
            if agg is None:
                agg = windows[index] = _WindowAgg()
            agg.ops += int(ops_add[j])
            agg.blocks += float(blocks_mass[j])
            agg.bytes += float(bytes_mass[j])
            agg.dur_sum += float(dur_add[j])

        imask = hi > lo
        if np.any(imask):
            owner = widx[imask]
            clipped = np.column_stack((lo[imask], hi[imask]))
            order = np.argsort(owner, kind="stable")
            owner = owner[order]
            clipped = clipped[order]
            cuts = np.flatnonzero(np.diff(owner)) + 1
            heads = np.concatenate(([0], cuts))
            for head, part in zip(heads, np.split(clipped, cuts)):
                windows[int(owner[head])].intervals.append(part)

        fmin = int(first.min())
        fmax = int(first.max())
        lmax = int(last.max())
        if self._min_index is None or fmin < self._min_index:
            self._min_index = fmin
        if self._max_index is None or lmax > self._max_index:
            self._max_index = lmax
        if self._last_start_index is None or \
                fmax > self._last_start_index:
            self._last_start_index = fmax

    def _spread_chunk_groups(self, chunk, blocks: np.ndarray) -> None:
        intervals = chunk.intervals()
        nbytes = chunk.nbytes
        for name, key_of in self._group_columns.items():
            uniq, inv = np.unique(np.asarray(key_of(chunk)),
                                  return_inverse=True)
            groups = self._groups[name]
            nuniq = len(uniq)
            ops_counts = np.bincount(inv, minlength=nuniq)
            # float64 sums of int64 are exact below 2**53 — far beyond
            # any real chunk's block/byte totals.
            blocks_sums = np.bincount(inv, weights=blocks,
                                      minlength=nuniq)
            bytes_sums = np.bincount(inv, weights=nbytes,
                                     minlength=nuniq)
            for g, value in enumerate(uniq.tolist()):
                key = str(value)
                agg = groups.get(key)
                if agg is None:
                    agg = groups[key] = _GroupAgg()
                agg.ops += int(ops_counts[g])
                agg.blocks += int(blocks_sums[g])
                agg.bytes += int(bytes_sums[g])
                agg.union.add_batch(
                    intervals if nuniq == 1 else intervals[inv == g])

    def _close_settled_windows(self) -> None:
        if self._min_index is None:
            return
        watermark = self._union.watermark
        if not math.isfinite(watermark):
            if watermark == math.inf:
                settled = self._max_index + 1
            else:
                return
        else:
            settled = self._index_of(watermark)
        if self._next_emit is None:
            # Nothing emitted yet: until the first window settles, a
            # row landing below the lowest window seen just moves the
            # start of the series instead of arriving late.
            if self._min_index >= settled:
                return
            self._next_emit = self._min_index
        while self._next_emit < settled and \
                self._next_emit <= self._max_index:
            index = self._next_emit
            self._next_emit = index + 1
            stats = self._window_stats(index)
            self._emit(stats.as_event())
            self._observe(stats)

    def _window_stats(self, index: int) -> WindowStats:
        w0, w1 = self._window_bounds(index)
        agg = self._windows.get(index)
        if agg is None or agg.is_empty():
            return WindowStats(index=index, start=w0, end=w1, ops=0,
                               blocks=0.0, bytes=0.0, io_time=0.0,
                               bps=0.0, iops=0.0, bandwidth=0.0, arpt=0.0)
        combined = agg.combined_intervals()
        io_time = union_time(combined) if combined is not None else 0.0
        if io_time > 0.0:
            bps = agg.blocks / io_time
            iops = agg.ops / io_time
            bandwidth = agg.bytes / io_time
        else:
            bps = iops = bandwidth = 0.0
        arpt = agg.dur_sum / agg.ops if agg.ops else 0.0
        return WindowStats(index=index, start=w0, end=w1, ops=agg.ops,
                           blocks=agg.blocks, bytes=agg.bytes,
                           io_time=io_time, bps=bps, iops=iops,
                           bandwidth=bandwidth, arpt=arpt)

    def _observe(self, stats: WindowStats) -> None:
        if self.detector is None and self.attributor is None:
            return
        if stats.ops == 0 and (self._last_start_index is None
                               or stats.index > self._last_start_index):
            # No request has *started* here or since: the run is
            # winding down (only spillover from earlier starts lands
            # past this point), so the quiet is end-of-trace, not a
            # stall worth flagging.  A mid-outage window always has a
            # later start on record by the time its watermark passes.
            return
        anomaly = None
        if self.detector is not None:
            # Remember the baseline this window is judged against, so
            # a late-record correction at finalize is re-judged on the
            # SAME footing (the end-of-run baseline may have drifted —
            # e.g. been inflated by a fail-fast storm — and would
            # otherwise flag healthy early windows retroactively).
            if len(self.detector._baseline) >= self.detector.min_history:
                self._judged_baselines[stats.index] = \
                    self.detector.baseline
            anomaly = self.detector.observe(stats)
        if self.attributor is not None:
            # The attributor follows the detector's verdict: healthy
            # windows feed its rolling baseline, flagged ones are
            # diffed and the evidence rides on the anomaly itself.
            suspects = self.attributor.observe_window(stats, anomaly)
            if anomaly is not None and suspects:
                anomaly = replace(anomaly, suspects=suspects)
        if anomaly is not None:
            self.anomalies.append(anomaly)
            self._emit(anomaly.as_event())

    def _reassess_dirty_windows(self) -> None:
        """Re-judge emitted windows that late records corrected.

        The detector observed those windows' *provisional* stats; the
        corrected stats can cross the drop threshold the provisional
        ones did not.  ``assess`` applies the flag rule without
        re-learning, so the baseline is not double-counted; windows the
        provisional pass already flagged are skipped.  Runs at
        finalize, before the ``final`` event, so the flag reaches the
        sinks before they close.  (The attributor's bucket for such a
        window is long pruned — corrected flags carry no suspects.)
        """
        if self.detector is None or not self._dirty_windows:
            return
        flagged = {a.window_index for a in self.anomalies}
        for index in sorted(self._dirty_windows):
            if index in flagged:
                continue
            baseline = self._judged_baselines.get(index)
            if baseline is None:
                continue  # window was never judged (warm-up / skipped)
            anomaly = self.detector.assess(self._window_stats(index),
                                           baseline=baseline)
            if anomaly is not None:
                self.anomalies.append(anomaly)
                self._emit(anomaly.as_event())

    def _emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- queries -----------------------------------------------------------
    # Every query flushes the ingest buffer first, so it sees every
    # record delivered so far.

    @property
    def ops(self) -> int:
        self._flush()
        return self._ops

    @property
    def blocks(self) -> int:
        self._flush()
        return self._blocks

    @property
    def nbytes(self) -> int:
        self._flush()
        return self._bytes

    @property
    def late_records(self) -> int:
        self._flush()
        return self._union.late_records

    @property
    def watermark(self) -> float:
        """The union's settled-start watermark (-inf before data)."""
        self._flush()
        return self._union.watermark

    def union_io_time(self) -> float:
        """Streaming union time of everything ingested so far."""
        self._flush()
        return self._union.union_time()

    def snapshot(self, *, emit: bool = False) -> LiveSnapshot:
        """Exact cumulative metrics at this instant."""
        t = self.union_io_time()
        snap = LiveSnapshot(
            time=self._last_end if self._ops else 0.0,
            ops=self._ops, blocks=self._blocks, bytes=self._bytes,
            io_time=t,
            bps=self._blocks / t if t > 0 else 0.0,
            iops=self._ops / t if t > 0 else 0.0,
            bandwidth=self._bytes / t if t > 0 else 0.0,
            arpt=self._dur_sum / self._ops if self._ops else 0.0,
            windows_closed=(0 if self._next_emit is None
                            else self._next_emit - self._min_index),
            late_records=self._union.late_records,
        )
        if emit:
            self._emit(snap.as_event())
        return snap

    def breakdown(self, name: str) -> tuple[GroupStats, ...]:
        """Cumulative per-group stats ('pid', 'op', or a custom group)."""
        self._flush()
        try:
            groups = self._groups[name]
        except KeyError:
            known = ", ".join(sorted(self._groups))
            raise LiveStreamError(
                f"unknown group {name!r}; known: {known}") from None
        out = []
        for key in sorted(groups):
            agg = groups[key]
            t = agg.union.union_time()
            out.append(GroupStats(
                key=key, ops=agg.ops, blocks=agg.blocks, bytes=agg.bytes,
                io_time=t, bps=agg.blocks / t if t > 0 else 0.0))
        return tuple(out)

    # -- settle ------------------------------------------------------------

    def finalize(self, *, exec_time: float | None = None,
                 label: str = "live") -> LiveResult:
        """Close every window, emit the final event, settle the result.

        ``exec_time`` defaults to the stream's wall span (first start to
        last end) — the same default ``bps analyze`` applies to recorded
        traces.  The returned window series is exact even when closed
        windows received late updates: stats are recomputed from the
        stored aggregates.
        """
        if self._finalized:
            raise LiveStreamError("finalize() called twice")
        self._flush()
        if self._ops == 0:
            raise LiveStreamError("finalize() on an empty stream")
        t = self._union.finalize()
        self._close_settled_windows()
        self._reassess_dirty_windows()
        self._finalized = True
        if t <= 0.0:
            raise LiveStreamError(
                "live metrics undefined: union I/O time is zero")
        span = self._last_end - self._first_start
        exec_time = span if exec_time is None else exec_time
        if exec_time <= 0.0:
            # Degenerate zero-span traces: fall back to the trace's own
            # active time so the MetricSet invariant (exec_time > 0)
            # holds — mirrors what `bps analyze --exec-time` would need.
            exec_time = t
        windows = tuple(self._window_stats(i)
                        for i in range(self._min_index,
                                       self._max_index + 1))
        metrics = MetricSet(
            iops=self._ops / t,
            bandwidth=self._bytes / t,
            arpt=self._dur_sum / self._ops,
            bps=self._blocks / t,
            exec_time=exec_time,
            union_io_time=t,
            app_ops=self._ops,
            app_bytes=self._bytes,
            app_blocks=self._blocks,
            fs_bytes=self._bytes,
            block_size=self.block_size,
            label=label,
            extras={
                "failed_records": self._failed,
                "total_retries": self._retries,
                "late_records": self._union.late_records,
                "late_window_updates": self.late_window_updates,
            },
        )
        result = LiveResult(
            metrics=metrics,
            windows=windows,
            anomalies=tuple(self.anomalies),
            breakdowns={name: self.breakdown(name)
                        for name in self._groups},
            late_records=self._union.late_records,
            late_window_updates=self.late_window_updates,
        )
        self._emit({
            "type": "final", "ops": self._ops, "blocks": self._blocks,
            "bytes": self._bytes, "io_time": t, "bps": metrics.bps,
            "iops": metrics.iops, "bandwidth": metrics.bandwidth,
            "arpt": metrics.arpt, "exec_time": exec_time,
            "windows": len(windows), "anomalies": len(self.anomalies),
            "late_records": self._union.late_records,
        })
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        return result
