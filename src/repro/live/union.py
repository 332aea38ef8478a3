"""Incremental interval union — the streaming form of the Fig. 3 sweep.

:class:`StreamingUnion` maintains the *canonical disjoint union* of
every interval it has seen, updated one batch at a time, so the union
I/O time — the T of ``BPS = B / T`` — is available while records are
still arriving.

Equality with the batch computation
-----------------------------------

The batch kernel (:func:`repro.core.intervals.merge_sweep`) produces
the canonical disjoint union: disjoint, start-sorted, with touching
intervals merged (the gap test is strict).  That union is *unique* for
a given input set and does not depend on arrival order.  Each batch is
reduced to its own canonical union by the same sweep, and every
resulting segment is inserted into the accumulated structure by
bisect + splice (merging any overlapping-or-touching neighbours), so
after the same intervals have been fed in **any order and any cut**
the segment array is element-for-element identical to the batch one.
Segment endpoints are selected, never computed (only ``min``/``max`` of
input floats), so no rounding enters.  :meth:`union_time` then sums
``ends - starts`` with ``np.sum`` over the same float64 array the batch
path sums — pairwise summation over identical operands — making the
streamed total **bit-identical** to :func:`~repro.core.intervals.union_time`,
not merely close.  The Hypothesis property suite asserts ``==``.

Watermark
---------

Real completion streams deliver records out of start order (a long
request that started early finishes late).  The **watermark** —
``max(start seen) - watermark_lag``, or whatever :meth:`advance_watermark`
pushed it to — is the promise that no future interval starts below it;
consumers (window emission in :mod:`repro.live.stream`) treat
everything below it as settled.  A batch moves the start-driven
watermark only after it has been folded in, so rows of one batch are
never late relative to each other.

An interval arriving *below* the watermark is a **late record**: the
producer broke its ordering promise.  It is still folded in exactly —
insertion is order-independent, so cumulative totals remain provably
equal to batch — and counted in :attr:`late_records` so window-level
consumers can re-emit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from repro.core.intervals import merge_sweep
from repro.errors import LiveStreamError


class StreamingUnion:
    """Online union of I/O intervals, exact under any arrival order."""

    def __init__(self, *, watermark_lag: float = 0.0) -> None:
        if watermark_lag < 0 or math.isnan(watermark_lag):
            raise LiveStreamError(f"bad watermark lag {watermark_lag}")
        self.watermark_lag = watermark_lag
        #: Canonical union: disjoint, sorted, touching merged.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._watermark = -math.inf
        self.records_seen = 0
        self.late_records = 0
        self._finalized = False

    # -- ingest ------------------------------------------------------------

    def add_batch(self, intervals) -> None:
        """Fold a whole (n, 2) array in with one vectorised merge sweep.

        The batch is reduced to its own canonical union via
        :func:`~repro.core.intervals.merge_sweep`, then each resulting
        segment is inserted.  Rows below the watermark *before* the
        batch count as late; the batch then moves the watermark to its
        highest start minus the lag.
        """
        if self._finalized:
            raise LiveStreamError("add_batch() after finalize()")
        arr = np.asarray(intervals, dtype=float)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise LiveStreamError(
                f"add_batch needs an (n, 2) array, got shape {arr.shape}")
        if np.any(np.isnan(arr)):
            raise LiveStreamError("NaN in interval batch")
        if np.any(arr[:, 1] < arr[:, 0]):
            raise LiveStreamError("interval ends before it starts in batch")
        self.records_seen += arr.shape[0]
        self.late_records += int(np.count_nonzero(arr[:, 0] < self._watermark))
        seg_starts, seg_ends = merge_sweep(arr)
        for s, e in zip(seg_starts.tolist(), seg_ends.tolist()):
            self._merge_one(s, e)
        self._watermark = max(self._watermark,
                              float(arr[:, 0].max()) - self.watermark_lag)

    def advance_watermark(self, to: float) -> None:
        """Promise that no future interval starts below ``to``."""
        if math.isnan(to):
            raise LiveStreamError("NaN watermark")
        if to > self._watermark:
            self._watermark = to

    def finalize(self) -> float:
        """Seal the stream and return the union time."""
        self._watermark = math.inf
        self._finalized = True
        return self.union_time()

    # -- internals ---------------------------------------------------------

    def _merge_one(self, start: float, end: float) -> None:
        """Insert one interval into the canonical union."""
        starts, ends = self._starts, self._ends
        if not starts or start > ends[-1]:
            # Common case under near-sorted delivery: strictly after
            # the last segment (touching extends instead).
            starts.append(start)
            ends.append(end)
            return
        # Segments overlapping-or-touching [start, end]: every segment
        # with segment.start <= end and segment.end >= start.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo == hi:
            # Falls entirely in a gap: plain insertion.
            starts.insert(lo, start)
            ends.insert(lo, end)
            return
        new_start = min(start, starts[lo])
        new_end = max(end, ends[hi - 1])
        starts[lo:hi] = [new_start]
        ends[lo:hi] = [new_end]

    # -- queries -----------------------------------------------------------

    @property
    def watermark(self) -> float:
        """Highest settled start time (-inf before the first record)."""
        return self._watermark

    def segments(self) -> np.ndarray:
        """The current canonical union as an (m, 2) array (copy)."""
        return np.column_stack((
            np.asarray(self._starts, dtype=float),
            np.asarray(self._ends, dtype=float),
        )).reshape(-1, 2)

    def union_time(self) -> float:
        """Union time of everything seen so far (exact at any moment)."""
        if not self._starts:
            return 0.0
        starts = np.asarray(self._starts, dtype=float)
        ends = np.asarray(self._ends, dtype=float)
        return float(np.sum(ends - starts))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StreamingUnion n={self.records_seen} "
            f"segments={len(self._starts)} "
            f"watermark={self._watermark:.6g} late={self.late_records}>"
        )
