"""StreamingUnion: incremental interval union vs the batch sweep."""

import random

import numpy as np
import pytest

from repro.core.intervals import union_time
from repro.errors import LiveStreamError
from repro.live import StreamingUnion


def random_intervals(seed, n=500, span=50.0, max_len=2.0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        start = rng.uniform(0.0, span)
        out.append((start, start + rng.uniform(0.0, max_len)))
    return out


def feed(union, intervals, cuts=None):
    """``add_batch`` over ``intervals`` cut at ``cuts`` (default: one
    row per batch — the finest cut there is)."""
    if cuts is None:
        cuts = range(len(intervals) + 1)
    cuts = sorted({0, len(intervals), *cuts})
    for lo, hi in zip(cuts, cuts[1:]):
        union.add_batch(np.array(intervals[lo:hi]))


def random_cuts(seed, n):
    rng = random.Random(seed)
    return rng.sample(range(1, n), k=min(n - 1, n // 4))


class TestExactness:
    def test_sorted_feed_matches_batch(self):
        intervals = sorted(random_intervals(1))
        union = StreamingUnion()
        feed(union, intervals)
        assert union.finalize() == union_time(np.array(intervals))

    def test_shuffled_feed_matches_batch(self):
        intervals = random_intervals(2)
        union = StreamingUnion()
        feed(union, intervals, random_cuts(2, len(intervals)))
        assert union.finalize() == \
            union_time(np.array(sorted(intervals)))

    def test_reverse_feed_matches_batch(self):
        intervals = sorted(random_intervals(3), reverse=True)
        union = StreamingUnion()
        feed(union, intervals)
        assert union.finalize() == union_time(np.array(intervals))

    def test_segments_are_canonical(self):
        union = StreamingUnion()
        feed(union, [(0.0, 1.0), (2.0, 3.0), (1.0, 2.0), (5.0, 6.0)])
        assert union.segments().tolist() == [[0.0, 3.0], [5.0, 6.0]]

    def test_touching_intervals_merge(self):
        union = StreamingUnion()
        feed(union, [(0.0, 1.0), (1.0, 2.0)])
        assert union.segments().tolist() == [[0.0, 2.0]]

    def test_zero_length_intervals_cost_nothing(self):
        union = StreamingUnion()
        feed(union, [(1.0, 1.0), (3.0, 3.0)])
        assert union.union_time() == 0.0
        assert len(union.segments()) == 2

    def test_contained_interval_changes_nothing(self):
        union = StreamingUnion()
        feed(union, [(0.0, 10.0), (2.0, 3.0)])
        assert union.segments().tolist() == [[0.0, 10.0]]

    def test_bridging_interval_collapses_many_segments(self):
        union = StreamingUnion()
        feed(union, [(2.0 * k, 2.0 * k + 1.0) for k in range(5)])
        union.add_batch(np.array([(0.5, 9.5)]))
        assert union.segments().tolist() == [[0.0, 9.5]]

    def test_add_batch_matches_one_by_one(self):
        intervals = random_intervals(4, n=200)
        one = StreamingUnion()
        feed(one, intervals)
        bulk = StreamingUnion()
        bulk.add_batch(np.array(intervals))
        assert one.finalize() == bulk.finalize()
        assert bulk.records_seen == one.records_seen == len(intervals)

    def test_union_time_query_never_disturbs_result(self):
        intervals = random_intervals(5, n=100)
        union = StreamingUnion()
        mid = []
        for start, end in intervals:
            union.add_batch(np.array([(start, end)]))
            mid.append(union.union_time())  # query mid-stream
        assert union.finalize() == union_time(np.array(intervals))
        assert mid == sorted(mid)  # union time only grows


class TestWatermark:
    def test_watermark_tracks_max_start_minus_lag(self):
        union = StreamingUnion(watermark_lag=2.0)
        union.add_batch(np.array([(5.0, 6.0)]))
        assert union.watermark == 3.0
        # Out of order but within the lag: not late.
        union.add_batch(np.array([(3.0, 4.0)]))
        assert union.late_records == 0

    def test_late_record_counted_and_still_exact(self):
        union = StreamingUnion(watermark_lag=0.0)
        union.add_batch(np.array([(5.0, 6.0)]))
        union.add_batch(np.array([(1.0, 2.0)]))
        assert union.late_records == 1
        assert union.finalize() == 2.0

    def test_batch_rows_are_never_late_to_each_other(self):
        # The watermark moves only once the whole batch is folded in.
        union = StreamingUnion(watermark_lag=0.0)
        union.add_batch(np.array([(5.0, 6.0), (1.0, 2.0)]))
        assert union.late_records == 0
        assert union.watermark == 5.0

    def test_advance_watermark_is_monotonic(self):
        union = StreamingUnion()
        union.advance_watermark(3.0)
        union.advance_watermark(1.0)  # ignored, never regresses
        assert union.watermark == 3.0


class TestContract:
    def test_rejects_nan(self):
        with pytest.raises(LiveStreamError):
            StreamingUnion().add_batch(np.array([(float("nan"), 1.0)]))

    def test_rejects_inverted_interval(self):
        with pytest.raises(LiveStreamError):
            StreamingUnion().add_batch(np.array([(2.0, 1.0)]))

    def test_rejects_add_after_finalize(self):
        union = StreamingUnion()
        union.add_batch(np.array([(0.0, 1.0)]))
        union.finalize()
        with pytest.raises(LiveStreamError):
            union.add_batch(np.array([(1.0, 2.0)]))

    def test_rejects_bad_configuration(self):
        with pytest.raises(LiveStreamError):
            StreamingUnion(watermark_lag=-1.0)

    def test_empty_union_time_is_zero(self):
        assert StreamingUnion().union_time() == 0.0
