"""Property suite: streaming union == batch union under any delivery.

The acceptance property of the whole subsystem: however the records are
permuted, cut into batches (down to one row each), or watermarked, the
streamed union time equals the batch
:func:`~repro.core.intervals.union_time` **exactly** (``==``, not
approx) — endpoints are selected rather than computed, and both paths
sum the same canonical segment array.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.intervals import union_time
from repro.live import StreamingUnion

finite = st.floats(min_value=0.0, max_value=1e4,
                   allow_nan=False, allow_infinity=False)


@st.composite
def interval_lists(draw, max_size=60):
    n = draw(st.integers(min_value=1, max_value=max_size))
    out = []
    for _ in range(n):
        start = draw(finite)
        length = draw(st.floats(min_value=0.0, max_value=100.0,
                                allow_nan=False))
        out.append((start, start + length))
    return out


@st.composite
def permuted(draw, max_size=60):
    intervals = draw(interval_lists(max_size=max_size))
    return draw(st.permutations(intervals))


@st.composite
def cut_delivery(draw, max_size=60):
    """(intervals in arrival order, batch cut points down to one row)."""
    order = draw(permuted(max_size=max_size))
    n = len(order)
    cuts = draw(st.lists(st.integers(min_value=1, max_value=max(1, n)),
                         max_size=n))
    return order, sorted({0, n, *[c for c in cuts if c < n]})


def feed(union, order, cuts):
    for lo, hi in zip(cuts, cuts[1:]):
        union.add_batch(np.array(order[lo:hi]))


def one_row_cuts(order):
    return list(range(len(order) + 1))


class TestStreamedEqualsBatch:
    @given(order=permuted())
    @settings(max_examples=120, deadline=None)
    def test_any_arrival_order(self, order):
        union = StreamingUnion()
        feed(union, order, one_row_cuts(order))
        assert union.finalize() == union_time(np.array(sorted(order)))

    @given(case=cut_delivery(),
           lag=st.floats(min_value=0.0, max_value=1e4,
                         allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_adversarial_watermark_lag(self, case, lag):
        order, cuts = case
        union = StreamingUnion(watermark_lag=lag)
        feed(union, order, cuts)
        assert union.finalize() == union_time(np.array(sorted(order)))

    @given(case=cut_delivery())
    @settings(max_examples=60, deadline=None)
    def test_mid_stream_queries_change_nothing(self, case):
        order, cuts = case
        union = StreamingUnion()
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            union.add_batch(np.array(order[lo:hi]))
            if k % 3 == 0:
                union.union_time()
            if k % 5 == 0:
                union.segments()
        assert union.finalize() == union_time(np.array(sorted(order)))

    @given(intervals=interval_lists())
    @settings(max_examples=60, deadline=None)
    def test_batch_ingest_equals_batch(self, intervals):
        union = StreamingUnion()
        union.add_batch(np.array(intervals))
        assert union.finalize() == \
            union_time(np.array(sorted(intervals)))

    @given(order=permuted(max_size=40),
           splits=st.lists(st.integers(min_value=0, max_value=39),
                           max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_mixed_single_and_batch_ingest(self, order, splits):
        """Single-row batches interleaved with multi-row ones."""
        cuts = sorted({0, len(order), *[s for s in splits
                                        if s <= len(order)]})
        union = StreamingUnion()
        for lo, hi in zip(cuts, cuts[1:]):
            chunk = order[lo:hi]
            if len(chunk) == 1:
                union.add_batch(np.array(chunk))
            elif chunk:
                # Split off the first row as a single-row batch.
                union.add_batch(np.array(chunk[:1]))
                union.add_batch(np.array(chunk[1:]))
        assert union.finalize() == union_time(np.array(sorted(order)))

    @given(case=cut_delivery())
    @settings(max_examples=60, deadline=None)
    def test_segments_are_disjoint_sorted_and_gapped(self, case):
        order, cuts = case
        union = StreamingUnion()
        feed(union, order, cuts)
        union.finalize()
        segments = union.segments()
        for k in range(len(segments) - 1):
            assert segments[k + 1][0] > segments[k][1]  # strict gap
        for start, end in segments:
            assert end >= start
