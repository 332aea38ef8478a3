"""Columnar TraceCollection vs a pure-Python reference (property-based).

The structure-of-arrays backend must be observationally identical to
the seed's list-of-dataclass implementation.  Hypothesis drives both
over arbitrary record mixes — empty traces, zero-length intervals,
mixed app/fs layers, failed accesses, duplicate timestamps — and every
aggregate, filter, merge, and gather must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import union_time, union_time_paper
from repro.core.records import (
    IORecord,
    LAYER_APP,
    LAYER_FS,
    TraceCollection,
)
from repro.errors import AnalysisError
from repro.util.units import bytes_to_blocks

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)


@st.composite
def records(draw):
    start = draw(times)
    duration = draw(st.floats(min_value=0.0, max_value=1e3,
                              allow_nan=False, allow_infinity=False))
    return IORecord(
        pid=draw(st.integers(min_value=0, max_value=7)),
        op=draw(st.sampled_from(["read", "write", "fsync"])),
        nbytes=draw(st.integers(min_value=0, max_value=10 * 1024 * 1024)),
        start=start,
        end=start + duration,
        file=draw(st.sampled_from(["", "a.dat", "b.dat"])),
        offset=draw(st.integers(min_value=-1, max_value=1 << 40)),
        success=draw(st.booleans()),
        layer=draw(st.sampled_from([LAYER_APP, LAYER_FS])),
    )


record_lists = st.lists(records(), min_size=0, max_size=60)


class PyReference:
    """The seed implementation: a plain list of records, Python loops."""

    def __init__(self, recs):
        self.recs = list(recs)

    def total_bytes(self):
        return sum(r.nbytes for r in self.recs)

    def total_blocks(self, block_size=512):
        return sum(bytes_to_blocks(r.nbytes, block_size) for r in self.recs)

    def intervals(self):
        return [[r.start, r.end] for r in self.recs]

    def response_times(self):
        return [r.end - r.start for r in self.recs]

    def pids(self):
        return sorted({r.pid for r in self.recs})

    def span(self):
        return (min(r.start for r in self.recs),
                max(r.end for r in self.recs))


def fields(r):
    return (r.pid, r.op, r.nbytes, r.start, r.end, r.file, r.offset,
            r.success, r.layer)


def assert_same_records(trace, recs):
    assert len(trace) == len(recs)
    assert [fields(r) for r in trace] == [fields(r) for r in recs]


class TestAggregatesAgree:
    @given(record_lists)
    def test_totals_and_columns(self, recs):
        trace = TraceCollection(recs)
        ref = PyReference(recs)
        assert trace.total_bytes() == ref.total_bytes()
        assert trace.total_blocks() == ref.total_blocks()
        assert trace.total_blocks(4096) == ref.total_blocks(4096)
        assert trace.intervals().tolist() == ref.intervals()
        assert trace.response_times().tolist() == ref.response_times()
        assert trace.pids() == ref.pids()

    @given(record_lists)
    def test_span(self, recs):
        trace = TraceCollection(recs)
        if not recs:
            with pytest.raises(AnalysisError):
                trace.span()
        else:
            assert trace.span() == PyReference(recs).span()

    @given(record_lists)
    def test_row_round_trip(self, recs):
        # Iteration and indexing materialise rows identical to the input.
        trace = TraceCollection(recs)
        assert_same_records(trace, recs)
        for i in range(len(recs)):
            assert fields(trace[i]) == fields(recs[i])

    @given(record_lists)
    def test_union_time_matches_paper_port(self, recs):
        trace = TraceCollection(recs)
        expected = union_time_paper([[r.start, r.end] for r in recs])
        assert trace.union_time() == pytest.approx(expected)
        assert trace.union_time(impl="paper") == pytest.approx(expected)


class TestViewsAgree:
    @given(record_lists)
    def test_filters_match_reference(self, recs):
        trace = TraceCollection(recs)
        assert_same_records(trace.app_records(),
                            [r for r in recs if r.layer == LAYER_APP])
        assert_same_records(trace.fs_records(),
                            [r for r in recs if r.layer == LAYER_FS])
        for pid in {r.pid for r in recs}:
            assert_same_records(trace.for_pid(pid),
                                [r for r in recs if r.pid == pid])
        for op in ("read", "write", "never-seen"):
            assert_same_records(trace.for_op(op),
                                [r for r in recs if r.op == op])
        assert_same_records(
            trace.for_pid_range(range(2, 5)),
            [r for r in recs if 2 <= r.pid < 5])

    @given(record_lists)
    def test_generic_predicate_filter(self, recs):
        trace = TraceCollection(recs)
        predicate = lambda r: r.success and r.nbytes > 1024
        assert_same_records(trace.filter(predicate),
                            [r for r in recs if predicate(r)])

    @given(record_lists, record_lists)
    def test_merge_and_gather(self, left, right):
        a, b = TraceCollection(left), TraceCollection(right)
        merged = a.merge(b)
        assert_same_records(merged, left + right)
        assert len(a) == len(left)  # originals untouched
        gathered = TraceCollection.gather(
            [TraceCollection(left), TraceCollection(right),
             TraceCollection()])
        assert_same_records(gathered, left + right)

    @given(record_lists)
    def test_views_after_incremental_build(self, recs):
        # Interleave appends and queries: consolidation must never lose
        # or reorder the tail.
        trace = TraceCollection()
        for i, r in enumerate(recs):
            trace.add(r)
            if i % 7 == 0:
                trace.total_bytes()  # force consolidation mid-build
        assert_same_records(trace, recs)
        assert trace.total_bytes() == PyReference(recs).total_bytes()


class TestCacheInvalidation:
    def rec(self, start, end, **kw):
        kw.setdefault("pid", 0)
        kw.setdefault("op", "read")
        kw.setdefault("nbytes", 512)
        return IORecord(start=start, end=end, **kw)

    def test_add_invalidates_union_time(self):
        trace = TraceCollection([self.rec(0.0, 1.0)])
        assert trace.union_time() == 1.0
        trace.add(self.rec(5.0, 7.0))
        assert trace.union_time() == 3.0
        trace.extend([self.rec(10.0, 11.5)])
        assert trace.union_time() == 4.5
        assert trace.union_time(impl="paper") == 4.5

    def test_add_invalidates_aggregates(self):
        trace = TraceCollection([self.rec(0.0, 1.0, nbytes=100)])
        assert trace.total_bytes() == 100
        assert trace.total_blocks() == 1
        trace.add(self.rec(1.0, 2.0, nbytes=513))
        assert trace.total_bytes() == 613
        assert trace.total_blocks() == 3
        assert trace.intervals().shape == (2, 2)
        assert trace.span() == (0.0, 2.0)

    def test_view_caching_and_invalidation(self):
        trace = TraceCollection([self.rec(0.0, 1.0),
                                 self.rec(0.0, 1.0, layer=LAYER_FS)])
        first = trace.app_records()
        # Repeated queries reuse the cached view (shared memoisation).
        assert trace.app_records() is first
        trace.add(self.rec(2.0, 3.0))
        fresh = trace.app_records()
        assert fresh is not first
        assert len(fresh) == 2
        assert len(first) == 1  # the old snapshot is unchanged

    def test_mutated_view_detaches_from_parent(self):
        trace = TraceCollection([self.rec(0.0, 1.0)])
        view = trace.app_records()
        view.add(self.rec(4.0, 5.0))
        assert len(view) == 2
        # The parent serves a fresh snapshot, not the mutated view.
        assert len(trace.app_records()) == 1
        assert trace.app_records() is not view

    def test_cached_arrays_are_read_only(self):
        trace = TraceCollection([self.rec(0.0, 1.0)])
        with pytest.raises(ValueError):
            trace.intervals()[0, 0] = 99.0
        with pytest.raises(ValueError):
            trace.response_times()[0] = 99.0


class TestFromArrays:
    def test_broadcast_scalars(self):
        trace = TraceCollection.from_arrays(
            pid=[1, 2], nbytes=[512, 1024],
            start=[0.0, 0.5], end=[1.0, 2.0])
        assert len(trace) == 2
        assert trace[0].op == "read"
        assert trace[1].layer == LAYER_APP
        assert trace.total_blocks() == 3

    def test_column_sequences(self):
        trace = TraceCollection.from_arrays(
            pid=[1, 2], nbytes=[0, 10], start=[0.0, 1.0], end=[0.0, 2.0],
            op=["read", "write"], layer=[LAYER_APP, LAYER_FS],
            file=["x", "y"], offset=[0, 4096], success=[True, False])
        assert fields(trace[1]) == (2, "write", 10, 1.0, 2.0, "y", 4096,
                                    False, LAYER_FS)
        assert len(trace.app_records()) == 1

    def test_validation(self):
        with pytest.raises(AnalysisError):
            TraceCollection.from_arrays(pid=[1], nbytes=[-1],
                                        start=[0.0], end=[1.0])
        with pytest.raises(AnalysisError):
            TraceCollection.from_arrays(pid=[1], nbytes=[1],
                                        start=[2.0], end=[1.0])
        with pytest.raises(AnalysisError):
            TraceCollection.from_arrays(pid=[1], nbytes=[1],
                                        start=[math.nan], end=[1.0])
        with pytest.raises(AnalysisError):
            TraceCollection.from_arrays(pid=[1, 2], nbytes=[1],
                                        start=[0.0, 0.0], end=[1.0, 1.0])

    @pytest.mark.parametrize("column", ["start", "end"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamps_name_the_first_bad_row(self, column,
                                                           bad):
        times = {"start": [0.0, 0.5, 0.5], "end": [1.0, 2.0, 2.0]}
        times[column][1] = times[column][2] = bad
        with pytest.raises(AnalysisError, match="record 1 has non-finite"):
            TraceCollection.from_arrays(pid=[0, 0, 0], nbytes=[512] * 3,
                                        **times)

    def test_string_columns_round_trip_exactly(self):
        # A NumPy ``<U`` array would drop the trailing NULs.
        values = ["read\x00", "w\U0001F600", "\x00\x00", ""]
        trace = TraceCollection.from_arrays(
            pid=[0] * 4, nbytes=[512] * 4, start=[0.0] * 4, end=[1.0] * 4,
            op=values, file=values[::-1], layer=values)
        columns = trace.to_columns()
        assert columns["op"] == columns["layer"] == values
        assert columns["file"] == values[::-1]
        assert [r.op for r in trace] == values
        assert [len(trace.for_op(value)) for value in values] == [1] * 4
        # Gathering interns the raw columns.
        gathered = TraceCollection.gather([trace, trace]).to_columns()
        assert gathered["op"] == values * 2

    @given(record_lists)
    def test_matches_record_ingest(self, recs):
        by_rows = TraceCollection(recs)
        by_cols = TraceCollection.from_arrays(
            pid=[r.pid for r in recs],
            nbytes=[r.nbytes for r in recs],
            start=np.array([r.start for r in recs]),
            end=np.array([r.end for r in recs]),
            op=[r.op for r in recs],
            file=[r.file for r in recs],
            offset=[r.offset for r in recs],
            success=[r.success for r in recs],
            layer=[r.layer for r in recs],
        )
        assert_same_records(by_cols, list(by_rows))
        assert by_cols.union_time() == pytest.approx(by_rows.union_time())


class TestPickleRoundTrip:
    @given(record_lists)
    @settings(max_examples=25)
    def test_pickle_preserves_records(self, recs):
        import pickle
        trace = TraceCollection(recs)
        trace.union_time()  # warm caches; they must not leak into pickle
        clone = pickle.loads(pickle.dumps(trace))
        assert_same_records(clone, recs)
        assert clone.union_time() == pytest.approx(trace.union_time())
