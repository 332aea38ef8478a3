"""TraceGraph: bucketing, order independence, bounded memory."""

import random

import pytest

from repro.core.records import IORecord
from repro.diagnose import (DiagnoseError, TraceGraph, WindowGraph,
                            stripe_server_of)
from repro.live.chunk import chunk_trace
from repro.core.records import TraceCollection


def rec(pid=0, op="read", nbytes=4096, start=0.0, end=0.01, *,
        offset=-1, success=True, retries=0):
    return IORecord(pid=pid, op=op, nbytes=nbytes, start=start, end=end,
                    offset=offset, success=success, retries=retries)


server_of_offset = stripe_server_of(3)


def graph_key(g: WindowGraph):
    return (g.index, g.edges, tuple(sorted(g.occupancy.items())),
            tuple(sorted(g.max_end.items())),
            tuple(sorted(g.pid_max_end.items())))


def assert_graphs_close(a: WindowGraph, b: WindowGraph):
    """Equal up to float-summation order (shuffled ingest reorders the
    dur_sum additions; counts, maxima, and structure must be exact)."""
    assert a.index == b.index
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        assert (ea.pid, ea.op, ea.server, ea.ops, ea.blocks,
                ea.retries, ea.failures) == \
            (eb.pid, eb.op, eb.server, eb.ops, eb.blocks,
             eb.retries, eb.failures)
        assert ea.dur_sum == pytest.approx(eb.dur_sum)
    assert sorted(a.occupancy) == sorted(b.occupancy)
    for server in a.occupancy:
        assert a.occupancy[server] == pytest.approx(b.occupancy[server])
    assert a.max_end == b.max_end
    assert a.pid_max_end == b.pid_max_end


class TestConfig:
    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan")])
    def test_bad_window_rejected(self, window):
        with pytest.raises(DiagnoseError):
            TraceGraph(window=window, origin=0.0)

    def test_bad_block_size_rejected(self):
        with pytest.raises(DiagnoseError):
            TraceGraph(window=0.1, origin=0.0, block_size=0)

    def test_origin_defaults_to_first_record(self):
        g = TraceGraph(window=0.1)
        g.add_record(rec(start=5.03, end=5.04))
        assert g.origin == 5.03
        assert g.window_graph(0).ops == 1


class TestBucketing:
    def test_record_lands_wholly_in_start_window(self):
        g = TraceGraph(window=0.1, origin=0.0)
        # Starts in window 0, ends deep inside window 2.
        g.add_record(rec(start=0.05, end=0.25))
        assert g.window_graph(0).ops == 1
        assert g.window_graph(1).ops == 0
        assert g.window_graph(2).ops == 0

    def test_dur_sum_is_unclipped_occupancy_is_clipped(self):
        g = TraceGraph(window=0.1, origin=0.0, server_of=server_of_offset)
        g.add_record(rec(start=0.05, end=0.25, offset=0))
        wg = g.window_graph(0)
        # Full 0.2 s response time, but only 0.05 s inside window 0.
        assert wg.dur_sum == pytest.approx(0.2)
        assert wg.occupancy["server0"] == pytest.approx(0.05)
        # max_end keeps the unclipped reach for the lookback rules.
        assert wg.max_end["server0"] == pytest.approx(0.25)
        assert wg.pid_max_end[0] == pytest.approx(0.25)

    def test_occupancy_is_union_not_sum(self):
        g = TraceGraph(window=0.1, origin=0.0, server_of=server_of_offset)
        g.add_record(rec(start=0.01, end=0.05, offset=0))
        g.add_record(rec(pid=1, start=0.02, end=0.06, offset=0))
        assert g.window_graph(0).occupancy["server0"] == \
            pytest.approx(0.05)  # overlap collapsed

    def test_failures_and_retries_accumulate(self):
        g = TraceGraph(window=0.1, origin=0.0)
        g.add_record(rec(success=False, retries=2))
        g.add_record(rec(retries=1))
        wg = g.window_graph(0)
        assert wg.failures == 1
        assert wg.retries == 3

    def test_blocks_round_up(self):
        g = TraceGraph(window=0.1, origin=0.0, block_size=512)
        g.add_record(rec(nbytes=513))
        assert g.window_graph(0).edges[0].blocks == 2

    def test_no_server_key_degrades_to_question_mark(self):
        g = TraceGraph(window=0.1, origin=0.0)
        g.add_record(rec())
        assert g.window_graph(0).edges[0].server == "?"

    def test_untouched_window_is_empty(self):
        g = TraceGraph(window=0.1, origin=0.0)
        wg = g.window_graph(7)
        assert wg.ops == 0 and wg.edges == () and wg.occupancy == {}


class TestOrderIndependence:
    def records(self, n=200, seed=3):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            start = rng.uniform(0.0, 1.0)
            out.append(rec(pid=i % 4, op="read" if i % 2 else "write",
                           nbytes=rng.choice([512, 4096, 65536]),
                           start=start,
                           end=start + rng.uniform(0.001, 0.3),
                           offset=rng.randrange(0, 8) * 65536,
                           success=rng.random() > 0.1,
                           retries=rng.randrange(0, 3)))
        return out

    def build(self, records):
        g = TraceGraph(window=0.1, origin=0.0,
                       server_of=server_of_offset)
        for r in records:
            g.add_record(r)
        return g

    def test_shuffled_ingest_builds_identical_graphs(self):
        records = self.records()
        a = self.build(records)
        shuffled = list(records)
        random.Random(99).shuffle(shuffled)
        b = self.build(shuffled)
        for i in range(12):
            assert_graphs_close(a.window_graph(i), b.window_graph(i))

    def test_chunked_ingest_matches_per_record_bit_for_bit(self):
        # ~17 rows per edge per window, so chunk cuts split edge sums.
        records = self.records(n=2000)
        # Same delivery order (completion) on both paths -> identical
        # float-addition order -> bit-identical buckets, for any cut.
        a = self.build(sorted(records, key=lambda r: (r.end, r.start)))
        for chunk_size in (1, 17, 4096):
            b = TraceGraph(window=0.1, origin=0.0,
                           server_of=server_of_offset)
            for chunk in chunk_trace(TraceCollection(records),
                                     chunk_size=chunk_size,
                                     order="completion"):
                b.add_chunk(chunk)
            for i in range(12):
                assert graph_key(a.window_graph(i)) == \
                    graph_key(b.window_graph(i)), chunk_size


class TestPop:
    def test_pop_releases_the_bucket(self):
        g = TraceGraph(window=0.1, origin=0.0)
        g.add_record(rec(start=0.01, end=0.02))
        g.add_record(rec(start=0.15, end=0.16))
        assert g.open_windows == 2
        first = g.pop_window(0)
        assert first.ops == 1
        assert g.open_windows == 1
        # Popped window reads back empty: memory stays O(open windows).
        assert g.window_graph(0).ops == 0

    def test_by_server_and_by_pid_aggregate_edges(self):
        g = TraceGraph(window=0.1, origin=0.0,
                       server_of=server_of_offset)
        g.add_record(rec(pid=0, op="read", offset=0, start=0.0, end=0.01))
        g.add_record(rec(pid=0, op="write", offset=0, start=0.0,
                         end=0.02, retries=1))
        g.add_record(rec(pid=1, op="read", offset=65536, start=0.0,
                         end=0.03, success=False))
        wg = g.pop_window(0)
        srv = wg.by_server()
        assert srv["server0"][0] == 2  # ops
        assert srv["server0"][2] == 1  # retries
        assert srv["server1"][3] == 1  # failures
        pid = wg.by_pid()
        assert pid[0][0] == 2 and pid[1][0] == 1
        assert pid[0][1] == pytest.approx(0.03)
