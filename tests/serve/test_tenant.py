"""Tenant lifecycle: exactness, salvage, crash isolation, budgets."""

import json

import pytest

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.live import MemorySink
from repro.serve.budget import TenantBudget
from repro.serve.tenant import (
    ACTIVE,
    DRAINED,
    EVICTED,
    QUARANTINED,
    Tenant,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def steady_records(n=200, gap=0.005, dur=0.012, nbytes=4096):
    return [
        IORecord(pid=i % 3, op="read" if i % 2 else "write",
                 nbytes=nbytes, start=i * gap, end=i * gap + dur)
        for i in range(n)
    ]


def record_json(record):
    return json.dumps({"pid": record.pid, "op": record.op,
                       "nbytes": record.nbytes, "start": record.start,
                       "end": record.end})


def make_tenant(**kwargs):
    kwargs.setdefault("window", 0.1)
    kwargs.setdefault("clock", FakeClock())
    return Tenant("t", **kwargs)


class TestExactness:
    @pytest.mark.parametrize("scrape_every", [0, 64])
    def test_final_metrics_bit_identical_to_batch(self, scrape_every):
        # Scrapes fold the ingest buffer in at arbitrary points; the
        # settled totals must not notice.
        records = steady_records()
        tenant = make_tenant()
        for k, record in enumerate(records, 1):
            assert tenant.feed_record(record).kind == "ok"
            if scrape_every and k % scrape_every == 0:
                tenant.refresh_snapshot()
        result = tenant.end()
        assert tenant.state == DRAINED
        batch = compute_metrics(TraceCollection(records),
                                exec_time=result.metrics.exec_time)
        assert result.metrics.bps == batch.bps
        assert result.metrics.union_io_time == batch.union_io_time
        assert result.metrics.app_ops == batch.app_ops

    def test_windows_match_a_plain_stream(self):
        from repro.live import MetricStream
        records = steady_records(n=120)
        tenant = make_tenant()
        for record in records:
            tenant.feed_record(record)
        result = tenant.end()
        reference = MetricStream(window=0.1)
        for record in records:
            reference.ingest(record)
        expected = reference.finalize()
        assert len(result.windows) == len(expected.windows)
        for got, want in zip(result.windows, expected.windows):
            assert (got.index, got.ops, got.blocks) == \
                (want.index, want.ops, want.blocks)
            assert got.io_time == want.io_time
            assert got.bps == want.bps


class TestFeedLines:
    def test_feed_line_decodes_and_ingests(self):
        tenant = make_tenant()
        out = tenant.feed_line(record_json(steady_records(1)[0]))
        assert out.kind == "ok"
        assert tenant.stream.ops == 1

    def test_blank_and_comment_lines_are_free(self):
        tenant = make_tenant()
        assert tenant.feed_line("") is None
        assert tenant.feed_line("# note") is None
        assert tenant._session.report.lines_seen == 0

    def test_control_passthrough(self):
        tenant = make_tenant()
        out = tenant.feed_line('{"type": "end"}')
        assert out.kind == "control"
        assert out.control["type"] == "end"
        assert tenant.state == ACTIVE  # the server decides, not the feed


class TestSalvage:
    def test_garbage_stream_quarantines(self):
        tenant = make_tenant(max_error_ratio=0.25)
        last = None
        for i in range(200):
            last = tenant.feed_line(f"garbage {i}")
            if last.kind == "quarantined":
                break
        assert last.kind == "quarantined"
        assert tenant.state == QUARANTINED
        assert "budget" in tenant.state_reason
        # Terminal: further lines are refused, not crashed on.
        assert tenant.feed_line("more garbage").kind == "closed"

    def test_occasional_garbage_is_salvaged(self):
        records = steady_records(n=90)
        tenant = make_tenant(max_error_ratio=0.25)
        for i, record in enumerate(records):
            tenant.feed_record(record)
            if i % 10 == 0:
                out = tenant.feed_line("{bad json")
                assert out.kind == "bad-line"
        assert tenant.state == ACTIVE
        result = tenant.end()
        assert result.metrics.app_ops == len(records)
        assert tenant.quarantine_report.skipped == 9

    @pytest.mark.parametrize("fields", [
        {"start": float("nan")}, {"end": float("inf")}, {"retries": 2**32},
    ], ids=["nan-start", "infinite-end", "retries-2**32"])
    def test_unstorable_record_is_a_bad_line(self, fields):
        records = steady_records(n=60)
        tenant = make_tenant(max_error_ratio=0.25)
        for record in records[:30]:
            assert tenant.feed_record(record).kind == "ok"
        line = json.dumps({**json.loads(record_json(records[30])),
                           **fields})
        out = tenant.feed_line(line)
        assert out.kind == "bad-line"
        assert out.reason.startswith("bad record: ")
        assert tenant.state == ACTIVE
        for record in records[30:]:
            assert tenant.feed_record(record).kind == "ok"
        result = tenant.end()
        assert tenant.state == DRAINED
        assert result.metrics.app_ops == 60

    def test_strict_mode_quarantines_on_first_bad_line(self):
        tenant = make_tenant(error_mode="strict")
        out = tenant.feed_line("nonsense")
        assert out.kind == "quarantined"
        assert tenant.state == QUARANTINED


class TestCrashIsolation:
    def test_internal_crash_quarantines_not_raises(self):
        tenant = make_tenant()

        def boom(record):
            raise RuntimeError("kaboom")

        tenant.stream.ingest = boom
        out = tenant.feed_record(steady_records(1)[0])
        assert out.kind == "quarantined"
        assert tenant.state == QUARANTINED
        assert "kaboom" in tenant.crash_error
        assert "kaboom" in tenant.status()["crash_error"]

    def test_terminate_swallows_finalize_failures(self):
        tenant = make_tenant()
        tenant.feed_record(steady_records(1)[0])

        def boom(**kwargs):
            raise RuntimeError("settle failed")

        tenant.stream.finalize = boom
        result = tenant.end()  # must not raise
        assert result is None
        assert tenant.state == DRAINED
        assert "settle failed" in tenant.crash_error

    def test_failed_read_quarantines_not_raises(self):
        # A status read folds the ingest buffer in; if that fails, the
        # roster read must still answer for this tenant.
        tenant = make_tenant()
        for record in steady_records(3):
            tenant.feed_record(record)
        assert tenant.stream._rows  # the read below has rows to fold

        def boom(chunk):
            raise RuntimeError("fold failed")

        tenant.stream._fold = boom
        status = tenant.status()  # must not raise
        assert status["state"] == QUARANTINED
        assert status["records"] is None
        assert status["records_admitted"] == 3
        assert "fold failed" in status["crash_error"]
        assert tenant.status()["state"] == QUARANTINED


class TestBudgets:
    def test_shed_records_never_reach_the_stream(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10,
                              burst_seconds=1.0, shed_factor=1.0)
        tenant = make_tenant(budget=budget, clock=clock)
        outcomes = [tenant.feed_record(r)
                    for r in steady_records(n=100)]
        sheds = sum(1 for o in outcomes if o.kind == "shed")
        oks = sum(1 for o in outcomes if o.kind == "ok")
        assert sheds > 0
        assert tenant.stream.ops == oks
        assert tenant.meter.records_shed == sheds
        status = tenant.status()
        assert status["budget"]["records_shed"] == sheds
        assert status["records"] == oks

    def test_shed_budget_exhaustion_evicts_with_flush(self):
        clock = FakeClock()
        sink = MemorySink()
        budget = TenantBudget(max_records_per_sec=10,
                              burst_seconds=1.0, shed_factor=1.0,
                              evict_after_sheds=3)
        tenant = make_tenant(budget=budget, clock=clock, sinks=[sink])
        last = None
        for record in steady_records(n=500):
            last = tenant.feed_record(record)
            if last.kind == "evicted":
                break
        assert last.kind == "evicted"
        assert tenant.state == EVICTED
        # The admitted totals were finalized and flushed on the way out.
        finals = sink.of_type("final")
        assert len(finals) == 1
        assert finals[0]["ops"] == tenant.meter.records_admitted
        assert tenant.result is not None


class TestLifecycle:
    def test_end_is_idempotent(self):
        tenant = make_tenant()
        tenant.feed_record(steady_records(1)[0])
        first = tenant.end()
        assert tenant.end() is first

    def test_empty_tenant_drains_without_result(self):
        sink = MemorySink()
        tenant = make_tenant(sinks=[sink])
        assert tenant.end() is None
        assert tenant.state == DRAINED
        assert sink.closed  # sinks still settle

    def test_idle_seconds_tracks_clock(self):
        clock = FakeClock()
        tenant = make_tenant(clock=clock)
        tenant.feed_record(steady_records(1)[0])
        clock.advance(42.0)
        assert tenant.idle_seconds == pytest.approx(42.0)

    def test_status_and_prom_state_shape(self):
        tenant = make_tenant()
        for record in steady_records(n=30):
            tenant.feed_record(record)
        tenant.refresh_snapshot()
        labels, latest, _window, anomalies, last_severity = \
            tenant.prom_state()
        assert labels == {"tenant": "t"}
        assert latest["ops"] == 30
        assert anomalies == 0
        assert last_severity is None
        status = tenant.status()
        assert status["state"] == ACTIVE
        assert status["records"] == 30
        tenant.end()
        status = tenant.status()
        assert status["state"] == DRAINED
        assert status["final"]["ops"] == 30
        assert status["final"]["bps"] > 0
