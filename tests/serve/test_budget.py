"""Ingest budgets and the load-shedding ladder (deterministic clock)."""

import pytest

from repro.errors import ServeError
from repro.serve.budget import (
    SHED_LADDER,
    IngestMeter,
    TenantBudget,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestTenantBudget:
    def test_defaults_are_unlimited(self):
        budget = TenantBudget()
        assert budget.unlimited

    @pytest.mark.parametrize("kwargs", [
        {"max_bytes_per_sec": 0},
        {"max_bytes_per_sec": -1},
        {"max_records_per_sec": 0.0},
        {"burst_seconds": float("nan")},
        {"burst_seconds": 0.0},
        {"shed_factor": 0.5},
        {"evict_after_sheds": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            TenantBudget(**kwargs)

    def test_ladder_names(self):
        assert SHED_LADDER == ("exact", "throttle", "shed", "evict")


class TestIngestMeter:
    def test_unlimited_admits_everything(self):
        meter = IngestMeter(TenantBudget(), clock=FakeClock())
        for _ in range(1000):
            assert meter.admit(1 << 20).admitted
        assert meter.records_admitted == 1000
        assert meter.rung == 0
        assert meter.counters()["rung_name"] == "exact"

    def test_within_budget_is_exact(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10, burst_seconds=1.0)
        meter = IngestMeter(budget, clock=clock)
        # Bucket capacity is 10 records; 10 instant admits are free.
        for _ in range(10):
            out = meter.admit(100)
            assert out.action == "admit" and out.delay == 0.0
        assert meter.rung == 0

    def test_throttle_rung_owes_delay(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10, burst_seconds=1.0)
        meter = IngestMeter(budget, clock=clock)
        for _ in range(10):
            meter.admit(0)
        out = meter.admit(0)  # level -1: owes 0.1s at 10 rec/s
        assert out.action == "admit"
        assert out.rung == 1
        assert out.delay == pytest.approx(0.1)
        assert meter.rung == 1
        assert meter.throttled_seconds == pytest.approx(0.1)
        assert meter.records_admitted == 11

    def test_refill_restores_exactness(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10, burst_seconds=1.0)
        meter = IngestMeter(budget, clock=clock)
        for _ in range(11):
            meter.admit(0)
        clock.advance(10.0)  # fully refilled (capped at capacity)
        assert meter.admit(0).delay == 0.0

    def test_shed_rung_accounts_exactly(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10, burst_seconds=1.0,
                              shed_factor=2.0)
        meter = IngestMeter(budget, clock=clock)
        outcomes = [meter.admit(64) for _ in range(100)]
        sheds = [o for o in outcomes if o.action == "shed"]
        admits = [o for o in outcomes if o.admitted]
        assert sheds and all(o.rung == 2 for o in sheds)
        assert meter.records_shed == len(sheds)
        assert meter.bytes_shed == 64 * len(sheds)
        assert meter.records_admitted == len(admits)
        assert meter.records_admitted + meter.records_shed == 100
        # Arrears are bounded: level never dives past shed_factor
        # depths, so the worst throttle delay is bounded too.
        assert max(o.delay for o in admits) <= \
            budget.shed_factor * budget.burst_seconds + 0.1

    def test_evict_rung_after_shed_budget(self):
        clock = FakeClock()
        budget = TenantBudget(max_records_per_sec=10, burst_seconds=1.0,
                              shed_factor=1.0, evict_after_sheds=5)
        meter = IngestMeter(budget, clock=clock)
        last = None
        for _ in range(200):
            last = meter.admit(0)
            if last.action == "evict":
                break
        assert last is not None and last.action == "evict"
        assert last.rung == 3
        assert meter.evicted
        assert meter.records_shed == budget.evict_after_sheds + 1
        # Once evicted, everything is refused.
        assert meter.admit(0).action == "evict"
        assert meter.counters()["rung_name"] == "evict"

    def test_bytes_budget_axis(self):
        clock = FakeClock()
        budget = TenantBudget(max_bytes_per_sec=1000, burst_seconds=1.0,
                              shed_factor=1.0)
        meter = IngestMeter(budget, clock=clock)
        assert meter.admit(1000).delay == 0.0  # spends the full bucket
        out = meter.admit(3000)  # arrears 3 depths > shed_factor
        assert out.action == "shed"
        assert meter.bytes_shed == 3000
        assert meter.bytes_admitted == 1000

