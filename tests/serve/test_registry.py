"""Registry: bounded rosters, idle eviction, aggregated views."""

import json

import pytest

from repro.core.records import IORecord
from repro.errors import ServeError
from repro.live.sinks import format_prometheus
from repro.serve.registry import ServeConfig, TenantRegistry
from repro.serve.tenant import ACTIVE, DRAINED


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_registry(clock=None, **kwargs):
    return TenantRegistry(ServeConfig(**kwargs),
                          clock=clock or FakeClock())


def feed(tenant, n=20):
    for i in range(n):
        tenant.feed_record(IORecord(
            pid=1, op="read", nbytes=4096,
            start=i * 0.01, end=i * 0.01 + 0.02))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0.0},
        {"max_tenants": 0},
        {"idle_timeout": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs)


class TestCreation:
    def test_get_or_create_is_idempotent(self):
        registry = make_registry()
        a = registry.get_or_create("a")
        assert registry.get_or_create("a") is a
        assert registry.tenants_created == 1

    def test_invalid_name_rejected(self):
        registry = make_registry()
        with pytest.raises(ServeError, match="invalid tenant name"):
            registry.get_or_create("../etc/passwd")

    def test_fleet_bound_refuses_new_tenants(self):
        registry = make_registry(max_tenants=2)
        registry.get_or_create("a")
        registry.get_or_create("b")
        with pytest.raises(ServeError, match="tenant limit"):
            registry.get_or_create("c")
        assert registry.rejected_creates == 1
        # Existing tenants still resolve.
        assert registry.get_or_create("a").name == "a"

    def test_terminal_tenants_free_their_slot(self):
        registry = make_registry(max_tenants=1)
        a = registry.get_or_create("a")
        a.end()
        registry.note_terminal(a)
        assert registry.get_or_create("b").name == "b"


class TestIdleEviction:
    def test_idle_tenant_evicted_with_final_flush(self):
        clock = FakeClock()
        registry = make_registry(clock=clock, idle_timeout=10.0)
        tenant = registry.get_or_create("a")
        feed(tenant)
        clock.advance(11.0)
        evicted = registry.evict_idle()
        assert [t.name for t in evicted] == ["a"]
        assert tenant.state == DRAINED
        assert tenant.result is not None
        assert "idle" in tenant.state_reason
        assert registry.tenants_evicted_idle == 1

    def test_active_tenant_survives(self):
        clock = FakeClock()
        registry = make_registry(clock=clock, idle_timeout=10.0)
        tenant = registry.get_or_create("a")
        feed(tenant)
        clock.advance(5.0)
        assert registry.evict_idle() == []
        assert tenant.state == ACTIVE

    def test_no_timeout_means_no_eviction(self):
        clock = FakeClock()
        registry = make_registry(clock=clock, idle_timeout=None)
        registry.get_or_create("a")
        clock.advance(1e9)
        assert registry.evict_idle() == []


class TestTerminalRoster:
    def test_oldest_terminal_dropped_past_cap(self):
        registry = make_registry(max_terminal=2)
        for name in ("a", "b", "c"):
            tenant = registry.get_or_create(name)
            tenant.end()
            registry.note_terminal(tenant)
        assert registry.tenants_dropped == 1
        assert "a" not in registry.tenants
        assert set(registry.tenants) == {"b", "c"}

    def test_drain_all_finalizes_everything(self):
        registry = make_registry()
        for name in ("a", "b"):
            feed(registry.get_or_create(name))
        drained = registry.drain_all("test drain")
        assert {t.name for t in drained} == {"a", "b"}
        for tenant in drained:
            assert tenant.state == DRAINED
            assert tenant.result is not None


class TestAggregatedViews:
    def test_prometheus_text_has_one_label_set_per_tenant(self):
        registry = make_registry()
        for name in ("a", "b"):
            feed(registry.get_or_create(name))
        text = registry.prometheus_text()
        assert 'repro_live_bps{tenant="a",scope="cumulative"}' in text
        assert 'repro_live_bps{tenant="b",scope="cumulative"}' in text
        assert 'repro_anomalies_total{tenant="a"} 0' in text

    def test_file_and_scrape_expositions_identical(self, tmp_path):
        prom = tmp_path / "serve.prom"
        registry = make_registry(prom_out=str(prom))
        for name in ("a", "b"):
            feed(registry.get_or_create(name))
        text = registry.prometheus_text()
        registry.write_prom_file()
        # Identical by construction: both render through
        # format_prometheus over the same tenant states.
        assert prom.read_text() == registry.prometheus_text()
        assert text == format_prometheus(
            [registry.tenants[n].prom_state() for n in ("a", "b")])

    def test_statuses_payload_is_json_clean(self):
        registry = make_registry()
        feed(registry.get_or_create("a"))
        payload = registry.statuses()
        parsed = json.loads(json.dumps(payload))
        assert parsed["counters"]["tenants_created"] == 1
        assert parsed["counters"]["tenants_active"] == 1
        assert parsed["tenants"][0]["tenant"] == "a"

    def test_out_dir_gets_per_tenant_jsonl(self, tmp_path):
        out = tmp_path / "events"
        registry = make_registry(out_dir=str(out))
        tenant = registry.get_or_create("a")
        feed(tenant)
        tenant.end()
        lines = [json.loads(line) for line in
                 (out / "a.jsonl").read_text().splitlines()]
        assert lines[-1]["type"] == "final"
        assert lines[-1]["ops"] == 20
