"""Attributor: diff rules on synthetic graphs, plus the seeded
fault-class sweep (precision / recall against FaultPlan ground truth).
"""

from types import SimpleNamespace

import pytest

from repro.core.records import IORecord
from repro.diagnose import (
    FAULT_KIND_SUSPECTS,
    LINK_DEGRADE,
    SERVER_DEGRADE,
    SERVER_STALL,
    WINDOW_STALL,
    Attributor,
    DiagnoseError,
    Suspect,
    ranked_suspects,
    stripe_server_of,
)
from repro.live.anomaly import Anomaly, BpsAnomalyDetector
from repro.live.chunk import RecordChunk

WINDOW = 0.1
OFFSETS = (0, 65536, 131072)  # server0..server2 under 64 KiB stripes


def feed(att, records):
    att.add_chunk(RecordChunk.from_records(records))


def stats_for(index, io_time=0.06):
    return SimpleNamespace(index=index, start=index * WINDOW,
                           end=(index + 1) * WINDOW, io_time=io_time)


def flag_for(index):
    return Anomaly(kind="bps-drop", window_index=index,
                   window_start=index * WINDOW,
                   window_end=(index + 1) * WINDOW,
                   bps=10.0, baseline=100.0, severity=10.0)


def healthy_records(index, dur=0.01):
    """Two pids, one op per server each, baseline-grade latency."""
    w0 = index * WINDOW
    out = []
    for pid in (0, 1):
        for k, offset in enumerate(OFFSETS):
            start = w0 + 0.02 * k + 0.005 * pid
            out.append(IORecord(pid=pid, op="read", nbytes=4096,
                                start=start, end=start + dur,
                                offset=offset))
    return out


def warmed_attributor(n_healthy=5, **kwargs):
    kwargs.setdefault("window", WINDOW)
    kwargs.setdefault("origin", 0.0)
    kwargs.setdefault("server_of", stripe_server_of(3))
    att = Attributor(**kwargs)
    for i in range(n_healthy):
        feed(att, healthy_records(i))
        assert att.observe_window(stats_for(i), None) == ()
    return att


class TestConfig:
    def test_bad_history_rejected(self):
        with pytest.raises(DiagnoseError):
            Attributor(window=WINDOW, history=2, min_history=3)

    @pytest.mark.parametrize("kwargs", [
        {"latency_factor": 1.0},
        {"concentration": 0.9},
        {"stall_span": 0.0},
        {"stall_span": 1.5},
    ])
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(DiagnoseError):
            Attributor(window=WINDOW, **kwargs)

    def test_for_detector_mirrors_learning_horizon(self):
        detector = BpsAnomalyDetector(history=6, min_history=2)
        att = Attributor.for_detector(detector, window=WINDOW)
        assert att._baseline.maxlen == 6
        assert att.min_history == 2


class TestDiffRules:
    def test_warmup_flag_yields_no_suspects(self):
        att = warmed_attributor(n_healthy=1)
        feed(att, healthy_records(1))
        assert att.observe_window(stats_for(1), flag_for(1)) == ()

    def test_slow_server_becomes_server_degrade(self):
        att = warmed_attributor()
        w0 = 5 * WINDOW
        records = []
        for pid in (0, 1):
            records.append(IORecord(pid=pid, op="read", nbytes=4096,
                                    start=w0 + 0.005 * pid,
                                    end=w0 + 0.005 * pid + 0.05,
                                    offset=0))
            for k, offset in enumerate(OFFSETS[1:], start=1):
                start = w0 + 0.02 * k + 0.005 * pid
                records.append(IORecord(pid=pid, op="read", nbytes=4096,
                                        start=start, end=start + 0.01,
                                        offset=offset))
        feed(att, records)
        suspects = att.observe_window(stats_for(5), flag_for(5))
        assert suspects
        top = suspects[0]
        assert (top.kind, top.target) == (SERVER_DEGRADE, "server0")
        assert "5.0x baseline" in top.evidence

    def test_window_scale_hold_becomes_link_degrade(self):
        att = warmed_attributor()
        w0 = 5 * WINDOW
        records = []
        for pid in (0, 1):
            # 15x baseline, zero failures: parked at the wire, not
            # queued at the device.
            records.append(IORecord(pid=pid, op="read", nbytes=4096,
                                    start=w0 + 0.005 * pid,
                                    end=w0 + 0.005 * pid + 0.15,
                                    offset=0))
            for k, offset in enumerate(OFFSETS[1:], start=1):
                start = w0 + 0.02 * k + 0.005 * pid
                records.append(IORecord(pid=pid, op="read", nbytes=4096,
                                        start=start, end=start + 0.01,
                                        offset=offset))
        feed(att, records)
        suspects = att.observe_window(stats_for(5), flag_for(5))
        top = suspects[0]
        assert (top.kind, top.target) == (LINK_DEGRADE, "server0")

    def test_concentrated_failures_become_server_stall(self):
        att = warmed_attributor()
        w0 = 5 * WINDOW
        records = [IORecord(pid=0, op="read", nbytes=4096,
                            start=w0 + 0.01 * i, end=w0 + 0.01 * i + 0.001,
                            offset=0, success=False, retries=2)
                   for i in range(3)]
        for pid in (0, 1):
            for k, offset in enumerate(OFFSETS[1:], start=1):
                start = w0 + 0.02 * k + 0.005 * pid
                records.append(IORecord(pid=pid, op="read", nbytes=4096,
                                        start=start, end=start + 0.01,
                                        offset=offset))
        feed(att, records)
        suspects = att.observe_window(stats_for(5), flag_for(5))
        top = suspects[0]
        assert (top.kind, top.target) == (SERVER_STALL, "server0")
        assert top.score > 100.0  # outranks every latency-shift rule

    def test_empty_window_falls_back_to_window_stall(self):
        att = warmed_attributor()
        suspects = att.observe_window(stats_for(5, io_time=0.0),
                                      flag_for(5))
        assert [s.kind for s in suspects] == [WINDOW_STALL]

    def test_failure_burst_never_joins_the_baseline(self):
        att = warmed_attributor()
        before = len(att._baseline)
        w0 = 5 * WINDOW
        feed(att, [IORecord(pid=0, op="read", nbytes=4096,
                            start=w0 + 0.005 * i,
                            end=w0 + 0.005 * i + 0.0005,
                            offset=0, success=False, retries=1)
                   for i in range(10)])
        # Detector silent (fail-fast storms RAISE windowed BPS), but
        # the window must not poison later diffs.
        att.observe_window(stats_for(5), None)
        assert len(att._baseline) == before


class TestRanking:
    def test_ranked_suspects_merges_and_sorts(self):
        a = Suspect(kind=SERVER_DEGRADE, target="server1", score=17.0,
                    evidence="slow")
        b = Suspect(kind=SERVER_STALL, target="server0", score=103.0,
                    evidence="dead")
        first = Anomaly(kind="bps-drop", window_index=5,
                        window_start=0.5, window_end=0.6, bps=10.0,
                        baseline=100.0, severity=10.0, suspects=(a,))
        second = Anomaly(kind="bps-drop", window_index=6,
                         window_start=0.6, window_end=0.7, bps=10.0,
                         baseline=100.0, severity=10.0, suspects=(b,))
        assert ranked_suspects([first, second]) == (b, a)

    def test_suspect_event_is_json_safe(self):
        import json
        s = Suspect(kind=SERVER_STALL, target="server0", score=103.0,
                    evidence="dead")
        event = json.loads(json.dumps(s.as_event()))
        assert event["kind"] == SERVER_STALL
        assert event["target"] == "server0"
        assert event["score"] == 103.0


# --------------------------------------------------------------------------
# Seeded fault-class sweep: FaultPlan is ground truth.  Parameters are
# frozen from the tuning sweep (window 0.02 s, 3-server PFS on
# sata-hdd-7200, fault at 0.16 s for 0.08 s); the watermark lag must
# exceed the longest in-flight request, so the straggler case — whose
# held op spans the whole fault (~0.33 s) — uses 0.4 s.
# --------------------------------------------------------------------------

from repro.faults.plan import (  # noqa: E402
    DEVICE_DEGRADE,
    LINK_DOWN,
    SERVER_CRASH,
    STRAGGLER,
    FaultEvent,
    FaultPlan,
)
from repro.live import LiveTap  # noqa: E402
from repro.middleware.retry import RetryPolicy  # noqa: E402
from repro.system import SystemConfig  # noqa: E402
from repro.util.units import KiB, MiB  # noqa: E402
from repro.workloads.base import run_workload  # noqa: E402
from repro.workloads.synthetic import RandomAccessWorkload  # noqa: E402

SWEEP_WINDOW = 0.02
FAULT_AT, FAULT_FOR = 0.16, 0.08
SEEDS = (11, 41)

SWEEP_CASES = {
    SERVER_CRASH: dict(
        event=FaultEvent(kind=SERVER_CRASH, target="server0",
                         at=FAULT_AT, duration=FAULT_FOR)),
    DEVICE_DEGRADE: dict(
        event=FaultEvent(kind=DEVICE_DEGRADE, target="server0.disk",
                         at=FAULT_AT, duration=FAULT_FOR, factor=5.0),
        drop_factor=2.0),
    LINK_DOWN: dict(
        event=FaultEvent(kind=LINK_DOWN, target="server0",
                         at=FAULT_AT, duration=FAULT_FOR)),
    STRAGGLER: dict(
        event=FaultEvent(kind=STRAGGLER, target="1", at=FAULT_AT,
                         duration=0.24, factor=32.0),
        nproc=2, drop_factor=1.6, lag=0.4),
}


def sweep_run(event, seed, *, nproc=4, drop_factor=2.5, lag=0.2):
    workload = RandomAccessWorkload(file_size=8 * MiB, io_size=4 * KiB,
                                    ops_per_proc=128, nproc=nproc)
    plan = FaultPlan((event,)) if event is not None else None
    cfg = SystemConfig(kind="pfs", n_servers=3,
                       device_spec="sata-hdd-7200", replication=1,
                       fault_plan=plan, seed=seed,
                       retry_policy=RetryPolicy(max_retries=6,
                                                backoff_base_s=0.004,
                                                failover=False))
    detector = BpsAnomalyDetector(drop_factor=drop_factor, history=8,
                                  min_history=3)
    holder = {}

    def attach(system):
        holder["tap"] = LiveTap(system, window=SWEEP_WINDOW,
                                heartbeat_s=SWEEP_WINDOW,
                                detector=detector, attribute=True,
                                watermark_lag=lag)

    metrics = run_workload(workload, cfg, on_system=attach)
    return holder["tap"].result(exec_time=metrics.exec_time)


@pytest.fixture(scope="module")
def sweep_verdicts():
    """fault kind -> list of top suspects (one per seed)."""
    verdicts = {}
    for kind, case in SWEEP_CASES.items():
        kwargs = {k: v for k, v in case.items() if k != "event"}
        tops = []
        for seed in SEEDS:
            result = sweep_run(case["event"], seed, **kwargs)
            suspects = ranked_suspects(result.anomalies)
            tops.append(suspects[0] if suspects else None)
        verdicts[kind] = tops
    return verdicts


class TestSweep:
    def test_top1_precision_at_least_0_8(self, sweep_verdicts):
        total = hits = 0
        for kind, tops in sweep_verdicts.items():
            for top in tops:
                total += 1
                hits += (top is not None
                         and top.kind in FAULT_KIND_SUSPECTS[kind])
        assert hits / total >= 0.8, sweep_verdicts

    @pytest.mark.parametrize("kind", sorted(SWEEP_CASES))
    def test_per_class_recall_floor(self, sweep_verdicts, kind):
        tops = sweep_verdicts[kind]
        hits = sum(1 for top in tops
                   if top is not None
                   and top.kind in FAULT_KIND_SUSPECTS[kind])
        assert hits / len(tops) >= 0.5, tops

    def test_crash_suspect_names_the_crashed_server(self, sweep_verdicts):
        for top in sweep_verdicts[SERVER_CRASH]:
            assert top is not None and top.target == "server0"

    @pytest.mark.parametrize("nproc,drop_factor,lag",
                             [(4, 2.5, 0.2), (4, 2.0, 0.2),
                              (2, 1.6, 0.4)])
    def test_fault_free_twin_has_zero_suspects(self, nproc,
                                               drop_factor, lag):
        result = sweep_run(None, 11, nproc=nproc,
                           drop_factor=drop_factor, lag=lag)
        assert not result.anomalies
        assert ranked_suspects(result.anomalies) == ()
