"""Streaming and offline attribution agree suspect-for-suspect.

The tentpole's parity contract: a live tap during the run and a
post-hoc ``diagnose_trace`` over the same records must produce
IDENTICAL ranked suspects — same kinds, same targets, same scores.
"""

import pytest

from repro.core.records import TraceCollection
from repro.diagnose import diagnose_trace, ranked_suspects, stripe_server_of
from repro.diagnose.attribute import Attributor
from repro.faults.plan import SERVER_CRASH, FaultEvent, FaultPlan
from repro.live import BpsAnomalyDetector, LiveTap, MetricStream
from repro.live.replay import watch_trace
from repro.middleware.retry import RetryPolicy
from repro.system import SystemConfig
from repro.util.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.synthetic import RandomAccessWorkload

WINDOW = 0.02
#: Longer than the longest request in the crash run, so no record
#: ever misses its bucket on either path (the exact-parity regime).
LAG = 0.4


def detector():
    return BpsAnomalyDetector(drop_factor=2.5, history=8, min_history=3)


@pytest.fixture(scope="module")
def crash_run():
    """One crashed-server run, observed live AND recorded."""
    workload = RandomAccessWorkload(file_size=8 * MiB, io_size=4 * KiB,
                                    ops_per_proc=128, nproc=4)
    plan = FaultPlan((FaultEvent(kind=SERVER_CRASH, target="server0",
                                 at=0.16, duration=0.08),))
    cfg = SystemConfig(kind="pfs", n_servers=3,
                       device_spec="sata-hdd-7200", replication=1,
                       fault_plan=plan, seed=11,
                       retry_policy=RetryPolicy(max_retries=6,
                                                backoff_base_s=0.004,
                                                failover=False))
    holder = {}
    records = []

    def attach(system):
        system.recorder.subscribe(records.append)
        holder["tap"] = LiveTap(system, window=WINDOW,
                                heartbeat_s=WINDOW,
                                detector=detector(), attribute=True,
                                watermark_lag=LAG)

    metrics = run_workload(workload, cfg, on_system=attach)
    live = holder["tap"].result(exec_time=metrics.exec_time)
    return live, TraceCollection(records), metrics.exec_time


def assert_anomalies_match(got, want):
    """Same flagged windows, identical suspects; the windowed BPS
    figures may differ in float-summation order across ingest paths."""
    assert [a.window_index for a in got] == \
        [a.window_index for a in want]
    for a, b in zip(got, want):
        assert a.suspects == b.suspects
        assert a.bps == pytest.approx(b.bps, rel=1e-6)
        assert a.baseline == pytest.approx(b.baseline, rel=1e-2)


class TestStreamingOfflineParity:
    def test_live_and_posthoc_suspects_identical(self, crash_run):
        live, trace, exec_time = crash_run
        diag = diagnose_trace(trace, window=WINDOW, origin=0.0,
                              detector=detector(),
                              server_of=stripe_server_of(3),
                              watermark_lag=LAG,
                              exec_time=exec_time)
        assert live.anomalies  # the crash must have been flagged
        assert_anomalies_match(live.anomalies, diag.anomalies)
        assert ranked_suspects(live.anomalies) == diag.suspects
        assert diag.top_suspect == ranked_suspects(live.anomalies)[0]

    def test_chunked_replay_matches_per_record(self, crash_run):
        """Record-at-a-time ``ingest`` (what the tap and serve tenants
        do) and the chunked replay flag the same windows with the same
        suspects."""
        _live, trace, exec_time = crash_run
        det = detector()
        stream = MetricStream(
            window=WINDOW, origin=0.0, watermark_lag=LAG, detector=det,
            attributor=Attributor.for_detector(
                det, window=WINDOW, origin=0.0,
                server_of=stripe_server_of(3)))
        for record in sorted(trace, key=lambda r: (r.end, r.start)):
            stream.ingest(record)
            stream.advance_watermark(record.end - LAG)
        by_record = stream.finalize(exec_time=exec_time)
        chunked = watch_trace(trace, window=WINDOW, origin=0.0,
                              detector=detector(), attribute=True,
                              server_of=stripe_server_of(3),
                              watermark_lag=LAG,
                              exec_time=exec_time)
        assert by_record.anomalies
        assert_anomalies_match(by_record.anomalies, chunked.anomalies)

    def test_diagnosis_report_is_json_safe(self, crash_run):
        import json
        _live, trace, exec_time = crash_run
        diag = diagnose_trace(trace, window=WINDOW, origin=0.0,
                              detector=detector(),
                              server_of=stripe_server_of(3),
                              exec_time=exec_time)
        report = json.loads(json.dumps(diag.as_dict()))
        assert report["anomalies"]
        assert report["top_suspect"]["kind"] == \
            diag.top_suspect.kind
        for event in report["anomalies"]:
            # inf never leaks into the JSON payload (satellite: the
            # stalled-severity sentinel).
            assert event["severity"] is None or \
                isinstance(event["severity"], float)
