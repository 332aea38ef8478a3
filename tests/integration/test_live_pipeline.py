"""Live pipeline end to end: tap passivity, streamed==batch, crash flags.

The subsystem's acceptance criteria in one place:

- tapping a simulated run changes nothing — the tapped run is
  bit-identical to the untapped twin (the tap is a pure observer);
- the final cumulative streamed BPS equals the batch
  :func:`~repro.core.metrics.compute_metrics` **bit-identically** on a
  corpus of traces covering every producer we have, including
  shuffled (out-of-order) delivery;
- during a fault-plan server crash the anomaly detector flags at least
  one window overlapping the crash, while the fault-free twin of the
  same run flags none.
"""

import random

import pytest

from repro.core.metrics import compute_metrics
from repro.core.records import TraceCollection
from repro.faults.plan import SERVER_CRASH, FaultEvent, FaultPlan
from repro.live import BpsAnomalyDetector, LiveTap, MetricStream, watch_trace
from repro.middleware.retry import RetryPolicy
from repro.system import SystemConfig
from repro.util.units import KiB
from repro.workloads.base import run_workload
from repro.workloads.hotspot import HotSpotWorkload
from repro.workloads.iozone import IOzoneWorkload
from repro.workloads.ior import IORWorkload

CRASH_AT, CRASH_FOR = 0.08, 0.1


def crash_config(fault=True):
    """A 3-server PVFS stalled by a mid-run crash (no failover path)."""
    plan = FaultPlan((FaultEvent(kind=SERVER_CRASH, target="server0",
                                 at=CRASH_AT, duration=CRASH_FOR),))
    return SystemConfig(
        kind="pfs", n_servers=3, device_spec="sata-hdd-7200",
        replication=1, fault_plan=plan if fault else None,
        seed=20130520,
        retry_policy=RetryPolicy(max_retries=6, backoff_base_s=0.004,
                                 failover=False),
    )


def hot_workload():
    return HotSpotWorkload(ops_per_proc=48, nproc=4, hot_server=0)


def tapped_run(workload, config, *, window=0.02, detector=None,
               **tap_kwargs):
    holder = {}

    def attach(system):
        holder["tap"] = LiveTap(system, window=window,
                                heartbeat_s=window, detector=detector,
                                **tap_kwargs)

    measurement = run_workload(workload, config, on_system=attach)
    result = holder["tap"].result(exec_time=measurement.exec_time)
    return measurement, result


def record_tuples(trace):
    return [(r.pid, r.op, r.file, r.offset, r.nbytes, r.start, r.end,
             r.success, r.retries) for r in trace]


class TestTapPassivity:
    def test_tapped_run_bit_identical_to_untapped(self):
        untapped = run_workload(hot_workload(), crash_config())
        tapped, _ = tapped_run(hot_workload(), crash_config())
        assert tapped.exec_time == untapped.exec_time
        assert tapped.fs_bytes == untapped.fs_bytes
        assert record_tuples(tapped.trace) == \
            record_tuples(untapped.trace)

    def test_streamed_metrics_match_measurement(self):
        measurement, result = tapped_run(hot_workload(), crash_config())
        batch = measurement.metrics()
        assert result.metrics.bps == batch.bps
        assert result.metrics.iops == batch.iops
        assert result.metrics.union_io_time == batch.union_io_time
        assert result.metrics.exec_time == batch.exec_time

    def test_pfs_run_gets_server_breakdown(self):
        _, result = tapped_run(hot_workload(), crash_config())
        servers = {g.key for g in result.breakdowns["server"]}
        assert {"server0", "server1", "server2"} <= servers
        assert sum(g.ops for g in result.breakdowns["server"]) == \
            result.metrics.app_ops


def corpus():
    """Traces from every producer: simulations, faults, local and PFS."""
    runs = {
        "iozone-local": run_workload(
            IOzoneWorkload(file_size=256 * KiB, record_size=32 * KiB,
                           nproc=2, mode="throughput"),
            SystemConfig(kind="local", device_spec="sata-ssd",
                         seed=7)),
        "ior-pfs": run_workload(
            IORWorkload(file_size=256 * KiB, transfer_size=64 * KiB,
                        nproc=2),
            SystemConfig(kind="pfs", n_servers=3,
                         device_spec="sata-hdd-7200", seed=11)),
        "hotspot-crash": run_workload(hot_workload(), crash_config()),
    }
    return {name: m.trace for name, m in runs.items()}


class TestStreamedEqualsBatchOnCorpus:
    @pytest.fixture(scope="class")
    def traces(self):
        return corpus()

    def test_watch_trace_bit_identical(self, traces):
        for name, trace in traces.items():
            result = watch_trace(trace, bins=12)
            first, last = trace.span()
            batch = compute_metrics(trace, exec_time=last - first,
                                    block_size=512)
            assert result.metrics.bps == batch.bps, name
            assert result.metrics.iops == batch.iops, name
            assert result.metrics.bandwidth == batch.bandwidth, name
            assert result.metrics.union_io_time == \
                batch.union_io_time, name
            assert result.metrics.app_blocks == batch.app_blocks, name

    def test_shuffled_delivery_within_reorder_bound(self, traces):
        for name, trace in traces.items():
            records = list(trace)
            random.Random(13).shuffle(records)
            stream = MetricStream(window=0.02, block_size=512)
            for record in records:
                stream.ingest(record)
            result = stream.finalize()
            first, last = trace.span()
            batch = compute_metrics(trace, exec_time=last - first,
                                    block_size=512)
            assert result.metrics.bps == batch.bps, name
            assert result.metrics.union_io_time == \
                batch.union_io_time, name

    def test_windowed_mass_conserved(self, traces):
        for name, trace in traces.items():
            result = watch_trace(trace, bins=10)
            assert sum(w.blocks for w in result.windows) == \
                pytest.approx(result.metrics.app_blocks,
                              rel=1e-9), name
            assert sum(w.io_time for w in result.windows) == \
                pytest.approx(result.metrics.union_io_time,
                              rel=1e-9), name


class TestCrashDetection:
    def detector(self):
        return BpsAnomalyDetector(drop_factor=4.0, history=8,
                                  min_history=3)

    def test_crash_window_flagged(self):
        _, result = tapped_run(hot_workload(), crash_config(),
                               detector=self.detector())
        assert result.anomalies, "crash run produced no anomalies"
        hits = [a for a in result.anomalies
                if a.overlaps(CRASH_AT, CRASH_AT + CRASH_FOR)]
        assert hits, (
            "no anomaly overlaps the crash window "
            f"[{CRASH_AT}, {CRASH_AT + CRASH_FOR}): "
            f"{[(a.window_start, a.window_end) for a in result.anomalies]}")

    def test_fault_free_twin_flags_nothing(self):
        _, result = tapped_run(hot_workload(), crash_config(fault=False),
                               detector=self.detector())
        assert result.anomalies == ()

    def test_anomaly_events_reach_sinks(self):
        from repro.live import MemorySink
        sink = MemorySink()
        _, result = tapped_run(hot_workload(), crash_config(),
                               detector=self.detector(), sinks=[sink])
        assert len(sink.of_type("anomaly")) == len(result.anomalies)


class TestReplayedTraceRoundTrip:
    def test_jsonl_round_trip_streams_identically(self, tmp_path):
        from repro.trace_io import read_jsonl_trace, write_jsonl_trace
        measurement = run_workload(hot_workload(), crash_config())
        path = tmp_path / "run.jsonl"
        write_jsonl_trace(measurement.trace, path)
        loaded = read_jsonl_trace(path)
        direct = watch_trace(measurement.trace, bins=8)
        round_tripped = watch_trace(loaded, bins=8)
        assert round_tripped.metrics.bps == direct.metrics.bps
        assert round_tripped.metrics.union_io_time == \
            direct.metrics.union_io_time
