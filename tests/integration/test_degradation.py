"""Graceful degradation end-to-end: faulted runs finish, reproducibly.

The robustness acceptance criteria in one place: a crash window against
one PVFS server with failover enabled completes the workload with the
recovery traffic visible; fixed-seed faulted runs are bit-identical
(serial or parallel); and the set-6 fault sweep shows BPS correlating
with execution time more strongly than bandwidth and IOPS.
"""

import pytest

from repro.experiments.runner import ExperimentScale, run_sweep
from repro.experiments.set6 import (
    build_sweep,
    compare_policies,
    fault_plan,
    point_config,
    run_set6,
)
from repro.faults.plan import SERVER_CRASH, FaultEvent, FaultPlan
from repro.middleware.retry import RetryPolicy
from repro.system import SystemConfig
from repro.workloads.hotspot import HotSpotWorkload
from repro.workloads.base import run_workload


def crash_config(**overrides) -> SystemConfig:
    """A 3-server PVFS whose server0 crashes mid-run."""
    plan = FaultPlan((FaultEvent(kind=SERVER_CRASH, target="server0",
                                 at=0.02, duration=0.1),))
    settings = dict(
        kind="pfs", n_servers=3, device_spec="sata-hdd-7200",
        replication=2, fault_plan=plan, seed=20130520,
        retry_policy=RetryPolicy(max_retries=4, backoff_base_s=0.001,
                                 failover=True),
    )
    settings.update(overrides)
    return SystemConfig(**settings)


def record_tuples(trace):
    return [(r.pid, r.op, r.file, r.offset, r.nbytes, r.start, r.end,
             r.success, r.retries) for r in trace]


class TestCrashFailover:
    def workload(self):
        return HotSpotWorkload(ops_per_proc=24, nproc=2, hot_server=0)

    def test_crashed_server_with_failover_completes(self):
        measurement = run_workload(self.workload(), crash_config())
        # Every op completed: nothing gave up, every record successful.
        assert measurement.extras["retry"]["giveups"] == 0
        assert all(r.success for r in measurement.trace)
        # The crash actually happened and the replica absorbed it.
        servers = {s["name"]: s for s in measurement.extras["servers"]}
        assert servers["server0"]["crashes"] == 1
        assert servers["server0"]["requests_failed"] > 0
        assert measurement.extras["pfs_failovers"] > 0

    def test_recovery_traffic_visible_in_trace_totals(self):
        faulted = run_workload(self.workload(), crash_config())
        healthy = run_workload(self.workload(),
                               crash_config(fault_plan=None))
        # Failover redirections cost extra wire exchanges, so the same
        # demand takes longer under the crash...
        assert faulted.exec_time > healthy.exec_time
        # ...while the application's demand (ops, bytes) is unchanged.
        assert len(faulted.trace) == len(healthy.trace)
        metrics = faulted.metrics()
        assert metrics.bps < healthy.metrics().bps

    def test_without_recovery_ops_fail_but_run_survives(self):
        config = crash_config(retry_policy=None, replication=1)
        measurement = run_workload(self.workload(), config)
        failed = [r for r in measurement.trace if not r.success]
        assert failed, "crash window produced no failed accesses"
        # Failed accesses still count toward B (paper section III.A).
        assert measurement.metrics().app_blocks > 0

    def test_retries_column_records_attempt_indices(self):
        config = crash_config(replication=1, retry_policy=RetryPolicy(
            max_retries=4, backoff_base_s=0.001, failover=False))
        measurement = run_workload(self.workload(), config)
        assert measurement.trace.total_retries() > 0
        retried = [r for r in measurement.trace if r.retries > 0]
        assert retried
        # Attempt indices are dense per retried op: a record with
        # retries=k implies sibling records with 0..k-1 at that offset.
        sample = retried[0]
        siblings = [r.retries for r in measurement.trace
                    if (r.pid, r.file, r.offset) ==
                    (sample.pid, sample.file, sample.offset)]
        assert set(range(sample.retries + 1)) <= set(siblings)


class TestFaultedDeterminism:
    def test_fixed_seed_faulted_runs_bit_identical(self):
        first = run_workload(HotSpotWorkload(ops_per_proc=16, nproc=2),
                             crash_config())
        second = run_workload(HotSpotWorkload(ops_per_proc=16, nproc=2),
                              crash_config())
        assert first.exec_time == second.exec_time
        assert first.fs_bytes == second.fs_bytes
        assert record_tuples(first.trace) == record_tuples(second.trace)
        assert first.extras["retry"] == second.extras["retry"]

    def test_fault_plumbing_leaves_healthy_rng_untouched(self):
        # A faulted config and its fault-free twin must draw identical
        # device/workload streams: fault streams spawn after the build.
        workload = HotSpotWorkload(ops_per_proc=16, nproc=2)
        healthy = run_workload(workload, crash_config(
            fault_plan=None, retry_policy=None, replication=1))
        baseline = run_workload(
            HotSpotWorkload(ops_per_proc=16, nproc=2),
            SystemConfig(kind="pfs", n_servers=3,
                         device_spec="sata-hdd-7200", seed=20130520))
        assert healthy.exec_time == baseline.exec_time
        assert record_tuples(healthy.trace) == \
            record_tuples(baseline.trace)

    def test_faulted_sweep_serial_matches_parallel(self):
        scale = ExperimentScale(factor=0.25, repetitions=2)
        spec = build_sweep(scale)
        serial = run_sweep(spec, scale, workers=1)
        parallel = run_sweep(spec, scale, workers=2)
        for ser, par in zip(serial.averaged(), parallel.averaged()):
            assert ser.bps == par.bps
            assert ser.exec_time == par.exec_time
            assert ser.bandwidth == par.bandwidth


class TestSet6Regime:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_set6(smoke=True)

    def test_execution_time_degrades_with_severity(self, sweep):
        times = [m.exec_time for m in sweep.averaged()]
        assert times[-1] > 2 * times[0]

    def test_bps_outcorrelates_bandwidth_and_iops(self, sweep):
        table = sweep.correlations()
        assert abs(table["BPS"].cc) > abs(table["BW"].cc)
        assert abs(table["BPS"].cc) > abs(table["IOPS"].cc)
        assert table["BPS"].direction_correct

    def test_attempt_inflation_is_the_iops_corruptor(self, sweep):
        ops = [m.app_ops for m in sweep.averaged()]
        assert ops[-1] > 1.5 * ops[0]

    def test_fault_plan_covers_multiple_layers(self):
        plan = fault_plan(1.0)
        kinds = {event.kind for event in plan}
        assert len(kinds) >= 4
        assert SERVER_CRASH in kinds

    def test_point_config_healthy_at_zero_severity(self):
        config = point_config(0.0)
        assert config.fault_plan is None
        assert config.fault_probability == 0.0


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return compare_policies(ExperimentScale(factor=0.25,
                                                repetitions=2))

    def test_covers_the_policy_ladder(self, rows):
        assert set(rows) == {"no-retry", "retry", "retry+failover"}

    def test_recovery_reduces_giveups(self, rows):
        assert rows["no-retry"]["giveups"] > rows["retry"]["giveups"] \
            >= rows["retry+failover"]["giveups"] == 0

    def test_failover_redirects_instead_of_retrying(self, rows):
        assert rows["retry+failover"]["failovers"] > 0
        assert rows["retry+failover"]["retries"] < rows["retry"]["retries"]
