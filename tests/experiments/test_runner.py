"""Sweep runner: scaling, repetitions, seeds."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentScale, SweepSpec, run_sweep
from repro.system import SystemConfig
from repro.util.units import KiB, MiB
from repro.workloads.iozone import IOzoneWorkload


class TestScale:
    def test_size_scaling_respects_granule(self):
        scale = ExperimentScale(factor=0.5)
        assert scale.size(16 * MiB, granule=1 * MiB) == 8 * MiB
        # Scaled value floors to the granule: 5000 -> 4096.
        assert scale.size(10000, granule=4096) == 4096

    def test_size_never_below_granule(self):
        scale = ExperimentScale(factor=0.001)
        assert scale.size(1 * MiB, granule=64 * KiB) == 64 * KiB

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentScale(factor=0)
        for factor in (float("nan"), float("inf")):
            with pytest.raises(ExperimentError):
                ExperimentScale(factor=factor)
        with pytest.raises(ExperimentError):
            ExperimentScale(repetitions=0)


class TestSweep:
    def make_spec(self):
        config = SystemConfig(kind="local", jitter_sigma=0.1)
        points = []
        for record in (64 * KiB, 256 * KiB):
            def make(_record=record):
                return IOzoneWorkload(file_size=1 * MiB,
                                      record_size=_record)
            points.append((str(record), make, config))
        return SweepSpec(knob="record", points=points)

    def test_runs_all_points_and_reps(self):
        scale = ExperimentScale(repetitions=3)
        sweep = run_sweep(self.make_spec(), scale)
        assert sweep.labels == ["65536", "262144"]
        assert len(sweep._points[0][1]) == 3

    def test_repetitions_use_distinct_seeds(self):
        scale = ExperimentScale(repetitions=3)
        sweep = run_sweep(self.make_spec(), scale)
        times = [m.exec_time for m in sweep._points[0][1]]
        assert len(set(times)) == 3  # jitter + distinct seeds

    def test_deterministic_given_same_scale(self):
        scale = ExperimentScale(repetitions=2)
        first = run_sweep(self.make_spec(), scale)
        second = run_sweep(self.make_spec(), scale)
        assert [m.exec_time for m in first.averaged()] == \
            [m.exec_time for m in second.averaged()]

    def test_single_point_sweep_rejected(self):
        config = SystemConfig(kind="local")
        with pytest.raises(ExperimentError):
            SweepSpec(knob="x", points=[
                ("only", lambda: IOzoneWorkload(), config)])


def _metric_tuples(sweep):
    return [
        (m.iops, m.bandwidth, m.arpt, m.bps, m.exec_time, m.union_io_time,
         m.app_ops, m.app_bytes, m.app_blocks, m.fs_bytes)
        for _label, reps in sweep._points for m in reps
    ]


class TestParallelSweep:
    def make_spec(self):
        config = SystemConfig(kind="local", jitter_sigma=0.1)
        points = []
        for record in (64 * KiB, 256 * KiB):
            def make(_record=record):
                return IOzoneWorkload(file_size=1 * MiB,
                                      record_size=_record)
            points.append((str(record), make, config))
        return SweepSpec(knob="record", points=points)

    def test_parallel_matches_serial_exactly(self):
        scale = ExperimentScale(repetitions=2)
        serial = run_sweep(self.make_spec(), scale, workers=1)
        parallel = run_sweep(self.make_spec(), scale, workers=2)
        assert serial.labels == parallel.labels
        assert _metric_tuples(serial) == _metric_tuples(parallel)

    def test_workers_one_is_the_serial_loop(self):
        scale = ExperimentScale(repetitions=2)
        sweep = run_sweep(self.make_spec(), scale, workers=1)
        assert len(sweep._points[0][1]) == 2
        assert sweep.supervision.backend == "serial"

    def test_env_override_resolves_workers(self, monkeypatch):
        from repro.experiments.runner import resolve_workers
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(5) == 5  # explicit argument wins
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            resolve_workers()

    def test_env_nonpositive_clamps_with_warning(self, monkeypatch):
        # A bad site-wide env var degrades to serial, never aborts.
        from repro.experiments.runner import resolve_workers
        for bad in ("0", "-4"):
            monkeypatch.setenv("REPRO_SWEEP_WORKERS", bad)
            with pytest.warns(RuntimeWarning, match="clamping to 1"):
                assert resolve_workers() == 1

    def test_explicit_nonpositive_workers_still_raises(self):
        from repro.experiments.runner import resolve_workers
        with pytest.raises(ExperimentError):
            resolve_workers(0)
        with pytest.raises(ExperimentError):
            resolve_workers(-2)

    def test_env_workers_one_disables_parallelism(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        scale = ExperimentScale(repetitions=2)
        sweep = run_sweep(self.make_spec(), scale)
        assert len(sweep._points) == 2
