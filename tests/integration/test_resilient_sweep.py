"""Resilient execution end-to-end: the PR's acceptance scenarios.

1. Kill a worker mid-sweep (chaos hook) — the sweep completes and its
   analysis is bit-identical to an undisturbed serial run.
2. Interrupt a checkpointed sweep partway, resume it — the final
   analysis is identical and only the incomplete jobs re-run.
3. Tear the journal's trailing line (crash mid-append) — resume still
   works, losing at most the torn entry.
"""

import pytest

from repro.errors import CheckpointError
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.supervisor import SupervisorPolicy, fork_available
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentScale,
    SweepSpec,
    run_sweep,
)
from repro.system import SystemConfig
from repro.util.units import KiB, MiB
from repro.workloads.iozone import IOzoneWorkload


def make_spec():
    config = SystemConfig(kind="local", jitter_sigma=0.1)
    points = []
    for record in (64 * KiB, 128 * KiB, 256 * KiB):
        def make(_record=record):
            return IOzoneWorkload(file_size=1 * MiB,
                                  record_size=_record)
        points.append((str(record), make, config))
    return SweepSpec(knob="record", points=points)


def metric_tuples(sweep):
    return [
        (m.iops, m.bandwidth, m.arpt, m.bps, m.exec_time,
         m.union_io_time, m.app_ops, m.app_blocks, m.fs_bytes)
        for _label, reps in sweep._points for m in reps
    ]


SCALE = ExperimentScale(repetitions=2)


@pytest.mark.skipif(not fork_available(),
                    reason="needs the fork start method")
class TestChaosSweep:
    def test_sweep_survives_worker_kill_bit_identically(self, monkeypatch):
        serial = run_sweep(make_spec(), SCALE, workers=1)
        # Kill the worker running job 1 and crash job 4's first attempt.
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "1:exit,4:raise")
        chaotic = run_sweep(make_spec(), SCALE, workers=2)
        assert metric_tuples(chaotic) == metric_tuples(serial)
        assert chaotic.supervision.crashes == 1
        assert chaotic.supervision.job_errors == 1
        assert chaotic.supervision.total_retries == 2


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_identically(self, tmp_path,
                                                   monkeypatch):
        serial = run_sweep(make_spec(), SCALE, workers=1)
        path = tmp_path / "sweep.ckpt.jsonl"

        # Interrupt the first (serial, checkpointed) run after 3 jobs.
        real_run_job = runner_module._run_job
        calls = {"n": 0}

        def interrupting(spec, job):
            if calls["n"] == 3:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_run_job(spec, job)

        monkeypatch.setattr(runner_module, "_run_job", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(make_spec(), SCALE, workers=1,
                      checkpoint=path)
        monkeypatch.setattr(runner_module, "_run_job", real_run_job)

        journal = CheckpointJournal(path)
        assert len(journal) == 3
        assert not journal.finalized
        journal.close()

        # Resume: only the remaining jobs run, result is identical.
        reran = {"n": 0}

        def counting(spec, job):
            reran["n"] += 1
            return real_run_job(spec, job)

        monkeypatch.setattr(runner_module, "_run_job", counting)
        resumed = run_sweep(make_spec(), SCALE, workers=1,
                            checkpoint=path)
        assert metric_tuples(resumed) == metric_tuples(serial)
        assert reran["n"] == 3 * SCALE.repetitions - 3

        # A second resume of the finalized journal re-runs nothing.
        reran["n"] = 0
        replayed = run_sweep(make_spec(), SCALE, workers=1,
                             checkpoint=path)
        assert reran["n"] == 0
        assert metric_tuples(replayed) == metric_tuples(serial)

    def test_torn_journal_tail_resumes(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.ckpt.jsonl"
        run_sweep(make_spec(), SCALE, workers=1, checkpoint=path)
        serial = run_sweep(make_spec(), SCALE, workers=1)

        # Drop the final marker and tear the last entry, as a crash
        # mid-append would.
        lines = path.read_text().splitlines()
        assert '"kind": "final"' in lines[-1]
        torn = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
        path.write_text("\n".join(torn) + "\n")

        resumed = run_sweep(make_spec(), SCALE, workers=1,
                            checkpoint=path)
        assert metric_tuples(resumed) == metric_tuples(serial)

    def test_checkpoint_refuses_a_different_sweep(self, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        run_sweep(make_spec(), SCALE, workers=1, checkpoint=path)
        other_scale = ExperimentScale(repetitions=3)
        with pytest.raises(CheckpointError, match="different run"):
            run_sweep(make_spec(), other_scale, workers=1,
                      checkpoint=path)

    @pytest.mark.skipif(not fork_available(),
                        reason="needs the fork start method")
    def test_pooled_checkpointed_chaotic_run_matches_serial(
            self, tmp_path, monkeypatch):
        serial = run_sweep(make_spec(), SCALE, workers=1)
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "2:exit")
        path = tmp_path / "sweep.ckpt.jsonl"
        chaotic = run_sweep(make_spec(), SCALE,
                            workers=2, checkpoint=path,
                            policy=SupervisorPolicy(max_retries=2))
        assert metric_tuples(chaotic) == metric_tuples(serial)
        journal = CheckpointJournal(path)
        assert journal.finalized
        assert len(journal) == 3 * SCALE.repetitions
        journal.close()
