"""Supervised fork pool: crash isolation, timeouts, retry budget, fallback.

The chaos scenarios fork real workers and kill/hang/crash them, so this
file skips itself entirely on platforms without the ``fork`` start
method.
"""

import pytest

from repro.errors import SupervisionError
from repro.exec import ForkBackend, run_jobs
from repro.exec.supervisor import (
    SupervisionReport,
    SupervisorPolicy,
    fork_available,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method")


def square(job):
    return job * job


def run_pool(jobs, fn, *, workers, policy=None, on_result=None):
    """``jobs`` through ``run_jobs`` on a ``workers``-wide fork pool."""
    report = SupervisionReport(jobs=len(jobs), backend="fork")
    results = run_jobs(ForkBackend(workers), jobs, fn,
                       policy=policy or SupervisorPolicy(),
                       report=report, on_result=on_result)
    return results, report


class TestSerialPaths:
    def test_serial_job_error_wraps_supervision_error(self, monkeypatch):
        # Job 0 kills the only worker and no respawn is allowed, so the
        # pool finishes serially in-process, where job 1 raises.
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "0:exit")

        def boom(job):
            if job == 1:
                raise ValueError("bad job")
            return job
        policy = SupervisorPolicy(max_worker_respawns=0)
        with pytest.raises(SupervisionError,
                           match="failed in serial execution.*bad job"):
            run_pool([0, 1], boom, workers=1, policy=policy)


class TestPool:
    def test_results_in_submission_order(self):
        jobs = list(range(12))
        results, report = run_pool(jobs, square, workers=4)
        assert results == [j * j for j in jobs]
        assert report.jobs == 12
        assert report.pooled == 12
        assert report.crashes == 0

    def test_on_result_sees_every_job_once(self):
        seen = {}

        def on_result(index, payload):
            assert index not in seen
            seen[index] = payload

        results, _ = run_pool(list(range(8)), square, workers=3,
                              on_result=on_result)
        assert seen == {i: results[i] for i in range(8)}

    def test_job_error_is_retried_then_succeeds(self, monkeypatch):
        # Chaos hook: job 1 raises on its first attempt only.
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "1:raise")
        results, report = run_pool(
            list(range(6)), square, workers=2)
        assert results == [j * j for j in range(6)]
        assert report.job_errors == 1
        assert report.retried_jobs == {1: 1}

    def test_worker_crash_is_recovered(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "2:exit")
        results, report = run_pool(
            list(range(6)), square, workers=2)
        assert results == [j * j for j in range(6)]
        assert report.crashes == 1
        assert report.worker_respawns >= 1
        assert report.retried_jobs == {2: 1}

    def test_hung_job_is_reaped_by_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "0:hang")
        policy = SupervisorPolicy(job_timeout=0.5, poll_interval=0.05)
        results, report = run_pool(
            list(range(4)), square, workers=2, policy=policy)
        assert results == [j * j for j in range(4)]
        assert report.timeouts == 1
        assert report.retried_jobs == {0: 1}

    def test_retry_budget_exhaustion_raises(self):
        def always_fails(_job):
            raise RuntimeError("permanently broken")
        policy = SupervisorPolicy(max_retries=1)
        with pytest.raises(SupervisionError,
                           match="failed after 2 attempt"):
            run_pool(list(range(4)), always_fails, workers=2,
                     policy=policy)

    def test_serial_fallback_when_respawn_budget_spent(self, monkeypatch):
        # Every first attempt of jobs 0 and 1 kills its worker, and the
        # respawn budget is zero — the pool empties and the supervisor
        # must finish everything serially in-process.
        monkeypatch.setenv("REPRO_TEST_KILL_JOB", "0:exit,1:exit")
        policy = SupervisorPolicy(max_worker_respawns=0)
        # The chaos hook only fires inside pool workers, so the serial
        # fallback completes the sabotaged jobs cleanly.
        results, report = run_pool(
            list(range(4)), square, workers=2, policy=policy)
        assert results == [j * j for j in range(4)]
        assert report.serial_fallback
        assert report.crashes >= 1


class TestPolicyValidation:
    def test_bad_policy_values_raise(self):
        with pytest.raises(SupervisionError):
            SupervisorPolicy(job_timeout=0)
        with pytest.raises(SupervisionError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(SupervisionError):
            SupervisorPolicy(max_worker_respawns=-1)
        with pytest.raises(SupervisionError):
            SupervisorPolicy(poll_interval=0)
        # A NaN deadline would reap every running cell at first poll.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SupervisionError, match="job_timeout"):
                SupervisorPolicy(job_timeout=bad)
            with pytest.raises(SupervisionError, match="poll_interval"):
                SupervisorPolicy(poll_interval=bad)

    def test_report_summary_mentions_events(self):
        report = SupervisionReport(jobs=5, crashes=1, timeouts=2,
                                   serial_fallback=True,
                                   retried_jobs={3: 2})
        text = report.summary()
        assert "5 job(s)" in text
        assert "1 worker crash(es)" in text
        assert "2 timeout(s)" in text
        assert "serial fallback" in text
        assert report.total_retries == 2
