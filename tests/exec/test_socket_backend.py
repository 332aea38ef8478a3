"""Socket dispatcher against real ``bps grid-worker`` daemons.

Each test spawns worker subprocesses on ephemeral localhost ports and
drives them through :class:`~repro.exec.backends.sockets.SocketBackend`
under the shared driver — handshake, liveness, worker death, and
dispatcher-side aborts all exercised over a real TCP socket.
"""

import os
import signal
import time

import pytest

from repro.errors import GridError
from repro.exec.backends import GridTask, SocketBackend, run_jobs
from repro.exec.supervisor import SupervisionReport, SupervisorPolicy

# The spawn_worker / factory_dir fixtures live in conftest.py, shared
# with the exactly-once chaos tests.
TASK = GridTask("grid_test_factory:make", kwargs={"offset": 100})


def _local_fn(job):
    if isinstance(job, (tuple, list)):
        value, delay = job
        time.sleep(delay)
        return value + 100
    return job + 100


def _dispatch(addrs, jobs, *, policy=None, token=None, **kw):
    report = SupervisionReport(jobs=len(jobs))
    results = run_jobs(
        SocketBackend(addrs, TASK, token=token, **kw),
        jobs, _local_fn,
        policy=policy or SupervisorPolicy(poll_interval=0.05),
        report=report)
    return results, report


class TestDispatch:
    def test_two_workers_results_in_order(self, spawn_worker):
        _, a1 = spawn_worker()
        _, a2 = spawn_worker()
        jobs = list(range(7))
        results, report = _dispatch(f"{a1},{a2}", jobs)
        assert results == [j + 100 for j in jobs]
        assert report.pooled == 7
        assert report.crashes == 0
        assert not report.serial_fallback

    def test_worker_daemon_survives_across_dispatches(self, spawn_worker):
        _, addr = spawn_worker()
        for _ in range(2):
            results, _report = _dispatch(addr, [1, 2, 3])
            assert results == [101, 102, 103]


class TestHandshake:
    def test_token_mismatch_is_rejected(self, spawn_worker):
        _, addr = spawn_worker("--token", "sesame")
        with pytest.raises(GridError, match="no grid workers reachable"):
            _dispatch(addr, [1, 2], token="wrong")

    def test_matching_token_admits(self, spawn_worker):
        _, addr = spawn_worker("--token", "sesame")
        results, _ = _dispatch(addr, [1, 2], token="sesame")
        assert results == [101, 102]

    def test_unresolvable_task_is_rejected(self, spawn_worker):
        _, addr = spawn_worker()
        report = SupervisionReport(jobs=1)
        backend = SocketBackend(addr, GridTask("no.such.module:make"))
        with pytest.raises(GridError, match="no grid workers reachable"):
            run_jobs(backend, [1], _local_fn,
                     policy=SupervisorPolicy(), report=report)

    def test_no_worker_listening(self):
        with pytest.raises(GridError, match="no grid workers reachable"):
            _dispatch("127.0.0.1:1", [1, 2],
                      connect_timeout=0.5)


class TestWorkerDeath:
    def test_killed_worker_requeues_its_job(self, spawn_worker):
        proc1, a1 = spawn_worker()
        _, a2 = spawn_worker()
        # Slow jobs so the kill lands while cells are in flight.
        jobs = [(v, 0.4) for v in range(6)]
        backend = SocketBackend(f"{a1},{a2}", TASK)
        report = SupervisionReport(jobs=len(jobs))

        killed = {"done": False}
        original_collect = backend.collect

        def collect_and_kill():
            if not killed["done"]:
                killed["done"] = True
                proc1.send_signal(signal.SIGKILL)
            return original_collect()

        backend.collect = collect_and_kill
        results = run_jobs(
            backend, jobs, _local_fn,
            policy=SupervisorPolicy(poll_interval=0.05),
            report=report)
        assert results == [v + 100 for v in range(6)]
        assert report.crashes >= 1
        assert report.worker_respawns >= 1

    def test_planned_exit_after_jobs(self, spawn_worker):
        proc1, a1 = spawn_worker("--exit-after-jobs", "1")
        _, a2 = spawn_worker()
        jobs = [(v, 0.1) for v in range(6)]
        results, report = _dispatch(f"{a1},{a2}", jobs)
        assert results == [v + 100 for v in range(6)]
        assert proc1.wait(timeout=10) == 0


class TestAbort:
    def test_hung_cell_aborted_and_retried(self, spawn_worker):
        # Chaos: the first attempt of cell 0 hangs inside the worker's
        # job child; the dispatcher timeout aborts it (child killed,
        # daemon survives) and the clean retry lands on a worker.
        _, addr = spawn_worker(
            env_extra={"REPRO_TEST_KILL_JOB": "0:hang"})
        jobs = [1, 2, 3]
        results, report = _dispatch(
            addr, jobs,
            policy=SupervisorPolicy(job_timeout=1.0, poll_interval=0.05))
        assert results == [101, 102, 103]
        assert report.timeouts == 1
        assert report.retried_jobs == {0: 1}

    def test_crashing_cell_spares_the_daemon(self, spawn_worker):
        # "exit" chaos kills the job child with os._exit; the daemon
        # reports failed/crash, forks a fresh child, and finishes the
        # retry plus the remaining cells itself.
        _, addr = spawn_worker(
            env_extra={"REPRO_TEST_KILL_JOB": "1:exit"})
        results, report = _dispatch(addr, [1, 2, 3])
        assert results == [101, 102, 103]
        assert report.crashes == 1
        assert report.retried_jobs == {1: 1}


def _stat(pid):
    """``(state, ppid)`` from ``/proc/PID/stat``, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and (_stat(entry) or ("", 0))[1] == pid]


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to find the job child")
class TestShutdown:
    def test_sigterm_takes_the_running_cell_down(self, spawn_worker):
        # The daemon's job child is mid-cell (a chaos hang) when the
        # daemon is terminated: the child must die with it, not live
        # on re-parented to init.
        proc, addr = spawn_worker(
            env_extra={"REPRO_TEST_KILL_JOB": "0:hang"})
        backend = SocketBackend(addr, TASK)
        backend.start(_local_fn, SupervisorPolicy(),
                      SupervisionReport(jobs=1), 1)
        children = []
        try:
            assert backend.submit(0, 0, 1)
            deadline = time.monotonic() + 10.0
            while not children:
                assert time.monotonic() < deadline, "no job child"
                time.sleep(0.02)
                children = _children(proc.pid)
            time.sleep(0.3)  # let the cell reach its hang
            proc.terminate()
            assert proc.wait(timeout=10) == 0
            deadline = time.monotonic() + 5.0
            while any(map(_alive, children)) and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, children))
        finally:
            backend.cancel()
            for pid in filter(_alive, children):
                os.kill(pid, signal.SIGKILL)


class TestStragglers:
    def test_speculative_copy_wins(self, spawn_worker):
        # Worker 1 hangs cell 3's first attempt (chaos); with
        # straggler re-dispatch on, the idle worker 2 runs a copy and
        # its result lands without burning a retry.
        _, a1 = spawn_worker(
            env_extra={"REPRO_TEST_KILL_JOB": "3:hang"})
        _, a2 = spawn_worker()
        jobs = [(v, 0.2) for v in range(4)]
        results, report = _dispatch(
            f"{a1},{a2}", jobs,
            straggler_factor=2.0, straggler_min_seconds=0.5)
        assert results == [v + 100 for v in range(4)]
        assert report.retried_jobs == {}
        assert report.timeouts == 0
