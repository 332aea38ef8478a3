"""Cross-backend identity: one sweep, any executor, the same bits.

The backend contract (DESIGN.md §14) says a sweep's analysis is a pure
function of (spec, scale) — never of where the cells ran.  These tests
drive the same Set 1 smoke grid through the serial loop, the fork
pool, and the socket dispatcher (real ``bps grid-worker``
subprocesses), including an interrupted run resumed on a *different*
executor than it started on, and require bit-identical output each
time.
"""

import os
import subprocess
import sys

import pytest

from repro.exec.checkpoint import CheckpointJournal
from repro.exec.supervisor import fork_available
from repro.experiments.runner import ExperimentScale
from repro.experiments.set1 import run_set1

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SCALE = ExperimentScale(factor=0.25, repetitions=2)


def metric_tuples(sweep):
    return [
        (m.iops, m.bandwidth, m.arpt, m.bps, m.exec_time,
         m.union_io_time, m.app_ops, m.app_blocks, m.fs_bytes)
        for _label, reps in sweep._points for m in reps
    ]


@pytest.fixture(scope="module")
def serial_sweep():
    return run_set1(SCALE, workers=1)


@pytest.fixture
def grid_worker():
    procs = []

    def spawn(*extra_args):
        env = dict(os.environ,
                   PYTHONPATH=os.path.abspath(REPO_SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "grid-worker",
             "--listen", "127.0.0.1:0", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        procs.append(proc)
        banner = proc.stdout.readline().strip()
        assert "grid-worker listening on" in banner, banner
        return banner.rsplit(" ", 1)[-1]

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


class TestBackendIdentity:
    @pytest.mark.skipif(not fork_available(),
                        reason="needs the fork start method")
    def test_fork_matches_serial(self, serial_sweep):
        fork = run_set1(SCALE, workers=2)
        assert metric_tuples(fork) == metric_tuples(serial_sweep)
        assert fork.supervision.backend == "fork"

    def test_socket_matches_serial(self, serial_sweep, grid_worker):
        addrs = f"{grid_worker()},{grid_worker()}"
        sock = run_set1(SCALE, grid_workers=addrs)
        assert metric_tuples(sock) == metric_tuples(serial_sweep)
        assert sock.supervision.backend == "socket"

    def test_socket_with_worker_death_matches_serial(
            self, serial_sweep, grid_worker):
        # One worker exits mid-sweep; its in-flight cell re-queues.
        addrs = f"{grid_worker('--exit-after-jobs', '2')},{grid_worker()}"
        sock = run_set1(SCALE, grid_workers=addrs)
        assert metric_tuples(sock) == metric_tuples(serial_sweep)


@pytest.mark.skipif(not fork_available(),
                    reason="needs the fork start method")
class TestCrossBackendResume:
    def _interrupted_fork_journal(self, tmp_path, keep: int):
        """A checkpoint journal from a fork run cut off after ``keep``
        completed cells — the on-disk state of an interrupted sweep."""
        path = tmp_path / "sweep.ckpt.jsonl"
        run_set1(SCALE, workers=2, checkpoint=path)
        lines = path.read_text().splitlines()
        header, entries = lines[0], [l for l in lines[1:]
                                     if '"kind": "entry"' in l]
        assert len(entries) == 6 * SCALE.repetitions
        path.write_text("\n".join([header] + entries[:keep]) + "\n")
        return path

    def test_fork_interrupt_resume_serially(self, tmp_path,
                                            serial_sweep):
        path = self._interrupted_fork_journal(tmp_path, keep=5)
        resumed = run_set1(SCALE, workers=1, checkpoint=path)
        assert metric_tuples(resumed) == metric_tuples(serial_sweep)
        # Only the journal's missing cells re-ran.
        assert resumed.supervision.jobs == 6 * SCALE.repetitions - 5
        journal = CheckpointJournal(path)
        assert journal.finalized
        journal.close()

    def test_fork_interrupt_resume_on_socket(self, tmp_path, serial_sweep,
                                             grid_worker):
        path = self._interrupted_fork_journal(tmp_path, keep=5)
        addrs = f"{grid_worker()},{grid_worker()}"
        resumed = run_set1(SCALE, grid_workers=addrs, checkpoint=path)
        assert metric_tuples(resumed) == metric_tuples(serial_sweep)
        assert resumed.supervision.jobs == 6 * SCALE.repetitions - 5
        journal = CheckpointJournal(path)
        assert journal.finalized
        journal.close()
