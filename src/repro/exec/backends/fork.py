"""Forked worker-pool backend — the supervised pool's transport half.

One forked process per worker, one duplex pipe each
(:class:`~repro.exec.duplex.DuplexWorker`), jobs handed out one at a
time so the parent always knows what a dead worker was running.  EOF
on a pipe is the crash signal; a worker past
its per-job deadline is terminated; both cost one unit of the pool-wide
respawn budget (``SupervisorPolicy.max_worker_respawns``), after which
the pool stops replacing workers, drains, and reports unhealthy — the
driver's cue to degrade to serial execution.

The retry/ordering/checkpoint semantics live in the shared driver
(:func:`repro.exec.backends.base.run_jobs`); this module only moves
jobs and reports what the transport saw.
"""

from __future__ import annotations

import time
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_connections
from typing import Callable

from repro.exec.backends.base import ExecBackend, JobOutcome
from repro.exec.duplex import DuplexWorker

__all__ = ["ForkBackend"]


def _worker_main(conn, fn: Callable) -> None:
    """Worker loop: receive (index, attempt, job), send back the result.

    Runs in a forked child; ``fn`` and everything it closes over are
    inherited, never pickled.  Exceptions are stringified before the
    send so an unpicklable exception cannot take the pipe down.
    """
    # Imported late so the chaos hook is read in the child's env.
    from repro.exec.supervisor import _maybe_sabotage
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            conn.close()
            return
        index, attempt, job = message
        try:
            _maybe_sabotage(index, attempt)
            payload = fn(job)
        except BaseException as exc:  # noqa: BLE001 — isolate *everything*
            conn.send(("error", index, attempt,
                       f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("done", index, attempt, payload))


class _Worker(DuplexWorker):
    """A pool worker: the shared duplex transport plus job bookkeeping."""

    __slots__ = ("job", "attempt", "deadline")

    def __init__(self, fn: Callable, ctx) -> None:
        super().__init__(_worker_main, (fn,), ctx=ctx)
        self.job: int | None = None
        self.attempt: int = 0
        self.deadline: float | None = None


class ForkBackend(ExecBackend):
    """Supervised fork pool behind the executor-backend interface."""

    name = "fork"

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool: list[_Worker] = []
        self._fn: Callable | None = None
        self._policy = None
        self._report = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self, fn, policy, report, n_jobs: int) -> None:
        self._fn = fn
        self._policy = policy
        self._report = report
        self._ctx = get_context("fork")
        self._started = True
        for _ in range(min(self.workers, n_jobs)):
            self._pool.append(_Worker(fn, self._ctx))

    def finish(self) -> None:
        self._shutdown()

    def cancel(self) -> None:
        self._shutdown()

    def _shutdown(self) -> None:
        for worker in self._pool:
            if worker.job is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._pool):
            self._retire(worker)

    def _retire(self, worker: _Worker) -> None:
        self._pool.remove(worker)
        worker.retire(terminate=True)

    def _respawn_budget_ok(self) -> bool:
        self._report.worker_respawns += 1
        return (self._report.worker_respawns
                <= self._policy.max_worker_respawns)

    # -- placement ---------------------------------------------------------

    def healthy(self) -> bool:
        return bool(self._pool)

    def slots(self) -> int:
        return sum(1 for w in self._pool if w.job is None)

    def submit(self, index: int, attempt: int, job) -> bool:
        worker = next(w for w in self._pool if w.job is None)
        try:
            worker.conn.send((index, attempt, job))
        except (BrokenPipeError, OSError):
            # The idle worker died between jobs: the job was never
            # placed, so only the pool pays (crash + respawn budget).
            self._retire(worker)
            self._report.crashes += 1
            if self._respawn_budget_ok():
                self._pool.append(_Worker(self._fn, self._ctx))
            return False
        worker.job = index
        worker.attempt = attempt
        if self._policy.job_timeout is not None:
            worker.deadline = time.monotonic() + self._policy.job_timeout
        return True

    # -- collection --------------------------------------------------------

    def collect(self) -> list[JobOutcome]:
        busy = [w for w in self._pool if w.job is not None]
        if not busy:
            return []
        timeout = self._policy.poll_interval
        now = time.monotonic()
        for worker in busy:
            if worker.deadline is not None:
                timeout = min(timeout, max(worker.deadline - now, 0.0))
        outcomes: list[JobOutcome] = []
        ready = _wait_connections([w.conn for w in busy],
                                  timeout=timeout)
        by_conn = {w.conn: w for w in busy}
        for conn in ready:
            worker = by_conn[conn]
            try:
                kind, index, attempt, payload = conn.recv()
            except (EOFError, OSError):
                # Worker died mid-job; its pipe reads EOF.
                index, attempt = worker.job, worker.attempt
                exitcode = worker.process.exitcode
                self._retire(worker)
                if self._respawn_budget_ok():
                    self._pool.append(_Worker(self._fn, self._ctx))
                outcomes.append(JobOutcome(
                    "crash", index, attempt,
                    f"worker crashed (exitcode {exitcode})"))
                continue
            worker.job = None
            worker.deadline = None
            outcomes.append(JobOutcome(kind, index, attempt, payload))
        # Reap workers stuck past their deadline.
        now = time.monotonic()
        for worker in list(self._pool):
            if worker.job is None or worker.deadline is None or \
                    now < worker.deadline:
                continue
            index, attempt = worker.job, worker.attempt
            self._retire(worker)
            if self._respawn_budget_ok():
                self._pool.append(_Worker(self._fn, self._ctx))
            outcomes.append(JobOutcome(
                "timeout", index, attempt,
                f"timed out after {self._policy.job_timeout:.3g}s"))
        return outcomes
