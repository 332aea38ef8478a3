"""Executor-backend interface and the shared supervision driver.

Every sweep backend — the forked pool and the multi-host socket
dispatcher — answers the same three questions: *where can I put a job
right now* (:meth:`ExecBackend.slots` / :meth:`ExecBackend.submit`),
*what finished or failed* (:meth:`ExecBackend.collect`), and *can you
still take work at all* (:meth:`ExecBackend.healthy`).  Everything
above that line — retry budgets, submission-order result assembly,
checkpoint hooks, the serial fallback when a backend dies under us —
lives **once**, in :func:`run_jobs`, so the guarantees cannot drift
between backends:

- results are returned in submission order, with the caller's own
  per-job seeds untouched, so any backend (any worker count, any crash
  schedule) produces output bit-identical to a serial run;
- a lost or failed attempt consumes one unit of the job's bounded
  retry budget (``SupervisorPolicy.max_retries``) and is re-queued;
  exhaustion raises :class:`~repro.errors.SupervisionError`;
- ``on_result`` fires in the driver process in *completion* order —
  the checkpoint journal's hook — and exactly once per job, even when
  a straggler was speculatively re-dispatched and two copies finished;
- a backend that reports unhealthy (pool empty, every remote worker
  dead) stops receiving work and the driver finishes the remaining
  jobs serially in its own process.

Backends own only transport-level accounting (crash/timeout/respawn
counters on the shared :class:`~repro.exec.supervisor.SupervisionReport`
are incremented by the driver from the outcomes backends emit; worker
respawns are the backend's own).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SupervisionError

__all__ = [
    "ExecBackend",
    "JobOutcome",
    "run_jobs",
]

#: Outcome kinds a backend may emit.
OUTCOME_KINDS = ("done", "error", "crash", "timeout")


@dataclass(frozen=True)
class JobOutcome:
    """One settled attempt: a result, or the reason it was lost.

    ``kind`` is ``"done"`` (``payload`` is the result), ``"error"``
    (the job raised; ``payload`` is the stringified exception),
    ``"crash"`` (the executor died under the job), or ``"timeout"``
    (the attempt outlived ``SupervisorPolicy.job_timeout``).
    """

    kind: str
    index: int
    attempt: int
    payload: object = None

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise SupervisionError(f"unknown outcome kind {self.kind!r}")


class ExecBackend(ABC):
    """Transport half of a sweep executor: placement and collection.

    Lifecycle: :meth:`start` acquires resources (forks the pool,
    connects the worker sockets), then the driver alternates
    :meth:`submit` and :meth:`collect` until every job settles, and
    finally calls :meth:`finish` (graceful) or :meth:`cancel` (error
    path / abandoned work).  Implementations must tolerate ``cancel``
    at any point after ``start``.

    The contract that keeps sweeps bit-identical: backends never
    reorder, dedupe, or synthesize *results* — they execute
    ``fn(job)`` exactly as handed over and report what happened.
    Speculative duplicates (straggler re-dispatch) are allowed; the
    driver keeps the first completion and ignores the rest.
    """

    #: Name reported as ``SupervisionReport.backend`` ("fork", "socket").
    name = "?"

    @abstractmethod
    def start(self, fn: Callable, policy, report, n_jobs: int) -> None:
        """Acquire executors for up to ``n_jobs`` jobs running ``fn``."""

    @abstractmethod
    def slots(self) -> int:
        """How many jobs can be submitted right now without queueing."""

    @abstractmethod
    def submit(self, index: int, attempt: int, job) -> bool:
        """Hand one job to an idle executor.

        Returns False when the chosen executor turned out dead at send
        time — the job was *not* placed and must be re-offered (this
        does not consume retry budget; the backend does its own
        respawn accounting).
        """

    @abstractmethod
    def collect(self) -> list[JobOutcome]:
        """Block up to ~``policy.poll_interval``; return settled attempts.

        Also the backend's housekeeping tick: deadline reaping,
        heartbeats, liveness checks, and straggler re-dispatch all
        happen here.
        """

    @abstractmethod
    def healthy(self) -> bool:
        """Whether the backend can still execute anything at all.

        Returning False guarantees no submitted job remains in flight
        (every loss has already been reported via :meth:`collect`);
        the driver reacts by finishing the rest serially.
        """

    @abstractmethod
    def finish(self) -> None:
        """Graceful release after the last job settled."""

    @abstractmethod
    def cancel(self) -> None:
        """Abandon outstanding work and release everything."""


def run_jobs(
    backend: ExecBackend,
    jobs: Sequence,
    fn: Callable,
    *,
    policy,
    report,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Drive every job through ``backend``; return results in order.

    ``fn`` doubles as the serial-fallback executor, so it must be
    callable in the driver process even for remote backends (for a
    sweep that is the local cell runner — the spec is always known
    where the sweep was launched).
    """
    results: list = [None] * len(jobs)
    done = [False] * len(jobs)
    attempts = [0] * len(jobs)
    pending: deque[int] = deque(range(len(jobs)))
    remaining = len(jobs)

    def run_serially(indexes) -> None:
        nonlocal remaining
        for index in indexes:
            try:
                results[index] = fn(jobs[index])
            except Exception as exc:
                raise SupervisionError(
                    f"job {index} failed in serial execution: "
                    f"{type(exc).__name__}: {exc}") from exc
            done[index] = True
            remaining -= 1
            if on_result is not None:
                on_result(index, results[index])

    def count_failure(index: int, reason: str) -> None:
        """One failed attempt: re-queue or give up."""
        attempts[index] += 1
        report.retried_jobs[index] = \
            report.retried_jobs.get(index, 0) + 1
        if attempts[index] > policy.max_retries:
            raise SupervisionError(
                f"job {index} failed after {attempts[index]} attempt(s): "
                f"{reason}")
        pending.append(index)

    finished = False
    try:
        backend.start(fn, policy, report, len(jobs))
        while remaining:
            if not backend.healthy():
                # Executors are gone: finish the rest slowly but safely.
                report.serial_fallback = True
                run_serially([i for i in range(len(jobs))
                              if not done[i]])
                break
            while pending and backend.slots() > 0:
                index = pending.popleft()
                if not backend.submit(index, attempts[index],
                                      jobs[index]):
                    # Dead executor discovered at send time; the job
                    # was never placed — re-offer it, no retry burned.
                    pending.appendleft(index)
                    break
            for outcome in backend.collect():
                if done[outcome.index]:
                    continue  # late copy of a speculative re-dispatch
                if outcome.kind == "done":
                    results[outcome.index] = outcome.payload
                    done[outcome.index] = True
                    remaining -= 1
                    report.pooled += 1
                    if on_result is not None:
                        on_result(outcome.index, outcome.payload)
                    continue
                if outcome.kind == "crash":
                    report.crashes += 1
                elif outcome.kind == "timeout":
                    report.timeouts += 1
                else:
                    report.job_errors += 1
                count_failure(outcome.index, str(outcome.payload))
        finished = True
    finally:
        if finished:
            backend.finish()
        else:
            backend.cancel()
    return results
