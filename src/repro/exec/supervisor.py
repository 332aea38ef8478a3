"""Supervised execution: the policy, the report, and the chaos hook.

``ProcessPoolExecutor`` treats one dead worker as fatal: the whole pool
raises ``BrokenProcessPool`` and every in-flight result is lost.  For a
sweep whose jobs are independent, deterministic simulations that is the
wrong failure mode — the lost job should simply run again.  The
supervision machinery that fixes this now lives in two layers under
:mod:`repro.exec.backends`:

- the **driver** (:func:`repro.exec.backends.base.run_jobs`) owns retry
  budgets, submission-order results, checkpoint hooks, and the serial
  fallback — once, for every backend;
- the **fork transport** (:class:`repro.exec.backends.fork.ForkBackend`)
  owns pipes, worker deadlines, EOF-as-crash, and the respawn budget.

A local supervised pool is ``run_jobs(ForkBackend(n), jobs, fn)``:
results in submission order bit-identical to a serial run,
crashed/hung/raising jobs re-queued under a bounded retry budget, and
serial in-process completion once the respawn budget is spent.  This
module keeps the policy/report types and the chaos hook shared by
every backend.

Chaos hook: when ``REPRO_TEST_KILL_JOB`` is set (e.g. ``"2:exit"``,
``"0:hang,3:raise"``), the *first* attempt of the named job indexes is
sabotaged inside the worker — ``exit`` calls ``os._exit``, ``hang``
sleeps until the timeout reaps it, ``raise`` throws.  Retries run
clean.  CI's chaos-smoke job drives the full recovery path with it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import SupervisionError
from repro.exec.duplex import fork_available

__all__ = [
    "CHAOS_EXIT_CODE",
    "SupervisionReport",
    "SupervisorPolicy",
    "fork_available",  # re-exported; the mechanism lives in exec.duplex
]

#: Exit code used by the chaos hook's ``exit`` mode (recognisable in
#: supervisor error messages and CI logs).
CHAOS_EXIT_CODE = 17

_CHAOS_ENV = "REPRO_TEST_KILL_JOB"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/fallback budget for one supervised run.

    ``max_retries`` bounds *re-runs per job* (a job may execute at most
    ``1 + max_retries`` times); ``max_worker_respawns`` bounds forks
    spent replacing dead or timed-out workers across the whole run
    before the serial fallback engages (for the socket backend it
    bounds reconnect attempts the same way).  ``job_timeout`` is
    wall-clock seconds per attempt; ``None`` disables the watchdog.
    """

    job_timeout: float | None = None
    max_retries: int = 2
    max_worker_respawns: int = 8
    #: Supervisor poll period when no deadline is nearer (seconds).
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        # Written so NaN fails too: a NaN deadline reaps every cell.
        if self.job_timeout is not None and \
                not 0 < self.job_timeout < float("inf"):
            raise SupervisionError(
                f"job_timeout must be finite and > 0, or None, "
                f"got {self.job_timeout}")
        if self.max_retries < 0:
            raise SupervisionError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_worker_respawns < 0:
            raise SupervisionError(
                f"max_worker_respawns must be >= 0, "
                f"got {self.max_worker_respawns}")
        if not 0 < self.poll_interval < float("inf"):
            raise SupervisionError(
                f"poll_interval must be finite and > 0, "
                f"got {self.poll_interval}")


@dataclass
class SupervisionReport:
    """What the supervisor had to do to finish the run."""

    jobs: int = 0
    #: Jobs that ran in a backend executor (the rest ran serially).
    pooled: int = 0
    crashes: int = 0
    timeouts: int = 0
    job_errors: int = 0
    worker_respawns: int = 0
    #: Duplicate ``done``/``failed`` deliveries dropped by the socket
    #: backend's per-cell dedup (chaos duplication, late speculative
    #: copies, resends across a reconnect).
    duplicate_results: int = 0
    #: Wire frames that failed their CRC32 (or carried an impossible
    #: length prefix) and were quarantined with their connection.
    quarantined_frames: int = 0
    #: Successful worker reconnects through the circuit breaker.
    reconnects: int = 0
    #: Worker addresses given up on after consecutive reconnect
    #: failures (circuit broken for the rest of the run).
    broken_circuits: int = 0
    serial_fallback: bool = False
    #: Which backend executed the run ("fork", "socket", or "serial"
    #: when no backend was engaged at all).
    backend: str = "serial"
    #: job index -> number of extra attempts it needed.
    retried_jobs: dict[int, int] = field(default_factory=dict)

    @property
    def total_retries(self) -> int:
        return sum(self.retried_jobs.values())

    def summary(self) -> str:
        """One-line human rendering (the CLI prints it when nonzero)."""
        parts = [f"{self.jobs} job(s)"]
        if self.backend != "serial":
            parts.append(f"{self.backend} backend")
        if self.crashes:
            parts.append(f"{self.crashes} worker crash(es)")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout(s)")
        if self.job_errors:
            parts.append(f"{self.job_errors} job error(s)")
        if self.total_retries:
            parts.append(f"{self.total_retries} retry(ies)")
        if self.worker_respawns:
            parts.append(f"{self.worker_respawns} respawn(s)")
        if self.duplicate_results:
            parts.append(
                f"{self.duplicate_results} duplicate result(s) dropped")
        if self.quarantined_frames:
            parts.append(
                f"{self.quarantined_frames} corrupt frame(s) quarantined")
        if self.reconnects:
            parts.append(f"{self.reconnects} reconnect(s)")
        if self.broken_circuits:
            parts.append(f"{self.broken_circuits} circuit(s) broken")
        if self.serial_fallback:
            parts.append("serial fallback engaged")
        return ", ".join(parts)


def _chaos_spec() -> dict[int, str]:
    """Parse ``REPRO_TEST_KILL_JOB`` into {job index: mode}."""
    raw = os.environ.get(_CHAOS_ENV, "").strip()
    spec: dict[int, str] = {}
    if not raw:
        return spec
    for part in raw.split(","):
        index, _, mode = part.strip().partition(":")
        try:
            spec[int(index)] = mode or "exit"
        except ValueError:
            continue  # malformed chaos spec entries are ignored
    return spec


def _maybe_sabotage(index: int, attempt: int) -> None:
    """Chaos hook, active only on a job's first attempt."""
    if attempt > 0:
        return
    mode = _chaos_spec().get(index)
    if mode is None:
        return
    if mode == "exit":
        os._exit(CHAOS_EXIT_CODE)
    elif mode == "hang":
        time.sleep(3600.0)
    elif mode == "raise":
        raise RuntimeError(f"chaos: injected failure for job {index}")

