"""Pluggable sweep backends: where a job grid actually executes.

Two implementations of one interface
(:class:`~repro.exec.backends.base.ExecBackend`):

- ``"fork"`` — the supervised fork pool (crash isolation, per-job
  timeouts, respawn budget) for multi-core single-host sweeps;
- ``"socket"`` — the multi-host dispatcher shipping grid cells to
  ``bps grid-worker`` daemons over TCP (liveness heartbeats, re-queue
  on worker death, straggler re-dispatch).

Both run under the shared driver
(:func:`~repro.exec.backends.base.run_jobs`), so retry budgets,
checkpoint journaling, and deterministic grid-cell seeds behave
identically — a sweep's results are bit-identical on every backend,
for any worker count, across kill/resume chaos.

No name selects a backend: :func:`repro.experiments.runner.run_sweep`
dispatches to ``socket`` when given grid worker addresses, to ``fork``
when more than one local worker is available, and otherwise runs its
own serial loop.
"""

from __future__ import annotations

from repro.exec.backends.base import ExecBackend, JobOutcome, run_jobs
from repro.exec.backends.fork import ForkBackend
from repro.exec.backends.sockets import SocketBackend, parse_worker_addrs
from repro.exec.backends.task import GridTask, import_ref

__all__ = [
    "ExecBackend",
    "ForkBackend",
    "GridTask",
    "JobOutcome",
    "SocketBackend",
    "import_ref",
    "parse_worker_addrs",
    "run_jobs",
]
