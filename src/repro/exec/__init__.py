"""Resilient execution layer: backends, supervision, checkpoints.

The measurement pipeline has to survive its own failures, not just the
simulated ones (DESIGN.md §10, §14).  This package provides the
pieces:

- :mod:`repro.exec.backends` — executor backends behind one
  submit/collect/cancel interface: the supervised fork pool and a
  multi-host socket dispatcher feeding ``bps grid-worker`` daemons;
- :mod:`repro.exec.supervisor` — the supervision policy/report types
  (per-job timeouts, bounded retry, automatic serial fallback) and the
  chaos hook every backend honours;
- :mod:`repro.exec.checkpoint` — a crash-safe JSONL journal of
  completed jobs, so interrupted sweeps resume instead of restarting
  (and never lose an acknowledged cell, SIGINT included);
- :mod:`repro.exec.gridworker` — the worker daemon behind
  ``bps grid-worker``.

:func:`repro.experiments.runner.run_sweep` wires everything into the
sweep grid; the primitives are workload-agnostic and usable on their
own.
"""

from __future__ import annotations

from repro.exec.backends import (
    ExecBackend,
    ForkBackend,
    GridTask,
    JobOutcome,
    SocketBackend,
    run_jobs,
)
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.gridworker import serve_grid_worker
from repro.exec.supervisor import (
    SupervisionReport,
    SupervisorPolicy,
)

__all__ = [
    "CheckpointJournal",
    "ExecBackend",
    "ForkBackend",
    "GridTask",
    "JobOutcome",
    "SocketBackend",
    "SupervisionReport",
    "SupervisorPolicy",
    "run_jobs",
    "serve_grid_worker",
]
