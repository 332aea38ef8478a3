"""Sweep execution: points × repetitions → SweepAnalysis.

The paper runs each experiment 5 times and averages (section IV.B).
:func:`run_sweep` does the same: for every sweep point it runs
``repetitions`` independent simulations (distinct seeds, so device
jitter decorrelates them) and feeds the per-repetition metric sets into
a :class:`~repro.core.analysis.SweepAnalysis`.

Runs are independent by construction (fresh system per run, seed fully
determines the simulation), so the points × repetitions grid is
embarrassingly parallel.  :func:`run_sweep` fans the grid out over the
**supervised** fork pool (:class:`~repro.exec.backends.fork.ForkBackend`
under :func:`~repro.exec.backends.base.run_jobs`) when more than one
worker is available: a crashed worker re-queues its job instead of
aborting the sweep, hung jobs can be reaped by a per-job timeout, and a
pool that keeps breaking degrades to serial execution.  Results are
reassembled in (point, repetition) order with the exact per-rep seeds
of the serial path, so the analysis is bit-identical either way — with
or without failures along the way.  Control knobs:

- ``backend=`` / ``REPRO_SWEEP_BACKEND`` env var — which executor
  backend runs the grid (``fork`` pool, in-process ``async``, or the
  multi-host ``socket`` dispatcher; see :mod:`repro.exec.backends`);
- ``parallel=False`` — force the serial path (the escape hatch);
- ``workers=N`` — explicit pool size;
- ``REPRO_SWEEP_WORKERS`` env var — site-wide default pool size
  (``1`` disables parallelism without touching call sites);
- ``policy=SupervisorPolicy(...)`` — retry/timeout/fallback budget;
- ``checkpoint=path`` — journal each completed job durably
  (:mod:`repro.exec.checkpoint`); with ``resume=True`` (default) an
  existing journal's jobs are skipped, so an interrupted sweep picks
  up where it died and still returns the identical analysis.

The pool uses the ``fork`` start method so sweep specs (whose workload
factories are typically closures, which don't pickle) are inherited by
the children rather than shipped; on platforms without ``fork`` the
runner silently falls back to serial execution.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.analysis import RunMeasurement, SweepAnalysis
from repro.errors import ExperimentError
from repro.exec.backends import (
    AsyncBackend,
    ForkBackend,
    GridTask,
    SocketBackend,
    import_ref,
    resolve_backend,
    run_jobs,
)
from repro.exec.backends.wire import resolve_liveness
from repro.exec.checkpoint import (
    CheckpointJournal,
    measurement_from_payload,
    measurement_to_payload,
)
from repro.exec.supervisor import (
    SupervisionReport,
    SupervisorPolicy,
    fork_available,
)
from repro.system import SystemConfig
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentScale:
    """Global size scaling for experiment sweeps.

    The paper's runs move 16-64 GB per point; simulating the identical
    request *counts* is what matters for metric behaviour, so the
    default scale moves megabytes instead.  ``factor`` multiplies every
    data size an experiment uses; ``repetitions`` is the paper's 5 by
    default.
    """

    factor: float = 1.0
    repetitions: int = 5
    base_seed: int = 20130520  # IPDPS'13 vintage

    def __post_init__(self) -> None:
        if not 0 < self.factor < float("inf"):  # NaN fails too
            raise ExperimentError(f"bad scale factor {self.factor}")
        if self.repetitions < 1:
            raise ExperimentError(f"bad repetitions {self.repetitions}")

    def size(self, base_bytes: int, *, granule: int = 4096) -> int:
        """Scale a byte size, keeping it a positive multiple of granule."""
        scaled = int(base_bytes * self.factor)
        scaled = max(granule, (scaled // granule) * granule)
        return scaled


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: labelled points, each a (workload, config) pair."""

    knob: str
    points: Sequence[tuple[str, Callable[[], Workload], SystemConfig]] = field(
        default_factory=list)

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ExperimentError(
                f"sweep {self.knob!r} needs >= 2 points for correlation, "
                f"got {len(self.points)}"
            )


def _run_job(spec: SweepSpec, job: tuple[int, int]) -> RunMeasurement:
    """Execute one (point, seed) cell of the sweep grid."""
    point_index, seed = job
    _label, make_workload, config = spec.points[point_index]
    # Workloads are constructed fresh per repetition (factories, not
    # instances) because workload objects hold per-run state.
    workload = make_workload()
    return workload.run(config.with_seed(seed))


def _cells_from_builder(builder: str, args: tuple = (),
                        kwargs: dict | None = None) -> Callable:
    """:class:`GridTask` factory: rebuild a spec, return its cell runner.

    Runs on a grid worker: imports the named sweep *builder*
    (``"repro.experiments.set1:build_sweep"``), calls it with the
    dispatcher's own inputs, and serves cells out of the resulting
    spec.  Same code + same inputs = same spec on every host, which
    (with the seed carried inside each cell) is what makes distributed
    sweeps bit-identical to serial.
    """
    spec = import_ref(builder)(*args, **(kwargs or {}))

    def run_cell(job: tuple[int, int]) -> RunMeasurement:
        return _run_job(spec, job)

    return run_cell


def spec_cell_task(builder: str, *args, **kwargs) -> GridTask:
    """The grid task for a sweep whose spec builder is importable.

    ``builder`` is a ``"package.module:attr"`` reference; ``args`` /
    ``kwargs`` are its inputs (device names, the
    :class:`ExperimentScale`) and must pickle — they ride the socket
    handshake to every worker.
    """
    return GridTask(factory=f"{__name__}:_cells_from_builder",
                    args=(builder, tuple(args), dict(kwargs)))


def resolve_workers(workers: int | None = None) -> int:
    """Pool size: explicit argument > REPRO_SWEEP_WORKERS > cpu count.

    A non-positive ``REPRO_SWEEP_WORKERS`` is clamped to 1 with a
    warning (a site-wide env var should degrade, not abort every
    sweep); a non-positive explicit argument is a caller bug and
    raises.
    """
    if workers is not None:
        if workers < 1:
            raise ExperimentError(f"bad worker count {workers}")
        return workers
    env = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise ExperimentError(
                f"REPRO_SWEEP_WORKERS must be an integer, got {env!r}"
            ) from None
        if parsed < 1:
            warnings.warn(
                f"REPRO_SWEEP_WORKERS={parsed} is not a valid pool "
                f"size; clamping to 1 (serial)", RuntimeWarning,
                stacklevel=2)
            return 1
        return parsed
    return os.cpu_count() or 1


def _sweep_jobs(spec: SweepSpec,
                scale: ExperimentScale) -> list[tuple[int, int]]:
    """The (point_index, seed) grid, in serial execution order."""
    return [
        (point_index, scale.base_seed + 7919 * point_index + rep)
        for point_index in range(len(spec.points))
        for rep in range(scale.repetitions)
    ]


def _job_key(job: tuple[int, int]) -> str:
    point_index, seed = job
    return f"p{point_index}:s{seed}"


def _sweep_tag(spec: SweepSpec, scale: ExperimentScale) -> str:
    """Checkpoint identity: resuming a *different* sweep must fail."""
    return (f"knob={spec.knob}|points={len(spec.points)}"
            f"|reps={scale.repetitions}|seed={scale.base_seed}"
            f"|factor={scale.factor!r}")


def run_sweep(spec: SweepSpec, scale: ExperimentScale, *,
              parallel: bool | None = None,
              workers: int | None = None,
              policy: SupervisorPolicy | None = None,
              checkpoint: str | Path | None = None,
              resume: bool = True,
              backend: str | None = None,
              grid_workers: str | Sequence | None = None,
              grid_task: GridTask | None = None,
              grid_token: str | None = None,
              grid_heartbeat: float | None = None,
              grid_liveness: float | None = None) -> SweepAnalysis:
    """Run every point ``scale.repetitions`` times; return the analysis.

    ``backend`` selects where the grid executes (explicit argument >
    ``REPRO_SWEEP_BACKEND`` env var > ``"fork"``):

    - ``"fork"`` — the supervised local fork pool.  ``parallel=None``
      (default) engages it whenever more than one worker is available
      and the platform supports forked pools; ``parallel=False``
      forces the serial path; ``parallel=True`` requires the pool
      (serial fallback only if fork is unavailable);
    - ``"async"`` — in-process serial execution through the same
      driver (retry/timeout semantics intact, no forks) — smoke grids
      and single-core CI;
    - ``"socket"`` — the multi-host dispatcher: ``grid_workers`` names
      the ``bps grid-worker`` daemons (``"host:port,host:port"``) and
      ``grid_task`` the importable spec builder each worker re-runs
      (:func:`spec_cell_task`; the ``run_setN`` entry points supply it
      automatically).  ``grid_token`` (default: ``REPRO_GRID_TOKEN``
      env var) must match the daemons' token, and
      ``grid_heartbeat``/``grid_liveness`` set the dispatcher-side
      liveness clocks (clamp-and-warn via
      :func:`~repro.exec.backends.wire.resolve_liveness`; env
      fallbacks ``REPRO_GRID_HEARTBEAT``/``REPRO_GRID_LIVENESS``).

    Whatever the backend, worker count, or crash schedule, the
    per-repetition seeds and the result order are identical, so the
    returned analysis matches the serial path bit-for-bit — crashes,
    retries, and resumed checkpoints included.

    ``checkpoint`` journals every completed job durably; with
    ``resume=True`` an existing journal's completed jobs are reloaded
    instead of re-run.  The supervision outcome is attached to the
    returned analysis as ``analysis.supervision``
    (:class:`~repro.exec.supervisor.SupervisionReport`).
    """
    backend_name = resolve_backend(backend)
    if backend_name == "socket":
        if grid_workers is None:
            raise ExperimentError(
                "socket backend needs grid worker addresses "
                "(grid_workers=\"host:port,host:port\")")
        if grid_task is None:
            raise ExperimentError(
                "socket backend needs a grid task naming an importable "
                "spec builder (see spec_cell_task); the run_setN entry "
                "points supply one automatically")
    pool_size = resolve_workers(workers)
    jobs = _sweep_jobs(spec, scale)

    journal: CheckpointJournal | None = None
    results: list[RunMeasurement | None] = [None] * len(jobs)
    todo = list(range(len(jobs)))
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint,
                                    tag=_sweep_tag(spec, scale),
                                    resume=resume)
        completed = journal.completed()
        todo = []
        for index, job in enumerate(jobs):
            payload = completed.get(_job_key(job))
            if payload is not None:
                results[index] = measurement_from_payload(payload)
            else:
                todo.append(index)

    def on_result(todo_position: int, payload: RunMeasurement) -> None:
        index = todo[todo_position]
        results[index] = payload
        if journal is not None:
            journal.record(_job_key(jobs[index]),
                           measurement_to_payload(payload))

    if backend_name == "fork":
        engage = (parallel if parallel is not None else pool_size > 1) \
            and pool_size > 1 and fork_available()
    else:
        # async/socket run through the driver unless serial is forced.
        engage = parallel is not False
    engage = engage and len(todo) > 1
    report = SupervisionReport(jobs=len(todo))
    try:
        if todo:
            if not engage:
                for position, index in enumerate(todo):
                    on_result(position, _run_job(spec, jobs[index]))
            else:
                if backend_name == "fork":
                    exec_backend = ForkBackend(min(pool_size, len(todo)))
                elif backend_name == "socket":
                    token = grid_token if grid_token is not None \
                        else os.environ.get("REPRO_GRID_TOKEN") or None
                    hb, lv = resolve_liveness(grid_heartbeat,
                                              grid_liveness)
                    exec_backend = SocketBackend(
                        grid_workers, grid_task, token=token,
                        heartbeat_interval=hb, liveness_timeout=lv)
                else:
                    exec_backend = AsyncBackend()
                report.backend = backend_name

                def local_cell(job: tuple[int, int]) -> RunMeasurement:
                    return _run_job(spec, job)

                run_jobs(exec_backend, [jobs[i] for i in todo],
                         local_cell, policy=policy or SupervisorPolicy(),
                         report=report, on_result=on_result)
        if journal is not None:
            journal.finalize()
    finally:
        if journal is not None:
            journal.close()

    sweep = SweepAnalysis(spec.knob)
    for point_index, (label, _make, _config) in enumerate(spec.points):
        base = point_index * scale.repetitions
        sweep.add_runs(label, results[base:base + scale.repetitions])
    sweep.supervision = report
    return sweep
