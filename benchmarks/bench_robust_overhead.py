"""Perf bench: what supervision + checkpointing cost over a plain pool.

The resilience layer (:mod:`repro.exec`) must be effectively free when
nothing goes wrong — a sweep that pays double for crash insurance it
rarely needs would just be run unsupervised.  This bench times the same
points × repetitions sweep grid three ways:

1. **plain pool** — ``ProcessPoolExecutor.map`` over the grid, the
   pre-supervision execution model (no per-job accounting, no retry,
   no journal);
2. **supervised** — ``run_jobs(ForkBackend(n), ...)`` with the default
   policy;
3. **supervised + checkpoint** — the same, with every completed job
   journalled (write + flush per job, group-committed fsync).

All three produce bit-identical measurement grids (asserted), and the
supervised runs must stay within the overhead budget of the plain
pool.  The budget is generous in smoke mode (CI boxes share cores and
fsync latency varies wildly on cloud disks); the full run asserts the
<5%% wall-clock figure recorded in ``benchmarks/output/``.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized variant.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.exec import ForkBackend, run_jobs
from repro.exec.checkpoint import CheckpointJournal, measurement_to_payload
from repro.exec.supervisor import SupervisionReport, SupervisorPolicy
from repro.experiments.runner import (
    ExperimentScale,
    SweepSpec,
    _run_job,
    _sweep_jobs,
)
from repro.system import SystemConfig
from repro.util.tables import TextTable
from repro.util.units import KiB, MiB
from repro.workloads.iozone import IOzoneWorkload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: Supervised-vs-plain wall-clock overhead budget.  Full runs amortise
#: the fixed supervision cost over ~100 multi-second jobs, so <5% holds
#: with margin; smoke runs are seconds long on shared CI cores where
#: fixed costs dominate, so only an order-of-magnitude bound is useful.
OVERHEAD_BUDGET = 1.0 if SMOKE else 0.05

WORKERS = 4
REPS = 2 if SMOKE else 5
#: Full-size jobs are deliberately multi-hundred-ms: the supervision
#: budget is a claim about real sweeps, where per-job cost dwarfs the
#: journal's per-job fsync.
FILE_MIB = 2 if SMOKE else 64


def make_spec() -> SweepSpec:
    config = SystemConfig(kind="local", jitter_sigma=0.1)
    points = []
    for record in (64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB):
        def make(_record=record):
            return IOzoneWorkload(file_size=FILE_MIB * MiB,
                                  record_size=_record)
        points.append((str(record), make, config))
    return SweepSpec(knob="record size", points=points)


#: Spec the forked pool workers inherit (set around each timed run).
_SPEC: SweepSpec | None = None


def _pool_job(job):
    return _run_job(_SPEC, job)


def _set_spec(spec):
    global _SPEC
    _SPEC = spec


def measurement_key(measurement):
    return (measurement.exec_time, measurement.fs_bytes,
            len(measurement.trace))


def run_plain_pool(spec, jobs):
    """The pre-supervision model: ProcessPoolExecutor.map, fork start."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    _set_spec(spec)
    try:
        with ProcessPoolExecutor(max_workers=WORKERS,
                                 mp_context=ctx) as pool:
            return list(pool.map(_pool_job, jobs))
    finally:
        _set_spec(None)


def run_fork_pool(spec, jobs, *, checkpoint=None):
    """The fork backend under ``run_jobs``, as ``run_sweep`` drives it."""
    journal = on_result = None
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint, tag="bench", resume=False)

        def on_result(index, measurement):
            journal.record(f"j{index}", measurement_to_payload(measurement))
    _set_spec(spec)
    try:
        results = run_jobs(ForkBackend(WORKERS), jobs, _pool_job,
                           policy=SupervisorPolicy(),
                           report=SupervisionReport(jobs=len(jobs)),
                           on_result=on_result)
        if journal is not None:
            journal.finalize()
        return results
    finally:
        _set_spec(None)
        if journal is not None:
            journal.close()


#: Wall-time rounds per flavour; the minimum is compared.  Shared CI
#: cores make single rounds noisy by tens of percent — the best-of
#: minimum is the standard estimator for "what this costs absent
#: interference".
ROUNDS = 1 if SMOKE else 3


def timed(fn):
    """(best wall seconds over ROUNDS, last result)."""
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_supervision_overhead(artifact, tmp_path):
    spec = make_spec()
    scale = ExperimentScale(repetitions=REPS)
    jobs = _sweep_jobs(spec, scale)

    # Warm-up: fork both pool flavours once so first-run costs (imports
    # in children, page-cache state) don't bias either side.
    run_plain_pool(spec, jobs[:2])
    run_fork_pool(spec, jobs[:2])

    plain_s, plain = timed(lambda: run_plain_pool(spec, jobs))
    sup_s, supervised = timed(lambda: run_fork_pool(spec, jobs))
    ckpt_s, checkpointed = timed(lambda: run_fork_pool(
        spec, jobs, checkpoint=tmp_path / "bench.ckpt.jsonl"))

    # The insurance must not change the answer.
    assert [measurement_key(m) for m in supervised] == \
        [measurement_key(m) for m in plain]
    assert [measurement_key(m) for m in checkpointed] == \
        [measurement_key(m) for m in plain]

    sup_overhead = sup_s / plain_s - 1.0
    ckpt_overhead = ckpt_s / plain_s - 1.0
    table = TextTable(["execution model", "wall time", "overhead"])
    table.add_row(["plain ProcessPoolExecutor", f"{plain_s:.3f}s", "-"])
    table.add_row(["supervised pool", f"{sup_s:.3f}s",
                   f"{sup_overhead:+.1%}"])
    table.add_row(["supervised + checkpoint", f"{ckpt_s:.3f}s",
                   f"{ckpt_overhead:+.1%}"])
    text = (f"{len(jobs)} jobs on {WORKERS} workers "
            f"(smoke={SMOKE}, budget {OVERHEAD_BUDGET:.0%})\n"
            + table.render())
    artifact("robust_overhead", text)

    assert sup_overhead < OVERHEAD_BUDGET, (
        f"supervised pool overhead {sup_overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget")
    assert ckpt_overhead < OVERHEAD_BUDGET, (
        f"supervised+checkpoint overhead {ckpt_overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget")
