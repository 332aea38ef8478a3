"""Set 1 — various storage devices (paper Fig. 4).

Single-process IOzone-style sequential read of one large file on six
storage configurations: local HDD, local SSD, and PVFS on 1, 2, 4, and
8 I/O servers.  The paper's finding: *all four* metrics correlate
correctly and strongly here (average |CC| ≈ 0.93) — conventional metrics
are fine as long as only the device changes.

Paper scale: 64 GB file.  Default reproduction scale: 32 MiB (the sweep
compares configurations, so only relative timing matters).
"""

from __future__ import annotations

from repro.core.analysis import SweepAnalysis
from repro.experiments.runner import (
    ExperimentScale,
    SweepSpec,
    run_sweep,
    spec_cell_task,
)
from repro.system import SystemConfig
from repro.util.units import MiB
from repro.workloads.iozone import IOzoneWorkload

#: Paper-quoted result for EXPERIMENTS.md comparison.
PAPER_AVG_ABS_CC = 0.93

#: Base (unscaled) sizes.
BASE_FILE_SIZE = 32 * MiB
RECORD_SIZE = 1 * MiB
JITTER_SIGMA = 0.08


def build_sweep(scale: ExperimentScale) -> SweepSpec:
    """The six storage configurations of Fig. 4."""
    file_size = scale.size(BASE_FILE_SIZE, granule=RECORD_SIZE)

    def make_workload() -> IOzoneWorkload:
        return IOzoneWorkload(file_size=file_size, record_size=RECORD_SIZE)

    points: list[tuple[str, object, SystemConfig]] = []
    points.append((
        "hdd",
        make_workload,
        SystemConfig(kind="local", device_spec="sata-hdd-7200",
                     jitter_sigma=JITTER_SIGMA),
    ))
    points.append((
        "ssd",
        make_workload,
        SystemConfig(kind="local", device_spec="pcie-ssd",
                     jitter_sigma=JITTER_SIGMA),
    ))
    for n_servers in (1, 2, 4, 8):
        points.append((
            f"pvfs-{n_servers}",
            make_workload,
            SystemConfig(kind="pfs", device_spec="sata-hdd-7200",
                         n_servers=n_servers, jitter_sigma=JITTER_SIGMA),
        ))
    return SweepSpec(knob="storage configuration", points=points)


def run_set1(scale: ExperimentScale | None = None,
             **run_kwargs) -> SweepAnalysis:
    """Run the Set 1 sweep; its correlation table is Fig. 4.

    Extra keyword arguments (``checkpoint``, ``policy``, ...) pass
    through to :func:`~repro.experiments.runner.run_sweep`.
    """
    scale = scale or ExperimentScale()
    run_kwargs.setdefault("grid_task", spec_cell_task(
        f"{__name__}:build_sweep", scale))
    return run_sweep(build_sweep(scale), scale, **run_kwargs)
