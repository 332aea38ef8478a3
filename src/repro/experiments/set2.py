"""Set 2 — various I/O request sizes (paper Figs. 5-8).

Single-process IOzone-style sequential read of one file through the
local file system, record size swept 4 KB → 8 MB, once on HDD
(Fig. 5) and once on SSD (Fig. 6).  The paper's finding: BW and BPS
stay correct and strong (≈0.90); IOPS and ARPT *flip direction* —
IOPS falls while the application gets faster (Fig. 7) and ARPT rises
while the application gets faster (Fig. 8), because both ignore how
much data a request carries.

Paper scale: 16 GB file.  Default reproduction scale: 16 MiB with the
identical record-size ladder.
"""

from __future__ import annotations

from repro.core.analysis import SweepAnalysis
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentScale,
    SweepSpec,
    run_sweep,
    spec_cell_task,
)
from repro.system import SystemConfig
from repro.util.units import KiB, MiB, format_size
from repro.workloads.iozone import IOzoneWorkload

#: Paper-quoted results for EXPERIMENTS.md comparison.
PAPER_AVG_ABS_CC_BW_BPS = 0.90

#: The paper's record-size ladder, 4 KB → 8 MB.
RECORD_SIZES: tuple[int, ...] = (
    4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 8 * MiB,
)

BASE_FILE_SIZE = 16 * MiB
JITTER_SIGMA = 0.08

_DEVICES = {"hdd": "sata-hdd-7200", "ssd": "pcie-ssd"}


def build_sweep(device: str, scale: ExperimentScale) -> SweepSpec:
    """The record-size ladder on one device ('hdd' or 'ssd')."""
    try:
        device_spec = _DEVICES[device]
    except KeyError:
        raise ExperimentError(
            f"unknown device {device!r}; expected one of {set(_DEVICES)}"
        ) from None
    file_size = scale.size(BASE_FILE_SIZE, granule=max(RECORD_SIZES))
    config = SystemConfig(kind="local", device_spec=device_spec,
                          jitter_sigma=JITTER_SIGMA)
    points = []
    for record_size in RECORD_SIZES:
        def make_workload(_record=record_size) -> IOzoneWorkload:
            return IOzoneWorkload(file_size=file_size, record_size=_record)
        points.append((format_size(record_size), make_workload, config))
    return SweepSpec(knob=f"record size ({device})", points=points)


def run_set2(device: str = "hdd",
             scale: ExperimentScale | None = None,
             **run_kwargs) -> SweepAnalysis:
    """Run the Set 2 sweep on one device.

    ``device='hdd'`` reproduces Fig. 5, ``device='ssd'`` Fig. 6.
    Extra keyword arguments pass through to
    :func:`~repro.experiments.runner.run_sweep`.
    """
    scale = scale or ExperimentScale()
    run_kwargs.setdefault("grid_task", spec_cell_task(
        f"{__name__}:build_sweep", device, scale))
    return run_sweep(build_sweep(device, scale), scale, **run_kwargs)
