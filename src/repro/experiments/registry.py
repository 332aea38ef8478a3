"""Machine-readable Table 2, and :data:`SWEEPS`: every sweep by name.

Each Table 2 entry names the knob the set varies, the benchmark tool the
paper used, our workload class, and the paper figures the set produces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.core.analysis import SweepAnalysis
from repro.experiments.runner import ExperimentScale
from repro.experiments.set1 import run_set1
from repro.experiments.set2 import run_set2
from repro.experiments.set3 import run_set3_ior, run_set3_pure
from repro.experiments.set4 import run_set4
from repro.experiments.set5 import run_set5
from repro.experiments.set6 import run_set6


@dataclass(frozen=True)
class ExperimentSpec:
    """One row of the paper's Table 2, with reproduction pointers."""

    set_id: int
    description: str          # the paper's wording
    knob: str                 # what the sweep varies
    paper_tool: str           # IOzone / IOR / Hpio
    workload: str             # our workload class
    figures: tuple[str, ...]  # paper figures this set produces
    expected_misleading: tuple[str, ...]  # metrics that flip direction


EXPERIMENT_SETS: dict[int, ExperimentSpec] = {
    1: ExperimentSpec(
        set_id=1,
        description="various storage device",
        knob="storage configuration (HDD, SSD, PVFS x 1/2/4/8 servers)",
        paper_tool="IOzone (single-process sequential read)",
        workload="IOzoneWorkload(mode='sequential')",
        figures=("fig4",),
        expected_misleading=(),  # everything behaves on device swaps
    ),
    2: ExperimentSpec(
        set_id=2,
        description="various I/O request size",
        knob="record size 4KB -> 8MB",
        paper_tool="IOzone (single-process read, local FS)",
        workload="IOzoneWorkload(mode='sequential')",
        figures=("fig5", "fig6", "fig7", "fig8"),
        expected_misleading=("IOPS", "ARPT"),
    ),
    3: ExperimentSpec(
        set_id=3,
        description="various I/O concurrency",
        knob="process count 1-8 (pure) / 1-32 (IOR shared file)",
        paper_tool="IOzone throughput mode; IOR with MPI-IO",
        workload="IOzoneWorkload(mode='throughput'); IORWorkload",
        figures=("fig9", "fig10", "fig11"),
        expected_misleading=("ARPT",),
    ),
    4: ExperimentSpec(
        set_id=4,
        description="various additional data movement",
        knob="region spacing 8B -> 4096B under data sieving",
        paper_tool="Hpio (noncontiguous read, MPI-IO, 4 I/O servers)",
        workload="HpioWorkload",
        figures=("fig12",),
        expected_misleading=("BW",),
    ),
}


#: Every sweep by its ``bps sweep`` name.  Each runner is a ``run_setN``
#: and so calls ``run_sweep`` through its own module's binding.
SWEEPS: dict[str, Callable[..., SweepAnalysis]] = {
    "set1": run_set1,
    "set2-hdd": functools.partial(run_set2, "hdd"),
    "set2-ssd": functools.partial(run_set2, "ssd"),
    "set3-pure": run_set3_pure,
    "set3-ior": run_set3_ior,
    "set4": run_set4,
    "set5": run_set5,
    "set6": run_set6,
}

#: ``sweep(name)`` returns the analysis of the named :data:`SWEEPS` run.
SweepGetter = Callable[[str], SweepAnalysis]


def sweeps_at(scale: ExperimentScale) -> SweepGetter:
    """A getter running each named sweep at ``scale`` at most once.

    Its memo dies with it: build one per call, so no result outlives it.
    """
    @functools.cache
    def sweep(name: str) -> SweepAnalysis:
        return SWEEPS[name](scale)
    return sweep
