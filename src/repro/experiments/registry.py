"""Machine-readable Table 2, and :data:`SWEEPS`: every sweep by name.

Each Table 2 entry names the knob the set varies, the benchmark tool the
paper used, our workload class, and the paper figures the set produces.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.core.analysis import SweepAnalysis
    from repro.experiments.runner import ExperimentScale


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


def _runner(module: str, function: str, *args: str
            ) -> Callable[..., SweepAnalysis]:
    """Run ``repro.experiments.<module>.<function>(*args, scale, ...)``,
    importing the module when the sweep runs, not when this one is."""
    def run(scale: ExperimentScale, **kwargs) -> SweepAnalysis:
        set_module = importlib.import_module(f"repro.experiments.{module}")
        return getattr(set_module, function)(*args, scale, **kwargs)
    return run


#: Every sweep by its ``bps sweep`` name.  Each runner imports its
#: ``setN`` module when it runs and calls its ``run_setN``, so every
#: sweep calls ``run_sweep`` through its own module's binding.
SWEEPS: dict[str, Callable[..., SweepAnalysis]] = {
    "set1": _runner("set1", "run_set1"),
    "set2-hdd": _runner("set2", "run_set2", "hdd"),
    "set2-ssd": _runner("set2", "run_set2", "ssd"),
    "set3-pure": _runner("set3", "run_set3_pure"),
    "set3-ior": _runner("set3", "run_set3_ior"),
    "set4": _runner("set4", "run_set4"),
    "set5": _runner("set5", "run_set5"),
    "set6": _runner("set6", "run_set6"),
}

#: ``sweep(name)`` returns the analysis of the named :data:`SWEEPS` run.
SweepGetter = Callable[[str], "SweepAnalysis"]


def sweeps_at(scale: ExperimentScale) -> SweepGetter:
    """A getter running each named sweep at ``scale`` at most once.

    Its memo dies with it: build one per call, so no result outlives it.
    """
    @functools.cache
    def sweep(name: str) -> SweepAnalysis:
        return SWEEPS[name](scale)
    return sweep
