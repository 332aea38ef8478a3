"""Set 4 — various additional data movement (paper Fig. 12).

Hpio-style noncontiguous read on PVFS with 4 I/O servers, data sieving
enabled.  Region count and size fixed (paper: 4096000 × 256 B), region
spacing swept 8 B → 4096 B, so the sieve drags in ever more hole bytes
the application never asked for.

Finding: IOPS, ARPT, and BPS all correlate correctly (≈0.92) — but
**bandwidth flips**: the file system moves more data per second as
spacing grows (bigger contiguous sieve reads), yet the application only
gets *slower*.  File-system throughput is simply not I/O-system
performance once the middleware moves data the application didn't ask
for; BPS, which counts application-required blocks, keeps the right
direction.

Paper scale: 4 096 000 regions/process.  Default reproduction: 2048
regions × 4 processes with the identical spacing ladder (the
amplification ratio per spacing point is what drives the effect, and it
is scale-free).
"""

from __future__ import annotations

from repro.core.analysis import SweepAnalysis
from repro.experiments.runner import (
    ExperimentScale,
    SweepSpec,
    run_sweep,
    spec_cell_task,
)
from repro.middleware.sieving import SievingConfig
from repro.system import SystemConfig
from repro.util.units import KiB, MiB
from repro.workloads.hpio import HpioWorkload

#: Paper-quoted results for EXPERIMENTS.md comparison.
PAPER_AVG_ABS_CC = 0.92

#: The paper's spacing ladder, 8 B → 4096 B.
REGION_SPACINGS: tuple[int, ...] = (8, 32, 128, 512, 1024, 2048, 4096)
REGION_SIZE = 256
BASE_REGION_COUNT = 2048
NPROC = 4
N_SERVERS = 4
JITTER_SIGMA = 0.08


def build_sweep(scale: ExperimentScale, *,
                sieving_enabled: bool = True) -> SweepSpec:
    """The spacing ladder (``sieving_enabled=False`` is the ablation)."""
    region_count = max(64, int(BASE_REGION_COUNT * scale.factor))
    config = SystemConfig(
        kind="pfs", device_spec="sata-hdd-7200", n_servers=N_SERVERS,
        stripe_size=64 * KiB, jitter_sigma=JITTER_SIGMA,
    )
    sieving = SievingConfig(enabled=sieving_enabled, buffer_size=4 * MiB,
                            max_hole=64 * KiB)
    points = []
    for spacing in REGION_SPACINGS:
        def make_workload(_gap=spacing) -> HpioWorkload:
            return HpioWorkload(
                region_count=region_count, region_size=REGION_SIZE,
                region_spacing=_gap, nproc=NPROC, sieving=sieving,
            )
        points.append((f"{spacing}B", make_workload, config))
    return SweepSpec(knob="region spacing", points=points)


def run_set4(scale: ExperimentScale | None = None, *,
             sieving_enabled: bool = True,
             **run_kwargs) -> SweepAnalysis:
    """Run the Set 4 sweep; its CC table is Fig. 12."""
    scale = scale or ExperimentScale()
    run_kwargs.setdefault("grid_task", spec_cell_task(
        f"{__name__}:build_sweep", scale,
        sieving_enabled=sieving_enabled))
    return run_sweep(build_sweep(scale, sieving_enabled=sieving_enabled),
                     scale, **run_kwargs)
