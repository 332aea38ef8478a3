"""Experiment sets reproducing the paper's evaluation (section IV).

Each ``setN`` module builds the sweep of one experiment set from
Table 2, runs it (5 repetitions per point by default, as the paper
does), and returns a :class:`~repro.core.analysis.SweepAnalysis` whose
correlation table is the corresponding CC bar figure.

:mod:`repro.experiments.figures` maps paper figure/table identifiers to
the callables that regenerate them; :mod:`repro.experiments.registry`
is the machine-readable Table 2 plus ``SWEEPS``, every sweep by name.
"""

from repro.experiments.registry import EXPERIMENT_SETS, ExperimentSpec
from repro.experiments.runner import SweepSpec, run_sweep, ExperimentScale
from repro.experiments.set1 import run_set1
from repro.experiments.set2 import run_set2
from repro.experiments.set3 import run_set3_pure, run_set3_ior
from repro.experiments.set4 import run_set4
from repro.experiments.set5 import run_set5
from repro.experiments.set6 import run_set6, compare_policies
from repro.experiments.figures import FIGURES, regenerate, FigureSpec
from repro.experiments.summary import run_summary, SummaryResult

__all__ = [
    "EXPERIMENT_SETS",
    "ExperimentSpec",
    "SweepSpec",
    "run_sweep",
    "ExperimentScale",
    "run_set1",
    "run_set2",
    "run_set3_pure",
    "run_set3_ior",
    "run_set4",
    "run_set5",
    "run_set6",
    "compare_policies",
    "FIGURES",
    "FigureSpec",
    "regenerate",
    "run_summary",
    "SummaryResult",
]
