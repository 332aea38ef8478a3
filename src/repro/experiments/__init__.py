"""Experiment sets reproducing the paper's evaluation (section IV).

Each ``setN`` module builds the sweep of one experiment set from
Table 2, runs it (5 repetitions per point by default, as the paper
does), and returns a :class:`~repro.core.analysis.SweepAnalysis` whose
correlation table is the corresponding CC bar figure.

:mod:`repro.experiments.figures` maps paper figure/table identifiers to
the callables that regenerate them; :mod:`repro.experiments.registry`
is the machine-readable Table 2 plus ``SWEEPS``, every sweep by name.
"""

from repro import _lazy_exports

#: Every public name and the module it is imported from on first use
#: (PEP 562), so importing the registry runs no ``setN`` module.
_EXPORTS = {
    "EXPERIMENT_SETS": "repro.experiments.registry",
    "ExperimentSpec": "repro.experiments.registry",
    "SweepSpec": "repro.experiments.runner",
    "run_sweep": "repro.experiments.runner",
    "ExperimentScale": "repro.experiments.runner",
    "run_set1": "repro.experiments.set1",
    "run_set2": "repro.experiments.set2",
    "run_set3_pure": "repro.experiments.set3",
    "run_set3_ior": "repro.experiments.set3",
    "run_set4": "repro.experiments.set4",
    "run_set5": "repro.experiments.set5",
    "run_set6": "repro.experiments.set6",
    "compare_policies": "repro.experiments.set6",
    "FIGURES": "repro.experiments.figures",
    "FigureSpec": "repro.experiments.figures",
    "regenerate": "repro.experiments.figures",
    "run_summary": "repro.experiments.summary",
    "SummaryResult": "repro.experiments.summary",
}

__all__ = list(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
