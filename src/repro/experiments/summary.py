"""Cross-set summary — the paper's section IV.C.5 headline.

"BPS is the only metric that works well for all the scenarios.  BPS
correctly correlates with the overall computer performance in all the
tests, and achieves high CC values" — with an overall BPS |CC| of 0.91
quoted in the introduction.

:func:`summarize` collects the normalised CC tables of the six CC sweeps
(Figs. 4-6, 9, 11, 12) and reports per-metric: in how many sweeps the
direction was correct, and the average correlation strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.correlation import METRIC_ORDER, CorrelationResult
from repro.experiments.registry import SweepGetter, sweeps_at
from repro.util.tables import TextTable

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentScale

#: Paper-quoted overall BPS correlation for EXPERIMENTS.md.
PAPER_BPS_OVERALL_CC = 0.91

#: The six CC-figure sweeps, in paper order: (row label, sweep name).
SUMMARY_SWEEPS = (
    ("fig4: devices", "set1"),
    ("fig5: I/O size (HDD)", "set2-hdd"),
    ("fig6: I/O size (SSD)", "set2-ssd"),
    ("fig9: concurrency (pure)", "set3-pure"),
    ("fig11: concurrency (IOR)", "set3-ior"),
    ("fig12: data sieving", "set4"),
)


@dataclass(frozen=True)
class SummaryResult:
    """All sweeps' correlation tables plus the per-metric verdicts."""

    tables: dict[str, dict[str, CorrelationResult]]

    def correct_counts(self) -> dict[str, int]:
        """Sweeps (out of len(tables)) where each metric kept direction."""
        counts = {metric: 0 for metric in METRIC_ORDER}
        for table in self.tables.values():
            for metric, result in table.items():
                if result.direction_correct:
                    counts[metric] += 1
        return counts

    def mean_normalized(self) -> dict[str, float]:
        """Average normalised CC per metric across sweeps."""
        sums = {metric: 0.0 for metric in METRIC_ORDER}
        for table in self.tables.values():
            for metric, result in table.items():
                sums[metric] += result.normalized
        n = len(self.tables)
        return {metric: total / n for metric, total in sums.items()}

    def bps_always_correct(self) -> bool:
        """The headline claim: BPS never flips."""
        return all(table["BPS"].direction_correct
                   for table in self.tables.values())

    def only_bps_always_correct(self) -> bool:
        """The stronger claim: every other metric flips somewhere."""
        counts = self.correct_counts()
        total = len(self.tables)
        return (counts["BPS"] == total
                and all(counts[m] < total for m in METRIC_ORDER
                        if m != "BPS"))

    def render(self) -> str:
        """Human-readable summary table."""
        table = TextTable(["sweep", *METRIC_ORDER])
        for name, results in self.tables.items():
            table.add_row([
                name,
                *(f"{results[m].normalized:+.3f}" for m in METRIC_ORDER),
            ])
        counts = self.correct_counts()
        table.add_row([
            "correct direction",
            *(f"{counts[m]}/{len(self.tables)}" for m in METRIC_ORDER),
        ])
        means = self.mean_normalized()
        table.add_row([
            "mean normalized CC",
            *(f"{means[m]:+.3f}" for m in METRIC_ORDER),
        ])
        return table.render()


def summarize(sweep: SweepGetter) -> SummaryResult:
    """Aggregate the six CC sweeps, each read once through ``sweep``."""
    return SummaryResult({label: sweep(name).correlations()
                          for label, name in SUMMARY_SWEEPS})


def run_summary(scale: ExperimentScale | None = None) -> SummaryResult:
    """Run all six CC sweeps once each and aggregate."""
    from repro.experiments.runner import ExperimentScale
    return summarize(sweeps_at(scale or ExperimentScale()))
