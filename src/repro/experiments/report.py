"""One-command reproduction report.

:func:`generate_report` runs every paper artifact (tables, CC figures,
details, the cross-set summary) at a chosen scale and assembles a
single Markdown document with measured output next to the paper's
expectation — the "rerun everything and show me" entry point
(``bps report``).  Each sweep runs once per report; the section that
first needs it pays for it in its ``generated in`` line.
"""

from __future__ import annotations

import time

from repro.experiments.figures import FIGURES
from repro.experiments.registry import sweeps_at
from repro.experiments.runner import ExperimentScale

#: Render order: definitions first, sweeps in paper order, then the
#: summary and the extension.
REPORT_ORDER: tuple[str, ...] = (
    "table1", "table2",
    "fig1", "fig2",
    "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12",
    "summary", "ext1", "ext2",
)


def generate_report(scale: ExperimentScale | None = None, *,
                    title: str = "BPS reproduction report") -> str:
    """Produce the full Markdown report, running each sweep once."""
    scale = scale or ExperimentScale()
    sweep = sweeps_at(scale)
    sections: list[str] = [
        f"# {title}",
        "",
        f"Scale factor {scale.factor}, {scale.repetitions} repetitions "
        f"per sweep point, base seed {scale.base_seed}.",
        "",
        "Reproduces: He, Sun, Yin. \"BPS: A Performance Metric of I/O "
        "System.\" IPDPSW 2013.",
        "",
    ]
    total_start = time.perf_counter()
    for figure_id in REPORT_ORDER:
        spec = FIGURES[figure_id]
        started = time.perf_counter()
        body = spec.produce(sweep)
        elapsed = time.perf_counter() - started
        sections.extend([
            f"## {figure_id}: {spec.title}",
            "",
            f"*Paper expectation: {spec.paper_expectation}*",
            "",
            "```text",
            body,
            "```",
            "",
            f"_(generated in {elapsed:.1f}s)_",
            "",
        ])
    sections.append(
        f"_Total generation time: "
        f"{time.perf_counter() - total_start:.1f}s_")
    return "\n".join(sections)
