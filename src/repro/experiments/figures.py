"""Figure/table registry: paper artifact id → regeneration code.

``FIGURES`` maps every evaluation figure and table of the paper to a
:class:`FigureSpec` whose ``produce(sweep)`` returns the artifact as
text, reading each sweep it names through the getter ``sweep(name)``
(:func:`~repro.experiments.registry.sweeps_at`); static artifacts
accept ``None``.  ``python -m repro figures fig5`` (see
:mod:`repro.cli`) and the benchmark harness both go through this
registry, so the per-experiment index in DESIGN.md stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.correlation import EXPECTED_DIRECTIONS
from repro.errors import ExperimentError
from repro.experiments.registry import EXPERIMENT_SETS, SweepGetter, sweeps_at
from repro.experiments.runner import ExperimentScale
from repro.experiments.summary import summarize
from repro.util.tables import TextTable


@dataclass(frozen=True)
class FigureSpec:
    """One reproducible paper artifact."""

    figure_id: str
    title: str
    paper_expectation: str
    produce: Callable[[SweepGetter], str]


def _fig1(_sweep: SweepGetter | None) -> str:
    """Fig. 1: six two-request cases, rendered from the definitions.

    Each sub-case compares two services of the same application demand;
    the metric that cannot tell them apart (or prefers the slower one)
    is exactly the paper's target.
    """
    from repro.core.metrics import arpt, bandwidth, bps, iops
    from repro.core.records import IORecord, TraceCollection

    def trace(*specs):
        return TraceCollection([
            IORecord(0, "read", nbytes, start, end)
            for nbytes, start, end in specs
        ])

    sections = []

    # (a) Different I/O sizes: two size-S requests in 2T vs one 2S in T.
    left = trace((512, 0.0, 1.0), (512, 1.0, 2.0))
    right = trace((1024, 0.0, 1.0))
    table = TextTable(["case (a) different I/O sizes",
                       "IOPS", "BPS", "I/O time"])
    table.add_row(["two S-requests in 2T", f"{iops(left):.2f}",
                   f"{bps(left):.2f}", "2T"])
    table.add_row(["one 2S-request in T", f"{iops(right):.2f}",
                   f"{bps(right):.2f}", "T"])
    sections.append(table.render()
                    + "\nIOPS ties them; BPS prefers the faster right case.")

    # (b) Different actual data movement: same app demand, fs moves 2x.
    app = trace((1024, 0.0, 1.0), (1024, 1.0, 2.0))
    table = TextTable(["case (b) extra data movement",
                       "BW (B/s)", "BPS", "I/O time"])
    table.add_row(["fs moves what was asked",
                   f"{bandwidth(app, fs_bytes=2048):.0f}",
                   f"{bps(app):.2f}", "2T"])
    table.add_row(["fs moves 2x (holes)",
                   f"{bandwidth(app, fs_bytes=4096):.0f}",
                   f"{bps(app):.2f}", "2T"])
    sections.append(table.render()
                    + "\nBW doubles for identical application service; "
                      "BPS is unmoved.")

    # (c) Different concurrency: sequential vs concurrent T-requests.
    sequential = trace((512, 0.0, 1.0), (512, 1.0, 2.0))
    concurrent = trace((512, 0.0, 1.0), (512, 0.0, 1.0))
    table = TextTable(["case (c) different concurrency",
                       "ARPT", "BPS", "I/O time"])
    table.add_row(["sequential", f"{arpt(sequential):.2f}",
                   f"{bps(sequential):.2f}", "2T"])
    table.add_row(["concurrent", f"{arpt(concurrent):.2f}",
                   f"{bps(concurrent):.2f}", "T"])
    sections.append(table.render()
                    + "\nARPT ties them; BPS doubles for the overlap.")

    return "\n\n".join(sections)


def _fig2(_sweep: SweepGetter | None) -> str:
    """Fig. 2: the union-time worked example, recomputed."""
    from repro.core.intervals import (
        idle_time,
        total_request_time,
        union_time,
        union_time_paper,
    )
    intervals = [(0.0, 3.0), (1.0, 4.0), (2.0, 5.0), (7.0, 9.0)]
    table = TextTable(["quantity", "value"])
    table.add_row(["requests", "R1=[0,3] R2=[1,4] R3=[2,5] R4=[7,9]"])
    table.add_row(["sum of T1..T4 (NOT used)",
                   f"{total_request_time(intervals):.1f}"])
    table.add_row(["dt1 (R1-R3 merged)", "5.0"])
    table.add_row(["dt2 (R4)", "2.0"])
    table.add_row(["idle gap (excluded)",
                   f"{idle_time(intervals):.1f}"])
    table.add_row(["T = dt1 + dt2 (numpy impl)",
                   f"{union_time(intervals):.1f}"])
    table.add_row(["T = dt1 + dt2 (paper Fig.3 port)",
                   f"{union_time_paper(intervals):.1f}"])
    return table.render()


def _table1(_sweep: SweepGetter | None) -> str:
    table = TextTable(["I/O metric", "expected CC direction"])
    for metric, direction in EXPECTED_DIRECTIONS.items():
        table.add_row([metric, "negative" if direction < 0 else "positive"])
    return table.render()


def _table2(_sweep: SweepGetter | None) -> str:
    table = TextTable(["set", "description", "paper tool", "workload",
                       "figures", "expected misleading"])
    for spec in EXPERIMENT_SETS.values():
        table.add_row([
            f"Set{spec.set_id}",
            spec.description,
            spec.paper_tool,
            spec.workload,
            ",".join(spec.figures),
            ",".join(spec.expected_misleading) or "-",
        ])
    return table.render()


def _cc_figure(title: str, name: str) -> Callable[[SweepGetter], str]:
    def produce(sweep: SweepGetter) -> str:
        analysis = sweep(name)
        return (analysis.render_cc_figure(title) + "\n\n"
                + analysis.render_cc_table())
    return produce


def _detail(name: str, metric: str) -> Callable[[SweepGetter], str]:
    return lambda sweep: sweep(name).render_detail([metric, "exec_time"])


FIGURES: dict[str, FigureSpec] = {
    "fig1": FigureSpec(
        "fig1", "Six two-request cases: when each metric cannot tell",
        "IOPS blind to sizes; BW credits unwanted movement; ARPT blind "
        "to concurrency; BPS discriminates all three",
        _fig1,
    ),
    "fig2": FigureSpec(
        "fig2", "Union-time measurement worked example",
        "T = dt1 + dt2 = 7; overlap counted once, idle excluded",
        _fig2,
    ),
    "table1": FigureSpec(
        "table1", "Expected correlation directions of each I/O metric",
        "IOPS/BW/BPS negative, ARPT positive",
        _table1,
    ),
    "table2": FigureSpec(
        "table2", "I/O access cases",
        "four sets: device, size, concurrency, data movement",
        _table2,
    ),
    "fig4": FigureSpec(
        "fig4", "Normalized CC values, various storage devices (Set 1)",
        "all four metrics correct, |CC| ~ 0.93",
        _cc_figure("Fig.4 — CC by metric, storage-device sweep", "set1"),
    ),
    "fig5": FigureSpec(
        "fig5", "Normalized CC values, I/O sizes, HDD (Set 2)",
        "BW/BPS correct ~0.90; IOPS & ARPT flipped",
        _cc_figure("Fig.5 — CC by metric, record-size sweep (HDD)",
                   "set2-hdd"),
    ),
    "fig6": FigureSpec(
        "fig6", "Normalized CC values, I/O sizes, SSD (Set 2)",
        "BW/BPS correct ~0.90; IOPS & ARPT flipped",
        _cc_figure("Fig.6 — CC by metric, record-size sweep (SSD)",
                   "set2-ssd"),
    ),
    "fig7": FigureSpec(
        "fig7", "IOPS and execution time vs I/O size, HDD (Set 2 detail)",
        "both IOPS and execution time fall as records grow",
        _detail("set2-hdd", "IOPS"),
    ),
    "fig8": FigureSpec(
        "fig8", "ARPT and execution time vs I/O size, SSD (Set 2 detail)",
        "ARPT rises while execution time falls",
        _detail("set2-ssd", "ARPT"),
    ),
    "fig9": FigureSpec(
        "fig9", "Normalized CC values, pure concurrency (Set 3a)",
        "IOPS/BW/BPS correct ~0.96; ARPT flipped ~0.58",
        _cc_figure("Fig.9 — CC by metric, pure-concurrency sweep",
                   "set3-pure"),
    ),
    "fig10": FigureSpec(
        "fig10", "ARPT and execution time vs concurrency (Set 3a detail)",
        "execution time collapses; ARPT barely moves (slight rise)",
        _detail("set3-pure", "ARPT"),
    ),
    "fig11": FigureSpec(
        "fig11", "Normalized CC values, IOR shared file (Set 3b)",
        "IOPS/BW/BPS correct ~0.91; ARPT flipped ~0.39",
        _cc_figure("Fig.11 — CC by metric, IOR concurrency sweep", "set3-ior"),
    ),
    "fig12": FigureSpec(
        "fig12", "Normalized CC values, data sieving (Set 4)",
        "IOPS/ARPT/BPS correct ~0.92; BW flipped",
        _cc_figure("Fig.12 — CC by metric, region-spacing sweep", "set4"),
    ),
    "summary": FigureSpec(
        "summary", "Section IV.C.5 — cross-set summary",
        "BPS is the only metric correct in every sweep; overall ~0.91",
        lambda sweep: summarize(sweep).render(),
    ),
    "ext1": FigureSpec(
        "ext1", "Extension — async queue-depth sweep (Set 5, not in paper)",
        "IOPS/BW/BPS correct; ARPT flips again: queue wait raises "
        "response times while the run gets faster",
        _cc_figure("Ext.1 — CC by metric, async queue-depth sweep", "set5"),
    ),
    "ext2": FigureSpec(
        "ext2", "Extension — fault-severity sweep (Set 6, not in paper)",
        "BPS stays strongly correct; IOPS inflated by retry attempts "
        "and BW by recovery traffic lose correlation; ARPT flips",
        _cc_figure("Ext.2 — CC by metric, fault-severity sweep", "set6"),
    ),
}


def regenerate(figure_id: str,
               scale: ExperimentScale | None = None) -> str:
    """Produce one paper artifact, running each sweep it needs once."""
    try:
        spec = FIGURES[figure_id]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise ExperimentError(
            f"unknown figure {figure_id!r}; known: {known}"
        ) from None
    return spec.produce(sweeps_at(scale or ExperimentScale()))
