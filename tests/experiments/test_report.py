"""One-command report generation."""

from collections import Counter

import pytest

from repro.experiments import set1, set2, set3, set4, set5, set6
from repro.experiments.report import REPORT_ORDER, generate_report
from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentScale


def _counting(run_sweep, calls: Counter):
    def counted(spec, scale, **kwargs):
        calls[spec.knob] += 1
        return run_sweep(spec, scale, **kwargs)
    return counted


class TestReportStructure:
    def test_order_covers_all_figures(self):
        assert set(REPORT_ORDER) == set(FIGURES)

    @pytest.fixture(scope="class")
    def sweep_calls(self):
        return Counter()

    @pytest.fixture(scope="class")
    def report(self, sweep_calls):
        # Count through each module's own run_sweep binding, the one
        # every run_setN calls (and the one perfbench wraps).
        with pytest.MonkeyPatch.context() as patch:
            for module in (set1, set2, set3, set4, set5, set6):
                patch.setattr(module, "run_sweep",
                              _counting(module.run_sweep, sweep_calls))
            return generate_report(
                ExperimentScale(factor=0.25, repetitions=2))

    def test_each_sweep_runs_once(self, report, sweep_calls):
        assert dict(sweep_calls) == dict.fromkeys([
            "storage configuration",
            "record size (hdd)", "record size (ssd)",
            "I/O concurrency (pure)", "I/O concurrency (IOR)",
            "region spacing", "async queue depth", "fault severity",
        ], 1)

    def test_every_section_present(self, report):
        for figure_id in REPORT_ORDER:
            assert f"## {figure_id}:" in report

    def test_expectations_quoted(self, report):
        assert "Paper expectation" in report
        assert "BW flipped" in report or "BW negative" in report \
            or "flips" in report

    def test_contains_cc_tables(self, report):
        assert "MISLEADING" in report
        assert "correct" in report

    def test_markdown_code_fences_balanced(self, report):
        assert report.count("```") % 2 == 0

    def test_cli_writes_file(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "r.md"
        assert main(["report", "--scale", "0.25", "--reps", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("# BPS reproduction report")
