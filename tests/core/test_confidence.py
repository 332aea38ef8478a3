"""Fisher-z confidence machinery for correlation coefficients."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.confidence import (
    cc_significant,
    compare_cc,
    fisher_ci,
)
from repro.errors import AnalysisError


class TestFisherCI:
    def test_interval_contains_estimate(self):
        interval = fisher_ci(0.8, 10)
        assert interval.low < 0.8 < interval.high
        assert interval.contains(0.8)

    def test_more_points_tighten_interval(self):
        wide = fisher_ci(0.7, 6)
        narrow = fisher_ci(0.7, 60)
        assert (narrow.high - narrow.low) < (wide.high - wide.low)

    def test_bounds_stay_in_range(self):
        interval = fisher_ci(0.99, 5)
        assert -1.0 <= interval.low <= interval.high <= 1.0

    def test_perfect_correlation_degenerate(self):
        interval = fisher_ci(1.0, 6)
        assert interval.low == interval.high == 1.0

    def test_symmetry_under_negation(self):
        pos = fisher_ci(0.6, 8)
        neg = fisher_ci(-0.6, 8)
        assert neg.low == pytest.approx(-pos.high)
        assert neg.high == pytest.approx(-pos.low)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fisher_ci(1.5, 10)
        with pytest.raises(AnalysisError):
            fisher_ci(0.5, 3)
        with pytest.raises(AnalysisError):
            fisher_ci(0.5, 10, level=1.5)

    def test_str_format(self):
        text = str(fisher_ci(0.5, 10))
        assert "+0.500" in text and "95%" in text

    @given(st.floats(min_value=-0.999, max_value=0.999,
                     allow_nan=False),
           st.integers(min_value=4, max_value=200))
    def test_interval_always_brackets_cc(self, cc, n):
        interval = fisher_ci(cc, n)
        assert interval.low <= cc <= interval.high
        assert -1.0 <= interval.low <= interval.high <= 1.0


#: Textbook two-sided normal critical values z_L for level L.
CRITICAL_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054,
              0.99: 2.5758293035489004}


@pytest.mark.parametrize("level", sorted(CRITICAL_Z))
class TestCriticalValues:
    def test_fisher_ci_at_zero(self, level):
        n = 12
        half = math.tanh(CRITICAL_Z[level] / math.sqrt(n - 3))
        interval = fisher_ci(0.0, n, level=level)
        assert interval.low == pytest.approx(-half, rel=1e-12)
        assert interval.high == pytest.approx(half, rel=1e-12)

    def test_compare_cc_threshold(self, level):
        # Equal n: the test rejects once |z_a - z_b| > z_L * sqrt(2/(n-3)).
        n = 12
        threshold = CRITICAL_Z[level] * math.sqrt(2.0 / (n - 3))
        below = math.tanh(threshold * (1.0 - 1e-12))
        above = math.tanh(threshold * (1.0 + 1e-12))
        assert not compare_cc(below, n, 0.0, n, level=level)
        assert compare_cc(above, n, 0.0, n, level=level)


class TestSignificance:
    def test_strong_cc_with_enough_points(self):
        assert cc_significant(0.95, 10)

    def test_weak_cc_with_few_points(self):
        assert not cc_significant(0.3, 6)

    def test_paper_sweeps_are_marginal(self):
        # The paper's 6-8 point sweeps: 0.9 is significant, 0.4 is not —
        # a caveat worth quantifying in a reproduction.
        assert cc_significant(0.9, 7)
        assert not cc_significant(0.39, 6)


class TestCompare:
    def test_identical_not_different(self):
        assert not compare_cc(0.8, 10, 0.8, 10)

    def test_very_different_with_many_points(self):
        assert compare_cc(0.95, 100, 0.1, 100)

    def test_small_samples_cannot_distinguish(self):
        assert not compare_cc(0.9, 6, 0.6, 6)

    def test_degenerate_inputs(self):
        assert compare_cc(1.0, 6, 0.5, 6)
        assert not compare_cc(1.0, 6, 1.0, 6)
        with pytest.raises(AnalysisError):
            compare_cc(0.5, 3, 0.5, 10)


class TestSweepIntegration:
    def test_render_cc_table_with_ci(self):
        from repro.core.analysis import RunMeasurement, SweepAnalysis
        from repro.core.records import IORecord, TraceCollection

        sweep = SweepAnalysis("size")
        for index, duration in enumerate((4.0, 2.0, 1.3, 1.0, 0.8)):
            trace = TraceCollection([
                IORecord(0, "read", 1024 * (index + 1), 0.0, duration),
            ])
            run = RunMeasurement(trace=trace, exec_time=duration,
                                 fs_bytes=1024 * (index + 1))
            sweep.add_runs(str(index), [run])
        text = sweep.render_cc_table_with_ci()
        assert "95% CI" in text
        assert "significant?" in text
        assert "BPS" in text
