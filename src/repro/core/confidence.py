"""Statistical confidence for correlation results.

The paper reports point CC values from 6-8 sweep points; with so few
points a CC of 0.9 and one of 0.6 may not be meaningfully different.
This module adds the standard Fisher z machinery so sweep reports can
carry confidence intervals:

- :func:`fisher_ci` — CI for a single Pearson coefficient;
- :func:`cc_significant` — is the correlation significantly nonzero?
- :func:`compare_cc` — are two coefficients (from independent sweeps)
  significantly different?

Pure standard library; used by the extended sweep report
(:meth:`repro.core.analysis.SweepAnalysis.render_cc_table_with_ci`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.errors import AnalysisError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided CI for a correlation coefficient."""

    cc: float
    low: float
    high: float
    n: int
    level: float

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the interval?"""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (f"{self.cc:+.3f} "
                f"[{self.low:+.3f}, {self.high:+.3f}]@{self.level:.0%}")


def _fisher_z(cc: float) -> float:
    return math.atanh(cc)


def _inverse_fisher(z: float) -> float:
    return math.tanh(z)


def fisher_ci(cc: float, n: int, *, level: float = 0.95
              ) -> ConfidenceInterval:
    """Fisher-transform confidence interval for a Pearson CC.

    ``n`` is the number of (x, y) points the coefficient was computed
    from; requires ``n >= 4`` (the transform's variance is 1/(n-3)).
    """
    if not -1.0 <= cc <= 1.0:
        raise AnalysisError(f"CC out of range: {cc}")
    if n < 4:
        raise AnalysisError(
            f"Fisher CI needs n >= 4 sweep points, got {n}"
        )
    if not 0.0 < level < 1.0:
        raise AnalysisError(f"bad confidence level {level}")
    if abs(cc) == 1.0:
        # Degenerate: the transform diverges; the CI collapses.
        return ConfidenceInterval(cc, cc, cc, n, level)
    z = _fisher_z(cc)
    se = 1.0 / math.sqrt(n - 3)
    critical = NormalDist().inv_cdf(0.5 + level / 2.0)
    return ConfidenceInterval(
        cc=cc,
        low=_inverse_fisher(z - critical * se),
        high=_inverse_fisher(z + critical * se),
        n=n,
        level=level,
    )


def cc_significant(cc: float, n: int, *, level: float = 0.95) -> bool:
    """Is the correlation significantly different from zero?"""
    return not fisher_ci(cc, n, level=level).contains(0.0)


def compare_cc(cc_a: float, n_a: int, cc_b: float, n_b: int,
               *, level: float = 0.95) -> bool:
    """Are two independent coefficients significantly different?

    Standard two-sample Fisher z test.  True = the difference is
    significant at ``level``.
    """
    if n_a < 4 or n_b < 4:
        raise AnalysisError("comparison needs n >= 4 on both sides")
    if abs(cc_a) == 1.0 or abs(cc_b) == 1.0:
        return cc_a != cc_b
    z = abs(_fisher_z(cc_a) - _fisher_z(cc_b))
    se = math.sqrt(1.0 / (n_a - 3) + 1.0 / (n_b - 3))
    critical = NormalDist().inv_cdf(0.5 + level / 2.0)
    return z > critical * se
