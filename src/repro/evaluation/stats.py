"""Statistical significance helpers.

The paper reports paired t-tests throughout Section 6: summary-quality
improvements "significant at the 0.01% level" (Table 4), selection
improvements "statistically significant (p < 0.05)". These helpers provide
the same tests over per-database or per-query paired observations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a paired t-test between two matched samples."""

    statistic: float
    p_value: float
    mean_difference: float
    num_pairs: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def paired_t_test(
    first: Sequence[float], second: Sequence[float]
) -> PairedTestResult:
    """Two-sided paired t-test of ``first`` vs ``second``.

    Pairs where either observation is NaN are dropped (queries with no
    relevant documents produce NaN Rk values). Degenerate inputs — fewer
    than two valid pairs, or identical samples — return p = 1. A *constant
    nonzero* difference (one side beats the other by the same margin on
    every pair) has zero variance too, but it is the opposite of "no
    effect": the t statistic diverges, so it is reported as p = 0 with an
    infinite statistic carrying the difference's sign.
    """
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    mask = np.isfinite(a) & np.isfinite(b)
    a, b = a[mask], b[mask]
    if a.size < 2 or np.allclose(a, b):
        return PairedTestResult(
            statistic=0.0,
            p_value=1.0,
            mean_difference=float(np.mean(a - b)) if a.size else 0.0,
            num_pairs=int(a.size),
        )
    differences = a - b
    mean_difference = float(np.mean(differences))
    if float(np.ptp(differences)) == 0.0:
        # Zero-variance, nonzero mean (the identical-samples case returned
        # above): scipy yields NaN here, which the NaN→1 mapping below
        # would mislabel "not significant".
        return PairedTestResult(
            statistic=math.copysign(math.inf, mean_difference),
            p_value=0.0,
            mean_difference=mean_difference,
            num_pairs=int(a.size),
        )
    from scipy import stats

    with warnings.catch_warnings():
        # Near-identical samples trigger precision warnings; the NaN they
        # may produce is mapped to p = 1 below.
        warnings.simplefilter("ignore")
        result = stats.ttest_rel(a, b)
    statistic = float(result.statistic)
    p_value = float(result.pvalue)
    if math.isnan(p_value):
        p_value = 1.0
    return PairedTestResult(
        statistic=statistic,
        p_value=p_value,
        mean_difference=float(np.mean(a - b)),
        num_pairs=int(a.size),
    )
