"""Small aggregation helpers (no numpy/scipy dependency in the core library).

Besides the classic location aggregates (mean/geomean/median) this module
carries the dispersion and interval estimators a multi-seed error bar
(ROADMAP 4(e)) needs: sample variance/stddev and a Student-t
confidence interval that is *small-n safe* — one observation yields an
infinite interval instead of a crash or a silently overconfident ±0.
The t critical value is computed from scratch (regularized incomplete
beta + bisection) because the repo deliberately has no scipy.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean — the standard aggregate for speedups; all values
    must be positive."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    """Median; raises on empty input."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def variance(values: Sequence[float], ddof: int = 1) -> float:
    """Variance with ``ddof`` delta degrees of freedom (1 = sample).

    Raises on empty input.  With ``ddof=1`` a single observation has no
    estimable spread and the variance is returned as ``inf`` — the
    small-n-safe convention every interval estimate here builds on
    (an unknown spread must widen intervals, never narrow them).
    """
    if not values:
        raise ValueError("variance of empty sequence")
    n = len(values)
    if n <= ddof:
        return math.inf
    m = sum(values) / n
    # Two-pass sum of squared deviations: numerically fine for the
    # magnitudes aggregated here (CPIs, rates, cycle counts).
    return sum((v - m) ** 2 for v in values) / (n - ddof)


def stddev(values: Sequence[float], ddof: int = 1) -> float:
    """Standard deviation (``sqrt`` of :func:`variance`); raises on empty."""
    return math.sqrt(variance(values, ddof=ddof))


# --------------------------------------------------------------------- #
# Student-t machinery (pure python; no scipy in this repo)
# --------------------------------------------------------------------- #


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iterations = 300
    eps = 3e-14
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    # The continued fraction converges fast on one side of the mean;
    # use the symmetry relation on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    x = df / (df + t * t)
    tail = 0.5 * _betainc_reg(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


def t_critical(df: float, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value: the ``t`` with
    ``P(-t <= T <= t) = confidence``.

    ``df`` may be fractional (Welch–Satterthwaite effective degrees of
    freedom).  Found by bisection on the CDF; the result matches standard
    tables to ~1e-9 (``t_critical(1) ≈ 12.7062``, ``t_critical(10) ≈
    2.2281``, large ``df`` → the normal quantile 1.95996).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(df):
        df = 1e12  # numerically the normal limit
    target = 0.5 + confidence / 2.0
    lo, hi = 0.0, 2.0
    while student_t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e12:  # pathological confidence very close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class ConfidenceInterval(NamedTuple):
    """A symmetric interval estimate ``mean ± half_width``."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def covers(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals share at least one point."""
        return self.low <= other.high and other.low <= self.high

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "half_width": self.half_width,
            "low": self.low,
            "high": self.high,
            "n": self.n,
            "confidence": self.confidence,
        }

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.3g} ({self.confidence:.0%}, n={self.n})"


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``values``.

    Small-n safe: raises on an empty sequence, and a single observation
    yields an infinite half-width (the spread is unknowable from n=1 —
    an estimator must not pretend otherwise).
    """
    if not values:
        raise ValueError("confidence interval of empty sequence")
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return ConfidenceInterval(m, math.inf, n, confidence)
    s2 = variance(values, ddof=1)
    half = t_critical(n - 1, confidence) * math.sqrt(s2 / n)
    return ConfidenceInterval(m, half, n, confidence)
