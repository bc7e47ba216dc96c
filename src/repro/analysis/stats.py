"""Statistical helpers for sweep results.

Confidence intervals use the exact two-sided Student-t quantile,
computed here in pure Python (:func:`t_quantile`): the package needs
numpy only, and an interval over R replicates is the t interval at
``df = R - 1`` on every install.
"""

from __future__ import annotations

import math

import numpy as np

#: Newton steps :func:`t_quantile` allows; the most extreme confidence a
#: float can hold (1 - 2**-53 at df = 1) takes under 60.
_NEWTON_STEPS = 100
#: Terms the incomplete-beta continued fraction allows; it converges in
#: tens of terms at the quantiles :func:`t_quantile` visits.
_CF_TERMS = 10_000
_CF_EPS = 1e-15
_TINY = 1e-300


def _nonzero(value: float) -> float:
    """``value``, or a tiny positive number in its place if it is about
    0 (Lentz's guard against dividing by a vanishing partial fraction)."""
    return value if abs(value) > _TINY else _TINY


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b),
    evaluated by the modified Lentz method (Numerical Recipes 6.4)."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, x={x})")


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2). Above a = 500 by the Stirling series of
    log Gamma(a + 1/2) - log Gamma(a): the difference of two ``lgamma``
    values loses an ulp of lgamma(a) to cancellation (7e-10 at a = 5e5)."""
    if a <= 500.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    ratio = 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) - 1.0 / (24.0 * a * (a + 0.5))
    return 0.5 * math.log(math.pi) - ratio


def t_quantile(confidence: float, df: float) -> float:
    """The t with P(|T| <= t) = ``confidence`` for Student's T with
    ``df`` degrees of freedom (the two-sided quantile of a t interval).

    P(|T| > t) is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2) (A&S 26.7.1), read off its continued fraction.
    That tail is convex and decreasing in t, so Newton's method from
    t = 0 climbs to the root without overshooting. Within 2e-11
    relative of a reference t quantile up to df = 10**6 (the tests
    cross-check it).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df!r}")
    a = 0.5 * df
    log_beta = _log_beta_half(a)
    # Past this x the fraction converges slowly; 1 - I_{1-x}(1/2, a) is used.
    split = (a + 1.0) / (a + 2.5)
    # The first step, from t = 0 where the tail is 1 and the pdf is 1/(sqrt(df) B).
    t = 0.5 * confidence * math.sqrt(df) * math.exp(log_beta)
    for _ in range(_NEWTON_STEPS):
        r = t * t / df
        x = 1.0 / (1.0 + r)
        # x^a (1 - x)^(1/2) / B(a, 1/2), which is also t times the pdf at t.
        front = math.exp(math.log(t) - a * math.log1p(r) - 0.5 * math.log(df + t * t) - log_beta)
        # P(|T| > t) - (1 - confidence), each branch without cancellation.
        if x < split:
            excess = front * _beta_cf(a, 0.5, x) / a - (1.0 - confidence)
        else:
            excess = confidence - 2.0 * front * _beta_cf(0.5, a, r / (1.0 + r))
        step = excess * t / (2.0 * front)
        t += step
        if step <= 1e-13 * t:
            break
    return t


def mean_ci(samples, confidence: float = 0.95) -> tuple[float, float]:
    """Sample mean and half-width of its two-sided t confidence interval.

    Returns ``(mean, half_width)``; half-width is 0 for fewer than two
    samples. A ``confidence`` outside (0, 1) raises ``ValueError``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        return math.nan, 0.0
    mean = float(x.mean())
    if x.size < 2:
        return mean, 0.0
    sem = float(x.std(ddof=1)) / math.sqrt(x.size)
    return mean, t_quantile(confidence, x.size - 1) * sem


def geometric_mean(values) -> float:
    """Geometric mean of positive values (the right average for ratios
    like the Figure 12b relative latencies)."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return math.nan
    if np.any(x <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(x).mean()))


def coefficient_of_variation(values) -> float:
    """std/mean — dispersion measure used in the burstiness tests."""
    x = np.asarray(values, dtype=float)
    mean = x.mean()
    if mean == 0:
        return math.nan
    return float(x.std(ddof=1) / mean) if x.size > 1 else 0.0
