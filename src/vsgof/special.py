"""The standard normal CDF and its inverse, as scalar functions.

These two are all that is left of a hand-written special-function module:
digamma, trigamma and log-gamma now come from ``scipy.special``.  Phi and
its inverse are verified against high-precision oracles in the test suite.

Algorithms
----------
erf / erfc
    Power series around zero for small arguments; for the tail, the
    Legendre continued fraction evaluated with the modified Lentz scheme.
std_normal_quantile
    Acklam's rational approximation and one Halley refinement step.

Both functions are pure, accept/return Python floats, and raise
``ValueError`` on domain violations.
"""

from __future__ import annotations

import math

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
]

_SQRT_PI = 1.7724538509055160273
_SQRT_2 = 1.4142135623730950488


def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * exp(-x^2) * sum_k 2^k x^(2k+1) / (1*3*...*(2k+1))
    # All terms positive: no cancellation.
    xsq = x * x
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= 2.0 * xsq / (2.0 * k + 1.0)
        new = total + term
        if new == total:
            break
        total = new
        if k > 200:  # pragma: no cover - series converges long before this
            break
    return 2.0 / _SQRT_PI * math.exp(-xsq) * total


def _erfc_cf(x: float) -> float:
    # Legendre continued fraction, modified Lentz evaluation:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for j in range(1, 300):
        a = 0.5 * j
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / _SQRT_PI / f


_ERF_SWITCH = 2.0


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x < _ERF_SWITCH:
        return _erf_series(x)
    return 1.0 - _erfc_cf(x)


def _erfc(x: float) -> float:
    if x < 0.0:
        return 2.0 - _erfc(-x)
    if x < _ERF_SWITCH:
        return 1.0 - _erf_series(x)
    return _erfc_cf(x)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z), accurate to ~1e-15 absolute.

    The lower tail stays relatively accurate far out (Phi(-40) underflows to
    0.0, which is below any representable 1e-300 threshold); results are
    clamped to [0, 1].
    """
    z = float(z)
    if math.isnan(z):
        raise ValueError("std_normal_cdf requires a real argument, got nan")
    if z == math.inf:
        return 1.0
    if z == -math.inf:
        return 0.0
    if z < 0.0:
        p = 0.5 * _erfc(-z / _SQRT_2)
    else:
        p = 1.0 - 0.5 * _erfc(z / _SQRT_2)
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


# Acklam's rational approximation for the inverse normal CDF, plus one
# Halley refinement against std_normal_cdf (final accuracy ~1e-15).
_INV_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_INV_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_INV_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_INV_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF.

    ``p`` must lie in [0, 1]; the endpoints map to -inf/+inf.
    """
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"std_normal_quantile requires p in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        a, b, c, d, e, f = _INV_C
        g, h, i, j = _INV_D
        x = ((((a * q + b) * q + c) * q + d) * q + e) * q + f
        x /= (((g * q + h) * q + i) * q + j) * q + 1.0
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        a, b, c, d, e, f = _INV_A
        g, h, i, j, k = _INV_B
        x = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q
        x /= ((((g * r + h) * r + i) * r + j) * r + k) * r + 1.0
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        a, b, c, d, e, f = _INV_C
        g, h, i, j = _INV_D
        x = -(((((a * q + b) * q + c) * q + d) * q + e) * q + f)
        x /= (((g * q + h) * q + i) * q + j) * q + 1.0
    # one Halley step sharpens the rational approximation to machine accuracy
    err = std_normal_cdf(x) - p
    if err != 0.0 and abs(x) < 37.0:
        u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x
