"""Oracle tests for the special functions the library computes with.

Digamma, log-gamma and the standard normal CDF and its inverse come from
``scipy.special`` (``psi``, ``gammaln``, ``ndtr``, ``ndtri``).  Digamma and
log-gamma are checked against exact identities, ``math.lgamma`` and an
asymptotic-series oracle, to the accuracy the bias constant and the MLE
fits rely on.  Phi and its inverse are checked through the normal and
lognormal families' ``cdf`` and ``quantile``, against ``math.erfc`` and
``statistics.NormalDist``.  The harmonic prefix table of ``bias_b`` and the
log-beta of the beta and Fisher densities are the library's own;
scipy.special is their independent reference.
"""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
import scipy.special as sps
from scipy.special import gammaln, psi

from vsgof import ParameterError, cdf, quantile
from vsgof.distributions import _lbeta
from vsgof.vstest import harmonic_prefix

EULER_GAMMA = 0.5772156649015329

# coefficients of x^{-2k} in psi(x) ~ ln x - 1/(2x) - sum B_{2k}/(2k x^{2k})
_PSI_TAIL = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760, -1 / 12)


def _digamma_oracle(x: float) -> float:
    """psi(x) by upward recurrence to x >= 30, then the asymptotic series;
    the terms are summed exactly with math.fsum."""
    terms = []
    while x < 30.0:
        terms.append(-1.0 / x)
        x += 1.0
    terms += [math.log(x), -0.5 / x]
    terms += [c * x ** (-2 * k) for k, c in enumerate(_PSI_TAIL, start=1)]
    return math.fsum(terms)


def _harmonic(m: int) -> float:
    return harmonic_prefix(m)[m]


# ---------------------------------------------------------------------------
# digamma (scipy.special.psi)


def test_digamma_reference_grid():
    xs = np.concatenate(
        [
            np.logspace(-3, 2.5, 60),
            np.arange(1.0, 50.0),
            [0.5, 1.5, 2.5, 1e4, 1e6],
        ]
    )
    for x in xs:
        ref = _digamma_oracle(float(x))
        assert float(psi(x)) == pytest.approx(ref, rel=5e-13, abs=5e-13)


def test_digamma_integer_identity():
    # psi(n) = H_{n-1} - gamma, with the harmonic number summed exactly.
    for n in (1, 2, 3, 10, 25, 100):
        h = float(Fraction(sum(Fraction(1, k) for k in range(1, n))))
        assert float(psi(n)) == pytest.approx(h - EULER_GAMMA, abs=5e-13)


def test_digamma_frozen_value():
    assert float(psi(10.0)) == pytest.approx(2.2517525890667214, abs=1e-14)


def test_digamma_recurrence():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.05, 30.0, size=200):
        assert float(psi(x + 1.0) - psi(x)) == pytest.approx(1.0 / x, rel=1e-11)


# ---------------------------------------------------------------------------
# harmonic numbers (the prefix table of bias_b)


def test_harmonic_base_cases():
    assert harmonic_prefix(0) == [0.0]
    assert harmonic_prefix(1) == [0.0, 1.0]


def test_harmonic_exact_fraction():
    for m in (2, 7, 50, 100, 357):
        exact = float(Fraction(sum(Fraction(1, k) for k in range(1, m + 1))))
        assert _harmonic(m) == pytest.approx(exact, rel=1e-15)


def test_harmonic_frozen_value():
    assert _harmonic(100) == pytest.approx(5.187377517639621, rel=1e-15)


def test_harmonic_recurrence():
    H = harmonic_prefix(399)
    for m in range(1, 400):
        assert H[m] - H[m - 1] == pytest.approx(1.0 / m, rel=1e-12)


@pytest.mark.parametrize("bad", [-1, -7, 2.5, "3"])
def test_harmonic_domain(bad):
    with pytest.raises((ValueError, TypeError)):
        harmonic_prefix(bad)


# ---------------------------------------------------------------------------
# log-gamma (scipy.special.gammaln) / log-beta


def test_log_gamma_known_points():
    assert gammaln(1.0) == 0.0
    assert gammaln(2.0) == 0.0
    assert gammaln(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert gammaln(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_reference_grid():
    xs = np.concatenate([np.logspace(-3, 6, 80), np.arange(1.0, 30.0) / 3.0])
    for x in xs:
        assert float(gammaln(x)) == pytest.approx(
            math.lgamma(float(x)), rel=1e-12, abs=1e-12
        )


def test_log_gamma_recurrence():
    rng = np.random.default_rng(2)
    for x in rng.uniform(0.1, 100.0, size=200):
        assert float(gammaln(x + 1.0)) == pytest.approx(
            float(gammaln(x)) + math.log(x), rel=1e-12, abs=1e-12
        )


def test_log_beta_exact_small_integers():
    # B(2, 3) = 1/12.
    assert _lbeta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-14)
    assert _lbeta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_log_beta_symmetry_and_reference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.uniform(0.05, 40.0, size=2)
        got = _lbeta(a, b)
        assert got == _lbeta(b, a)
        assert got == pytest.approx(float(sps.betaln(a, b)), rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# standard normal cdf / quantile (scipy.special.ndtr / ndtri behind the
# normal and lognormal families)


def _phi(z: float) -> float:
    return float(cdf("normal", (0.0, 1.0), z))


def _phi_inv(p: float) -> float:
    return float(quantile("normal", (0.0, 1.0), p))


def _phi_oracle(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_std_normal_cdf_center_and_symmetry():
    assert _phi(0.0) == 0.5
    rng = np.random.default_rng(4)
    for z in rng.uniform(0.0, 8.0, size=200):
        lo, hi = _phi(-z), _phi(z)
        assert lo + hi == pytest.approx(1.0, abs=1e-14)


def test_std_normal_cdf_frozen_values():
    assert _phi(1.96) == pytest.approx(0.9750021048517794, abs=1e-13)
    assert _phi(-1.6448536269514722) == pytest.approx(0.05, abs=1e-13)


def test_std_normal_cdf_reference_grid():
    zs = np.concatenate([np.linspace(-37.0, 37.0, 149), [-8.3, -2.7, 0.1, 5.25]])
    mu, s = 0.3, 1.7
    for z in zs:
        z = float(z)
        assert _phi(z) == pytest.approx(_phi_oracle(z), rel=1e-11, abs=1e-300)
        # the lognormal CDF runs on the same Phi
        got = float(cdf("lognormal", (mu, s), math.exp(z)))
        assert got == pytest.approx(_phi_oracle((z - mu) / s), rel=1e-11, abs=1e-300)


def test_std_normal_cdf_tails_and_infinities():
    assert _phi(-40.0) == 0.0
    assert _phi(40.0) == 1.0
    assert _phi(float("-inf")) == 0.0
    assert _phi(float("inf")) == 1.0
    assert math.isnan(_phi(float("nan")))


def test_std_normal_quantile_known_points():
    assert _phi_inv(0.5) == 0.0
    assert _phi_inv(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert _phi_inv(0.05) == pytest.approx(-1.6448536269514722, abs=1e-12)
    assert _phi_inv(0.0) == float("-inf")
    assert _phi_inv(1.0) == float("inf")


def test_std_normal_quantile_roundtrip():
    ps = np.concatenate(
        [np.linspace(1e-6, 1.0 - 1e-6, 101), [1e-12, 1e-9, 1.0 - 1e-12]]
    )
    for p in ps:
        z = _phi_inv(float(p))
        assert _phi(z) == pytest.approx(float(p), rel=1e-10, abs=0.0)


def test_std_normal_quantile_reference_grid():
    # statistics.NormalDist implements Wichura's AS 241, apart from scipy
    ref = NormalDist()
    for p in np.linspace(0.001, 0.999, 97):
        assert _phi_inv(float(p)) == pytest.approx(ref.inv_cdf(float(p)), abs=1e-11)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_std_normal_quantile_domain(bad):
    with pytest.raises(ParameterError):
        quantile("normal", (0.0, 1.0), bad)
