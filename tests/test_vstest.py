"""Tests for the KL-divergence goodness-of-fit test engine."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from conftest import select_window_oracle, spacing_oracle, window_bound_oracle

from vsgof import distributions as dist
from vsgof.errors import (
    FAILED_FIT,
    OUTSIDE_SUPPORT,
    ConstraintError,
    DataError,
    EstimationError,
    ParameterError,
    TiesError,
)
from vsgof.vstest import (
    TestOptions,
    _asymptotic_rows,
    _p_value_rows,
    asymptotic_p_value,
    bias_b,
    candidate_windows,
    empirical_null_loglik,
    monte_carlo_p_value,
    select_window,
    simulate_null_statistics,
    statistic_at,
    vs_test,
)
from vsgof.spacing import vasicek_estimate

# Sample whose spacing estimate violates the empirical-likelihood bound for
# every default candidate window under a fitted lognormal null (found by
# search, frozen for reproducibility).
CONSTRAINT_SAMPLE = np.array(
    [
        7.311756441375062e-14,
        0.000405514556529735,
        0.0016723413278128102,
        0.008231103533126158,
        0.017947885947406268,
        0.020089655033975737,
        0.08352148183210897,
        0.12234019307097213,
    ]
)


# ---------------------------------------------------------------------------
# candidate window ranges


@pytest.mark.parametrize(
    "n,delta,extend,want",
    [
        (200, 1.0 / 12.0, False, [1, 2, 3]),  # 200**0.25 = 3.76
        (200, 1.0 / 6.0, False, [1, 2]),  # 200**(1/6) = 2.42
        (8, 1.0 / 12.0, False, [1]),  # 8**0.25 = 1.68
        (10_000, 1.0 / 12.0, False, list(range(1, 11))),  # exact power of 10
        (33, 1.0 / 12.0, True, list(range(1, 17))),  # extend: all valid m
        (9, -1.0 / 6.0, False, [1, 2, 3]),  # sqrt(9) = 3
        (7, -0.5, False, [1, 2, 3]),  # capped at (n-1)//2
        (3, -math.inf, False, [1]),
        (60, -1000.0, False, list(range(1, 30))),  # 60**1000 overflows a float
        (60, -math.inf, False, list(range(1, 30))),
    ],
)
def test_candidate_windows_exact_ranges(n, delta, extend, want):
    assert list(candidate_windows(n, delta, extend)) == want


def test_candidate_windows_match_oracle():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(3, 3000))
        delta = float(rng.uniform(-0.6, 0.33))
        extend = bool(rng.integers(0, 2))
        ms = candidate_windows(n, delta, extend)
        assert ms[0] == 1
        assert ms[-1] == window_bound_oracle(n, delta, extend)


@pytest.mark.parametrize("delta", [-1000.0, -math.inf])
def test_vs_test_very_negative_delta(delta):
    x = np.random.default_rng(23).normal(size=30)
    rep = vs_test(x, "normal", delta=delta, seed=1, B=50)
    assert rep.delta == delta
    assert 1 <= rep.optimal_window <= 14
    m, scan, _ = select_window(x, "normal", (0.0, 1.0), delta=delta)
    assert list(scan.windows) == list(range(1, 15)) and 1 <= m <= 14


def test_candidate_windows_domain():
    with pytest.raises(DataError):
        candidate_windows(2, 1.0 / 12.0)
    with pytest.raises(ParameterError):
        candidate_windows(50, 1.0 / 3.0)


# ---------------------------------------------------------------------------
# statistic pieces


def test_empirical_null_loglik_exact():
    # exponential rate 1: log f(x) = -x, mean over (1,2,3) is -2
    got = empirical_null_loglik(np.array([1.0, 2.0, 3.0]), "exponential", (1.0,))
    assert got == pytest.approx(-2.0, abs=1e-15)
    # standard normal at two zeros: -log sqrt(2 pi)
    got = empirical_null_loglik(np.array([0.0, 0.0]), "normal", (0.0, 1.0))
    assert got == pytest.approx(-0.9189385332046727, abs=1e-15)


def test_empirical_null_loglik_support_violation():
    with pytest.raises(DataError, match=r"positions \[0, 2\]"):
        empirical_null_loglik(np.array([-1.0, 2.0, 0.0]), "lognormal", (0.0, 1.0))


@pytest.mark.parametrize("family, params, x", [
    ("dnorm", (0.0, 1.0), [1e155, -1e155, 0.0, 1.0, 2.0, 3.0]),
    ("dlaplace", (-1e308, 1.0), [1e308, 0.0, 1.0, 2.0, 3.0, 4.0]),
    # every log-density is finite, but their sum is below the float range;
    # the two lowest already take it there
    ("dlaplace", (-1e308, 1.0), [0.0, -1e307, -2e307, -3e307, -4e307, -5e307]),
])
def test_log_density_below_float_range_is_not_outside_the_real_line(
        family, params, x):
    # the log-density overflows to -inf at finite values; no warning leaks
    # (RuntimeWarning is an error in this suite) and the message says why
    match = r"null log-density at positions \[0(, 1)?\] is below the float range"
    with pytest.raises(DataError, match=match):
        vs_test(np.array(x), family, fixed_params=params, seed=1, B=10)
    with pytest.raises(DataError, match=match):
        empirical_null_loglik(np.array(x), family, params)
    opts = TestOptions(fixed_params=params, B=10, simulate_p_value=True)
    p, cause = _p_value_rows(dist.resolve_family(family), np.array([x]),
                             np.array([1]), opts)
    assert np.isnan(p[0])  # a power replicate counts it as an error
    assert cause[0] == OUTSIDE_SUPPORT


@pytest.mark.parametrize("family, params", [
    ("dexp", (10.0,)), ("dgamma", (2.0, 10.0)), ("dweibull", (2.0, 0.1))])
def test_log_density_below_float_range_inside_a_bounded_support(family,
                                                                params):
    # 1e308 lies inside the support; only its log-density is below the
    # float range.  A value outside the support is named alone.
    x = np.array([1.0, 2.0, 3.0, 4.0, 1e308])
    match = r"null log-density at positions \[4\] is below the float range"
    with pytest.raises(DataError, match=match):
        vs_test(x, family, fixed_params=params, B=10, seed=1)
    with pytest.raises(DataError, match=match):
        empirical_null_loglik(x, family, params)
    x[0] = -1.0
    with pytest.raises(DataError, match=r"outside the \w+ support "
                       r"\([a-z -]+\) at positions \[0\]$"):
        vs_test(x, family, fixed_params=params, B=10, seed=1)


@pytest.mark.parametrize("family", ["dnorm", "dgamma", "dexp", "dlaplace", "df"])
def test_fit_whose_mean_leaves_the_float_range_fails(family):
    # finite data whose sum overflows: no warning leaks (RuntimeWarning is
    # an error in this suite) and the fit, not the parameters, is at fault
    x = np.array([1e308, 9e307, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(EstimationError, match="MLE did not converge$"):
        vs_test(x, family, simulate_p_value=False)


@pytest.mark.parametrize("family", ["dexp", "dgamma"])
def test_fit_whose_rate_leaves_the_float_range_fails(family):
    # subnormal data: the rate 1 / mean x (times the shape) overflows, and
    # the fit, not the parameters, is at fault; no warning leaks
    x = np.array([1e-320, 2e-320, 3e-320, 5e-320, 8e-320, 1.3e-319])
    with pytest.raises(EstimationError, match="MLE did not converge$"):
        dist.fit_mle(family, x)
    with pytest.raises(EstimationError, match="MLE did not converge$"):
        vs_test(x, family, seed=1, B=10)
    p, cause = _p_value_rows(dist.resolve_family(family), x[None, :],
                             np.array([1]), TestOptions(B=10))
    assert np.isnan(p[0]) and cause[0] == FAILED_FIT


def test_fisher_sample_without_a_finite_maximum_fails():
    # A chi2(5)/5 sample whose F likelihood still rises at df2 = 1e5, where
    # the fit stops: scipy's optimizer climbs on past 1e6.
    x = np.random.default_rng(1).chisquare(5, size=60) / 5.0
    _, df2, _, _ = scipy.stats.f.fit(x, floc=0, fscale=1)
    assert df2 >= 1e6
    message = "^fisher MLE did not converge$"
    with pytest.raises(EstimationError, match=message):
        dist.fit_mle("fisher", x)
    with pytest.raises(EstimationError, match=message):
        vs_test(x, "df", seed=1, B=10)
    p, cause = _p_value_rows(dist.resolve_family("fisher"), x[None, :],
                             np.array([1]), TestOptions(B=10))
    assert np.isnan(p[0]) and cause[0] == FAILED_FIT


def test_statistic_at_four_point_uniform():
    # V = 1.5 log 2, mean null log-density = -log 3, so I = log 3 - 1.5 log 2.
    got = statistic_at(np.array([1.0, 2.0, 3.0, 4.0]), "uniform", (1.0, 4.0), 1)
    assert got == pytest.approx(math.log(3.0) - 1.5 * math.log(2.0), abs=1e-14)
    assert got == pytest.approx(0.05889151782819191, abs=1e-14)


@pytest.mark.parametrize(
    "family,shift",
    [("normal", 4.0), ("laplace", 4.0), ("uniform", 4.0), ("exponential", 0.0)],
)
def test_statistic_location_scale_invariance_composite(family, shift):
    # x -> shift + 2.5 x; exponential is a scale family only
    x = getattr(np.random.default_rng(21), family)(size=60)
    base = vs_test(x, family, simulate_p_value=False)
    moved = vs_test(shift + 2.5 * x, family, simulate_p_value=False)
    assert moved.statistic == pytest.approx(base.statistic, abs=1e-12)
    assert moved.optimal_window == base.optimal_window
    assert moved.p_value == pytest.approx(base.p_value, abs=1e-12)


# ---------------------------------------------------------------------------
# window selection


def test_select_window_matches_bruteforce_oracle():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(4, 31))
        kind = rng.integers(0, 3)
        if kind == 0:
            x = rng.normal(size=n)
            fid, params = "normal", (0.0, 1.0)
        elif kind == 1:
            x = rng.exponential(size=n)
            fid, params = "exponential", (float(rng.uniform(0.3, 3.0)),)
        else:
            x = rng.lognormal(sigma=1.5, size=n)
            fid, params = "lognormal", (0.0, 1.0)
        if rng.integers(0, 4) == 0:
            x = np.round(x, 1)  # occasionally force ties
            if np.unique(x).size < 2:
                continue
        delta = float(rng.choice([1.0 / 12.0, 2.0 / 15.0, 0.05, -1.0 / 6.0]))
        extend = bool(rng.integers(0, 2))
        relax = bool(rng.integers(0, 2))
        try:
            loglik = empirical_null_loglik(x, fid, params)
        except DataError:
            continue
        want = select_window_oracle(x, loglik, delta, extend, relax)
        try:
            m_hat, scan, _ = select_window(
                x, fid, params, delta=delta, extend=extend, relax=relax
            )
            got = ("ok", m_hat)
        except TiesError:
            got = ("ties", None)
        except ConstraintError:
            got = ("constraint", None)
        assert got == want
        checked += 1
    assert checked > 300


def _near(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@settings(max_examples=150, deadline=None)
@given(
    levels=st.lists(st.integers(0, 12), min_size=4, max_size=40),
    step=st.sampled_from([1e-3, 0.1, 0.25, 1.0, 7.0]),
    mean=st.floats(-3.0, 3.0),
    sd=st.floats(0.05, 5.0),
    delta=st.floats(-0.5, 0.33),
    extend=st.booleans(),
    relax=st.booleans(),
)
def test_select_window_property_dense_ties(levels, step, mean, sd, delta,
                                           extend, relax):
    # data on a coarse grid, so tie runs are long and many windows have
    # zero spacings
    x = np.array(levels, dtype=float) * step
    assume(np.unique(x).size >= 2)
    loglik = empirical_null_loglik(x, "normal", (mean, sd))
    upper = window_bound_oracle(x.size, delta, extend)
    values = [v for v in (spacing_oracle(x, m) for m in range(1, upper + 1))
              if v is not None]
    # the library and the oracle sum in different orders: skip examples that
    # a rounding difference could decide
    if not relax:
        assume(not any(_near(v, -loglik) for v in values))
    best = sorted((v for v in values if relax or v <= -loglik), reverse=True)
    assume(len(best) < 2 or not _near(best[0], best[1]))

    want = select_window_oracle(x, loglik, delta, extend, relax)
    try:
        m_hat, _, _ = select_window(x, "normal", (mean, sd), delta=delta,
                                    extend=extend, relax=relax)
        got = ("ok", m_hat)
    except TiesError:
        got = ("ties", None)
    except ConstraintError:
        got = ("constraint", None)
    assert got == want


def test_select_window_reports_scan_and_ties_warning():
    x = np.sort(np.random.default_rng(23).normal(size=20))
    x[1] = x[0]  # boundary tie kills m=1 only
    m_hat, scan, warnings = select_window(x, "normal", (0.0, 1.0))
    assert list(scan.windows) == [1, 2]  # 20**0.25 = 2.11
    assert not scan.computable[0]
    assert m_hat == 2
    assert any("tied values" in w for w in warnings)


def test_constraint_error_and_relax_rescue():
    with pytest.raises(ConstraintError):
        vs_test(CONSTRAINT_SAMPLE, "lognormal", simulate_p_value=False)
    report = vs_test(CONSTRAINT_SAMPLE, "lognormal", relax=True, simulate_p_value=False)
    assert report.relax
    assert report.optimal_window == 1
    assert report.statistic == pytest.approx(-1.042116370695675, abs=1e-12)


def test_all_tied_sample_raises_ties_error():
    x = np.full(10, 3.25)
    with pytest.raises(TiesError):
        vs_test(x, "normal", fixed_params=(0.0, 1.0), simulate_p_value=False)
    # composite fit fails earlier: zero variance is an estimation problem
    with pytest.raises(EstimationError):
        vs_test(x, "normal", simulate_p_value=False)


# ---------------------------------------------------------------------------
# normal-limit centering and p-values


def harmonic_fraction(k):
    return float(Fraction(sum(Fraction(1, j) for j in range(1, k + 1))))


def bias_oracle(m, n):
    """Direct transcription of the centering constant, scipy digamma."""
    tail = sum(harmonic_fraction(i + m - 2) for i in range(1, m + 1))
    return (
        math.log(2 * m)
        - math.log(n)
        - float(sps.digamma(2 * m))
        + float(sps.digamma(n + 1))
        + (2.0 * m / n) * harmonic_fraction(2 * m - 1)
        - (2.0 / n) * tail
    )


def test_bias_frozen_value():
    assert bias_b(1, 10) == pytest.approx(0.5195303415341537, abs=1e-13)


def test_bias_matches_oracle():
    for n in (5, 10, 37, 100, 1000):
        for m in (1, 2, (n - 1) // 2):
            if 2 * m >= n:
                continue
            assert bias_b(m, n) == pytest.approx(bias_oracle(m, n), abs=5e-12)


def test_bias_positive_for_all_valid_windows():
    for n in range(3, 200):
        for m in range(1, (n - 1) // 2 + 1):
            assert bias_b(m, n) > 0.0


def test_bias_large_n_limit():
    # b(m, n) -> log(2m) - psi(2m) as n grows
    assert bias_b(2, 10**6) == pytest.approx(
        math.log(4.0) - float(sps.digamma(4.0)), abs=2e-5
    )


def test_bias_domain():
    with pytest.raises(ParameterError):
        bias_b(0, 10)
    with pytest.raises(ParameterError):
        bias_b(5, 10)


def test_asymptotic_rows_equal_the_scalar_formula():
    # the array expression of the row path against the scalar loop it
    # replaced, bit for bit
    g = np.random.default_rng(5)
    for n in (80, 200, 5003):
        m = g.integers(1, 5, 500)
        stat = g.normal(0.05, 0.05, 500)
        want = [float(sps.ndtr(-math.sqrt(6.0 * int(k) * n)
                               * (float(t) - bias_b(int(k), n))))
                for t, k in zip(stat, m)]
        assert _asymptotic_rows(stat, m, n).tolist() == want


def test_asymptotic_p_value_reference_points():
    # statistic at the centering constant has z = 0, p = 1/2
    assert asymptotic_p_value(bias_b(3, 100), 3, 100) == pytest.approx(0.5, abs=1e-14)
    z95 = 1.6448536269514722
    stat = bias_b(3, 100) + z95 / math.sqrt(6.0 * 3 * 100)
    assert asymptotic_p_value(stat, 3, 100) == pytest.approx(0.05, abs=1e-12)
    # very large statistics are off the normal scale entirely
    assert asymptotic_p_value(bias_b(1, 50) + 100.0, 1, 50) == 0.0


@pytest.mark.parametrize("z", [8.0, 10.0, 20.0])
def test_asymptotic_p_value_far_upper_tail(z):
    # 1 - Phi(z) rounds to 0 from z ~ 8.3; the tail itself is representable
    stat = bias_b(3, 100) + z / math.sqrt(6.0 * 3 * 100)
    want = 0.5 * math.erfc(z / math.sqrt(2.0))
    assert asymptotic_p_value(stat, 3, 100) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Monte-Carlo machinery


def test_simulated_null_statistics_deterministic_across_threads():
    ms = candidate_windows(40, 1.0 / 12.0)
    runs = [
        simulate_null_statistics(
            "exponential", (1.0,), 40, 700, refit=False, ms=ms, seed=5, threads=t
        )
        for t in (1, 2, 8)
    ]
    for stats, m_hat, ok in runs[1:]:
        assert np.array_equal(stats, runs[0][0])
        assert np.array_equal(m_hat, runs[0][1])
        assert np.array_equal(ok, runs[0][2])


def test_monte_carlo_p_value_counts_strictly_above():
    ms = candidate_windows(30, 1.0 / 12.0)
    stats, _, ok = simulate_null_statistics(
        "normal", (0.0, 1.0), 30, 512, refit=False, ms=ms, seed=9, threads=1
    )
    assert ok.all()
    observed = float(stats[100])  # exactly equal to one replicate
    p, ignored = monte_carlo_p_value(
        observed, "normal", (0.0, 1.0), 30, B=512, refit=False, ms=ms, seed=9
    )
    assert ignored == 0
    assert p == float((stats > observed).mean())  # ties with observed excluded
    assert p < float((stats >= observed).mean())


def test_monte_carlo_ignores_inadmissible_replicates():
    # Frozen instance: a heavy-shape gamma at n=4 discards many replicates.
    x = np.array(
        [0.00038003318428034223, 0.41549906107779383, 0.4460776176009004,
         0.7729651843968999]
    )
    report = vs_test(x, "gamma", fixed_params=(0.3, 1.0), B=500, seed=11)
    assert report.p_value_method == "monte_carlo"
    assert report.ignored_replicates == 119
    assert report.p_value == pytest.approx(0.968503937007874, abs=1e-15)
    assert any("119 of 500" in w for w in report.warnings)


U60 = np.random.default_rng(9).uniform(0.3, 0.7, 60)
PARETO30 = 1.0 + np.random.default_rng(2).pareto(0.01, 30)
LOGNORMAL30 = np.exp(np.random.default_rng(1).normal(0.0, 250.0, 30))


@pytest.mark.parametrize("x, family, options, p_value, ignored", [
    # beta(0.2, 0.2) and beta(0.05, 0.05) draws rounded to exactly 0 or 1
    # have a null term of -inf: discarded, not +inf statistics above every
    # observed one (counted so, they gave p = 0.0226 with 232 ignored, and
    # 0.651 with 924)
    (U60, "beta", dict(fixed_params=(0.2, 0.2), B=2000, seed=4), 0.0, 272),
    (U60[:20], "beta", dict(fixed_params=(0.05, 0.05), relax=True, B=2000,
                            seed=4), 0.0, 1625),
    # one null draw overflows to +inf, and its refit fails: discarded, not
    # kept with a NaN statistic
    (PARETO30, "pareto", dict(relax=True, simulate_p_value=True, B=500,
                              seed=1), 0.342685370741483, 1),
    # null draws that overflow to +inf, whose refits fail without a warning
    (LOGNORMAL30, "lognormal", dict(relax=True, simulate_p_value=True, B=500,
                                    seed=1), 0.8299595141700404, 6),
], ids=["beta-0.2", "beta-0.05-relax", "pareto-overflow", "lognormal-overflow"])
def test_null_replicates_need_a_finite_null_term(x, family, options, p_value,
                                                 ignored):
    report = vs_test(x, family, **options)
    assert report.p_value == p_value
    assert report.ignored_replicates == ignored
    fixed = options.get("fixed_params")
    stats, _, ok = simulate_null_statistics(
        family, fixed or report.estimate.params, x.size, options["B"],
        refit=fixed is None, ms=report.window_scan.windows,
        relax=options.get("relax", False), seed=options["seed"])
    assert np.isfinite(stats[ok]).all() and ok.sum() == options["B"] - ignored


def test_uniform_null_wider_than_the_float_range():
    # Max - Min overflows: no warning and no false DataError, and the test
    # of the same data scaled by a power of two, up to the rounding of the
    # spacing logarithms
    x, s = np.linspace(-1e307, 1e307, 30), 2.0 ** -1000
    wide = vs_test(x, "dunif", fixed_params=(-1e308, 1e308), B=200, seed=1,
                   simulate_p_value=True)
    narrow = vs_test(x * s, "dunif", fixed_params=(-1e308 * s, 1e308 * s),
                     B=200, seed=1, simulate_p_value=True)
    assert wide.statistic == pytest.approx(narrow.statistic, rel=1e-12)
    assert wide.optimal_window == narrow.optimal_window
    assert (wide.p_value, wide.ignored_replicates) == (
        narrow.p_value, narrow.ignored_replicates)
    assert wide.p_value == 0.0  # the data fill a tenth of the range


def test_weibull_fit_of_a_tiny_shape_is_a_test():
    # the fitted scale, 4.1e-207, used to underflow to 0: the single test
    # raised a ParameterError about parameters the user never gave
    x = np.r_[1e-300 * np.arange(1, 30), 1e300]
    report = vs_test(x, "weibull", relax=True, simulate_p_value=False)
    assert np.all(report.estimate.params > 0)
    assert np.isfinite(report.statistic)
    with pytest.raises(ConstraintError):
        vs_test(x, "weibull", simulate_p_value=False)


def test_invalid_fitted_parameters_are_a_failed_fit(monkeypatch):
    # a fit flagged ok with parameters outside the parameter space is a
    # failed fit, never an error about parameters the user did not give
    fam = dist.resolve_family("gamma")
    fit_rows = fam.fit_rows

    def negative_rate(X):
        P, ok, loglik = fit_rows(X)
        P[:, 1] = -P[:, 1]
        return P, ok, loglik

    monkeypatch.setattr(fam, "fit_rows", negative_rate)
    x = np.random.default_rng(31).gamma(2.0, 1.5, size=(2, 30))
    with pytest.raises(EstimationError, match="did not converge"):
        vs_test(x[0], "gamma", simulate_p_value=False)
    p, cause = _p_value_rows(fam, x, np.array([1, 2]),
                             TestOptions(simulate_p_value=False))
    assert cause.tolist() == [FAILED_FIT] * 2 and np.isnan(p).all()


def test_monte_carlo_all_replicates_discarded():
    x = np.array(
        [7.284056079172491e-05, 0.0057410230065873605, 0.058183585655950006,
         0.9666634208773721]
    )
    with pytest.raises(EstimationError,
                       match=r"discarded \(no admissible window, a failed "
                             r"refit, or a draw outside the null support\)"):
        vs_test(x, "gamma", fixed_params=(0.02, 1.0), B=8, seed=0)


# ---------------------------------------------------------------------------
# p-value method resolution


def test_method_defaults_switch_at_eighty():
    rng = np.random.default_rng(24)
    x79 = rng.normal(size=79)
    x80 = rng.normal(size=80)
    assert vs_test(x79, "normal", seed=1).p_value_method == "monte_carlo"
    assert vs_test(x80, "normal").p_value_method == "asymptotic"


def test_method_overrides():
    rng = np.random.default_rng(25)
    x = rng.normal(size=120)
    forced_mc = vs_test(x, "normal", simulate_p_value=True, B=400, seed=2)
    assert forced_mc.p_value_method == "monte_carlo"
    assert forced_mc.B == 400
    small = rng.normal(size=30)
    forced_asym = vs_test(small, "normal", simulate_p_value=False)
    assert forced_asym.p_value_method == "asymptotic"
    assert forced_asym.B is None


def test_extend_forces_monte_carlo():
    rng = np.random.default_rng(26)
    x = rng.normal(size=150)
    report = vs_test(x, "normal", extend=True, B=300, seed=3)
    assert report.p_value_method == "monte_carlo"
    assert report.window_scan.m_max == 74  # (150 - 1) // 2
    with pytest.raises(ParameterError):
        vs_test(x, "normal", extend=True, simulate_p_value=False)


def test_monte_carlo_requires_seed():
    x = np.random.default_rng(27).normal(size=40)
    with pytest.raises(ParameterError, match="seed"):
        vs_test(x, "normal")


# ---------------------------------------------------------------------------
# vs_test report plumbing


def test_simple_null_has_no_estimate():
    x = np.random.default_rng(28).exponential(size=90)
    report = vs_test(x, "dexp", fixed_params=(1.0,))
    assert report.estimate is None
    assert report.family_id == "exponential"
    assert report.p_value_method == "asymptotic"


def test_composite_null_reports_mle():
    x = np.random.default_rng(29).exponential(scale=2.0, size=100)
    report = vs_test(x, "exponential")
    assert report.estimate is not None
    assert report.estimate.provenance == "mle"
    assert report.estimate.params[0] == pytest.approx(1.0 / x.mean(), rel=1e-12)
    # the statistic equals the one recomputed at the reported window/params
    recomputed = statistic_at(x, "exponential", report.estimate.params,
                              report.optimal_window)
    assert report.statistic == pytest.approx(recomputed, abs=1e-12)
    # so for every family, whose null term comes from its fit
    rng = np.random.default_rng(291)
    for fid, params in [("uniform", (-1.0, 3.0)), ("normal", (0.5, 1.7)),
                        ("lognormal", (0.2, 0.8)), ("exponential", (0.7,)),
                        ("gamma", (2.5, 1.5)), ("weibull", (1.3, 2.0)),
                        ("pareto", (2.0, 1.5)), ("fisher", (4.0, 6.0)),
                        ("laplace", (-0.3, 1.2)), ("beta", (2.0, 3.0))]:
        for n in (20, 200):
            x = dist.sample(fid, params, n, rng)
            report = vs_test(x, fid, simulate_p_value=False)
            recomputed = (-vasicek_estimate(x, report.optimal_window)
                          - empirical_null_loglik(x, fid, report.estimate.params))
            assert report.statistic == pytest.approx(recomputed, rel=1e-12, abs=1e-12)


def test_report_scan_is_consistent():
    x = np.random.default_rng(30).normal(size=64)
    report = vs_test(x, "normal", seed=4, B=200)
    scan = report.window_scan
    assert scan.m_min == 1 and scan.m_max == 2  # 64**0.25 = 2.83
    j = report.optimal_window - 1
    assert -scan.values[j] - empirical_null_loglik(
        x, "normal", report.estimate.params
    ) == pytest.approx(report.statistic, abs=1e-12)


def test_vs_test_threads_do_not_change_results(uncached):
    x = np.random.default_rng(31).gamma(2.0, size=50)
    reports = [vs_test(x, "gamma", B=600, seed=6, threads=t) for t in (1, 2, 8)]
    assert reports[0].p_value == reports[1].p_value == reports[2].p_value
    assert reports[0].statistic == reports[1].statistic == reports[2].statistic
    assert (reports[0].ignored_replicates == reports[1].ignored_replicates
            == reports[2].ignored_replicates)


def test_option_validation():
    x = np.random.default_rng(32).normal(size=20)
    with pytest.raises(ParameterError, match="not both"):
        vs_test(x, "normal", TestOptions(seed=1), seed=2)
    for bad_B in (0, True):
        with pytest.raises(ParameterError, match="B must be"):
            vs_test(x, "normal", B=bad_B, seed=1)
        with pytest.raises(ParameterError, match="B must be"):
            vs_test(x, "normal", TestOptions(B=bad_B, seed=1))
    for bad_seed in (-1, 1.5, "7", True, np.float64(3.0)):
        with pytest.raises(ParameterError, match="seed"):
            vs_test(x, "normal", seed=bad_seed, B=50)
        with pytest.raises(ParameterError, match="seed"):
            vs_test(x, "normal", seed=bad_seed, simulate_p_value=False)
    with pytest.raises(ParameterError, match="delta"):
        vs_test(x, "normal", delta=0.4, seed=1)
    with pytest.raises(DataError):
        vs_test(np.array([1.0, 2.0]), "normal", seed=1)
    with pytest.raises(ParameterError):
        vs_test(x, "normal", fixed_params=(0.0, 1.0, 2.0), seed=1)
    for bad_threads in (0, -3, "2", None, 1.5, True):
        with pytest.raises(ParameterError, match="threads must be"):
            vs_test(x, "normal", B=50, seed=1, threads=bad_threads)
        with pytest.raises(ParameterError, match="threads must be"):
            vs_test(x, "normal", simulate_p_value=False, threads=bad_threads)


def test_empirical_likelihood_identity_smoke():
    # With the constraint dropped and the window range widened to sqrt(n),
    # the statistic under a plug-in normal null is an exact monotone
    # transform of the spacings-based likelihood ratio:
    #   n * I + 1/2 = n * log(sqrt(2 pi e) * s) - n * V  (s with ddof=1)
    rng = np.random.default_rng(33)
    x = rng.normal(size=60)
    s1 = float(np.std(x, ddof=1))
    report = vs_test(
        x, "normal", fixed_params=(float(np.mean(x)), s1),
        delta=-1.0 / 6.0, relax=True, simulate_p_value=False,
    )
    assert report.window_scan.m_max == 7  # floor(sqrt(60))
    v = report.window_scan.value_at(report.optimal_window)
    log_ratio = 60.0 * (math.log(s1) + 0.5 * math.log(2.0 * math.pi * math.e)) - 60.0 * v
    assert 60.0 * report.statistic + 0.5 == pytest.approx(log_ratio, abs=1e-10)
