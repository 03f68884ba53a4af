"""Tests for the distribution-family registry.

scipy.stats serves as an independent oracle for densities, CDFs and
quantiles; the library itself implements every family from scratch.
"""

import math
import re

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from vsgof.distributions import (
    FitResult,
    call_name,
    cdf,
    closed_form_entropy,
    default_delta,
    family_ids,
    fit_mle,
    fit_rows,
    log_density,
    mean_loglik_rows,
    param_labels,
    quantile,
    resolve_family,
    sample,
    validate_params,
)
from vsgof.errors import (
    CapabilityError,
    DataError,
    EstimationError,
    ParameterError,
)

# family id -> (params, matching scipy frozen distribution, interior grid lo/hi)
SCIPY_ORACLE = {
    "uniform": ((-1.0, 3.0), st.uniform(loc=-1.0, scale=4.0), (-0.9, 2.9)),
    "normal": ((0.5, 1.7), st.norm(0.5, 1.7), (-4.0, 5.0)),
    "lognormal": ((0.2, 0.8), st.lognorm(s=0.8, scale=math.exp(0.2)), (0.05, 9.0)),
    "exponential": ((0.7,), st.expon(scale=1.0 / 0.7), (0.01, 8.0)),
    "gamma": ((2.5, 1.5), st.gamma(a=2.5, scale=1.0 / 1.5), (0.05, 9.0)),
    "weibull": ((1.3, 2.0), st.weibull_min(c=1.3, scale=2.0), (0.05, 9.0)),
    "pareto": ((2.0, 1.5), st.pareto(b=2.0, scale=1.5), (1.51, 30.0)),
    "fisher": ((4.0, 6.0), st.f(4.0, 6.0), (0.05, 12.0)),
    "laplace": ((-0.3, 1.2), st.laplace(-0.3, 1.2), (-6.0, 6.0)),
    "beta": ((2.0, 3.0), st.beta(2.0, 3.0), (0.01, 0.99)),
}


# ---------------------------------------------------------------------------
# registry


def test_registry_contents():
    assert family_ids() == (
        "uniform",
        "normal",
        "lognormal",
        "exponential",
        "gamma",
        "weibull",
        "pareto",
        "fisher",
        "laplace",
        "beta",
    )


@pytest.mark.parametrize(
    "fid,call",
    [
        ("uniform", "dunif"),
        ("normal", "dnorm"),
        ("lognormal", "dlnorm"),
        ("exponential", "dexp"),
        ("gamma", "dgamma"),
        ("weibull", "dweibull"),
        ("pareto", "dpareto"),
        ("fisher", "df"),
        ("laplace", "dlaplace"),
        ("beta", "dbeta"),
    ],
)
def test_lookup_by_id_and_call(fid, call):
    assert resolve_family(fid).family_id == fid
    assert resolve_family(call).family_id == fid
    assert resolve_family(fid.upper()).family_id == fid  # case-insensitive
    assert call_name(fid) == call


def test_unknown_family_rejected():
    with pytest.raises(ParameterError, match="unknown family"):
        resolve_family("cauchy")


def test_default_window_exponents():
    smaller = {"weibull", "fisher", "beta"}
    for fid in family_ids():
        want = 2.0 / 15.0 if fid in smaller else 1.0 / 12.0
        assert default_delta(fid) == pytest.approx(want, abs=0.0)


def test_param_labels():
    assert param_labels("normal") == ("Mean", "St. dev.")
    assert param_labels("exponential") == ("Rate",)
    assert param_labels("pareto") == ("mu", "c")


# ---------------------------------------------------------------------------
# parameter validation


# (family, parameters, the exact message); the ids keep the historical
# "<family>-bad<i>" form
BAD_PARAMS = [
    ("uniform", (3.0, 1.0), "uniform requires Min < Max, got [3.0, 1.0]"),
    ("uniform", (1.0, 1.0), "uniform requires Min < Max, got [1.0, 1.0]"),
    ("normal", (0.0, 0.0), "normal requires St. dev. > 0, got 0.0"),
    ("normal", (0.0, -1.0), "normal requires St. dev. > 0, got -1.0"),
    ("lognormal", (0.0, 0.0), "lognormal requires Scale > 0, got 0.0"),
    ("exponential", (-2.0,), "exponential requires Rate > 0, got -2.0"),
    ("exponential", (0.0,), "exponential requires Rate > 0, got 0.0"),
    ("gamma", (0.0, 1.0), "gamma requires Shape > 0 and Rate > 0, got [0.0, 1.0]"),
    ("weibull", (1.0, -1.0),
     "weibull requires Shape > 0 and Scale > 0, got [1.0, -1.0]"),
    ("pareto", (-1.0, 1.0), "pareto requires mu > 0 and c > 0, got [-1.0, 1.0]"),
    ("fisher", (0.0, 2.0), "fisher requires df1 > 0 and df2 > 0, got [0.0, 2.0]"),
    ("laplace", (0.0, 0.0), "laplace requires Scale > 0, got 0.0"),
    ("beta", (1.0, 0.0), "beta requires Shape1 > 0 and Shape2 > 0, got [1.0, 0.0]"),
]


@pytest.mark.parametrize("fid,bad,message", BAD_PARAMS,
                         ids=[f"{f}-bad{i}" for i, (f, _, _) in enumerate(BAD_PARAMS)])
def test_invalid_parameter_values(fid, bad, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        validate_params(fid, bad)


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_wrong_parameter_arity(fid):
    good = SCIPY_ORACLE[fid][0]
    with pytest.raises(ParameterError):
        validate_params(fid, good + (1.0,))
    with pytest.raises(ParameterError):
        validate_params(fid, good[:-1])


def test_nonfinite_parameters_rejected():
    with pytest.raises(ParameterError):
        validate_params("normal", (0.0, float("nan")))
    with pytest.raises(ParameterError):
        validate_params("exponential", (float("inf"),))


# ---------------------------------------------------------------------------
# density / cdf / quantile against scipy


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_log_density_matches_scipy(fid):
    params, frozen, (lo, hi) = SCIPY_ORACLE[fid]
    xs = np.linspace(lo, hi, 211)
    got = log_density(fid, params, xs)
    want = frozen.logpdf(xs)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_cdf_matches_scipy(fid):
    params, frozen, (lo, hi) = SCIPY_ORACLE[fid]
    xs = np.linspace(lo, hi, 211)
    got = cdf(fid, params, xs)
    assert np.allclose(got, frozen.cdf(xs), rtol=1e-9, atol=1e-10)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.diff(got) >= -1e-12)


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_cdf_keeps_nan(fid):
    # NaN is not a point below the support: every family maps it to NaN
    params, frozen, (lo, hi) = SCIPY_ORACLE[fid]
    got = cdf(fid, params, np.array([np.nan, lo, np.nan, hi]))
    assert np.isnan(got[[0, 2]]).all()
    assert np.allclose(got[[1, 3]], frozen.cdf([lo, hi]), rtol=1e-9, atol=1e-10)
    assert np.isnan(cdf(fid, params, float("nan")))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_cdf_at_infinities(fid):
    # fisher's w = d1 x / (d1 x + d2) used to be inf / inf at x = +inf
    params = SCIPY_ORACLE[fid][0]
    assert cdf(fid, params, -np.inf) == 0.0
    assert cdf(fid, params, np.inf) == 1.0
    assert cdf(fid, params, np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_quantile_roundtrip(fid):
    params = SCIPY_ORACLE[fid][0]
    qs = np.linspace(0.005, 0.995, 100)
    back = cdf(fid, params, quantile(fid, params, qs))
    assert np.allclose(back, qs, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("fid, params", [("fisher", (5.0, 10.0)),
                                         ("beta", (2.5, 5.0))])
@pytest.mark.parametrize("q", [1e-200, 1e-300, 5e-324])
def test_quantile_at_tiny_levels_against_mpmath(fid, params, q):
    # betaincinv gives NaN below q ~ 1e-200; the small-q series takes over
    import mpmath as mp
    with mp.workdps(50):
        if fid == "fisher":
            a, b = mp.mpf(params[0]) / 2, mp.mpf(params[1]) / 2
        else:
            a, b = map(mp.mpf, params)
        start = (a * mp.beta(a, b) * mp.mpf(q)) ** (1 / a)
        y = mp.exp(mp.findroot(
            lambda t: mp.log(mp.betainc(a, b, 0, mp.exp(t), regularized=True))
            - mp.log(mp.mpf(q)), mp.log(start)))
        want = (params[1] * y / (params[0] * (1 - y)) if fid == "fisher"
                else y)
        got = float(quantile(fid, params, q))
        assert abs(got - want) <= 1e-12 * want


def test_real_line_cdf_far_out_leaks_no_warning():
    # the laplace formula's unused branch overflows in exp past |z| ~ 709,
    # and x - mu overflows for a location near the float limit
    assert cdf("laplace", (0.0, 1.0), np.array([-800.0, 800.0])).tolist() == [
        0.0, 1.0]
    assert cdf("normal", (-1e308, 1.0), np.array([1e308])).tolist() == [1.0]


def test_quantile_rejects_bad_levels():
    with pytest.raises(ParameterError):
        quantile("normal", (0.0, 1.0), [-0.2])
    with pytest.raises(ParameterError):
        quantile("normal", (0.0, 1.0), [1.0001])


@pytest.mark.parametrize(
    "fid,params,outside",
    [
        ("uniform", (0.0, 1.0), (-0.1, 1.1)),
        ("exponential", (1.0,), (-0.5,)),
        ("pareto", (2.0, 1.5), (1.0, 0.0, -3.0)),
        ("beta", (2.0, 3.0), (-0.2, 1.3)),
        ("gamma", (2.0, 1.0), (-1.0,)),
    ],
)
def test_log_density_minus_inf_outside_support(fid, params, outside):
    assert np.all(np.isneginf(log_density(fid, params, list(outside))))


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_density_integrates_to_one(fid):
    # Piecewise between quantile knots so heavy tails (pareto, fisher)
    # converge; the knots come from the scipy oracle, the density from us.
    params, frozen, _ = SCIPY_ORACLE[fid]
    knots = frozen.ppf([1e-10, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1.0 - 1e-10])
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        piece, _ = quad(
            lambda x: math.exp(float(log_density(fid, params, x))), lo, hi, limit=200
        )
        total += piece
    assert total == pytest.approx(1.0, abs=5e-7)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_sampling_is_deterministic_and_probability_integral_uniform(fid):
    params = SCIPY_ORACLE[fid][0]
    a = sample(fid, params, 500, np.random.default_rng(99))
    b = sample(fid, params, 500, np.random.default_rng(99))
    assert np.array_equal(a, b)
    # PIT of the draws should look uniform: compare the empirical CDF of
    # cdf(samples) to the diagonal.
    u = np.sort(cdf(fid, params, sample(fid, params, 4000, np.random.default_rng(7))))
    ks = np.max(np.abs(u - (np.arange(1, 4001) - 0.5) / 4000))
    assert ks < 0.03  # crit value at alpha=0.001 is ~0.031


def test_sampling_mean_within_standard_error():
    rng = np.random.default_rng(100)
    cases = [
        ("normal", (2.0, 3.0), 2.0, 3.0),
        ("exponential", (0.5,), 2.0, 2.0),
        ("gamma", (4.0, 2.0), 2.0, 1.0),
        ("uniform", (0.0, 6.0), 3.0, 6.0 / math.sqrt(12.0)),
    ]
    n = 20_000
    for fid, params, mean, sd in cases:
        x = sample(fid, params, n, rng)
        assert abs(float(x.mean()) - mean) < 4.5 * sd / math.sqrt(n)


# ---------------------------------------------------------------------------
# maximum likelihood


def test_exponential_mle_exact():
    fit = fit_mle("exponential", np.array([1.0, 2.0, 3.0]))
    assert fit.provenance == "mle"
    assert fit.params[0] == pytest.approx(0.5, abs=1e-15)


def test_pareto_mle_exact():
    # scale = min(x); shape = n / sum log(x/min) = 3 / (3 log 2) = 1/log 2.
    fit = fit_mle("pareto", np.array([1.0, 2.0, 4.0]))
    assert fit.params[1] == 1.0
    assert fit.params[0] == pytest.approx(1.0 / math.log(2.0), abs=1e-14)


def test_uniform_and_normal_mle_exact():
    x = np.array([0.5, 2.0, -1.0, 4.0])
    u = fit_mle("uniform", x)
    assert u.params[0] == -1.0 and u.params[1] == 4.0
    nfit = fit_mle("normal", x)
    assert nfit.params[0] == pytest.approx(x.mean(), abs=0.0)
    assert nfit.params[1] == pytest.approx(math.sqrt(((x - x.mean()) ** 2).mean()))


def test_fit_result_labelled():
    fit = fit_mle("normal", np.array([0.0, 1.0, 2.0]))
    lab = fit.labelled()
    assert list(lab) == ["Mean", "St. dev."]
    assert lab["Mean"] == pytest.approx(1.0)


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_mle_recovers_parameters_on_large_samples(fid):
    params = SCIPY_ORACLE[fid][0]
    x = sample(fid, params, 4000, np.random.default_rng(101))
    fit = fit_mle(fid, x)
    assert fit.family_id == fid
    for got, want in zip(fit.params, params):
        assert got == pytest.approx(want, rel=0.12, abs=0.05)


@pytest.mark.parametrize("fid", ["gamma", "weibull", "fisher", "beta", "laplace"])
def test_mle_is_a_stationary_point(fid):
    # Mean log-likelihood at the fit beats small relative perturbations of
    # each coordinate (crude but solver-independent check of the optimum).
    params = SCIPY_ORACLE[fid][0]
    x = sample(fid, params, 800, np.random.default_rng(102))
    fit = fit_mle(fid, x)
    base = float(np.mean(log_density(fid, fit.params, x)))
    for j in range(fit.params.shape[0]):
        for bump in (0.97, 1.03):
            trial = fit.params.copy()
            trial[j] *= bump
            try:
                score = float(np.mean(log_density(fid, trial, x)))
            except ParameterError:
                continue
            assert score <= base + 1e-9


@pytest.mark.parametrize("fid", ["uniform", "normal", "lognormal", "pareto", "gamma",
                                 "weibull", "laplace", "beta"])
def test_mle_degenerate_data(fid):
    value = 0.3 if fid == "beta" else 2.0
    with pytest.raises(EstimationError):
        fit_mle(fid, np.full(4, value))


_POSITIVE = "requires strictly positive observations; violations at positions"
BAD_FIT_DATA = [
    ("lognormal", [1.0, -2.0, 3.0], f"lognormal {_POSITIVE} [1]"),
    ("exponential", [-1.0, 2.0], f"exponential {_POSITIVE} [0]"),
    ("gamma", [0.0, 1.0, 2.0], f"gamma {_POSITIVE} [0]"),
    ("beta", [0.2, 0.5, 1.0],
     "beta requires observations strictly inside (0, 1); violations at positions [2]"),
    ("pareto", [0.0, 1.0, 2.0], f"pareto {_POSITIVE} [0]"),
    ("weibull", [2.0, -0.5, 0.0, 3.0], f"weibull {_POSITIVE} [1, 2]"),
    ("fisher", [1.0, 0.0, 2.5], f"fisher {_POSITIVE} [1]"),
]


@pytest.mark.parametrize("fid,bad,message", BAD_FIT_DATA,
                         ids=[f"{f}-bad{i}" for i, (f, _, _) in enumerate(BAD_FIT_DATA)])
def test_fit_rejects_out_of_support_data(fid, bad, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        fit_mle(fid, np.array(bad))


# ---------------------------------------------------------------------------
# row-wise batch helpers (Monte-Carlo internals)


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_fit_rows_matches_per_row_fit(fid):
    # One estimator per family: a single-sample fit is its row of fit_rows,
    # bit for bit.
    params = SCIPY_ORACLE[fid][0]
    rng = np.random.default_rng(103)
    X = np.stack([sample(fid, params, 60, rng) for _ in range(12)])
    P, ok = fit_rows(fid, X)
    assert ok.all()
    for i in range(X.shape[0]):
        single = fit_mle(fid, X[i]).params
        assert np.array_equal(P[i], single)


# fit_mle parameters as float.hex on fixed samples, compared with ==.  For
# the pareto sample of seed 42 the exact shape 1/(mean log x - log min x) is
# 3.0644422907075379348..., half an ulp above the pinned value.
_PIN_DRAWS = {
    "uniform": lambda g: g.uniform(-1.0, 3.0, 20),
    "normal": lambda g: g.normal(1.0, 2.0, 20),
    "lognormal": lambda g: g.lognormal(0.0, 1.0, 20),
    "exponential": lambda g: g.exponential(1.3, 20),
    "pareto": lambda g: 1.0 + g.pareto(3.0, 20),
    "laplace": lambda g: g.laplace(0.0, 1.0, 20),
}
CLOSED_FORM_PINS = [
    ("uniform", 11, ("-0x1.c53eb27a4d78cp-1", "0x1.658b4e998245ap+1")),
    ("normal", 12, ("0x1.6215258572e52p+0", "0x1.edf4607cf6254p+0")),
    ("lognormal", 13, ("0x1.6067d9c759fbap-3", "0x1.28c316a324ef8p+0")),
    ("exponential", 14, ("0x1.5e7771a033af5p-1",)),
    ("pareto", 15, ("0x1.84852f4b73c19p+1", "0x1.008888c707880p+0")),
    ("pareto", 42, ("0x1.883fa51d88bacp+1", "0x1.0614e9060bdeep+0")),
    ("laplace", 16, ("-0x1.62e8bd5c1b0e0p-9", "0x1.28d3231a30ceep+0")),
]


@pytest.mark.parametrize("fid, seed, want", CLOSED_FORM_PINS,
                         ids=[f"{fid}-{seed}" for fid, seed, _ in CLOSED_FORM_PINS])
def test_closed_form_mle_pinned(fid, seed, want):
    x = _PIN_DRAWS[fid](np.random.default_rng(seed))
    got = tuple(float(v).hex() for v in fit_mle(fid, x).params)
    assert got == want


def scipy_mle(fid, x):
    """scipy.stats maximum-likelihood parameters, in vsgof order."""
    if fid == "gamma":
        a, _, scale = st.gamma.fit(x, floc=0)
        return a, 1.0 / scale
    if fid == "weibull":
        c, _, scale = st.weibull_min.fit(x, floc=0)
        return c, scale
    a, b, _, _ = st.beta.fit(x, floc=0, fscale=1)
    return a, b


@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("fid", ["gamma", "weibull", "beta"])
def test_batched_fit_reaches_scipy_mle(fid, n):
    # Every row of the batch reaches scipy's maximum; a constant row fails
    # on its own and leaves the other rows bit for bit as they were.
    params = SCIPY_ORACLE[fid][0]
    rng = np.random.default_rng(105)
    X = np.stack([sample(fid, params, n, rng) for _ in range(40)])
    P, ok = fit_rows(fid, X)
    assert ok.all()
    for i in range(X.shape[0]):
        ours = float(np.mean(log_density(fid, P[i], X[i])))
        ref = float(np.mean(log_density(fid, scipy_mle(fid, X[i]), X[i])))
        assert ours >= ref - 1e-9 * abs(ref)

    # 0.123 repeated: rounding leaves the moment spread slightly above zero
    with_constant = np.vstack([X[:17], np.full((1, n), 0.123), X[17:]])
    P2, ok2 = fit_rows(fid, with_constant)
    assert not ok2[17]
    assert ok2[:17].all() and ok2[18:].all()
    np.testing.assert_array_equal(np.delete(P2, 17, axis=0), P)


def test_mean_loglik_rows_matches_log_density():
    rng = np.random.default_rng(104)
    X = np.stack([sample("gamma", (2.5, 1.5), 40, rng) for _ in range(6)])
    P = np.tile(np.array([2.5, 1.5]), (6, 1))
    got = mean_loglik_rows("gamma", X, P)
    want = [float(np.mean(log_density("gamma", (2.5, 1.5), X[i]))) for i in range(6)]
    assert np.allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# closed-form entropies


def test_closed_form_entropy_values():
    assert closed_form_entropy("uniform", (0.0, 1.0)) == 0.0
    assert closed_form_entropy("uniform", (0.0, 2.0)) == pytest.approx(math.log(2.0))
    assert closed_form_entropy("normal", (5.0, 1.0)) == pytest.approx(
        1.4189385332046727, abs=1e-15
    )
    assert closed_form_entropy("pareto", (2.0, 1.0)) == pytest.approx(
        1.5 - math.log(2.0), abs=1e-15
    )
    assert closed_form_entropy("pareto", (2.0, 1.0)) == pytest.approx(
        0.8068528194400547, abs=1e-15
    )


@pytest.mark.parametrize("fid", ["lognormal", "exponential", "gamma", "weibull",
                                 "fisher", "laplace", "beta"])
def test_closed_form_entropy_unavailable(fid):
    params = SCIPY_ORACLE[fid][0]
    with pytest.raises(CapabilityError):
        closed_form_entropy(fid, params)
