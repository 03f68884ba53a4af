"""Tests for the distribution-family registry.

scipy.stats serves as an independent oracle for densities, CDFs and
quantiles; the library itself implements every family from scratch.
"""

import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad
from scipy.special import (betaincinv, gammainccinv, gammaincinv,
                           gammaln, psi, zeta)

from vsgof import edf_test, vs_test
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


def mpmath_quantile(fid, params, q):
    """The beta or fisher quantile at level q, solved with mpmath."""
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
        return (params[1] * y / (params[0] * (1 - y)) if fid == "fisher"
                else y)


@pytest.mark.parametrize("fid, params", [("fisher", (5.0, 10.0)),
                                         ("beta", (2.5, 5.0))])
@pytest.mark.parametrize("q", [1e-200, 1e-300, 5e-324])
def test_quantile_at_tiny_levels_against_mpmath(fid, params, q):
    # betaincinv gives NaN below q ~ 1e-200; the small-q series takes over
    want = mpmath_quantile(fid, params, q)
    got = float(quantile(fid, params, q))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("fid, params", [("beta", (50.0, 3.0)),
                                         ("beta", (2.5, 5.0)),
                                         ("fisher", (100.0, 3.0))])
@pytest.mark.parametrize("q", [5e-324, 1e-320, 1e-310])
def test_quantile_at_subnormal_levels_against_mpmath(fid, params, q):
    # betaincinv can return a finite, wrong value at subnormal q (20 % off
    # for beta (50, 3) at 5e-324): the series with its first correction
    # takes over below the smallest normal float
    want = mpmath_quantile(fid, params, q)
    got = float(quantile(fid, params, q))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("params", [(0.001, 0.001), (0.0005, 0.0005)])
def test_quantile_at_tiny_shapes_leaks_no_warning(params):
    # the small-q series, unused where betaincinv is a normal float,
    # overflows for shapes this small
    q = np.array([1e-320, 0.3, 0.5, 0.999])
    y = betaincinv(*params, q)
    got = quantile("beta", params, q)
    good = y > np.finfo(float).tiny
    np.testing.assert_array_equal(got[good], y[good])
    assert np.all((got >= 0.0) & (got <= 1.0))


@pytest.mark.parametrize("fid, params", [("beta", (50.0, 3.0)),
                                         ("beta", (0.3, 0.3)),
                                         ("fisher", (100.0, 3.0)),
                                         ("fisher", (5.0, 10.0))])
def test_quantile_at_normal_levels_is_betaincinv(fid, params):
    # wherever betaincinv gives a normal value at a normal level, the
    # quantile is its value, bit for bit
    q = np.concatenate([np.logspace(-307, -1, 600), np.linspace(0.01, 0.99, 99)])
    a, b = (0.5 * params[0], 0.5 * params[1]) if fid == "fisher" else params
    y = betaincinv(a, b, q)
    good = y > np.finfo(float).tiny
    want = params[1] * y / (params[0] * (1.0 - y)) if fid == "fisher" else y
    np.testing.assert_array_equal(quantile(fid, params, q[good]), want[good])


def test_real_line_cdf_far_out_leaks_no_warning():
    # the laplace formula's unused branch overflows in exp past |z| ~ 709,
    # and x - mu overflows for a location near the float limit
    assert cdf("laplace", (0.0, 1.0), np.array([-800.0, 800.0])).tolist() == [
        0.0, 1.0]
    assert cdf("normal", (-1e308, 1.0), np.array([1e308])).tolist() == [1.0]


# every valid parameter vector of a family from these values, at data and
# levels at the edges of the float range
_EDGE_POSITIVE = (1e-300, 1.0, 300.0, 700.0, 1e300)
_EDGE_LOCATION = (-1e300, -700.0, 0.0, 700.0, 1e300)
_EDGE_PARAMS = [
    (fid, params) for fid in family_ids()
    for params in itertools.product(*(
        _EDGE_POSITIVE if i in resolve_family(fid).positive_params
        else _EDGE_LOCATION
        for i in range(len(resolve_family(fid).param_names))))
    if resolve_family(fid).param_rows_ok(np.array(params))]


@pytest.mark.parametrize("fid, params", _EDGE_PARAMS)
def test_family_methods_at_the_float_range_edges_leak_no_warning(fid, params):
    # the suite turns a RuntimeWarning into an error
    x = np.array([1e308, -1e308, 1e200, -1e200, 0.0, 5e-324, 1e-300, 1e10])
    assert not np.isnan(log_density(fid, params, x)).any()
    F = cdf(fid, params, x)
    assert ((F >= 0.0) & (F <= 1.0)).all()  # False for NaN
    # every quantile lies in the closed support (False for NaN)
    Q = quantile(fid, params, [0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0])
    lo, hi = (params if fid == "uniform" else (params[1], np.inf)
              if fid == "pareto" else resolve_family(fid).fit_interval
              or (-np.inf, np.inf))
    assert ((Q >= lo) & (Q <= hi)).all(), Q


@pytest.mark.parametrize("method, fid, params, x, want", [
    (log_density, "lognormal", (0.0, 1e-300), 1e10, -np.inf),
    (cdf, "lognormal", (-1e300, 1e-300), 1e10, 1.0),
    (quantile, "lognormal", (700.0, 300.0), 1.0 - 1e-16, np.inf),
    (log_density, "exponential", (1e300,), 1e308, -np.inf),
    (cdf, "exponential", (1e300,), 1e308, 1.0),
    (log_density, "gamma", (2.0, 1e300), 1e308, -np.inf),
    (cdf, "gamma", (2.0, 1e300), 1e308, 1.0),
    (cdf, "weibull", (300.0, 1.0), 1e10, 1.0),
    (cdf, "weibull", (1.0, 1e-300), 1e10, 1.0),
    (log_density, "fisher", (1e300, 1.0), 1e308, -np.inf),
    (cdf, "fisher", (1e300, 1.0), 1e308, 1.0),
])
def test_overflow_gives_the_limit(method, fid, params, x, want):
    assert method(fid, params, [x]).tolist() == [want]


@pytest.mark.parametrize("shape, x", [
    (1e-300, 5e-324), (1e-300, 1.0), (1e-100, 1e-10)])
def test_gamma_cdf_at_a_tiny_shape_is_at_most_one(shape, x):
    # scipy's gammainc reads 1 + 2.4e-14, 1 + 2.4e-14 and 1 + 1.3e-15 here
    assert cdf("gamma", (shape, 1.0), [x]).tolist() == [1.0]


def _f_of(d1, d2, y):
    return d2 * y / (d1 * (1.0 - y))


@pytest.mark.parametrize("fid, params, q, want", [
    # betaincinv is NaN, and the small-q series gave 3.4e297, 1.45e297,
    # 1.016, -1.1e-301 and -inf: the one-sided gamma limit instead
    ("beta", (300.0, 1e300), 0.5, gammaincinv(300.0, 0.5) / 1e300),
    ("beta", (700.0, 1e300), 0.5, gammaincinv(700.0, 0.5) / 1e300),
    ("beta", (300.0, 1e-300), 1e-300,
     1.0 - gammainccinv(1e-300, 1e-300) / 300.0),
    ("fisher", (300.0, 1e-300), 1e-300,
     _f_of(300.0, 1e-300, 1.0 - gammainccinv(5e-301, 1e-300) / 150.0)),
    ("fisher", (300.0, 1e300), 5e-324,
     _f_of(300.0, 1e300, gammaincinv(150.0, 5e-324) / 5e299)),
    ("fisher", (300.0, 1e300), 0.5,
     _f_of(300.0, 1e300, gammaincinv(150.0, 0.5) / 5e299)),
    # betaincinv is the smallest normal float, and the series overflowed
    # to a NaN quantile
    ("fisher", (1e-300, 700.0), 1.0 - 1e-16, 0.0),
    # a + (b - a) q rounded to 0 where b - a rounds to -a
    ("uniform", (-1e300, -700.0), 1.0, -700.0),
])
def test_quantile_at_extreme_shapes_in_the_support(fid, params, q, want):
    assert quantile(fid, params, [q]).tolist() == [want]


@pytest.mark.parametrize("run", [
    # (x / b)^a beyond the float range in the PIT of 1e100
    lambda: edf_test([1.0, 2.0, 3.0, 1e100], "weibull", (4.0, 1.0), "ks",
                     B=10, seed=1),
    # lam x beyond the float range in the log-density of 1e308
    lambda: vs_test([1, 2, 3, 4, 1e308], "exponential", fixed_params=(10,)),
    lambda: vs_test([1, 2, 3, 4, 1e308], "gamma", fixed_params=(2, 10)),
], ids=["edf weibull", "vs exponential", "vs gamma"])
def test_tests_of_data_far_from_the_null_leak_no_warning(run):
    with pytest.raises(DataError):
        run()


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
# the input boundary: the module functions convert, the families do not

# parameters that are small integers, so that they can be spelled as ints
INT_PARAMS = {
    "uniform": (0, 3), "normal": (1, 2), "lognormal": (0, 1), "exponential": (2,),
    "gamma": (2, 3), "weibull": (2, 1), "pareto": (2, 1), "fisher": (4, 6),
    "laplace": (0, 1), "beta": (2, 3),
}


def _spellings(values):
    """Other spellings of the float64 vector of ``values`` (small integers)."""
    return [list(values), tuple(values), [float(v) for v in values],
            [np.float64(v) for v in values], tuple(np.int64(v) for v in values),
            np.array(values)]


def _scalar_spellings(v):
    """Other spellings of the 0-d float64 array of ``v`` (an integer)."""
    return [v, float(v), np.float64(v), np.int64(v), np.array(v), np.array(float(v))]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_module_functions_take_any_spelling_of_their_inputs(fid):
    P = np.array(INT_PARAMS[fid], dtype=float)
    x, q = np.array([1.0, 2.0]), np.array([0.0, 1.0])
    draws = sample(fid, P, 40, np.random.default_rng(8))
    ints = fid not in ("beta", "fisher")  # their fits of these ints fail
    data = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) if ints else draws
    want_fit = fit_mle(fid, data).params
    for params in _spellings(INT_PARAMS[fid]):
        for f in (log_density, cdf):
            for xs in _spellings((1, 2)):
                _same_bits(f(fid, params, xs), f(fid, P, x))
            for xs in _scalar_spellings(2):
                _same_bits(f(fid, params, xs), f(fid, P, np.array(2.0)))
        for qs in _spellings((0, 1)):
            _same_bits(quantile(fid, params, qs), quantile(fid, P, q))
        for qs in _scalar_spellings(1):
            _same_bits(quantile(fid, params, qs), quantile(fid, P, np.array(1.0)))
        for size in (40, (40,), np.int64(40)):
            _same_bits(sample(fid, params, size, np.random.default_rng(8)), draws)
    spelled = [data.tolist(), tuple(data.tolist()), list(data)]
    if ints:
        spelled += _spellings((1, 2, 3, 5, 8, 13))
    for xs in spelled:
        _same_bits(fit_mle(fid, xs).params, want_fit)


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


# sha256 of a (40, 25) draw at the oracle parameters from default_rng(2024),
# recorded when the inverse-CDF draw was split into sample_pit and quantile
SAMPLE_DIGESTS = {
    "uniform": "c5aa7da516e5591c9128cbc92ddb234d",
    "normal": "7b12f5ff6f828d11dcc1fb85c8c65845",
    "lognormal": "3da81e8d7ea708fe3b4c91fd14c18ed0",
    "exponential": "bac5d8754b8df269ad2c9bff9fba7254",
    "gamma": "0a08a72025d1371ef1257e3e98a6b169",
    "weibull": "4f942a923e1a3bd5fdd8686fc7f33a98",
    "pareto": "e9dc41a8a3c370e5d8f3b13187115e09",
    "fisher": "fa396d5ae7ce236da2a57f12d824a5cb",
    "laplace": "5b88ee9c4ea4ba650ea6d2adf5b0f98e",
    "beta": "f1a58c2a02c3aafb6fb404712a395e3b",
}
INVERSE_CDF = ("uniform", "exponential", "weibull", "pareto", "laplace")


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_sample_keeps_its_bits(fid):
    x = sample(fid, SCIPY_ORACLE[fid][0], (40, 25), np.random.default_rng(2024))
    assert hashlib.sha256(x.tobytes()).hexdigest()[:32] == SAMPLE_DIGESTS[fid]


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_sample_pit_is_the_pit_of_the_draw(fid):
    # from one generator state, sample_pit gives F(X) of the draw X that
    # sample makes and leaves the generator where sample leaves it: for an
    # inverse-CDF family the clipped uniforms, within 1e-15 of the computed
    # CDF, and for the others that CDF, bit for bit
    fam = resolve_family(fid)
    p = fam.validate_params(SCIPY_ORACLE[fid][0])
    for seed in range(3):
        g_pit, g_draw, g_u = (np.random.default_rng(seed) for _ in range(3))
        u = fam.sample_pit(p, (300, 40), g_pit)
        F = fam.cdf(p, fam.sample(p, (300, 40), g_draw))
        if fid in INVERSE_CDF:
            tiny = np.finfo(float).tiny
            assert np.array_equal(u, np.maximum(g_u.random((300, 40)), tiny))
            assert np.abs(u - F).max() <= 1e-15
        else:
            assert np.array_equal(u, F)
        assert g_pit.random() == g_draw.random()


def test_uniform_wider_than_the_float_range():
    # Max - Min overflows: the uniform computes from the halves of Min, Max
    # and x, which give the bits of a range scaled by a power of two
    wide, s = (-1e308, 1e308), 2.0 ** -1000
    narrow = (-1e308 * s, 1e308 * s)
    x = np.array([-1e308, -3e307, 0.0, 5e306, 1e308])
    q = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    assert np.array_equal(cdf("dunif", wide, x), cdf("dunif", narrow, x * s))
    assert np.array_equal(quantile("dunif", wide, q),
                          quantile("dunif", narrow, q) / s)
    assert np.array_equal(cdf("dunif", wide, [-np.inf, -1.7e308, 1.7e308, np.inf]),
                          [0.0, 0.0, 1.0, 1.0])
    log_width = math.log(2.0) + math.log(1e308)  # log(2e308)
    np.testing.assert_allclose(log_density("dunif", wide, x), -log_width,
                               rtol=1e-15)
    assert log_density("dunif", wide, 1.1e308) == -np.inf
    assert closed_form_entropy("dunif", wide) == pytest.approx(log_width,
                                                              rel=1e-15)
    _, ok, ll = resolve_family("uniform").fit_rows(x[None, :])
    assert ok[0] and ll[0] == pytest.approx(-log_width, rel=1e-15)
    draws = sample("dunif", wide, 1000, np.random.default_rng(3))
    assert np.isfinite(draws).all() and draws.min() < -9e307 < 9e307 < draws.max()


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


# parameters at which some draws leave the float range
OVERFLOWING_DRAWS = [("exponential", (1e-310,)), ("gamma", (2.0, 1e-310)),
                     ("uniform", (-1e308, 1e308)), ("lognormal", (0.0, 250.0)),
                     ("normal", (0.0, 1e308)), ("laplace", (0.0, 1e308)),
                     ("weibull", (0.01, 1e300))]


@pytest.mark.parametrize("fid, params",
                         [(f, SCIPY_ORACLE[f][0]) for f in sorted(SCIPY_ORACLE)]
                         + OVERFLOWING_DRAWS)
def test_family_layer_leaks_no_warning_and_fits_only_valid_parameters(fid, params):
    # The suite turns a RuntimeWarning into an error.  Draws, quantiles and
    # fits of rows holding 0, -1, +-inf, NaN, +-1.7e308 or the edges of
    # fit_interval (among values inside every support), a spread beyond
    # the float range, or one value, leak none, and a row a fit flags ok
    # has parameters that validate_params accepts and a log-likelihood.
    # vs_test fits every row before it gives the rows without a statistic
    # their cause, so a fit fails every row it must reject: one holding a
    # value outside fit_interval (its edges included), NaN or +-inf.
    fam = resolve_family(fid)
    quantile(fid, params, [0.0, 0.5, 1.0])
    base = [0.2, 0.4, 0.5, 0.7, 0.9]
    lo, hi = fam.fit_interval or (-np.inf, np.inf)
    bad = np.array([[v, *base] for v in (0.0, -1.0, np.inf, -np.inf, np.nan,
                                         1.7e308, -1.7e308, lo - 1e-3, lo,
                                         hi, hi + 1e-3)]
                   + [[v, -v, *base[1:]] for v in (1.7e308, 4e307)]
                   + [[0.0, -1.0, np.inf, np.nan, 0.5, 0.7], [0.5] * 6])
    for X in (sample(fid, params, (4, 30), np.random.default_rng(5)), bad):
        P, ok, ll = fam.fit_rows(X)
        assert fam.param_rows_ok(P[ok]).all()
        np.testing.assert_array_equal(np.isnan(ll), ~ok)
    reject = fam.outside_fit_interval(bad).any(axis=1) | ~np.isfinite(bad).all(axis=1)
    assert not ok[reject].any()


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


# A seeded grid of shapes for the iterative fits: 50 rows of n draws per
# cell, each cell from its own seed.
_GRID_SHAPES = (0.05, 0.2, 1.0, 5.0, 40.0)
FIT_GRID = ([("gamma", (s, 1.0)) for s in _GRID_SHAPES]
            + [("weibull", (s, 1.0)) for s in _GRID_SHAPES]
            + [("beta", (s, s)) for s in _GRID_SHAPES]
            + [("beta", (s, 2.0)) for s in _GRID_SHAPES]
            + [("fisher", (5.0, 10.0)), ("fisher", (2.0, 50.0))])
_GRID_IDS = [f"{fid}-{p[0]:g},{p[1]:g}" for fid, p in FIT_GRID]


def grid_rows(fid, params, n, rows=50):
    rng = np.random.default_rng([int(params[0] * 100), int(params[1] * 100), n])
    return sample(fid, params, (50, n), rng)[:rows]


# The rows of each grid cell that fit_rows flags as failed, recorded when
# gamma, Weibull and beta each ran a Newton loop of their own; every other
# cell has none.  The beta rows hold draws rounded to 0 or 1.
FAILED_GRID_ROWS = {
    ("beta", (0.05, 0.05), 5): [3, 6, 7, 9, 13, 15, 21, 23, 24, 28, 30, 33, 35,
                                36, 37, 38, 41, 43, 44, 48],
    ("beta", (0.05, 0.05), 20): [i for i in range(50) if i not in (6, 21, 24, 35,
                                                                   37, 49)],
    ("beta", (0.05, 0.05), 200): list(range(50)),
    ("beta", (0.2, 0.2), 200): [1, 2, 19, 23],
    ("fisher", (5.0, 10.0), 5): [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18,
                                 20, 21, 22, 23, 25, 27, 29, 30, 32, 33, 34, 35,
                                 37, 38, 39, 40, 41, 43, 44, 45, 46, 47, 49],
    ("fisher", (5.0, 10.0), 20): [4, 11, 21, 25, 31, 39, 44, 45, 46],
    ("fisher", (2.0, 50.0), 5): [0, 3, 4, 5, 6, 10, 12, 13, 14, 15, 16, 17, 18,
                                 20, 24, 27, 28, 29, 31, 32, 33, 34, 35, 36, 37,
                                 39, 40, 41, 42, 44, 46, 47, 48, 49],
    ("fisher", (2.0, 50.0), 20): [1, 2, 3, 4, 5, 7, 8, 9, 10, 14, 15, 16, 17, 18,
                                  20, 21, 22, 23, 25, 26, 30, 34, 35, 38, 41, 45,
                                  46, 47],
    ("fisher", (2.0, 50.0), 200): [2, 6, 7, 11, 14, 16, 17, 18, 19, 23, 29, 30, 31,
                                   37, 44, 46],
}


@pytest.mark.parametrize("n", [5, 20, 200])
@pytest.mark.parametrize("fid, params", FIT_GRID, ids=_GRID_IDS)
def test_fit_rows_ok_flags_pinned(fid, params, n):
    _, ok = fit_rows(fid, grid_rows(fid, params, n))
    assert np.flatnonzero(~ok).tolist() == FAILED_GRID_ROWS.get((fid, params, n), [])


@pytest.mark.parametrize("n", [5, 20, 200])
@pytest.mark.parametrize("fid, params", [c for c in FIT_GRID if c[0] != "fisher"],
                         ids=[i for i in _GRID_IDS if not i.startswith("fisher")])
def test_batched_fit_reaches_scipy_mle_on_shape_grid(fid, params, n):
    # Every row that fits reaches scipy's maximum, skipping rows where scipy
    # gives no positive shape (it raises on some flat beta samples); a row
    # fails only where its data leave the open fit support.
    X = grid_rows(fid, params, n, rows=10)
    P, ok = fit_rows(fid, X)
    np.testing.assert_array_equal(ok, ~resolve_family(fid).outside_fit_interval(X)
                                  .any(axis=1))
    for i in np.flatnonzero(ok):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                ref_params = scipy_mle(fid, X[i])
            except st.FitError:
                continue
        if min(ref_params) <= 0:
            continue
        ours = float(np.mean(log_density(fid, P[i], X[i])))
        ref = float(np.mean(log_density(fid, ref_params, X[i])))
        assert ours >= ref - 1e-9 * abs(ref)


# The matrices of the edge-case fits below, also used by the checks of the
# fitted log-likelihood.
def large_beta_rows(params, n):
    return sample("beta", params, (50, n),
                  np.random.default_rng([int(params[0]), int(params[1]), n]))


def nearly_constant_rows(spread):
    rng = np.random.default_rng(7)
    return 0.3 * np.exp(0.1 * rng.normal(size=(50, 1))) * (
        1.0 + spread * rng.normal(size=(50, 10)))


def eight_digit_rows(spread):
    rng = np.random.default_rng(8)
    return rng.uniform(0.2, 0.8, size=(50, 1)) * (1.0 + spread * rng.normal(size=(50, 10)))


def tiny_beta_rows(n):
    return 10.0 ** np.random.default_rng(11).uniform(-300, -8, size=(200, n))


def last_digit_rows():
    rng = np.random.default_rng(9)
    return 3.4e-26 * (1.0 + 2.2e-16 * rng.integers(-3, 4, size=(5, 50)))


def float_range_rows():
    return 10.0 ** np.random.default_rng(10).uniform(-300, 300, size=(5, 20))


@pytest.mark.parametrize("params", [(200.0, 200.0), (1000.0, 3.0), (3.0, 1000.0),
                                    (1e4, 1e4)])
@pytest.mark.parametrize("n", [5, 20, 200])
def test_beta_fit_converges_at_large_shapes(params, n):
    # At large shapes the rounding of log B(a, b) hides the last gains of
    # the likelihood; the ascent still ends at a zero of the score.
    X = large_beta_rows(params, n)
    P, ok = fit_rows("beta", X)
    assert ok.all()
    a, b = P.T
    score = (psi(a + b) - psi(a) + np.log(X).mean(axis=1),
             psi(a + b) - psi(b) + np.log1p(-X).mean(axis=1))
    assert np.abs(score).max() <= 1e-11


@pytest.mark.parametrize("spread", [1e-7, 1e-6, 1e-5])
def test_gamma_fit_of_nearly_constant_samples(spread):
    # The shape is ~1/spread^2: l and its gradient sit at the rounding of
    # a log a, so the ascent stops once l finds no rise in a step.
    X = nearly_constant_rows(spread)
    P, ok = fit_rows("gamma", X)
    assert ok.all()
    shape = P[:, 0] * (X.std(axis=1) / X.mean(axis=1)) ** 2  # ~1 for a gamma
    assert np.all((shape > 0.5) & (shape < 2.0))


@pytest.mark.parametrize("spread", [1e-14, 1e-11, 1e-8])
@pytest.mark.parametrize("fid", ["gamma", "beta"])
def test_fit_of_samples_that_agree_to_eight_digits(fid, spread):
    # The fitted shapes pass 1e15: the Hessian of l rounds to one that is
    # not negative definite, and l to one value, yet the rows converge.
    # Beta fits every row, at the sample mean; gamma fits the rows where
    # log(mean x) - mean(log x), here at its rounding, is positive.
    X = eight_digit_rows(spread)
    P, ok = fit_rows(fid, X)
    assert np.all(np.isfinite(P[ok]) & (P[ok] > 0))
    if fid == "beta":
        assert ok.all()
        np.testing.assert_allclose(P[:, 0] / P.sum(axis=1), X.mean(axis=1), rtol=1e-7)
    else:
        s = np.log(X.mean(axis=1)) - np.log(X).mean(axis=1)
        np.testing.assert_array_equal(ok, s > 0)
        assert ok.sum() >= 10


@pytest.mark.parametrize("n", [5, 20])
def test_beta_fit_of_tiny_values_ends_near_a_zero_of_the_score_in_a(n):
    # Values far below 1: b ~ a / mean x reaches 1e11 a and more, where l
    # resolves a only to ~1e-5 and, beyond ~1e12 a, the curvature in b is
    # below the rounding of the trigammas.  A row that fits is at most a
    # Newton step of 1e-4 a from the zero of the score in a (or fails).
    X = tiny_beta_rows(n)
    P, ok = fit_rows("beta", X)
    a, b = P[ok].T
    score = psi(a + b) - psi(a) + np.log(X[ok]).mean(axis=1)
    newton = score / (zeta(2, a) - zeta(2, a + b))  # the Newton step in a
    assert ok.sum() >= 5
    assert np.all(np.abs(newton) <= 1e-4 * a)


def test_weibull_fit_of_values_that_differ_in_their_last_digits():
    # log x rounds to one value for all of them, log(x / max x) does not:
    # the shape, ~3e15, solves the profile score in exact arithmetic to
    # within the rounding of x / max x, a few per cent here (from
    # log x - max log x it came out at ~6 % of the solution)
    mpmath = pytest.importorskip("mpmath")
    X = last_digit_rows()
    P, ok = fit_rows("weibull", X)
    assert ok.all()
    with mpmath.workdps(60):
        for x, a in zip(X, P[:, 0]):
            v = [mpmath.log(mpmath.mpf(xi) / mpmath.mpf(x.max())) for xi in x]

            def score(t):
                w = [mpmath.exp(t * vi) for vi in v]
                return 1 / t + sum(v) / len(v) - sum(wi * vi for wi, vi in zip(w, v)) / sum(w)

            assert abs(a / float(mpmath.findroot(score, mpmath.mpf(a))) - 1.0) < 0.05


def test_weibull_fit_of_values_spanning_the_float_range():
    # x / max x underflows for the smallest values; the fit is a maximum
    X = float_range_rows()
    P, ok = fit_rows("weibull", X)
    assert ok.all()
    l = mean_loglik_rows("weibull", X, P)
    for d in (1.0 - 1e-4, 1.0 + 1e-4):
        assert np.all(mean_loglik_rows("weibull", X, P * [d, 1.0]) < l)
        assert np.all(mean_loglik_rows("weibull", X, P * [1.0, d]) < l)


# a tiny shape: b = max x * exp(lw / a) underflows in exp(lw / a)
TINY_SHAPE_ROWS = [np.r_[1e-300 * np.arange(1, 30), 1e300],
                   np.array([1e-308] * 9 + [1e308])]


@pytest.mark.parametrize("x", TINY_SHAPE_ROWS, ids=["1e-300..1e300", "1e-308x9"])
def test_weibull_scale_of_a_tiny_shape_is_positive(x):
    # the scale (mean x^a)^(1/a) is at least the geometric mean, so at
    # least min x > 0, even where exp(lw / a) underflows
    mpmath = pytest.importorskip("mpmath")
    P, ok, _ = resolve_family("weibull").fit_rows(x[None, :])
    (a, b), = P
    assert ok[0] and a < 0.003 and b >= x.min()
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) for v in x]
        want = (sum(v ** a for v in xs) / len(xs)) ** (1 / mpmath.mpf(a))
    assert b == pytest.approx(float(want), rel=1e-9)


def _spanning_rows(fid, n, rng, count=400):
    """Rows of values from 1e-308 to 1e308 (beta: inside (0, 1)), half
    log-uniform over a random span, half in two clusters at its ends."""
    lo, hi = np.sort(rng.uniform(-308, 308, (2, count, 1)), axis=0)
    E = np.where(np.arange(count)[:, None] % 2,
                 rng.uniform(lo, hi, (count, n)),
                 np.where(rng.random((count, n)) < rng.random((count, 1)), hi, lo)
                 + rng.normal(0.0, 1e-3, (count, n)))
    if fid == "beta":
        return np.minimum(10.0 ** (np.clip(E, -308, 308) / 2 - 154), 1 - 2 ** -53)
    return 10.0 ** np.clip(E, -308, 308)


@pytest.mark.parametrize("fid", ["gamma", "weibull", "beta", "fisher"])
def test_iterative_fits_flag_ok_only_valid_parameters(fid):
    # the family contract behind vs_test's failed-fit cause: a row that
    # fit_rows flags ok has parameters that validate_params accepts
    fam = resolve_family(fid)
    rng = np.random.default_rng(19)
    for n in (3, 5, 20, 60):
        P, ok, ll = fam.fit_rows(_spanning_rows(fid, n, rng))
        assert ok.sum() >= 20
        assert fam.param_rows_ok(P[ok]).all()
        np.testing.assert_array_equal(np.isnan(ll), ~ok)


@pytest.mark.parametrize("n", [20, 60, 200])
def test_fisher_fit_reaches_scipy_mle_or_has_no_finite_maximum(n):
    # A row that converges reaches scipy's maximum.  A row that fails has
    # its likelihood still rising where df1 or df2 passes 1e5, and scipy's
    # optimizer, which has no such bound, runs off beyond 1e4.
    X = np.random.default_rng(106).f(5.0, 10.0, size=(150, n))
    P, ok = fit_rows("fisher", X)
    assert ok.sum() >= 100
    for i in range(X.shape[0]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d1, d2, _, _ = st.f.fit(X[i], floc=0, fscale=1)
        if not ok[i]:
            assert max(d1, d2) >= 1e4
            continue
        ours = float(np.mean(log_density("fisher", P[i], X[i])))
        ref = float(np.mean(log_density("fisher", (d1, d2), X[i])))
        assert ours >= ref - 1e-9 * abs(ref)


def test_mean_loglik_rows_matches_log_density():
    rng = np.random.default_rng(104)
    X = np.stack([sample("gamma", (2.5, 1.5), 40, rng) for _ in range(6)])
    P = np.tile(np.array([2.5, 1.5]), (6, 1))
    got = mean_loglik_rows("gamma", X, P)
    want = [float(np.mean(log_density("gamma", (2.5, 1.5), X[i]))) for i in range(6)]
    assert np.allclose(got, want, rtol=1e-12)


SUBNORMAL = [1e-320, 2e-320, 3e-320, 5e-320, 8e-320, 1.3e-319]


def fit_loglik_rows(fid):
    """Matrices to check a family's fitted log-likelihood on: draws at the
    oracle parameters (n = 5, 20, 200), a constant and a subnormal row,
    the shape grid, and the edge cases whose l double resolves."""
    rng = np.random.default_rng(107)
    params = SCIPY_ORACLE[fid][0]
    out = [sample(fid, params, (20, n), rng) for n in (5, 20, 200)]
    out.append(np.array([[0.3] * 6, SUBNORMAL]))
    out += [grid_rows(fid, p, n) for f, p in FIT_GRID if f == fid for n in (5, 20, 200)]
    if fid == "beta":
        out += [large_beta_rows(p, n) for p in [(200.0, 200.0), (1000.0, 3.0),
                                                (3.0, 1000.0)] for n in (5, 20, 200)]
        out += [tiny_beta_rows(n) for n in (5, 20)]
    if fid == "weibull":
        out.append(float_range_rows())
    return out


@pytest.mark.parametrize("fid", sorted(SCIPY_ORACLE))
def test_fitted_loglik_is_the_mean_log_density(fid):
    # The third output of a family's fit_rows is its mean log-likelihood at
    # the fit (NaN where the fit fails); for uniform, normal and pareto it
    # is minus the entropy of the fitted null.  A parameter below the normal
    # float range is rounded to a few digits: there the fit gives l at the
    # exact maximum and the mean log-density l at the rounded parameter,
    # which is lower by the square of that rounding.
    fam = resolve_family(fid)
    for X in fit_loglik_rows(fid):
        P, ok, ll = fam.fit_rows(X)
        np.testing.assert_array_equal(np.isnan(ll), ~ok)
        want = fam.mean_loglik_rows(X[ok], P[ok])
        rtol = np.where((np.abs(P[ok]) < np.finfo(float).tiny).any(axis=1), 1e-9, 1e-12)
        assert np.all(np.abs(ll[ok] - want) <= rtol * np.maximum(1.0, np.abs(want)))
        if fid in ("uniform", "normal", "pareto"):
            entropy = np.array([closed_form_entropy(fid, p) for p in P[ok]])
            np.testing.assert_allclose(ll[ok], -entropy, rtol=1e-12, atol=1e-12)


def _exact_mean_loglik(fid, params, x):
    """The mean log-density at float parameters and data, to 50 digits."""
    import mpmath as mp
    with mp.workdps(50):
        (a, b), x = [mp.mpf(float(v)) for v in params], [mp.mpf(float(v)) for v in x]
        if fid == "gamma":  # b: the rate
            terms = [a * mp.log(b) - mp.loggamma(a) + (a - 1) * mp.log(v) - b * v
                     for v in x]
        elif fid == "weibull":  # b: the scale
            terms = [mp.log(a) - a * mp.log(b) + (a - 1) * mp.log(v) - (v / b) ** a
                     for v in x]
        else:
            lbeta = mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b)
            terms = [(a - 1) * mp.log(v) + (b - 1) * mp.log(1 - v) - lbeta for v in x]
        return float(mp.fsum(terms) / len(x))


@pytest.mark.parametrize("fid, X", [
    *[("gamma", sample("gamma", (1e4, 1.0), (10, n), np.random.default_rng([10000, n])))
      for n in (5, 20, 200)],
    *[("beta", large_beta_rows((1e4, 1e4), n)[:10]) for n in (5, 20, 200)],
    *[("gamma", nearly_constant_rows(spread)[:10]) for spread in (1e-7, 1e-5)],
    *[(fid, eight_digit_rows(spread)[:10]) for fid in ("gamma", "beta")
      for spread in (1e-14, 1e-8)],
    ("weibull", last_digit_rows()),
], ids=["gamma-1e4-5", "gamma-1e4-20", "gamma-1e4-200", "beta-1e4-5", "beta-1e4-20",
        "beta-1e4-200", "gamma-spread-1e-7", "gamma-spread-1e-5",
        "gamma-8digits-1e-14", "gamma-8digits-1e-8", "beta-8digits-1e-14",
        "beta-8digits-1e-8", "weibull-last-digits"])
def test_fitted_loglik_against_mpmath_where_terms_cancel(fid, X):
    # At large shapes l is a small difference of terms of size T (log Gamma
    # of the shape, of a + b for beta; a max|log x| for weibull), and both
    # the fit's l and the mean log-density carry errors of a few ulps of T
    # that they largely share (log Gamma(a), log x).  The fit's is no
    # further from the exact value than the mean log-density's by more
    # than two ulps of T.
    fam = resolve_family(fid)
    P, ok, ll = fam.fit_rows(X)
    assert ok.any()
    density = fam.mean_loglik_rows(X, P)  # the mean log-density at the fit
    for i in np.flatnonzero(ok):
        a = P[i, 0]
        T = (a * np.abs(np.log(X[i])).max() if fid == "weibull"
             else gammaln(P[i].sum() if fid == "beta" else a))
        exact = _exact_mean_loglik(fid, P[i], X[i])
        assert abs(ll[i] - exact) <= abs(density[i] - exact) + 2.0 * np.spacing(T)


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
