"""Tests for the distance-based (EDF) companion tests."""

import math

import numpy as np
import pytest
import scipy.stats as st

from vsgof import distributions as dist
from vsgof._mc import seed_chunks
from vsgof.edf import (
    _LOG_CLAMP,
    EdfTestReport,
    _ad_rows,
    _cvm_rows,
    _ks_rows,
    _p_value_rows,
    _resolve_test,
    ad_statistic,
    cvm_statistic,
    edf_mc_p_value,
    edf_test,
    ks_statistic,
)
from vsgof.errors import DataError, ParameterError
from vsgof.vstest import vs_test


def ad_oracle(u_sorted):
    """Plain-loop Anderson-Darling statistic on sorted PIT values."""
    n = len(u_sorted)
    total = 0.0
    for i in range(1, n + 1):
        total += (2 * i - 1) * (
            math.log(u_sorted[i - 1]) + math.log(1.0 - u_sorted[n - i])
        )
    return -n - total / n


# ---------------------------------------------------------------------------
# statistic values


def test_ks_quartile_grid():
    # PIT values (1/4, 1/2, 3/4) on n=3: both one-sided gaps peak at 1/4.
    x = np.array([0.25, 0.5, 0.75])
    assert ks_statistic(x, "uniform", (0.0, 1.0)) == pytest.approx(0.25, abs=1e-15)


def test_cvm_attains_lower_bound_on_centered_grid():
    # u_(i) = (2i-1)/(2n) minimizes CvM at exactly 1/(12n).
    n = 4
    x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    got = cvm_statistic(x, "uniform", (0.0, 1.0))
    assert got == pytest.approx(1.0 / 48.0, abs=1e-16)
    assert got == pytest.approx(0.020833333333333332, abs=1e-16)


def test_ad_three_point_grid():
    x = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])
    got = ad_statistic(x, "uniform", (0.0, 1.0))
    assert got == pytest.approx(ad_oracle(sorted(x)), abs=1e-13)
    assert got == pytest.approx(0.1885391965851091, abs=1e-12)


def test_ks_matches_scipy():
    rng = np.random.default_rng(40)
    for _ in range(25):
        x = rng.normal(1.0, 2.0, size=int(rng.integers(5, 80)))
        got = ks_statistic(x, "normal", (1.0, 2.0))
        want = st.kstest(x, st.norm(1.0, 2.0).cdf).statistic
        assert got == pytest.approx(float(want), abs=1e-12)


def test_cvm_matches_scipy():
    rng = np.random.default_rng(41)
    for _ in range(25):
        x = rng.exponential(2.0, size=int(rng.integers(5, 80)))
        got = cvm_statistic(x, "exponential", (0.5,))
        want = st.cramervonmises(x, st.expon(scale=2.0).cdf).statistic
        assert got == pytest.approx(float(want), abs=1e-12)


def test_ad_matches_plain_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.weibull(1.3, size=int(rng.integers(5, 60))) * 2.0
        u = sorted(st.weibull_min(1.3, scale=2.0).cdf(x))
        got = ad_statistic(x, "weibull", (1.3, 2.0))
        assert got == pytest.approx(ad_oracle(u), abs=1e-11)


# the kernels' formulas written out as three whole-array expressions each
ROW_FORMULAS = {
    _ks_rows: lambda U, n, i: np.maximum((i / n - U).max(axis=-1),
                                         (U - (i - 1.0) / n).max(axis=-1)),
    _cvm_rows: lambda U, n, i: 1.0 / (12.0 * n) + (
        (U - (2.0 * i - 1.0) / (2.0 * n)) ** 2).sum(axis=-1),
    _ad_rows: lambda U, n, i: -n - ((2.0 * i - 1.0) * (
        np.log(np.clip(U, _LOG_CLAMP, 1.0 - _LOG_CLAMP))
        + np.log1p(-np.clip(U, _LOG_CLAMP, 1.0 - _LOG_CLAMP)[..., ::-1])
    )).sum(axis=-1) / n,
}


@pytest.mark.parametrize("kernel", list(ROW_FORMULAS), ids=lambda k: k.__name__)
def test_kernels_keep_the_bits_of_their_formulas(kernel):
    # sorted PIT rows, some with NaN, exact 0 and 1, ties or values within
    # an ulp of 0 and 1, at n = 2 to 150
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 151))
        U = rng.random((int(rng.integers(1, 9)), n))
        U[rng.random(U.shape) < 0.05] = rng.choice(
            [0.0, 1.0, 5e-324, 1.0 - 2 ** -53, 0.5, np.nan])
        U.sort(axis=-1)
        i = np.arange(1, n + 1, dtype=float)
        want, before = ROW_FORMULAS[kernel](U, n, i), U.tobytes()
        assert kernel(U).tobytes() == want.tobytes()
        assert U.tobytes() == before  # the input is left as it was


def test_statistics_depend_only_on_pit():
    # Testing x against F equals testing F(x) against the uniform null.
    rng = np.random.default_rng(43)
    x = rng.exponential(size=35)
    u = 1.0 - np.exp(-x)
    for func in (ks_statistic, cvm_statistic, ad_statistic):
        a = func(x, "exponential", (1.0,))
        b = func(u, "uniform", (0.0, 1.0))
        assert a == pytest.approx(b, abs=1e-10)


def test_degenerate_pit_rejected():
    # Every observation beyond the null support maps to PIT 0 or 1.
    with pytest.raises(DataError, match="degenerate"):
        ks_statistic(np.array([1.5, 2.0, 3.0]), "uniform", (0.0, 1.0))


def test_normal_log_density_below_float_range_rejected_like_vs_test():
    x = np.array([1e155, -1e155, 0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DataError, match=r"normal null log-density at "
                       r"positions \[0, 1\] is below the float range"):
        edf_test(x, "dnorm", (0.0, 1.0), "ks", B=10, seed=1)


def test_observation_outside_support_rejected_like_vs_test():
    # One value below the exponential support: the PIT is not degenerate,
    # but the EDF path must refuse the data as vs_test does.
    x = np.array([-1.0, 0.2, 0.5, 0.7, 0.9])
    with pytest.raises(DataError, match=r"outside the exponential support.*\[0\]"):
        edf_test(x, "dexp", (1.0,), "ad", B=200, seed=1)
    with pytest.raises(DataError, match="outside the exponential support"):
        edf_mc_p_value(x, "dexp", (1.0,), "ks", B=200, seed=1)
    with pytest.raises(DataError, match="outside the exponential support"):
        vs_test(x, "dexp", fixed_params=(1.0,), B=200, seed=1)
    # a PIT of 0 on the support's edge is not outside it
    x[0] = 0.0
    assert 0.0 <= edf_test(x, "dexp", (1.0,), "ad", B=200, seed=1).p_value <= 1.0


def test_log_density_below_float_range_inside_the_support_rejected():
    # 1e308 is inside the exponential support, but its log-density under
    # rate 10 is below the float range: the message says so, as vs_test's
    with pytest.raises(DataError, match=r"exponential null log-density at "
                       r"positions \[4\] is below the float range"):
        edf_test([1.0, 2.0, 3.0, 4.0, 1e308], "dexp", (10.0,), "ks", B=10,
                 seed=1)


# ---------------------------------------------------------------------------
# Monte-Carlo p-values


def test_p_value_counts_ties_as_extreme():
    # At the global CvM minimum every replicate is >= the observed value,
    # so the p-value is exactly one.
    n = 6
    x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    p = edf_mc_p_value(x, "uniform", (0.0, 1.0), "cvm", B=400, seed=1)
    assert p == 1.0


def test_p_value_deterministic_across_threads(uncached):
    rng = np.random.default_rng(44)
    x = rng.normal(size=50)
    ps = [
        edf_mc_p_value(x, "normal", (0.0, 1.0), "ad", B=900, seed=2, threads=t)
        for t in (1, 2, 8)
    ]
    assert ps[0] == ps[1] == ps[2]


ORACLE_PARAMS = {
    "uniform": (-1.0, 3.0), "normal": (0.5, 1.7), "lognormal": (0.2, 0.8),
    "exponential": (0.7,), "gamma": (2.5, 1.5), "weibull": (1.3, 2.0),
    "pareto": (2.0, 1.5), "fisher": (4.0, 6.0), "laplace": (-0.3, 1.2),
    "beta": (2.0, 3.0),
}


@pytest.mark.parametrize("n", [5, 20, 200])
@pytest.mark.parametrize("test_id", ["ks", "cvm", "ad"])
@pytest.mark.parametrize("fid", sorted(ORACLE_PARAMS))
def test_p_value_is_that_of_the_cdf_of_the_family_draw(uncached, fid, test_id, n):
    # The null of an inverse-CDF family is drawn as its uniforms, whose
    # statistics differ from those of the computed CDF of the family draw
    # by rounding only; the p-values, of one test or of a power cell's row,
    # are those of the CDF of the draw, from the same seeded chunks
    B, seed = 200, 31
    fam = dist.resolve_family(fid)
    p = fam.validate_params(ORACLE_PARAMS[fid])
    _, kernel = _resolve_test(test_id)
    x = fam.sample(p, n, np.random.default_rng(1000 + n))
    report = edf_test(x, fid, p, test_id, B=B, seed=seed)
    null = np.concatenate([
        kernel(np.sort(fam.cdf(p, fam.sample(p, (size, n),
                                             np.random.default_rng(child))),
                       axis=1))
        for size, child in seed_chunks(seed, B)])
    want = (null >= report.statistic).sum() / B
    assert report.p_value == want
    rows, _ = _p_value_rows(fam, p, test_id, x[None, :], np.array([seed]), B)
    assert rows[0] == want


def test_uniform_null_wider_than_the_float_range():
    # Max - Min overflows: the test gives the bits of the same test on a
    # range scaled by a power of two, and no warning
    x, s = np.linspace(-1e307, 1e307, 30), 2.0 ** -1000
    for test_id in ("ks", "cvm", "ad"):
        wide = edf_test(x, "dunif", (-1e308, 1e308), test_id, B=200, seed=1)
        narrow = edf_test(x * s, "dunif", (-1e308 * s, 1e308 * s), test_id,
                          B=200, seed=1)
        assert (wide.statistic, wide.p_value) == (narrow.statistic,
                                                  narrow.p_value)
        assert wide.p_value == 0.0  # the data fill a tenth of the range
        if test_id == "ks":
            assert wide.statistic == pytest.approx(0.45, rel=1e-15)


def test_p_value_is_calibrated_under_the_null():
    # Size close to alpha when data really follow the fixed null.
    rng = np.random.default_rng(45)
    rejections = 0
    reps = 300
    for k in range(reps):
        x = rng.exponential(2.0, size=25)
        p = edf_mc_p_value(x, "exponential", (0.5,), "ks", B=200, seed=1000 + k)
        rejections += p <= 0.05
    assert 0.02 <= rejections / reps <= 0.09


def test_p_value_detects_gross_misfit():
    rng = np.random.default_rng(46)
    x = rng.lognormal(0.0, 1.0, size=80)
    p = edf_mc_p_value(x, "uniform", (0.0, 60.0), "ad", B=300, seed=3)
    assert p <= 1.0 / 300.0


def test_edf_mc_p_value_validation():
    x = np.random.default_rng(47).normal(size=20)
    with pytest.raises(ParameterError, match="seed"):
        edf_mc_p_value(x, "normal", (0.0, 1.0), "ks", B=100)
    for bad_B in (0, True):
        with pytest.raises(ParameterError, match="B must be"):
            edf_mc_p_value(x, "normal", (0.0, 1.0), "ks", B=bad_B, seed=1)
        with pytest.raises(ParameterError, match="B must be"):
            edf_test(x, "normal", (0.0, 1.0), "ks", B=bad_B, seed=1)
    for bad_seed in (-1, 1.5, "7", True, np.float64(3.0)):
        with pytest.raises(ParameterError, match="seed"):
            edf_mc_p_value(x, "normal", (0.0, 1.0), "ks", B=50, seed=bad_seed)
        with pytest.raises(ParameterError, match="seed"):
            edf_test(x, "normal", (0.0, 1.0), "ks", B=50, seed=bad_seed)
    with pytest.raises(ParameterError, match="unknown EDF test"):
        edf_mc_p_value(x, "normal", (0.0, 1.0), "watson", B=100, seed=1)
    for bad_threads in (0, -3, "2", None, 1.5, True):
        with pytest.raises(ParameterError, match="threads must be"):
            edf_mc_p_value(x, "normal", (0.0, 1.0), "ks", B=50, seed=1,
                           threads=bad_threads)
        with pytest.raises(ParameterError, match="threads must be"):
            edf_test(x, "normal", (0.0, 1.0), "ks", B=50, seed=1,
                     threads=bad_threads)


def test_edf_test_report():
    x = np.random.default_rng(48).normal(size=40)
    report = edf_test(x, "dnorm", (0.0, 1.0), "cvm", B=250, seed=9)
    assert isinstance(report, EdfTestReport)
    assert report.family_id == "normal"
    assert report.test_id == "cvm"
    assert report.n == 40
    assert report.B == 250 and report.seed == 9
    assert report.statistic == pytest.approx(
        cvm_statistic(x, "normal", (0.0, 1.0)), abs=0.0
    )
    assert 0.0 <= report.p_value <= 1.0
