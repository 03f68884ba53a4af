"""Acceptance gate for the package.

Each test pins one numbered criterion of the package's external contract:
reproduction of externally tabulated rejection rates, null calibration,
the normal limit of the standardized statistic, closed-form exactness,
window-selection correctness against brute force, the likelihood-ratio
identity, and bitwise thread determinism.  Every test prints a one-line
PASS/FAIL summary with the measured numbers (visible with ``pytest -rA``
or on failure).

The two scenario studies (1000 replicates, B=500, four tests, four sample
sizes each) run once as module fixtures; together they take tens of
seconds on a few threads.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps

from conftest import select_window_oracle

from vsgof.distributions import closed_form_entropy, fit_mle, sample
from vsgof.errors import ConstraintError, TiesError, VsgofError
from vsgof.power import parse_scenario_file, run_power_study
from vsgof.spacing import vasicek_estimate
from vsgof.vstest import (
    asymptotic_p_value,
    bias_b,
    candidate_windows,
    empirical_null_loglik,
    select_window,
    simulate_null_statistics,
    vs_test,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
THREADS = 8

# Externally tabulated rejection rates (percent) for the two shipped
# scenarios; reproduced within the stated tolerances below.
PARETO_VS_REFERENCE = {20: 59.79, 30: 77.66, 50: 94.02, 100: 99.99}
PARETO_VS_TOLERANCE = 4.5
WEIBULL_N100_REFERENCE = {"vs": 67.14, "ks": 21.91, "cvm": 24.60, "ad": 34.67}
WEIBULL_N100_TOLERANCE = 5.0
DOMINANCE_MARGIN = 3.0  # criterion 3: vs >= each EDF test minus this margin


def _line(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def pareto_study():
    scn = parse_scenario_file(SCENARIO_DIR / "pareto-vs-shifted-lognormal.scenario")
    t0 = time.perf_counter()
    table = run_power_study(scn, threads=THREADS)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def weibull_study():
    scn = parse_scenario_file(SCENARIO_DIR / "exponential-vs-weibull.scenario")
    table = run_power_study(scn, threads=THREADS)
    return table


def test_shipped_tables_are_pinned(pareto_study, weibull_study):
    # SHA-1 of to_csv(), recorded with every replicate's null simulated in
    # full: the curtailed cells, which stop a replicate's null once p >
    # alpha is certain, must leave both tables as they were
    digests = [hashlib.sha1(table.to_csv().encode()).hexdigest()
               for table in (pareto_study[0], weibull_study)]
    assert digests == ["4381a35517a62c7d09c4c992ef7a5ecb5a9a1f91",
                       "352f153c3d523b5134ec482a8d98377e90f81dc4"]


def test_criterion_01_pareto_power_reproduction(pareto_study):
    table, elapsed = pareto_study
    measured = {n: table.row(n, "vs").power_pct for n in (20, 30, 50, 100)}
    diffs = {n: measured[n] - PARETO_VS_REFERENCE[n] for n in measured}
    ok = all(abs(d) <= PARETO_VS_TOLERANCE for d in diffs.values())
    ok = ok and elapsed < 600.0
    _line(
        1,
        ok,
        f"pareto scenario vs-power {measured} vs reference "
        f"{PARETO_VS_REFERENCE} (tolerance ±{PARETO_VS_TOLERANCE}, "
        f"study took {elapsed:.1f}s)",
    )
    for n, d in diffs.items():
        assert abs(d) <= PARETO_VS_TOLERANCE, (n, measured[n])
    assert elapsed < 600.0


def test_criterion_02_weibull_large_sample_cells(weibull_study):
    measured = {
        t: weibull_study.row(100, t).power_pct for t in ("vs", "ks", "cvm", "ad")
    }
    ok = all(
        abs(measured[t] - WEIBULL_N100_REFERENCE[t]) <= WEIBULL_N100_TOLERANCE
        for t in measured
    )
    _line(
        2,
        ok,
        f"weibull scenario n=100 powers {measured} vs reference "
        f"{WEIBULL_N100_REFERENCE} (tolerance ±{WEIBULL_N100_TOLERANCE})",
    )
    for t, want in WEIBULL_N100_REFERENCE.items():
        assert abs(measured[t] - want) <= WEIBULL_N100_TOLERANCE, (t, measured[t])


def test_criterion_03_spacing_test_dominates_edf(pareto_study, weibull_study):
    worst = None
    for table in (pareto_study[0], weibull_study):
        for n in {r.n for r in table.rows}:
            vs_power = table.row(n, "vs").power_pct
            for t in ("ks", "cvm", "ad"):
                gap = vs_power - table.row(n, t).power_pct
                if worst is None or gap < worst[0]:
                    worst = (gap, table.scenario.name, n, t)
    ok = worst[0] >= -DOMINANCE_MARGIN
    _line(
        3,
        ok,
        f"smallest (vs - edf) power gap {worst[0]:.2f} pp at "
        f"{worst[1]} n={worst[2]} vs {worst[3]} (allowed >= -{DOMINANCE_MARGIN})",
    )
    assert worst[0] >= -DOMINANCE_MARGIN, worst


def test_criterion_04_null_calibration():
    alpha = 0.05
    # composite normal null, asymptotic p-values at n=200
    n, reps = 200, 2000
    ms = candidate_windows(n, 1.0 / 12.0)
    stats, m_hat, ok = simulate_null_statistics(
        "normal", (0.0, 1.0), n, reps, refit=True, ms=ms, seed=414, threads=THREADS
    )
    assert ok.all()
    p_asym = np.array(
        [asymptotic_p_value(float(s), int(m), n) for s, m in zip(stats, m_hat)]
    )
    rate_asym = float((p_asym <= alpha).mean())

    # simple exponential null, Monte-Carlo p-values at n=40
    rng = np.random.default_rng(415)
    rejections = 0
    reps_mc = 1000
    for k in range(reps_mc):
        x = rng.exponential(1.0, size=40)
        report = vs_test(x, "exponential", fixed_params=(1.0,), B=500,
                         seed=int(rng.integers(2 ** 63)), threads=2)
        rejections += report.p_value <= alpha
    rate_mc = rejections / reps_mc

    ok_flag = 0.03 <= rate_asym <= 0.08 and 0.03 <= rate_mc <= 0.08
    _line(
        4,
        ok_flag,
        f"null rejection rate at alpha=5%: asymptotic/composite {rate_asym:.4f}, "
        f"monte-carlo/simple {rate_mc:.4f} (band [0.03, 0.08])",
    )
    assert 0.03 <= rate_asym <= 0.08, rate_asym
    assert 0.03 <= rate_mc <= 0.08, rate_mc


def test_criterion_05_standardized_statistic_is_asymptotically_normal():
    # sqrt(6 m n) * (I - b(m, n)) against N(0, 1) under a simple uniform null.
    n, reps = 500, 2000
    ms = candidate_windows(n, 1.0 / 12.0)
    stats, m_hat, ok = simulate_null_statistics(
        "uniform", (0.0, 1.0), n, reps, refit=False, ms=ms, seed=515,
        threads=THREADS,
    )
    z = np.array(
        [
            math.sqrt(6.0 * int(m) * n) * (float(s) - bias_b(int(m), n))
            for s, m in zip(stats[ok], m_hat[ok])
        ]
    )
    z.sort()
    k = z.shape[0]
    grid = np.arange(1, k + 1) / k
    phi = sps.ndtr(z)  # scipy as the reference normal CDF
    ks = float(np.max(np.maximum(np.abs(grid - phi), np.abs(grid - 1.0 / k - phi))))
    ok_flag = ks < 0.05
    _line(
        5,
        ok_flag,
        f"KS distance of {k} standardized null statistics to N(0,1): {ks:.4f} "
        "(required < 0.05)",
    )
    assert ks < 0.05, ks


def test_criterion_06_closed_form_exactness():
    checks = []
    got = vasicek_estimate(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    checks.append(("spacing estimate (1,2,3,4) m=1", got, 1.5 * math.log(2.0)))
    fit = fit_mle("pareto", np.array([1.0, 2.0, 4.0]))
    checks.append(("pareto shape MLE", float(fit.params[0]), 1.0 / math.log(2.0)))
    checks.append(("pareto scale MLE", float(fit.params[1]), 1.0))
    efit = fit_mle("exponential", np.array([1.0, 2.0, 3.0]))
    checks.append(("exponential rate MLE", float(efit.params[0]), 0.5))
    worst = max(abs(g - w) for _, g, w in checks)
    ok = worst <= 1e-12
    _line(6, ok, f"largest closed-form deviation {worst:.2e} (required <= 1e-12)")
    for label, g, w in checks:
        assert abs(g - w) <= 1e-12, (label, g, w)


def test_criterion_07_entropy_targets():
    h_normal = closed_form_entropy("normal", (0.0, 1.0))
    h_pareto = closed_form_entropy("pareto", (2.0, 1.0))
    exact_ok = (
        abs(h_normal - 1.418939) < 5e-7 and abs(h_pareto - 0.8068528) < 5e-8
    )

    # the spacing estimator should land near both closed forms at n = 10^4
    rng = np.random.default_rng(717)
    n, m = 10_000, 15
    est_normal = vasicek_estimate(rng.normal(size=n), m)
    est_pareto = vasicek_estimate(sample("pareto", (2.0, 1.0), n, rng), m)
    est_ok = abs(est_normal - h_normal) < 0.05 and abs(est_pareto - h_pareto) < 0.05
    _line(
        7,
        exact_ok and est_ok,
        f"closed forms normal={h_normal:.6f} pareto={h_pareto:.7f}; spacing "
        f"estimates at n=10^4: {est_normal:.4f} / {est_pareto:.4f}",
    )
    assert exact_ok
    assert est_ok, (est_normal, est_pareto)


def test_criterion_08_window_selection_against_brute_force():
    rng = np.random.default_rng(818)
    agreements = disagreements = 0
    while agreements + disagreements < 500:
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
            x = np.round(x, 1)
            if np.unique(x).size < 2:
                continue
        delta = float(rng.choice([1.0 / 12.0, 2.0 / 15.0, 0.05, -1.0 / 6.0]))
        extend = bool(rng.integers(0, 2))
        relax = bool(rng.integers(0, 2))
        try:
            loglik = empirical_null_loglik(x, fid, params)
        except VsgofError:
            continue
        want = select_window_oracle(x, loglik, delta, extend, relax)
        try:
            m_hat, _, _ = select_window(
                x, fid, params, delta=delta, extend=extend, relax=relax
            )
            got = ("ok", m_hat)
        except TiesError:
            got = ("ties", None)
        except ConstraintError:
            got = ("constraint", None)
        if got == want:
            agreements += 1
        else:
            disagreements += 1
    ok = disagreements == 0
    _line(
        8,
        ok,
        f"window selection agreed with brute force on {agreements}/500 random "
        f"instances ({disagreements} disagreements allowed: 0)",
    )
    assert disagreements == 0


def test_criterion_09_likelihood_ratio_identity():
    # Under a plug-in normal null (mean, sd with ddof=1), windows widened to
    # sqrt(n) and the constraint dropped: n*I + 1/2 equals the log of the
    # spacings-based likelihood ratio exactly.
    worst = 0.0
    rng = np.random.default_rng(919)
    for n in (25, 60, 150):
        x = rng.normal(loc=3.0, scale=0.7, size=n)
        s1 = float(np.std(x, ddof=1))
        report = vs_test(
            x, "normal", fixed_params=(float(np.mean(x)), s1),
            delta=-1.0 / 6.0, relax=True, simulate_p_value=False,
        )
        v = report.window_scan.value_at(report.optimal_window)
        log_ratio = n * (math.log(s1) + 0.5 * math.log(2.0 * math.pi * math.e)) - n * v
        worst = max(worst, abs(n * report.statistic + 0.5 - log_ratio))
    ok = worst <= 1e-10
    _line(9, ok, f"largest identity deviation {worst:.2e} (required <= 1e-10)")
    assert worst <= 1e-10, worst


def test_criterion_10_bitwise_thread_determinism(uncached):
    x = np.random.default_rng(1020).gamma(2.0, size=50)
    reports = [vs_test(x, "gamma", B=600, seed=6, threads=t) for t in (1, 2, 8)]
    same_test = (
        reports[0].p_value == reports[1].p_value == reports[2].p_value
        and reports[0].statistic == reports[1].statistic == reports[2].statistic
        and reports[0].ignored_replicates == reports[1].ignored_replicates
        == reports[2].ignored_replicates
    )

    scn = parse_scenario_file(SCENARIO_DIR / "size-sanity.scenario")
    tables = [run_power_study(scn, threads=t) for t in (1, 8)]
    same_power = tables[0].rows == tables[1].rows

    ok = same_test and same_power
    _line(
        10,
        ok,
        f"monte-carlo test identical over threads 1/2/8: {same_test}; "
        f"power table identical over threads 1/8: {same_power}",
    )
    assert same_test
    assert same_power
