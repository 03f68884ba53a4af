"""Correctness checks made apart from vsgof.

Every check recomputes what the program reports with ``numpy``,
``scipy.stats`` and ``scipy.special`` only, or tests a property the
method must have.  None compares against stored output.  Each check
returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

STAT_RTOL = 1e-9   # statistics are recomputed to this relative accuracy
P_ATOL = 1e-10     # asymptotic p-values, absolute
LL_RTOL = 1e-9     # composite fits: allowed shortfall against scipy's MLE
TIE_TOL = 1e-12    # window values closer than this are a numerical tie
UNIFORMITY_MIN_P = 1e-6
BINOMIAL_TAIL = 1e-6

# ---------------------------------------------------------------------------
# reference distributions
# ---------------------------------------------------------------------------

def scipy_dist(family: str, p):
    """Frozen ``scipy.stats`` distribution for vsgof's parameter order."""
    p = [float(v) for v in p]
    return {
        "uniform": lambda: stats.uniform(loc=p[0], scale=p[1] - p[0]),
        "normal": lambda: stats.norm(p[0], p[1]),
        "lognormal": lambda: stats.lognorm(p[1], scale=math.exp(p[0])),
        "exponential": lambda: stats.expon(scale=1.0 / p[0]),
        "gamma": lambda: stats.gamma(p[0], scale=1.0 / p[1]),
        "weibull": lambda: stats.weibull_min(p[0], scale=p[1]),
        "pareto": lambda: stats.pareto(p[0], scale=p[1]),
        "fisher": lambda: stats.f(p[0], p[1]),
        "laplace": lambda: stats.laplace(p[0], p[1]),
        "beta": lambda: stats.beta(p[0], p[1]),
    }[family]()


def scipy_fit(family: str, x: np.ndarray) -> tuple[float, ...]:
    """Maximum-likelihood parameters from ``scipy.stats``, in vsgof order."""
    if family == "uniform":
        loc, scale = stats.uniform.fit(x)
        return loc, loc + scale
    if family == "normal":
        return stats.norm.fit(x)
    if family == "lognormal":
        s, _, scale = stats.lognorm.fit(x, floc=0)
        return math.log(scale), s
    if family == "exponential":
        _, scale = stats.expon.fit(x, floc=0)
        return (1.0 / scale,)
    if family == "gamma":
        a, _, scale = stats.gamma.fit(x, floc=0)
        return a, 1.0 / scale
    if family == "weibull":
        c, _, scale = stats.weibull_min.fit(x, floc=0)
        return c, scale
    if family == "pareto":
        b, _, scale = stats.pareto.fit(x, floc=0)
        return b, scale
    if family == "fisher":
        d1, d2, _, _ = stats.f.fit(x, floc=0, fscale=1)
        return d1, d2
    if family == "laplace":
        return stats.laplace.fit(x)
    if family == "beta":
        a, b, _, _ = stats.beta.fit(x, floc=0, fscale=1)
        return a, b
    raise KeyError(family)


def mean_loglik(family: str, p, x: np.ndarray) -> float:
    return float(np.mean(scipy_dist(family, p).logpdf(x)))


def spacing_estimate(x: np.ndarray, m: int) -> float:
    """Vasicek estimate from its formula, order statistics clamped at the
    ends: (1/n) sum_i log(n/(2m) * (x_(i+m) - x_(i-m)))."""
    s = np.sort(np.asarray(x, dtype=float))
    n = s.size
    i = np.arange(n)
    gaps = s[np.minimum(i + m, n - 1)] - s[np.maximum(i - m, 0)]
    if np.any(gaps <= 0):
        return math.nan
    return float(np.mean(np.log(n / (2.0 * m) * gaps)))


def candidate_windows(n: int, delta: float, extend: bool) -> list[int]:
    """The paper's range 1 <= m <= n^(1/3 - delta), within m < n/2."""
    top = (n - 1) // 2
    if extend:
        return list(range(1, top + 1))
    upper = min(int(math.floor(n ** (1.0 / 3.0 - delta) + 1e-9)), top)
    return list(range(1, max(upper, 1) + 1))


def asymptotic_p(stat: float, m: int, n: int) -> float:
    """1 - Phi(sqrt(6mn) (I - b(m, n))) with b from psi and harmonic sums."""
    def harmonic(k):
        return 0.0 if k <= 0 else float(special.psi(k + 1.0) - special.psi(1.0))
    b = (math.log(2 * m) - math.log(n) - special.psi(2.0 * m)
         + special.psi(n + 1.0) + (2.0 * m / n) * harmonic(2 * m - 1)
         - (2.0 / n) * sum(harmonic(i + m - 2) for i in range(1, m + 1)))
    return float(1.0 - special.ndtr(math.sqrt(6.0 * m * n) * (stat - b)))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# ---------------------------------------------------------------------------
# vs_test
# ---------------------------------------------------------------------------

def check_vs(call, report) -> list[str]:
    """Statistic, window, scan, p-value and fit of one ``vs_test`` report."""
    where = f"vs {call.label}"
    bad: list[str] = []
    x = call.x
    n = x.size
    params = (report.estimate.params if report.estimate is not None
              else call.fixed_params)
    ll = mean_loglik(call.family, params, x)
    ms = candidate_windows(n, report.delta, call.extend)
    if list(report.window_scan.windows) != ms:
        bad.append(f"{where}: candidate windows {list(report.window_scan.windows)}"
                   f" != {ms}")
        return bad
    values = np.array([spacing_estimate(x, m) for m in ms])
    for m, v, got, ok in zip(ms, values, report.window_scan.values,
                             report.window_scan.computable):
        if bool(ok) != bool(np.isfinite(v)) or (
                ok and not _close(float(got), float(v), STAT_RTOL, TIE_TOL)):
            bad.append(f"{where}: window {m} estimate {got!r} != {v!r}")
            break

    # brute force over the candidate windows under the constraint V <= -ll;
    # a disagreement only inside floating-point ties is not a fault
    admissible = np.isfinite(values) & (values <= -ll)
    if not np.any(admissible):
        bad.append(f"{where}: no admissible window, yet a report was made")
        return bad
    best = int(np.argmax(np.where(admissible, values, -np.inf)))
    m_hat = report.optimal_window
    if m_hat != ms[best]:
        j = m_hat - 1
        tie = (0 <= j < len(ms) and np.isfinite(values[j])
               and abs(values[j] - values[best]) <= TIE_TOL * abs(values[best])
               + TIE_TOL) or abs(values[best] + ll) <= TIE_TOL * abs(ll)
        if not tie:
            bad.append(f"{where}: window {m_hat} but brute force gives "
                       f"{ms[best]}")
    j = m_hat - 1
    if 0 <= j < len(ms):
        stat = -values[j] - ll
        if not _close(report.statistic, stat, STAT_RTOL,
                      TIE_TOL * (abs(values[j]) + abs(ll))):
            bad.append(f"{where}: statistic {report.statistic!r} != {stat!r}")
    else:
        stat = math.nan

    if report.p_value_method == "asymptotic":
        p = asymptotic_p(stat, m_hat, n)
        if not _close(report.p_value, p, 1e-9, P_ATOL):
            bad.append(f"{where}: asymptotic p {report.p_value!r} != {p!r}")
    else:
        bad += check_p_count(where, report.p_value, report.B,
                             report.ignored_replicates)
    return bad


def check_p_count(where: str, p: float, B: int, ignored: int = 0) -> list[str]:
    """A Monte-Carlo p-value is a share of the B - ignored null statistics
    kept; it can be 0 when the observed statistic exceeds every one."""
    kept = B - ignored
    k = p * kept
    if not (0 < kept <= B and 0.0 <= p <= 1.0 and abs(k - round(k)) <= 1e-6):
        return [f"{where}: p {p!r} x (B - ignored) = {k!r} is not a count"]
    return []


def check_fit(call, report) -> list[str]:
    """A composite fit must reach scipy's maximum of the likelihood."""
    params = [float(v) for v in report.estimate.params]
    ll = mean_loglik(call.family, params, call.x)
    ref = [float(v) for v in scipy_fit(call.family, call.x)]
    ll_ref = mean_loglik(call.family, ref, call.x)
    if ll < ll_ref - LL_RTOL * max(1.0, abs(ll_ref)):
        return [f"vs {call.label}: fit {params} reaches mean log-likelihood "
                f"{ll!r} < scipy's {ll_ref!r} at {ref}"]
    return []


def check_uniform(pvalues: list[float], label: str) -> list[str]:
    """Loose check that null p-values look uniform on (0, 1)."""
    ks = stats.kstest(pvalues, "uniform")
    if ks.pvalue < UNIFORMITY_MIN_P:
        return [f"{label}: {len(pvalues)} null p-values fail uniformity "
                f"(KS p={ks.pvalue:.2e})"]
    return []


def check_cli(call, payload: dict, report) -> list[str]:
    """The CLI's JSON report must carry the library report's values."""
    want = {
        "family": report.family_id, "n": report.n,
        "statistic": report.statistic, "optimal_window": report.optimal_window,
        "p_value": report.p_value, "p_value_method": report.p_value_method,
        "B": report.B, "seed": report.seed,
        "ignored_replicates": report.ignored_replicates,
    }
    bad = [f"cli {call.label}: {k} {payload.get(k)!r} != library {v!r}"
           for k, v in want.items() if payload.get(k) != v]
    if report.estimate is not None:
        got = list((payload.get("estimate") or {}).get("params", {}).values())
        if got != [float(v) for v in report.estimate.params]:
            bad.append(f"cli {call.label}: estimate {got} != library "
                       f"{list(report.estimate.params)}")
    return bad


# ---------------------------------------------------------------------------
# edf_test
# ---------------------------------------------------------------------------

def check_edf(call, report) -> list[str]:
    where = f"edf {call.label}"
    ref = scipy_dist(call.family, call.params)
    x = np.sort(call.x)
    n = x.size
    if call.test == "ks":
        want = stats.kstest(x, ref.cdf).statistic
    elif call.test == "cvm":
        want = stats.cramervonmises(x, ref.cdf).statistic
    else:
        i = np.arange(1, n + 1)
        want = -n - np.sum((2 * i - 1) * (ref.logcdf(x) + ref.logsf(x[::-1]))) / n
    bad = []
    if not _close(report.statistic, float(want), STAT_RTOL, 1e-14):
        bad.append(f"{where}: statistic {report.statistic!r} != {float(want)!r}")
    return bad + check_p_count(where, report.p_value, report.B)


# ---------------------------------------------------------------------------
# run_power_study
# ---------------------------------------------------------------------------

def binomial_range(rate_pct: float, reps: int) -> tuple[float, float]:
    """Central range (percent) holding all but BINOMIAL_TAIL of each tail."""
    p = min(max(rate_pct / 100.0, 1e-9), 1.0 - 1e-9)
    lo = stats.binom.ppf(BINOMIAL_TAIL, reps, p)
    hi = stats.binom.isf(BINOMIAL_TAIL, reps, p)
    return 100.0 * lo / reps, 100.0 * hi / reps


def check_power(call, table) -> list[str]:
    """No replicate of a power study may end in an error."""
    return [f"power {call.label} n={row.n} {row.test}: {row.errors} "
            "replicate errors" for row in table.rows if row.errors]


def mc_size(alpha: float, B: int) -> float:
    """Exact level of a Monte-Carlo test that rejects when p = k/B <= alpha,
    k counting the B null statistics above the observed one: under the null
    k is uniform on 0..B, so the level is (floor(alpha B) + 1) / (B + 1),
    a little above alpha (5.47 % at alpha = 0.05, B = 200)."""
    return (math.floor(alpha * B + 1e-9) + 1) / (B + 1)


def check_size(cells: dict, alpha: float) -> list[str]:
    """Each size-study cell, its rejections pooled over calls and passes,
    rejects at the Monte-Carlo test's exact level within binomial bounds.
    ``cells`` maps a label to (rejections, replicates, B)."""
    bad = []
    for label, (rej, reps, B) in cells.items():
        level = 100.0 * mc_size(alpha, B)
        lo, hi = binomial_range(level, reps)
        pct = 100.0 * rej / reps
        if not lo <= pct <= hi:
            bad.append(f"size {label}: {pct:.2f}% of {reps} replicates outside "
                       f"the binomial range [{lo:.2f}, {hi:.2f}] of the level "
                       f"{level:.2f}% of alpha = {alpha} at B = {B}")
    return bad


def check_tabulated(table, rates: dict, tol: float) -> list[str]:
    """Rows of a study run as shipped lie within the acceptance gate's
    tolerance of the externally tabulated rates."""
    bad = []
    for row in table.rows:
        want = rates.get((row.n, row.test))
        if want is not None and abs(row.power_pct - want) > tol:
            bad.append(f"power {table.scenario.name} n={row.n} {row.test}: "
                       f"{row.power_pct:.2f}% is more than {tol} points from "
                       f"the tabulated {want}%")
        if row.errors:
            bad.append(f"power {table.scenario.name} n={row.n} {row.test}: "
                       f"{row.errors} replicate errors")
    return bad
