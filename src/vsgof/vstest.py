"""Goodness-of-fit test based on spacing estimates of KL divergence.

The statistic is an empirical Kullback-Leibler divergence between the
sample and the null family::

    I = -V_mhat - (1/n) * sum_i log p0(x_i; theta)

where ``V_mhat`` is the spacing entropy estimate at a data-driven window and
``theta`` is either the MLE (composite null) or user-fixed (simple null).
Small divergence supports the null; the test rejects for large ``I``.

Window choice maximizes the entropy estimate over a candidate range
``1..floor(n^(1/3 - delta))`` subject to the estimate not exceeding the
empirical null bound ``-(1/n) sum log p0`` (so ``I >= 0``); ``extend``
widens the range to every valid window and ``relax`` drops the constraint.

p-values come from a centered-and-scaled normal limit for large samples,
or from parametric-bootstrap Monte-Carlo (replicates drawn from the fitted
or fixed null, the whole pipeline re-run per replicate).  Replicates for
which no window satisfies the constraint, or whose refit fails, are
dropped from the reference set and counted.

Monte-Carlo runs follow the seeded chunk contract of ``vsgof._mc``, whose
``null_map`` draws and evaluates every null replicate: results are bitwise
identical for any ``threads`` value.

A note on the equivalence mode used by the test-suite identity check: with
``relax=True``, ``delta=-1/6`` and a simple normal null whose plug-in scale
uses the (n-1)-denominator sample variance, ``n * I + 1/2`` equals the log
of the minimized empirical-likelihood ratio over the same window table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, psi

from . import distributions as dist
from ._mc import check_count, check_seed, null_map
from .errors import (ConstraintError, DataError, EstimationError,
                     ParameterError, TiesError)
from .sample import Sample, as_sample, valid_rows
from .spacing import (WindowScan, _best_columns, _largest_window,
                      batch_window_values, vasicek_estimate)

__all__ = [
    "TestOptions",
    "VsTestReport",
    "candidate_windows",
    "empirical_null_loglik",
    "statistic_at",
    "select_window",
    "harmonic_prefix",
    "bias_b",
    "asymptotic_p_value",
    "monte_carlo_p_value",
    "simulate_null_statistics",
    "vs_test",
]

_ASYMPTOTIC_MIN_N = 80  # sample size at which the normal limit takes over

# the spellings of ``simulate_p_value`` in the CLI and scenario files
_SIMULATE_FLAGS = {"auto": None, "true": True, "false": False}

_TIES_WARNING = ("sample contains tied values; spacing estimates are only "
                 "defined for windows wider than the tie runs")


@dataclass(frozen=True)
class TestOptions:
    """Options for :func:`vs_test`.

    delta
        Window-range exponent adjustment, must be < 1/3; None picks the
        family default (1/12 or 2/15).
    extend
        Widen the candidate windows to every valid one (forces Monte-Carlo
        p-values).
    relax
        Drop the nonnegativity constraint on the statistic during window
        selection.
    simulate_p_value
        True forces Monte-Carlo, False forces the asymptotic formula, None
        decides by sample size (Monte-Carlo below n=80).
    B
        Monte-Carlo replicate count.
    fixed_params
        Fully specified null parameters (simple null); None fits the MLE.
    seed
        Root seed for Monte-Carlo replication; required on any MC path.
    """

    delta: float | None = None
    extend: bool = False
    relax: bool = False
    simulate_p_value: bool | None = None
    B: int = 5000
    fixed_params: tuple | None = None
    seed: int | None = None


@dataclass(frozen=True)
class VsTestReport:
    family_id: str
    n: int
    statistic: float
    optimal_window: int
    p_value: float
    p_value_method: str  # "asymptotic" | "monte_carlo"
    estimate: dist.FitResult | None  # None for simple nulls
    window_scan: WindowScan
    delta: float
    extend: bool
    relax: bool
    B: int | None  # None on the asymptotic path
    seed: int | None
    ignored_replicates: int
    warnings: tuple[str, ...]


def _check_delta(delta) -> None:
    """The window-range exponent must be < 1/3; None is the family default."""
    if delta is not None and not float(delta) < 1.0 / 3.0:
        raise ParameterError(f"delta must be < 1/3, got {delta}")


def candidate_windows(n: int, delta: float, extend: bool = False) -> np.ndarray:
    """Candidate window range for the test's selection rule.

    Default: 1..floor(n^(1/3 - delta)) intersected with the valid windows
    (m < n/2); extend=True lifts the upper bound to the largest valid
    window.  A small epsilon guards the floor against exact-power rounding.
    """
    n = int(n)
    top = _largest_window(n)
    _check_delta(delta)
    if extend:
        upper = top
    else:
        # n ** 1 = n > top already, so a larger exponent (delta -> -inf)
        # changes nothing but could overflow the float power
        upper = min(int(math.floor(n ** min(1.0 / 3.0 - delta, 1.0) + 1e-9)), top)
    return np.arange(1, upper + 1)


def empirical_null_loglik(x: "Sample | np.ndarray", family: str, params) -> float:
    """Mean log-density of the sample under fixed null parameters.

    Raises DataError (with offending positions) if any observation falls
    outside the null support.
    """
    s = as_sample(x)
    fam = dist.resolve_family(family)
    return _support_loglik(fam, fam.validate_params(params), s)


def _support_loglik(fam, params: np.ndarray, s: Sample) -> float:
    """:func:`empirical_null_loglik` for a resolved family and validated
    parameters."""
    loglik, inside = _null_loglik(fam, params, s.values)
    if not inside.all():
        bad = np.flatnonzero(~inside)
        raise DataError(
            f"observations outside the {fam.family_id} support "
            f"({fam.support_text}) at positions {bad.tolist()[:10]}"
        )
    return float(loglik)


def _null_loglik(fam, params, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean null log-density along the last axis of X, and which values lie
    inside the support (have a finite log-density).  ``params`` broadcasts
    against X: one parameter vector, or columns of per-row parameters."""
    L = np.asarray(fam.log_density(params, X))
    return L.mean(axis=-1), np.isfinite(L)


def statistic_at(x: "Sample | np.ndarray", family: str, params, m: int) -> float:
    """KL test statistic at a caller-chosen window (no selection rule)."""
    s = as_sample(x)
    loglik = empirical_null_loglik(s, family, params)
    return -vasicek_estimate(s, m) - loglik


def _select_rows(V: np.ndarray, computable: np.ndarray, loglik: np.ndarray,
                 relax: bool) -> tuple[np.ndarray, np.ndarray]:
    """The window-selection rule, row by row: ``spacing._best_columns``
    over the admissible windows.  A window is admissible when its estimate
    is computable and, unless ``relax``, at most the null bound ``-loglik``
    (so the statistic is >= 0).  A NaN ``loglik`` (a failed refit) makes
    the row not ok."""
    with np.errstate(invalid="ignore"):
        admissible = (computable if relax
                      else computable & (V <= -loglik[:, None]))
    col, found = _best_columns(V, admissible)
    return col, found & ~np.isnan(loglik)


def _scan_and_select(s: Sample, fam, params, delta: float, extend: bool,
                     relax: bool) -> tuple[int, float, WindowScan, list[str]]:
    """Window scan of one sample and the selection rule applied to it.

    Returns the selected window, the statistic there, the scan and the
    warnings; raises TiesError or ConstraintError when no window qualifies.
    """
    loglik = _support_loglik(fam, params, s)
    ms = candidate_windows(s.n, delta, extend)
    V, computable = batch_window_values(s.sorted_values[None, :], ms)
    warnings = [_TIES_WARNING] if s.has_ties else []
    if not np.any(computable):
        raise TiesError(
            "too many tied values: no candidate window yields positive "
            "spacings, so the entropy estimate does not exist; re-run with "
            "extend=True for wider windows or de-duplicate the data"
        )
    col, ok = _select_rows(V, computable, np.array([loglik]), relax)
    if not ok[0]:
        raise ConstraintError(
            "the spacing entropy estimate exceeds the empirical null bound "
            "for every candidate window; the sample may be too small, or is "
            "unlikely to come from the null family (extend=True widens the "
            "window range, relax=True drops the constraint)"
        )
    j = int(col[0])
    scan = WindowScan(windows=ms, values=V[0], computable=computable[0])
    return int(ms[j]), float(-V[0, j] - loglik), scan, warnings


def select_window(x: "Sample | np.ndarray", family: str, params, *,
                  delta: float | None = None, extend: bool = False,
                  relax: bool = False) -> tuple[int, WindowScan, tuple[str, ...]]:
    """Data-driven window choice for the test statistic.

    Returns the selected window, the scan over the whole candidate range
    (values + computability flags), and any warnings raised along the way.
    """
    fam = dist.resolve_family(family)
    d = fam.default_delta if delta is None else float(delta)
    m, _, scan, warnings = _scan_and_select(
        as_sample(x), fam, fam.validate_params(params), d, extend, relax)
    return m, scan, tuple(warnings)


def harmonic_prefix(top: int) -> list[float]:
    """Harmonic numbers [H_0, H_1, ..., H_top], with H_0 = 0.

    Built by compensated (Kahan) accumulation, so each entry is within an
    ulp or so of the exact sum.
    """
    if top != int(top) or top < 0:
        raise ValueError(f"harmonic_prefix needs an integer >= 0, got {top!r}")
    H = [0.0] * (int(top) + 1)
    acc = comp = 0.0
    for k in range(1, len(H)):
        term = 1.0 / k - comp
        new = acc + term
        comp = (new - acc) - term
        acc = new
        H[k] = acc
    return H


def bias_b(m: int, n: int) -> float:
    """Centering constant of the statistic's normal limit.

    b(m, n) = log(2m) - log n - psi(2m) + psi(n+1)
              + (2m/n) * R_{2m-1} - (2/n) * sum_{i=1..m} R_{i+m-2},

    with R_k the k-th harmonic number (R_0 = 0).  Positive for every valid
    (m, n), and converging to log(2m) - psi(2m) as n grows.
    """
    m, n = int(m), int(n)
    if m < 1 or 2 * m >= n:
        raise ParameterError(f"bias_b requires 1 <= m < n/2, got m={m}, n={n}")
    H = harmonic_prefix(2 * m - 1)
    tail = math.fsum(H[i + m - 2] for i in range(1, m + 1))
    return float(math.log(2 * m) - math.log(n) - psi(2.0 * m) + psi(n + 1.0)
                 + (2.0 * m / n) * H[2 * m - 1] - (2.0 / n) * tail)


def asymptotic_p_value(statistic: float, m: int, n: int) -> float:
    """Upper-tail p-value from the normal limit of the statistic.

    sqrt(6 m n) * (I - b(m, n)) is asymptotically standard normal, so
    p = 1 - Phi(z) with z = sqrt(6 m n) * (I - b(m, n)), computed as Phi(-z)
    so that the far upper tail keeps its relative precision.
    """
    z = math.sqrt(6.0 * m * n) * (statistic - bias_b(m, n))
    return float(ndtr(-z))


# ---------------------------------------------------------------------------
# Monte-Carlo engine
# ---------------------------------------------------------------------------

def _null_rows(fam, params: np.ndarray | None, X: np.ndarray, refit: bool,
               ms: np.ndarray, relax: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null replicate rows: statistics, windows, validity flags.  With
    ``refit`` every row is refitted and ``params`` is not used."""
    size = X.shape[0]
    loglik = np.full(size, np.nan)
    if refit:
        P, okfit = fam.fit_rows(X)
        if np.any(okfit):
            loglik[okfit] = fam.mean_loglik_rows(X[okfit], P[okfit])
    else:
        loglik[:] = fam.log_density(params, X).mean(axis=1)
    V, computable = batch_window_values(np.sort(X, axis=1), ms)
    col, ok = _select_rows(V, computable, loglik, relax)
    best = np.where(ok, V[np.arange(size), col], -np.inf)
    with np.errstate(invalid="ignore"):
        stats = -best - loglik
    return stats, ms[col], ok


def simulate_null_statistics(family: str, params, n: int, B: int, *,
                             refit: bool, ms: np.ndarray, relax: bool = False,
                             seed: int, threads: int = 1
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics of B null replicates (parametric bootstrap).

    Returns ``(stats, m_hat, ok)``; entries with ``ok=False`` had no
    admissible window (or a failed re-fit) and must be ignored.  Replicates
    run in the seeded chunks of ``vsgof._mc.null_map``: output is
    independent of ``threads``.
    """
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)
    return null_map(fam, [p], n, B, [seed],
                    lambda X: _null_rows(fam, p, X, refit, ms, relax),
                    threads=threads)


def monte_carlo_p_value(observed: float, family: str, params, n: int, *,
                        B: int, refit: bool, ms: np.ndarray,
                        relax: bool = False, seed: int, threads: int = 1
                        ) -> tuple[float, int]:
    """Parametric-bootstrap p-value: share of null statistics strictly
    above the observed one, over the replicates that admit a window.

    Returns ``(p_value, ignored)`` where ``ignored`` counts the discarded
    replicates; raises EstimationError if every replicate is discarded.
    """
    stats, _, ok = simulate_null_statistics(
        family, params, n, B, refit=refit, ms=ms, relax=relax,
        seed=seed, threads=threads)
    p, kept = _mc_share(stats, ok, np.float64(observed))
    if not kept:
        raise EstimationError(
            "every Monte-Carlo replicate was discarded (no admissible "
            "window, or a failed refit); the null model cannot be simulated "
            "at this sample size"
        )
    return float(p), int(B - kept)


def _mc_share(stats: np.ndarray, ok: np.ndarray, observed: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo p-values along the last axis: the share of the kept null
    statistics (``ok``) strictly above ``observed``, and the kept counts.
    There is no p-value where nothing was kept."""
    kept = ok.sum(axis=-1)
    above = (ok & (stats > observed[..., None])).sum(axis=-1)
    with np.errstate(invalid="ignore"):
        return above / kept, kept


def _p_value_rows(fam, X: np.ndarray, seeds: np.ndarray,
                  opts: TestOptions) -> np.ndarray:
    """The p-value of :func:`vs_test` on every row of X at once, row i with
    seed ``seeds[i]``.

    A row's p-value is NaN exactly where ``vs_test`` raises a
    ``VsgofError``: invalid data, data outside the fit interval or the null
    support, a failed fit, no admissible window, or every null replicate
    discarded.  The null replicates of all rows run through one
    ``vsgof._mc.null_map``, each row's drawn as ``vs_test`` draws them.
    """
    p_values = np.full(X.shape[0], np.nan)
    n = X.shape[1]
    rows = np.flatnonzero(valid_rows(X))
    refit = opts.fixed_params is None
    if refit:
        rows = rows[~fam.outside_fit_interval(X[rows]).any(axis=1)]
        P, fitted = fam.fit_rows(X[rows])
        fitted[fitted] = fam.param_rows_ok(P[fitted])
        rows, P = rows[fitted], P[fitted]
        params = fam._cols(P)
    else:
        params = fam.validate_params(opts.fixed_params)
        P = np.broadcast_to(params, (rows.size, params.size))
    loglik, inside = _null_loglik(fam, params, X[rows])
    inside = inside.all(axis=1)
    rows, P, loglik = rows[inside], P[inside], loglik[inside]

    delta = fam.default_delta if opts.delta is None else float(opts.delta)
    ms = candidate_windows(n, delta, opts.extend)
    V, computable = batch_window_values(np.sort(X[rows], axis=1), ms)
    col, ok = _select_rows(V, computable, loglik, opts.relax)
    stat = -V[np.arange(rows.size), col] - loglik
    rows, P, stat, m_hat = rows[ok], P[ok], stat[ok], ms[col[ok]]

    if _resolve_p_method(opts, n) == "asymptotic":
        p_values[rows] = [asymptotic_p_value(t, m, n)
                          for t, m in zip(stat, m_hat)]
        return p_values
    stats, _, ok = null_map(
        fam, P, n, opts.B, seeds[rows],
        lambda X: _null_rows(fam, params, X, refit, ms, opts.relax))
    # NaN (0 / 0) where every null replicate was discarded
    p_values[rows], _ = _mc_share(stats.reshape(-1, opts.B),
                                  ok.reshape(-1, opts.B), stat)
    return p_values


def _resolve_p_method(opts: TestOptions, n: int) -> str:
    if opts.extend:
        if opts.simulate_p_value is False:
            raise ParameterError(
                "extend=True requires Monte-Carlo p-values; it cannot be "
                "combined with simulate_p_value=False"
            )
        return "monte_carlo"
    if opts.simulate_p_value is True:
        return "monte_carlo"
    if opts.simulate_p_value is False:
        return "asymptotic"
    return "monte_carlo" if n < _ASYMPTOTIC_MIN_N else "asymptotic"


def vs_test(x: "Sample | np.ndarray", family: str,
            opts: TestOptions | None = None, *, threads: int = 1,
            **option_overrides) -> VsTestReport:
    """Run the goodness-of-fit test of ``family`` against the sample.

    ``opts`` may be a prebuilt :class:`TestOptions`; alternatively pass its
    fields as keyword arguments (``vs_test(x, "dnorm", seed=1, B=1000)``).
    ``threads`` parallelizes Monte-Carlo chunks without changing results.
    """
    check_count(threads, "threads")
    if opts is None:
        opts = TestOptions(**option_overrides)
    elif option_overrides:
        raise ParameterError("pass either opts or keyword options, not both")

    s = as_sample(x)
    if s.n < 3:
        raise DataError(f"the test needs at least 3 observations, got {s.n}")
    fam = dist.resolve_family(family)

    check_count(opts.B, "B")
    if opts.seed is not None:
        check_seed(opts.seed)
    _check_delta(opts.delta)

    # null parameters: user-fixed (simple) or fitted (composite)
    if opts.fixed_params is not None:
        params = fam.validate_params(opts.fixed_params)
        estimate = None
        refit = False
    else:
        estimate = dist.fit_mle(fam.family_id, s)
        params = fam.validate_params(estimate.params)
        refit = True

    delta = fam.default_delta if opts.delta is None else float(opts.delta)
    m_hat, statistic, scan, warnings = _scan_and_select(
        s, fam, params, delta, opts.extend, opts.relax)

    method = _resolve_p_method(opts, s.n)
    ignored = 0
    if method == "monte_carlo":
        p, ignored = monte_carlo_p_value(
            statistic, fam.family_id, params, s.n, B=int(opts.B),
            refit=refit, ms=scan.windows, relax=opts.relax, seed=opts.seed,
            threads=threads)
        if ignored:
            warnings.append(
                f"{ignored} of {int(opts.B)} null replicates had no "
                f"admissible window or a failed refit and were ignored")
        B_used: int | None = int(opts.B)
    else:
        p = asymptotic_p_value(statistic, m_hat, s.n)
        B_used = None

    return VsTestReport(
        family_id=fam.family_id,
        n=s.n,
        statistic=statistic,
        optimal_window=m_hat,
        p_value=p,
        p_value_method=method,
        estimate=estimate,
        window_scan=scan,
        delta=delta,
        extend=bool(opts.extend),
        relax=bool(opts.relax),
        B=B_used,
        seed=opts.seed,
        ignored_replicates=ignored,
        warnings=tuple(warnings),
    )
