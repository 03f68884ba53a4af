"""Goodness-of-fit test based on spacing estimates of KL divergence.

The statistic is an empirical Kullback-Leibler divergence between the
sample and the null family::

    I = -V_mhat - (1/n) * sum_i log p0(x_i; theta)

where ``V_mhat`` is the spacing entropy estimate at a data-driven window and
``theta`` is either the MLE (composite null) or user-fixed (simple null).
Under a composite null the second term is the maximized mean
log-likelihood that the family's ``fit_rows`` returns with its estimate,
for the observed rows and for every refitted null replicate alike.
Small divergence supports the null; the test rejects for large ``I``.

Window choice maximizes the entropy estimate over a candidate range
``1..floor(n^(1/3 - delta))`` subject to the estimate not exceeding the
empirical null bound ``-(1/n) sum log p0`` (so ``I >= 0``); ``extend``
widens the range to every valid window and ``relax`` drops the constraint.

p-values come from a centered-and-scaled normal limit for large samples,
or from parametric-bootstrap Monte-Carlo (replicates drawn from the fitted
or fixed null, the whole pipeline re-run per replicate).  A replicate is
dropped from the reference set, and counted, for one of three causes: no
candidate window is admissible (ties, or the constraint), its refit fails,
or its null term is not finite (a draw outside the null support, or
log-densities summing below the float range).

Every statistic has one path, ``_rows``: it runs the steps above on every
row of a matrix and then gives each row without a statistic a cause code
of ``vsgof.errors.CAUSES``.  A single test runs its sample as the one row
and raises the error of the row's cause; a power cell runs a chunk of its
replicates as the rows; and every block of null replicates runs through
it too.  The Monte-Carlo reference has two paths on purpose, both on the
seeded chunks of ``vsgof._mc.null_map`` (bitwise identical for any
``threads``): a single test's goes through :func:`monte_carlo_p_value`,
which reuses the reference of a repeated null, options, B and seed; a
power cell's chunk, whose seeds never repeat, stacks its replicates'
references in one ``null_map`` call.

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

from . import _mc, distributions as dist
from ._mc import check_count, check_seed, null_map, null_reference
from .errors import (CONSTRAINT, DISCARDED, FAILED_FIT, INVALID_DATA, OK,
                     OUTSIDE_FIT, OUTSIDE_SUPPORT, TIES, DataError,
                     ParameterError, cause_error)
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


# kept small (slots, own arrays): callers may hold many reports
@dataclass(frozen=True, slots=True)
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
    outside the null support, or if the log-densities sum below the float
    range.
    """
    s = as_sample(x)
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)
    loglik = _null_loglik(fam, p, s.values)
    if not np.isfinite(loglik):
        _raise_cause(fam, s, OUTSIDE_SUPPORT, p)
    return float(loglik)


def _null_loglik(fam, params, X: np.ndarray) -> np.ndarray:
    """Mean null log-density along the last axis of X; ``params`` broadcasts
    against X: one parameter vector, or columns of per-row parameters.  It
    is finite exactly where every value has a finite log-density (inside
    the support, and not so far out that it is below the float range) and
    their sum is inside the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(fam.log_density(params, X)).mean(axis=-1)


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
    (so the statistic is >= 0).  A ``loglik`` that is not finite (NaN: a
    failed refit; -inf: a value outside the null support) makes the row
    not ok."""
    with np.errstate(invalid="ignore"):
        admissible = (computable if relax
                      else computable & (V <= -loglik[:, None]))
    col, found = _best_columns(V, admissible)
    return col, found & np.isfinite(loglik)


def _rows(fam, X: np.ndarray, params: np.ndarray | None, ms: np.ndarray,
          relax: bool, checked: bool) -> tuple:
    """:func:`vs_test`'s statistic on every row of X, observed or null: the
    null term (params None: the log-likelihood of the row's fit), an in-place
    sort, the spacing estimates at the windows ``ms`` and the window rule.

    Returns ``(stat, m_hat, ok, cause, P, V, computable)``: per row the
    statistic (NaN unless ``ok``, the row has one), the selected window,
    ``ok``, the code of ``errors.CAUSES`` (``cause`` is None where every row
    is ok), the fitted parameters (or ``params``) and the spacing
    estimates.  The rows left without a statistic get their cause last, in
    the single test's order: invalid data, data outside the fit interval, a
    failed fit (or invalid fitted parameters), data outside the null
    support (or log-densities summing below the float range), ties, the
    constraint; each is assigned after those it yields to.  ``checked``
    says X is a null block: it is not screened for invalid data (a uniform
    null's spread may overflow) or invalid fitted parameters (a fit flags
    ok valid ones only).
    """
    if params is None:
        P, fitted, loglik = fam.fit_rows(X)  # NaN where the fit fails
        if not checked:  # a fit flagged ok with invalid parameters fails
            fitted &= fam.param_rows_ok(P)
            loglik[~fitted] = np.nan
    else:
        P, loglik = params, _null_loglik(fam, params, X)
    X.sort(axis=1)
    V, computable = batch_window_values(X, ms)
    col, ok = _select_rows(V, computable, loglik, relax)
    if not checked:
        valid = valid_rows(X)
        ok &= valid
    with np.errstate(invalid="ignore"):
        stat = np.where(ok, -V[np.arange(col.size), col] - loglik, np.nan)
    cause = None
    if not ok.all():
        bad = np.flatnonzero(~ok)
        why = np.full(bad.size, CONSTRAINT)
        why[~computable[bad].any(axis=1)] = TIES
        why[~np.isfinite(loglik[bad])] = OUTSIDE_SUPPORT
        if params is None:
            why[~fitted[bad]] = FAILED_FIT
            why[fam.outside_fit_interval(X[bad]).any(axis=1)] = OUTSIDE_FIT
        if not checked:
            why[~valid[bad]] = INVALID_DATA
        cause = np.full(ok.size, OK)
        cause[bad] = why
    return stat, ms[col], ok, cause, P, V, computable


def _delta(fam, opts: TestOptions) -> float:
    return fam.default_delta if opts.delta is None else float(opts.delta)


def _raise_cause(fam, s: Sample, cause: int, params: np.ndarray) -> None:
    """Raise the error of a single test whose row has a cause; ``params``
    are the row's null parameters.  Messages that name positions come from
    the data: the values outside the support if any, else those inside it
    whose log-density is below the float range or, where every one is
    finite but their sum is below it, the fewest (lowest) of them whose
    sum is."""
    if cause == OUTSIDE_FIT:
        fam.validate_fit_data(s.values)
    elif cause == FAILED_FIT:
        raise fam.fit_error(s.values)
    elif cause == OUTSIDE_SUPPORT:
        bad = np.flatnonzero(fam.outside_support(params, s.values))
        if bad.size:
            raise DataError(
                f"observations outside the {fam.family_id} support "
                f"({fam.support_text}) at positions {bad.tolist()[:10]}")
        L = fam.log_density(params, s.values)
        bad = np.flatnonzero(~np.isfinite(L))
        if not bad.size:
            order = np.argsort(L, kind="stable")
            with np.errstate(over="ignore"):
                cut = np.argmax(np.isinf(np.cumsum(L[order])))
            bad = np.sort(order[:cut + 1])
        raise DataError(
            f"the {fam.family_id} null log-density at positions "
            f"{bad.tolist()[:10]} is below the float range (too far from "
            f"the null)")
    raise cause_error(cause)


def _observed_sample(fam, s: Sample, opts: TestOptions
                     ) -> tuple[np.ndarray, float, int, WindowScan]:
    """:func:`_rows` of one sample: the null parameters, the statistic, the
    selected window and the scan; raises the error of the row's cause.
    The arrays returned are copies, so that a report does not keep the
    (1, k) row matrices alive."""
    params = (None if opts.fixed_params is None
              else fam.validate_params(opts.fixed_params))
    ms = candidate_windows(s.n, _delta(fam, opts), opts.extend)
    stat, m_hat, ok, cause, P, V, computable = _rows(
        fam, s.values[None, :].copy(), params, ms, opts.relax, False)
    P = P[0] if params is None else params
    if not ok[0]:
        _raise_cause(fam, s, cause[0], P)
    return P.copy(), float(stat[0]), int(m_hat[0]), WindowScan(
        windows=ms, values=V[0].copy(), computable=computable[0].copy())


def select_window(x: "Sample | np.ndarray", family: str, params, *,
                  delta: float | None = None, extend: bool = False,
                  relax: bool = False) -> tuple[int, WindowScan, tuple[str, ...]]:
    """Data-driven window choice for the test statistic.

    Returns the selected window, the scan over the whole candidate range
    (values + computability flags), and any warnings raised along the way.
    """
    fam = dist.resolve_family(family)
    s = as_sample(x)
    _, _, m, scan = _observed_sample(fam, s, TestOptions(
        delta=delta, extend=extend, relax=relax, fixed_params=params))
    return m, scan, (_TIES_WARNING,) if s.has_ties else ()


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
    return float(_asymptotic_rows(np.array([statistic], dtype=float),
                                  np.array([m]), n)[0])


def _asymptotic_rows(stat: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """:func:`asymptotic_p_value` of every (statistic, window) pair, with
    ``bias_b`` computed once per distinct window."""
    b = {w: bias_b(w, n) for w in set(m.tolist())}
    return ndtr(-np.sqrt(6.0 * m * n)
                * (stat - np.array([b[w] for w in m.tolist()])))


# ---------------------------------------------------------------------------
# Monte-Carlo engine
# ---------------------------------------------------------------------------

def _budget(ms: np.ndarray) -> int:
    """The values one null evaluation of :func:`_rows` may see
    (``null_map``'s ``budget``, which bounds both the chunks grouped in a
    block and the tiles of a larger chunk): ``_mc.BLOCK`` per candidate
    window, up to ``_mc.MAX_BUDGET``.  Each window runs Python that holds
    the GIL whatever the rows, so larger evaluations spread it over more
    of them; at n = 200 a 256-row chunk is evaluated whole with every
    window (99), in two tiles with the default three."""
    return min(_mc.BLOCK * len(ms), _mc.MAX_BUDGET)


def simulate_null_statistics(family: str, params, n: int, B: int, *,
                             refit: bool, ms: np.ndarray, relax: bool = False,
                             seed: int, threads: int = 1
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics of B null replicates (parametric bootstrap).

    Returns ``(stats, m_hat, ok)``; entries with ``ok=False`` (no
    admissible window, a failed refit or a draw outside the null support)
    are NaN and must be ignored.  Each replicate runs through
    :func:`_rows`, the path of the observed statistic, in the seeded
    chunks of ``vsgof._mc.null_map``: output is independent of
    ``threads``.
    """
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)
    null = None if refit else p
    return null_map(fam.sample, [p], n, B, [seed],
                    lambda X: _rows(fam, X, null, ms, relax, True)[:3],
                    threads=threads, budget=_budget(ms))


def monte_carlo_p_value(observed: float, family: str, params, n: int, *,
                        B: int, refit: bool, ms: np.ndarray,
                        relax: bool = False, seed: int, threads: int = 1
                        ) -> tuple[float, int]:
    """Parametric-bootstrap p-value: share of null statistics strictly
    above the observed one, over the replicates that admit a window.

    Returns ``(p_value, ignored)`` where ``ignored`` counts the discarded
    replicates; raises EstimationError if every replicate is discarded.
    A key seen before reuses its reference (``vsgof._mc.null_reference``);
    a new one runs :func:`simulate_null_statistics`.
    """
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)

    def build():
        stats, _, ok = simulate_null_statistics(
            family, params, n, B, refit=refit, ms=ms, relax=relax,
            seed=seed, threads=threads)
        return stats[ok], int(ok.sum())

    ref, kept = null_reference(
        (fam.family_id, p.tobytes(), n, bool(refit),
         np.asarray(ms, dtype=int).tobytes(), bool(relax)),
        B, seed, threads, build)
    if not kept:
        raise cause_error(DISCARDED)
    above = ref.size - np.searchsorted(ref, np.float64(observed), "right")
    return float(above / kept), int(B - kept)


def _p_value_rows(fam, X: np.ndarray, seeds: np.ndarray, opts: TestOptions,
                  *, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The p-value of :func:`vs_test` on every row of X at once, row i with
    seed ``seeds[i]``, and the cause of each row.

    A row's p-value is NaN exactly where ``vs_test`` raises a
    ``VsgofError``: a cause of :func:`_rows`, or every null replicate
    discarded.  The null replicates of all rows run through one
    ``vsgof._mc.null_map`` on ``threads`` threads, each row's drawn as
    ``vs_test`` draws them.  X is not changed.
    """
    n = X.shape[1]
    params = (None if opts.fixed_params is None
              else fam.validate_params(opts.fixed_params))
    ms = candidate_windows(n, _delta(fam, opts), opts.extend)
    stat, m_hat, ok, cause, P, _, _ = _rows(fam, X.copy(), params, ms,
                                            opts.relax, False)
    if cause is None:
        cause = np.full(ok.size, OK)
    rows = np.flatnonzero(ok)
    p_values, stat = np.full(X.shape[0], np.nan), stat[rows]
    if _resolve_p_method(opts, n) == "asymptotic":
        p_values[rows] = _asymptotic_rows(stat, m_hat[rows], n)
        return p_values, cause
    stats, _, ok = null_map(
        fam.sample, P[rows] if params is None else [params] * rows.size,
        n, opts.B, seeds[rows],
        lambda X: _rows(fam, X, params, ms, opts.relax, True)[:3],
        threads=threads, budget=_budget(ms))
    # the share of each row's kept null statistics strictly above its
    # observed one; NaN (0 / 0) where every null replicate was discarded
    stats, ok = stats.reshape(-1, opts.B), ok.reshape(-1, opts.B)
    kept = ok.sum(1)
    with np.errstate(invalid="ignore"):
        p_values[rows] = (ok & (stats > stat[:, None])).sum(1) / kept
    cause[rows[kept == 0]] = DISCARDED
    return p_values, cause


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

    params, statistic, m_hat, scan = _observed_sample(fam, s, opts)
    warnings = [_TIES_WARNING] if s.has_ties else []

    method = _resolve_p_method(opts, s.n)
    ignored = 0
    if method == "monte_carlo":
        p, ignored = monte_carlo_p_value(
            statistic, fam.family_id, params, s.n, B=int(opts.B),
            refit=opts.fixed_params is None, ms=scan.windows, relax=opts.relax,
            seed=opts.seed, threads=threads)
        if ignored:
            warnings.append(
                f"{ignored} of {int(opts.B)} null replicates had no "
                f"admissible window, a failed refit or a draw outside the "
                f"null support and were ignored")
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
        estimate=(None if opts.fixed_params is not None else
                  dist.FitResult(fam.family_id, params, "mle")),
        window_scan=scan,
        delta=_delta(fam, opts),
        extend=bool(opts.extend),
        relax=bool(opts.relax),
        B=B_used,
        seed=opts.seed,
        ignored_replicates=ignored,
        warnings=tuple(warnings),
    )
