"""Classical EDF goodness-of-fit tests for fully specified nulls.

Kolmogorov-Smirnov, Cramer-von Mises and Anderson-Darling statistics on
the probability integral transform u_(i) = F0(x_(i)), with Monte-Carlo
p-values under the simple null.  These are the reference tests the power
harness compares the spacing-based test against; composite (estimated
parameter) variants are deliberately not provided.

The observed statistic has one path, ``_observed_rows``, with a cause
code per row: a single test is row 0 of it, a power cell runs a chunk of
its replicates as the rows.  Monte-Carlo replication runs through
``vsgof._mc.null_map`` and follows its seeded chunk contract, so p-values
are bitwise identical for any thread count.  Its callers grant every
evaluation 2 · ``_mc.BLOCK`` values: a sorted-PIT evaluation makes the
same dozen numpy calls whatever its rows, so a power chunk's replicates
are grouped, while a single test's 200 × 200 chunk is still tiled (whole,
it read slower).  The null needs only the PIT
of each draw (the family's ``sample_pit``), sorted in place: for the five
inverse-CDF families (uniform, exponential, weibull, pareto, laplace) the
uniforms themselves, with no quantile and no CDF evaluated; for the five
with their own sampler, the CDF of the draw.  A single test reuses the
null reference of a repeated (family, params, n, test, B, seed); a power
cell, whose seeds never repeat, stacks those of a chunk of its
replicates in one call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import _mc, distributions as dist
from ._mc import check_count, null_map, null_reference
from .errors import (DEGENERATE_PIT, INVALID_DATA, OK, OUTSIDE_SUPPORT,
                     ParameterError)
from .sample import Sample, as_sample, valid_rows
from .vstest import _raise_cause

__all__ = [
    "EdfTestReport",
    "ks_statistic",
    "cvm_statistic",
    "ad_statistic",
    "edf_mc_p_value",
    "edf_test",
]

_LOG_CLAMP = 1e-15  # keep AD logarithms finite at the PIT boundaries


# kept small (slots, test_id shared with the kernel table): callers may
# hold many reports
@dataclass(frozen=True, slots=True)
class EdfTestReport:
    family_id: str
    n: int
    test_id: str  # "ks" | "cvm" | "ad"
    statistic: float
    p_value: float
    B: int
    seed: int


def _sorted(U: np.ndarray) -> np.ndarray:
    """U with each row sorted in place (a copy would cost page faults)."""
    U.sort(axis=-1)
    return U


def _pit_rows(fam, params, X: np.ndarray) -> np.ndarray:
    """Sorted PIT values, one row per sample."""
    return _sorted(np.asarray(fam.cdf(params, X), dtype=float))


def _degenerate_pit(U: np.ndarray) -> np.ndarray:
    """Rows whose every PIT value is 0 or 1: the null puts no mass where
    the data lie."""
    return np.all((U <= 0.0) | (U >= 1.0), axis=-1)


def _ks_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    i = np.arange(1, n + 1, dtype=float)
    # D+ = i/n - u_(i) and D- = u_(i) - (i-1)/n side by side, one row max
    D = np.empty(U.shape[:-1] + (2 * n,))
    np.subtract(i / n, U, out=D[..., :n])
    np.subtract(U, (i - 1.0) / n, out=D[..., n:])
    return D.max(axis=-1)


def _cvm_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    i = np.arange(1, n + 1, dtype=float)
    D = U - (2.0 * i - 1.0) / (2.0 * n)
    return 1.0 / (12.0 * n) + np.square(D, out=D).sum(axis=-1)


def _ad_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    L = np.clip(U, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    # log1p(-u_(n+1-i)), then log u_(i) + it, weighted by 2i - 1
    R = np.negative(L[..., ::-1])
    np.log1p(R, out=R)
    R += np.log(L, out=L)
    R *= 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    return -n - R.sum(axis=-1) / n


_KERNELS = {"ks": _ks_rows, "cvm": _cvm_rows, "ad": _ad_rows}


def _resolve_test(test_id: str):
    key = sys.intern(str(test_id).strip().lower())
    if key not in _KERNELS:
        raise ParameterError(
            f"unknown EDF test {test_id!r}; choose one of: ks, cvm, ad")
    return key, _KERNELS[key]


def _observed_rows(fam, params: np.ndarray, X: np.ndarray, kernel,
                   checked: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The cause and the statistic of :func:`edf_test` on every row of X,
    the statistic NaN unless the cause is OK.  The causes come in the
    single test's order: invalid data, a degenerate PIT, data outside the
    null support; each is assigned after those it yields to, so that it
    overrides them.  ``checked`` says that X is one ``Sample``'s values,
    which are valid."""
    U = _pit_rows(fam, params, X)
    cause = np.full(X.shape[0], OK)
    cause[~np.isfinite(fam.log_density(params, X)).all(axis=1)] = OUTSIDE_SUPPORT
    cause[_degenerate_pit(U)] = DEGENERATE_PIT
    if not checked:
        cause[~valid_rows(X)] = INVALID_DATA
    return cause, np.where(cause == OK, kernel(U), np.nan)


def _statistic(x, family, params, kernel):
    """The statistic of one sample, row 0 of :func:`_observed_rows`; raises
    the error of its cause."""
    s = as_sample(x)
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)
    cause, stat = _observed_rows(fam, p, s.values[None, :], kernel, True)
    if cause[0]:
        _raise_cause(fam, s, cause[0], p)
    return float(stat[0]), s, fam, p


def ks_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Kolmogorov-Smirnov distance max_i max(i/n - u_(i), u_(i) - (i-1)/n)."""
    return _statistic(x, family, params, _ks_rows)[0]


def cvm_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Cramer-von Mises statistic 1/(12n) + sum_i (u_(i) - (2i-1)/(2n))^2."""
    return _statistic(x, family, params, _cvm_rows)[0]


def ad_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Anderson-Darling statistic
    -n - (1/n) sum_i (2i-1) [log u_(i) + log(1 - u_(n+1-i))]."""
    return _statistic(x, family, params, _ad_rows)[0]


def edf_mc_p_value(x: "Sample | np.ndarray", family: str, params,
                   test_id: str, *, B: int = 5000, seed: int | None = None,
                   threads: int = 1) -> float:
    """Monte-Carlo p-value under the simple null: the share of B null
    replicates whose statistic reaches the observed one (ties count as
    extreme).  p is 0 when the observed statistic exceeds all B replicates.
    Observations outside the null support raise DataError."""
    return edf_test(x, family, params, test_id, B=B, seed=seed,
                    threads=threads).p_value


def edf_test(x: "Sample | np.ndarray", family: str, params, test_id: str, *,
             B: int = 5000, seed: int | None = None,
             threads: int = 1) -> EdfTestReport:
    """Run one EDF test of a fully specified null against the sample."""
    key, kernel = _resolve_test(test_id)
    B = check_count(B, "B")
    observed, s, fam, p = _statistic(x, family, params, kernel)
    ref, _ = null_reference(
        (fam.family_id, p.tobytes(), s.n, key), B, seed, threads,
        lambda: (null_map(fam.sample_pit, [p], s.n, B, [seed],
                          lambda U: (kernel(_sorted(U)),), threads=threads,
                          budget=2 * _mc.BLOCK)[0], B))
    # the share of the B null statistics at or above the observed one
    p_value = float((ref.size - np.searchsorted(ref, observed, "left")) / B)
    return EdfTestReport(family_id=fam.family_id, n=s.n, test_id=key,
                         statistic=observed, p_value=p_value, B=B,
                         seed=int(seed))


def _p_value_rows(fam, params: np.ndarray, test_id: str, X: np.ndarray,
                  seeds: np.ndarray, B: int, *, threads: int = 1
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The p-value of :func:`edf_test` on every row of X at once, row i with
    seed ``seeds[i]``, and the cause of each row; the p-value is NaN
    exactly where ``edf_test`` raises a ``VsgofError``.  The null
    replicates of all rows run through one ``vsgof._mc.null_map`` on
    ``threads`` threads, each row's drawn as ``edf_test`` draws them."""
    _, kernel = _resolve_test(test_id)
    cause, observed = _observed_rows(fam, params, X, kernel)
    rows = np.flatnonzero(cause == OK)
    null, = null_map(fam.sample_pit, [params] * rows.size, X.shape[1], B,
                     seeds[rows], lambda U: (kernel(_sorted(U)),),
                     threads=threads, budget=2 * _mc.BLOCK)
    # the share of each row's null statistics at or above its observed one
    p_values = np.full(X.shape[0], np.nan)
    p_values[rows] = (null.reshape(-1, B)
                      >= observed[rows, None]).sum(1) / B
    return p_values, cause
