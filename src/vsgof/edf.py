"""Classical EDF goodness-of-fit tests for fully specified nulls.

Kolmogorov-Smirnov, Cramer-von Mises and Anderson-Darling statistics on
the probability integral transform u_(i) = F0(x_(i)), with Monte-Carlo
p-values under the simple null.  These are the reference tests the power
harness compares the spacing-based test against; composite (estimated
parameter) variants are deliberately not provided.

Monte-Carlo replication runs through ``vsgof._mc.null_map`` and follows
its seeded chunk contract, so p-values are bitwise identical for any
thread count; a repeated (family, params, n, test, B, seed) reuses its
null reference, bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from ._mc import check_count, null_map, null_reference
from .errors import DataError, ParameterError
from .sample import Sample, as_sample, valid_rows
from .vstest import _null_loglik, _support_loglik

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


def _pit_rows(fam, params, X: np.ndarray) -> np.ndarray:
    """Sorted PIT values, one row per sample."""
    U = np.asarray(fam.cdf(params, X), dtype=float)
    U.sort(axis=-1)
    return U


def _degenerate_pit(U: np.ndarray) -> np.ndarray:
    """Rows whose every PIT value is 0 or 1: the null puts no mass where
    the data lie."""
    return np.all((U <= 0.0) | (U >= 1.0), axis=-1)


def _ks_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    i = np.arange(1, n + 1, dtype=float)
    d_plus = (i / n - U).max(axis=-1)
    d_minus = (U - (i - 1.0) / n).max(axis=-1)
    return np.maximum(d_plus, d_minus)


def _cvm_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    i = np.arange(1, n + 1, dtype=float)
    return 1.0 / (12.0 * n) + ((U - (2.0 * i - 1.0) / (2.0 * n)) ** 2).sum(axis=-1)


def _ad_rows(U: np.ndarray) -> np.ndarray:
    n = U.shape[-1]
    Uc = np.clip(U, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    w = 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    inner = np.log(Uc) + np.log1p(-Uc[..., ::-1])
    return -n - (w * inner).sum(axis=-1) / n


_KERNELS = {"ks": _ks_rows, "cvm": _cvm_rows, "ad": _ad_rows}


def _resolve_test(test_id: str):
    key = sys.intern(str(test_id).strip().lower())
    if key not in _KERNELS:
        raise ParameterError(
            f"unknown EDF test {test_id!r}; choose one of: ks, cvm, ad")
    return key, _KERNELS[key]


def _observed(x, family, params, kernel):
    s = as_sample(x)
    fam = dist.resolve_family(family)
    p = fam.validate_params(params)
    u = _pit_rows(fam, p, s.values[None, :])
    if _degenerate_pit(u)[0]:
        raise DataError(
            "the probability integral transform is degenerate (every value "
            "maps to 0 or 1); the fixed null puts no mass where the data lie"
        )
    _support_loglik(fam, p, s)  # DataError outside support
    return float(kernel(u)[0]), s, fam, p


def ks_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Kolmogorov-Smirnov distance max_i max(i/n - u_(i), u_(i) - (i-1)/n)."""
    return _observed(x, family, params, _ks_rows)[0]


def cvm_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Cramer-von Mises statistic 1/(12n) + sum_i (u_(i) - (2i-1)/(2n))^2."""
    return _observed(x, family, params, _cvm_rows)[0]


def ad_statistic(x: "Sample | np.ndarray", family: str, params) -> float:
    """Anderson-Darling statistic
    -n - (1/n) sum_i (2i-1) [log u_(i) + log(1 - u_(n+1-i))]."""
    return _observed(x, family, params, _ad_rows)[0]


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
    observed, s, fam, p = _observed(x, family, params, kernel)
    ref, _ = null_reference(
        (fam.family_id, p.tobytes(), s.n, key), B, seed, threads,
        lambda: (null_map(fam, [p], s.n, B, [seed],
                          lambda X: (kernel(_pit_rows(fam, p, X)),),
                          threads=threads)[0], B))
    # the share of the B null statistics at or above the observed one
    p_value = float((ref.size - np.searchsorted(ref, observed, "left")) / B)
    return EdfTestReport(family_id=fam.family_id, n=s.n, test_id=key,
                         statistic=observed, p_value=p_value, B=B,
                         seed=int(seed))


def _p_value_rows(fam, params: np.ndarray, test_id: str, X: np.ndarray,
                  seeds: np.ndarray, B: int) -> np.ndarray:
    """The p-value of :func:`edf_test` on every row of X at once, row i with
    seed ``seeds[i]``; NaN exactly where ``edf_test`` raises a
    ``VsgofError`` (invalid data, a degenerate PIT, data outside the null
    support).  The null replicates of all rows run through one
    ``vsgof._mc.null_map``, each row's drawn as ``edf_test`` draws them."""
    _, kernel = _resolve_test(test_id)
    p_values = np.full(X.shape[0], np.nan)
    n = X.shape[1]
    rows = np.flatnonzero(valid_rows(X))
    U = _pit_rows(fam, params, X[rows])
    _, inside = _null_loglik(fam, params, X[rows])
    keep = ~_degenerate_pit(U) & inside.all(axis=1)
    rows, observed = rows[keep], kernel(U[keep])
    null, = null_map(fam, [params] * rows.size, n, B, seeds[rows],
                     lambda X: (kernel(_pit_rows(fam, params, X)),))
    # the share of each row's null statistics at or above its observed one
    p_values[rows] = (null.reshape(-1, B) >= observed[:, None]).sum(1) / B
    return p_values
