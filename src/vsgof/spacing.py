"""Spacing (Vasicek-type) estimation of Shannon entropy.

For an ordered sample ``x_(1) <= ... <= x_(n)`` and a window ``m`` with
``1 <= m < n/2`` the estimator averages log-spacings::

    V = (1/n) * sum_i log( (n / (2m)) * (x_(i+m) - x_(i-m)) )

with the convention that order statistics below the first (above the last)
are clamped to the first (last) value.  A zero spacing makes the estimate
undefined for that window: ties denser than the window are the one data
pathology this estimator cannot absorb.  (A ``Sample`` has a finite spread
max - min, so its spacings are finite too.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, TiesError
from .sample import Sample, as_sample

__all__ = [
    "WindowScan",
    "max_valid_window",
    "vasicek_estimate",
    "window_scan",
    "best_window",
]


def max_valid_window(n: int) -> int:
    """Largest window m satisfying 1 <= m < n/2, i.e. (n - 1) // 2.

    Returns 0 when no window is valid (n < 3).
    """
    return max((int(n) - 1) // 2, 0)


def _largest_window(n: int) -> int:
    """:func:`max_valid_window`; DataError when no window is valid."""
    if n < 3:
        raise DataError(f"no valid window exists for n={n} (need n >= 3)")
    return max_valid_window(n)


def _validate_window(m: int, n: int) -> int:
    if m != int(m):
        raise ParameterError(f"window must be an integer, got {m!r}")
    m = int(m)
    if m < 1 or 2 * m >= n:
        raise ParameterError(
            f"window m={m} outside the valid range 1 <= m < n/2 for n={n}"
        )
    return m


def batch_window_values(sorted_rows: np.ndarray, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spacing entropy estimates for many samples and windows at once.

    Parameters
    ----------
    sorted_rows : (B, n) array, each row ascending.
    windows : 1-D int array of window sizes, each with 1 <= m < n/2.

    Returns
    -------
    values : (B, len(windows)) float array; NaN where not computable.
    computable : matching bool array.  A window is not computable for a row
        when one of its spacings is zero (tied values) or NaN; an infinite
        spacing (overflow) leaves it computable, with an infinite value.

    Raises
    ------
    ParameterError
        if some window is outside 1 <= m < n/2.

    The order statistics, clamped at both ends, are laid out once per
    call, padded with ``max(windows)`` copies of the first and last value.
    Each window then costs three ufunc calls over a single (B, n) buffer
    reused across windows: a subtraction, an in-place log and a row sum
    into a (windows, B) table.  The means, the flags and the values are
    formed once, after the loop, in that table; the sum divided by n is
    the bits of the row mean (numpy's pairwise order over each row).  A
    zero spacing makes the row mean -inf and a NaN spacing makes it NaN,
    so ``mean > -inf`` is the computability flag.
    """
    S = np.asarray(sorted_rows, dtype=float)
    if S.ndim == 1:
        S = S[None, :]
    B, n = S.shape
    ms = np.asarray(windows, dtype=int)
    if ms.size and (ms.min() < 1 or 2 * ms.max() >= n):
        raise ParameterError(
            f"windows {ms.tolist()} outside the valid range 1 <= m < n/2 "
            f"for n={n}")
    top = int(ms.max()) if ms.size else 0
    # P[:, top + k] is x_(k) with k clamped to 0..n-1
    P = np.empty((B, n + 2 * top))
    P[:, :top], P[:, top:top + n], P[:, top + n:] = S[:, :1], S, S[:, -1:]
    gaps = np.empty((B, n))
    sums = np.empty((ms.shape[0], B))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, m in enumerate(ms):
            # x_(i+m) - x_(i-m), order statistics clamped at both ends
            np.subtract(P[:, top + m:top + m + n], P[:, top - m:top - m + n],
                        out=gaps)
            np.log(gaps, out=gaps)
            np.add.reduce(gaps, axis=1, out=sums[j])
        sums /= n  # the bits of gaps.mean(axis=1), window by window
        computable = (sums > -np.inf).T
        values = sums.T
        values += np.log(n / (2.0 * ms))
        values[~computable] = np.nan
    return values, computable


def vasicek_estimate(x: "Sample | np.ndarray", m: int) -> float:
    """Spacing entropy estimate for one sample and one window.

    Raises
    ------
    ParameterError
        if m is outside 1 <= m < n/2.
    TiesError
        if some m-spacing is zero (tied values denser than the window).
    """
    s = as_sample(x)
    m = _validate_window(m, s.n)
    values, computable = batch_window_values(s.sorted_values[None, :], np.array([m]))
    if not computable[0, 0]:
        raise TiesError(
            f"zero spacing at window m={m}: the sample has runs of tied values "
            f"(longest run {s.max_tie_run}); increase the window"
        )
    return float(values[0, 0])


@dataclass(frozen=True, slots=True)
class WindowScan:
    """Spacing estimates over a contiguous window range ``1..m_max``.

    ``values[j]`` is the estimate at window ``windows[j]`` (NaN when not
    computable), ``computable[j]`` flags usable entries.
    """

    windows: np.ndarray
    values: np.ndarray
    computable: np.ndarray

    @property
    def m_min(self) -> int:
        return int(self.windows[0])

    @property
    def m_max(self) -> int:
        return int(self.windows[-1])

    def value_at(self, m: int) -> float:
        j = int(m) - self.m_min
        if j < 0 or j >= self.windows.shape[0]:
            raise ParameterError(f"window m={m} not in scanned range "
                                 f"[{self.m_min}, {self.m_max}]")
        return float(self.values[j])


def window_scan(x: "Sample | np.ndarray", m_max: int | None = None) -> WindowScan:
    """Compute spacing estimates for every window 1..m_max.

    ``m_max`` defaults to the largest valid window (n - 1) // 2.  Cost is
    O(n * m_max); entries whose spacings vanish are flagged, not errors.
    """
    s = as_sample(x)
    top = _largest_window(s.n)
    m_max = top if m_max is None else _validate_window(m_max, s.n)
    ms = np.arange(1, m_max + 1)
    values, computable = batch_window_values(s.sorted_values[None, :], ms)
    return WindowScan(windows=ms, values=values[0], computable=computable[0])


def _best_columns(V: np.ndarray, admissible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window choice, row by row: the column of the largest admissible
    estimate (the first, i.e. smallest window, on ties; 0 when none) and
    whether the row has one."""
    return (np.argmax(np.where(admissible, V, -np.inf), axis=1),
            np.any(admissible, axis=1))


def best_window(x: "Sample | np.ndarray", m_max: int | None = None) -> tuple[int, WindowScan]:
    """Standalone window choice for plain entropy estimation.

    Scans 1..m_max and returns the smallest window attaining the maximal
    estimate (no null-model constraint involved), along with the scan.
    """
    scan = window_scan(x, m_max)
    (j,), (found,) = _best_columns(scan.values[None, :], scan.computable[None, :])
    if not found:
        raise TiesError(
            "no window in range produces positive spacings; too many ties "
            "to estimate entropy from spacings"
        )
    return int(scan.windows[j]), scan
