"""Validated sample container shared by the estimators and tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = ["Sample", "as_sample"]


def valid_rows(X: np.ndarray) -> np.ndarray:
    """Which samples along the last axis a ``Sample`` accepts: every value
    finite, and a finite spread max - min (so that every spacing is).  A
    NaN or infinite value makes the spread NaN or infinite too."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(X.max(axis=-1) - X.min(axis=-1))


def _max_tie_run(sorted_values: np.ndarray) -> int:
    """Length of the longest run of equal values in an ascending array."""
    n = sorted_values.shape[0]
    if n == 0:
        return 0
    # boundaries of runs of equal neighbours
    change = np.flatnonzero(np.diff(sorted_values) != 0)
    edges = np.concatenate(([-1], change, [n - 1]))
    return int(np.max(np.diff(edges)))


@dataclass(frozen=True)
class Sample:
    """One-dimensional data sample with cached order statistics.

    Construction validates the data: at least two observations, all finite,
    with a finite spread max - min (so that every spacing is finite).
    ``sorted_values`` ascending and ``max_tie_run`` (longest run of tied
    values) are computed on first use, which an EDF test never makes, and
    reused by every estimator; like ``values`` they are read-only.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DataError(f"sample needs at least 2 observations, got {arr.shape[0]}")
        if not valid_rows(arr):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise DataError(f"sample contains non-finite values at "
                                f"positions {bad.tolist()[:10]}")
            raise DataError(
                f"sample spread max - min overflows: the values range from "
                f"{float(arr.min())!r} to {float(arr.max())!r}; rescale the data"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    # cached in the instance __dict__; the frozen dataclass refuses to set
    # or delete them
    @cached_property
    def sorted_values(self) -> np.ndarray:
        srt = np.sort(self.values)
        srt.flags.writeable = False
        return srt

    @cached_property
    def max_tie_run(self) -> int:
        return _max_tie_run(self.sorted_values)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def has_ties(self) -> bool:
        return self.max_tie_run > 1


def as_sample(x: "Sample | Iterable[float] | np.ndarray") -> Sample:
    """Coerce arrays/iterables to :class:`Sample`; pass Samples through."""
    if isinstance(x, Sample):
        return x
    return Sample(np.asarray(list(x) if not isinstance(x, np.ndarray) else x, dtype=float))
