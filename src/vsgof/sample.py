"""Validated sample container shared by the estimators and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DataError

__all__ = ["Sample", "as_sample"]


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
    values) are computed once and reused by every estimator.
    """

    values: np.ndarray
    sorted_values: np.ndarray = field(init=False, repr=False)
    max_tie_run: int = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DataError(f"sample needs at least 2 observations, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            bad = np.flatnonzero(~np.isfinite(arr))
            raise DataError(
                f"sample contains non-finite values at positions {bad.tolist()[:10]}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        srt = np.sort(arr)
        lo, hi = float(srt[0]), float(srt[-1])
        if not math.isfinite(hi - lo):  # Python floats overflow to inf silently
            raise DataError(
                f"sample spread max - min overflows: the values range from "
                f"{lo!r} to {hi!r}; rescale the data"
            )
        srt.flags.writeable = False
        object.__setattr__(self, "sorted_values", srt)
        object.__setattr__(self, "max_tie_run", _max_tie_run(srt))

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
