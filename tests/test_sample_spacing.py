"""Tests for the sample container and the spacing entropy estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vsgof.errors import DataError, ParameterError, TiesError
from vsgof.sample import Sample, as_sample
from vsgof.spacing import (
    batch_window_values,
    best_window,
    max_valid_window,
    vasicek_estimate,
    window_scan,
)
from vsgof.vstest import vs_test


def spacing_reference(values, m):
    """Independent pure-Python reimplementation used as an oracle.

    Returns None when some window spacing is zero.
    """
    s = sorted(values)
    n = len(s)
    total = 0.0
    for i in range(n):
        gap = s[min(i + m, n - 1)] - s[max(i - m, 0)]
        if gap <= 0.0:
            return None
        total += math.log(gap)
    return math.log(n / (2.0 * m)) + total / n


# ---------------------------------------------------------------------------
# Sample


def test_sample_basic_properties():
    s = Sample(np.array([3.0, 1.0, 2.0]))
    assert s.n == 3
    assert not s.has_ties
    assert s.max_tie_run == 1
    assert np.array_equal(s.sorted_values, [1.0, 2.0, 3.0])
    assert not s.values.flags.writeable
    assert not s.sorted_values.flags.writeable


def test_sample_tie_run_length():
    s = Sample(np.array([2.0, 2.0, 1.0, 2.0, 3.0, 3.0]))
    assert s.has_ties
    assert s.max_tie_run == 3


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),
        np.array([1.0]),
        np.array([]),
        np.array([1.0, np.nan, 3.0]),
        np.array([1.0, np.inf]),
    ],
)
def test_sample_rejects_bad_input(bad):
    with pytest.raises(DataError):
        Sample(bad)


def test_sample_rejects_overflowing_spread():
    # every value is finite, but max - min exceeds the largest float
    x = np.array([-1e308, -5e307, 0.0, 5e307, 1e308, 2e307, -2e307])
    with pytest.raises(DataError, match="spread"):
        Sample(x)
    with pytest.raises(DataError, match="spread"):
        window_scan(x)
    with pytest.raises(DataError, match="spread"):
        vs_test(x, "normal")
    # the widest finite spread is accepted
    assert Sample(np.array([-8e307, 0.0, 8e307])).n == 3


def test_sample_reports_nonfinite_positions():
    with pytest.raises(DataError, match=r"positions \[1, 3\]"):
        Sample(np.array([0.0, np.nan, 2.0, -np.inf]))


def test_as_sample_accepts_iterables_and_passthrough():
    s = as_sample([1, 2, 3])
    assert isinstance(s, Sample)
    assert as_sample(s) is s
    assert as_sample((x for x in (0.5, 1.5))).n == 2


# ---------------------------------------------------------------------------
# single-window estimates


def test_vasicek_four_point_exact():
    # Clamped spacings for (1,2,3,4) at m=1 are (1,2,2,1):
    # log(4/2) + mean(log gaps) = 1.5 * log 2.
    got = vasicek_estimate(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert got == pytest.approx(1.5 * math.log(2.0), abs=1e-12)
    assert got == pytest.approx(1.0397207708399179, abs=1e-12)


def test_vasicek_matches_reference_oracle():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        m = int(rng.integers(1, max_valid_window(n) + 1))
        assert vasicek_estimate(x, m) == pytest.approx(
            spacing_reference(x, m), abs=1e-12
        )


def test_vasicek_affine_equivariance():
    # Shifting leaves the estimate alone; scaling by a adds log(a).
    rng = np.random.default_rng(11)
    x = rng.exponential(size=40)
    base = vasicek_estimate(x, 3)
    assert vasicek_estimate(x + 17.5, 3) == pytest.approx(base, abs=1e-10)
    assert vasicek_estimate(x * 7.0 - 2.0, 3) == pytest.approx(
        base + math.log(7.0), abs=1e-10
    )


def test_vasicek_order_invariance():
    x = np.array([0.4, 2.2, 1.1, 0.9, 3.3])
    assert vasicek_estimate(x, 2) == vasicek_estimate(np.sort(x)[::-1].copy(), 2)


@pytest.mark.parametrize("n,m", [(4, 0), (4, 2), (4, -1), (10, 5), (3, 2)])
def test_vasicek_window_range_enforced(n, m):
    x = np.linspace(0.0, 1.0, n)
    with pytest.raises(ParameterError):
        vasicek_estimate(x, m)


def test_vasicek_ties_error_mentions_run():
    # A tie at the boundary zeroes the clamped m=1 spacing.
    x = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(TiesError, match="longest run 2"):
        vasicek_estimate(x, 1)
    # the same sample is fine once the window straddles the tie
    assert vasicek_estimate(x, 2) == pytest.approx(spacing_reference(x, 2), abs=1e-12)


def test_vasicek_interior_pair_survives_smallest_window():
    # An interior tied pair does NOT kill m=1: each m=1 spacing spans two
    # order-statistic steps, so only runs of three (or boundary pairs) vanish.
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert vasicek_estimate(x, 1) == pytest.approx(spacing_reference(x, 1), abs=1e-12)


@pytest.mark.parametrize("n", [(3), (4), (5), (10), (11), (2), (1), (0)])
def test_max_valid_window(n):
    assert max_valid_window(n) == max((n - 1) // 2, 0)


def test_consistency_on_large_samples():
    # The estimate approaches the true differential entropy as n grows.
    rng = np.random.default_rng(12)
    n, m = 10_000, 15
    u = rng.uniform(size=n)
    assert abs(vasicek_estimate(u, m) - 0.0) < 0.05
    z = rng.normal(scale=2.0, size=n)
    true_normal = 0.5 * math.log(2.0 * math.pi * math.e * 4.0)
    assert abs(vasicek_estimate(z, m) - true_normal) < 0.05


# ---------------------------------------------------------------------------
# scans over window ranges


def test_window_scan_agrees_with_single_calls():
    rng = np.random.default_rng(13)
    x = rng.gamma(2.0, size=25)
    scan = window_scan(x)
    assert scan.m_min == 1 and scan.m_max == max_valid_window(25)
    for j, m in enumerate(scan.windows):
        single = vasicek_estimate(x, int(m))
        assert scan.values[j] == pytest.approx(single, abs=0.0)
        assert scan.value_at(int(m)) == scan.values[j]
        assert scan.computable[j]


def test_window_scan_computability_is_monotone():
    # A zero spacing at window m forces zero at every smaller window, so the
    # computable flags are sorted: a block of False then a block of True.
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(6, 40))
        x = np.round(rng.normal(size=n), 1)  # rounding manufactures ties
        flags = window_scan(x).computable
        assert np.all(np.sort(flags.astype(int)) == flags.astype(int))


def test_window_scan_flags_nan_for_tied_windows():
    scan = window_scan(np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    assert not scan.computable[0]  # run of three ties kills m=1 and m=2
    assert not scan.computable[1]
    assert scan.computable[2]
    assert np.isnan(scan.values[0]) and np.isnan(scan.values[1])
    assert np.isfinite(scan.values[2])


def test_window_scan_respects_m_max():
    x = np.linspace(0.0, 1.0, 21)
    scan = window_scan(x, m_max=4)
    assert list(scan.windows) == [1, 2, 3, 4]
    with pytest.raises(ParameterError):
        window_scan(x, m_max=11)  # 2*11 >= 21
    with pytest.raises(ParameterError):
        scan.value_at(9)


def test_window_scan_needs_three_points():
    with pytest.raises(DataError):
        window_scan(np.array([1.0, 2.0]))


def test_best_window_picks_smallest_maximizer():
    rng = np.random.default_rng(15)
    for _ in range(40):
        x = rng.normal(size=int(rng.integers(5, 50)))
        m_hat, scan = best_window(x)
        vals = np.where(scan.computable, scan.values, -np.inf)
        top = vals.max()
        smallest = int(scan.windows[np.flatnonzero(vals == top)[0]])
        assert m_hat == smallest


def test_best_window_all_tied_raises():
    with pytest.raises(TiesError):
        best_window(np.array([5.0] * 6))


def test_batch_window_values_multirow():
    rng = np.random.default_rng(16)
    rows = np.sort(rng.normal(size=(8, 30)), axis=1)
    rows[3, 10:14] = rows[3, 10]  # plant a tie run in one row
    ms = np.array([1, 2, 3, 4])
    values, computable = batch_window_values(rows, ms)
    assert values.shape == (8, 4) and computable.shape == (8, 4)
    assert not computable[3, 0] and np.isnan(values[3, 0])
    for i in range(8):
        for j, m in enumerate(ms):
            ref = spacing_reference(rows[i], int(m))
            if ref is None:
                assert not computable[i, j]
            else:
                assert computable[i, j]
                assert values[i, j] == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# batch_window_values against the gather-based formulation, bit for bit


def gather_window_values(sorted_rows, windows):
    """The clamped-index formulation of ``batch_window_values``: gather
    x_(i+m) and x_(i-m) per window, flag rows with a spacing that is not
    > 0, and average the logs of the flagged-ok rows only.
    """
    S = np.asarray(sorted_rows, dtype=float)
    B, n = S.shape
    ms = np.asarray(windows, dtype=int)
    values = np.full((B, ms.shape[0]), np.nan)
    computable = np.zeros((B, ms.shape[0]), dtype=bool)
    idx = np.arange(n)
    for j, m in enumerate(ms):
        gaps = S[:, np.minimum(idx + m, n - 1)] - S[:, np.maximum(idx - m, 0)]
        ok = np.all(gaps > 0.0, axis=1)
        computable[:, j] = ok
        if np.any(ok):
            with np.errstate(divide="ignore"):
                logs = np.log(gaps[ok])
            values[ok, j] = np.log(n / (2.0 * m)) + logs.mean(axis=1)
    return values, computable


def assert_matches_gather(rows, ms):
    with np.errstate(over="ignore"):
        values, computable = batch_window_values(rows, ms)
        ref_values, ref_computable = gather_window_values(rows, ms)
    assert np.array_equal(computable, ref_computable)
    assert np.array_equal(values, ref_values, equal_nan=True)


_ROW_KINDS = ("plain", "tie_start", "tie_middle", "tie_end", "all_equal",
              "nan", "overflow", "overflow_and_tie")


def _planted_row(kind, n, rng):
    row = np.sort(rng.normal(size=n) * rng.uniform(0.01, 100.0))
    run = min(n, int(rng.integers(2, 5)))
    if kind == "tie_start":
        row[:run] = row[0]
    elif kind == "tie_middle":
        at = (n - run) // 2
        row[at:at + run] = row[at]
    elif kind == "tie_end":
        row[n - run:] = row[-1]
    elif kind == "all_equal":
        row[:] = 1.25
    elif kind == "nan":
        row[n // 2] = np.nan
    elif kind.startswith("overflow"):
        # spacings of the wider windows exceed the largest float
        row = np.linspace(-1.0, 1.0, n) * 1e308
        if kind == "overflow_and_tie":
            row[:2] = row[0]
    return row


@pytest.mark.parametrize("n", [3, 4, 5, 20, 201])
@pytest.mark.parametrize("B", [1, 7, 256])
def test_batch_window_values_equals_gather_bit_for_bit(B, n):
    rng = np.random.default_rng(1000 * B + n)
    ms = np.arange(1, max_valid_window(n) + 1)
    for offset in range(len(_ROW_KINDS)):
        kinds = [_ROW_KINDS[(i + offset) % len(_ROW_KINDS)] for i in range(B)]
        rows = np.array([_planted_row(k, n, rng) for k in kinds])
        assert_matches_gather(rows, ms)


def test_batch_window_values_edge_rows_flagged():
    n = 21
    ms = np.arange(1, max_valid_window(n) + 1)
    rng = np.random.default_rng(17)
    rows = np.array([_planted_row(k, n, rng) for k in
                     ("all_equal", "nan", "overflow", "overflow_and_tie")])
    with np.errstate(over="ignore"):
        values, computable = batch_window_values(rows, ms)
    assert not computable[0].any() and np.isnan(values[0]).all()
    assert not computable[1].any() and np.isnan(values[1]).all()
    # an infinite spacing leaves the window computable, with an infinite value
    assert computable[2].all() and np.isposinf(values[2, -1])
    assert np.isfinite(values[2, 0])
    # a zero spacing next to an infinite one is still not computable
    assert not computable[3, 0] and np.isnan(values[3, 0])


@settings(max_examples=60, deadline=None)
@given(
    B=st.integers(1, 12),
    n=st.integers(3, 60),
    seed=st.integers(0, 2 ** 32 - 1),
    ties=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(2, 6)),
                  max_size=4),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
)
def test_batch_window_values_property_equals_gather(B, n, seed, ties, scale):
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.standard_normal((B, n)), axis=1) * scale
    for where, run in ties:  # plant a tie run in every row
        at = int(where * (n - 1))
        rows[:, at:at + run] = rows[:, at:at + 1]
    rows = np.sort(rows, axis=1)
    assert_matches_gather(rows, np.arange(1, max_valid_window(n) + 1))


# ---------------------------------------------------------------------------
# batch_window_values against one row and one window at a time, bit for bit


def per_row_window_values(sorted_rows, windows):
    """One row and one window at a time: the mean of the logs of the
    clamped spacings plus log(n / 2m), computable where that mean is above
    -inf.  Its 1-D mean sums in numpy's pairwise order, as the row sums of
    ``batch_window_values`` must."""
    S = np.asarray(sorted_rows, dtype=float)
    B, n = S.shape
    values = np.full((B, len(windows)), np.nan)
    computable = np.zeros((B, len(windows)), dtype=bool)
    idx = np.arange(n)
    for i in range(B):
        for j, m in enumerate(windows):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                gaps = (S[i, np.minimum(idx + m, n - 1)]
                        - S[i, np.maximum(idx - m, 0)])
                mean = np.log(gaps).mean()
            if mean > -np.inf:
                computable[i, j] = True
                values[i, j] = np.log(n / (2.0 * m)) + mean
    return values, computable


def _kernel_row(kind, n, rng):
    """A sorted row of magnitude up to 1e±300, with ties, NaN or ±inf."""
    row = np.sort(rng.standard_normal(n)) * 10.0 ** rng.uniform(-300, 300)
    at = int(rng.integers(0, n))
    if kind == "ties":
        row[at:at + int(rng.integers(2, 5))] = row[at]
    elif kind == "nan":
        row[at] = np.nan
    elif kind == "-inf":
        row[0] = -np.inf
    elif kind == "+inf":
        row[-1] = np.inf
    elif kind == "both inf":
        row[0], row[-1] = -np.inf, np.inf
    elif kind == "huge":  # spacings beyond the float range
        row = np.linspace(-1.0, 1.0, n) * 1e308
    return row


@pytest.mark.parametrize("n", [3, 4, 9, 20, 201])
@pytest.mark.parametrize("B", [1, 13, 256])
def test_batch_window_values_equals_one_row_at_a_time(B, n):
    rng = np.random.default_rng(7 * B + n)
    kinds = ("plain", "ties", "nan", "-inf", "+inf", "both inf", "huge")
    rows = np.array([_kernel_row(kinds[i % len(kinds)], n, rng)
                     for i in range(B)])
    top = max_valid_window(n)
    for ms in (np.arange(1, top + 1), np.array([top]), np.array([top, 1])):
        values, computable = batch_window_values(rows, ms)
        ref_values, ref_computable = per_row_window_values(rows, ms)
        assert computable.tobytes() == ref_computable.tobytes()
        assert np.array_equal(values, ref_values, equal_nan=True)
        assert values.tobytes() == ref_values.tobytes()


@pytest.mark.parametrize("n, ms", [(10, [0]), (10, [1, 0]), (10, [5]),
                                   (10, [2, 7]), (3, [2]), (4, [-1])])
def test_batch_window_values_rejects_invalid_windows(n, ms):
    rows = np.sort(np.random.default_rng(18).normal(size=(2, n)), axis=1)
    with pytest.raises(ParameterError, match="1 <= m < n/2"):
        batch_window_values(rows, np.array(ms))
