"""The row path and the single tests agree cause by cause.

One crafted matrix holds a row for every cause a row of the row-wise test
path can end in.  Each test path runs on the whole matrix at once
(``vstest._p_value_rows``, ``edf._p_value_rows``), and each row runs
alone through ``vs_test`` or ``edf_test``: a row's p-value must equal the
single test's bit for bit, and where the single test raises, the row's
p-value is NaN and its cause maps to the class of the raised error.
"""

import dataclasses

import numpy as np
import pytest

import vsgof._mc
from vsgof import distributions as dist
from vsgof import edf
from vsgof.edf import edf_test
from vsgof.errors import (CAUSES, CONSTRAINT, DEGENERATE_PIT, DISCARDED,
                          FAILED_FIT, INVALID_DATA, OK, OUTSIDE_FIT,
                          OUTSIDE_SUPPORT, TIES, VsgofError)
from vsgof.vstest import TestOptions, _p_value_rows, vs_test

# n = 8: the default candidate windows are {1}
ROWS = {
    "non-finite": [np.nan, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
    "negative": [-0.5, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
    "no spread": [0.4] * 8,
    # gamma(1, 2) log-densities -1e308 and -8e307: finite, but their sum
    # is below the float range (the sum of the values is not)
    "below float range": [4e307, 5e307, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    "dense ties": [0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4],
    # the fitted gamma null bound is below the estimate at m = 1
    "constraint": [5.0165229837091605, 32.80889497871286,
                   0.8684830146187563, 4.0186908880398695,
                   7.967910879438131, 4.357697747118997,
                   4.915586421314221, 3.045585739188941e-06],
    "far upper tail": [1000.0, 1001.0, 1002.0, 1003.0, 1004.0, 1005.0,
                       1006.0, 1007.0],
    # a degenerate PIT, and a value outside the support
    "negative, far tail": [-1.0, 1001.0, 1002.0, 1003.0, 1004.0, 1005.0,
                           1006.0, 1007.0],
    # U-shaped: the fitted beta has both shapes < 1, and with seed 2 both
    # null replicates of a B = 2 run are discarded
    "u-shaped": [0.02, 0.97, 0.05, 0.91, 0.12, 0.99, 0.5, 0.03],
    "plain": [0.62, 1.37, 0.18, 0.94, 2.41, 0.33, 0.71, 1.05],
    # one value just below 0 among positive ones, whose mean is positive
    "one below zero": [0.62, 1.37, -1e-3, 0.94, 2.41, 0.33, 0.71, 1.05],
}
X = np.array(list(ROWS.values()))
SEEDS = np.array([11, 12, 13, 14, 15, 16, 17, 18, 2, 19, 20])
SIMPLE = (1.0, 2.0)  # the gamma (shape, rate) of the simple vs and KS paths

# (label, family, options or EDF test id, expected causes by row label)
PATHS = [
    ("gamma composite", "gamma", TestOptions(simulate_p_value=True, B=2), {
        "non-finite": INVALID_DATA, "negative": OUTSIDE_FIT,
        "no spread": FAILED_FIT, "dense ties": TIES,
        "negative, far tail": OUTSIDE_FIT,
        "constraint": CONSTRAINT, "plain": OK,
        "one below zero": OUTSIDE_FIT}),
    # a closed-form fit that takes the rate of a positive mean: values
    # outside (0, inf) must still end the row as the single test ends
    ("exponential composite", "exponential",
     TestOptions(simulate_p_value=True, B=2), {
         "non-finite": INVALID_DATA, "negative": OUTSIDE_FIT,
         "negative, far tail": OUTSIDE_FIT, "one below zero": OUTSIDE_FIT,
         "plain": OK}),
    ("gamma composite asymptotic", "gamma",
     TestOptions(simulate_p_value=False), {"plain": OK}),
    ("gamma simple", "gamma",
     TestOptions(simulate_p_value=True, B=2, fixed_params=SIMPLE), {
         "negative": OUTSIDE_SUPPORT, "no spread": TIES,
         "below float range": OUTSIDE_SUPPORT, "far upper tail": OK}),
    ("beta composite", "beta", TestOptions(simulate_p_value=True, B=2), {
        "negative": OUTSIDE_FIT, "u-shaped": DISCARDED}),
    ("gamma ks", "gamma", "ks", {
        "non-finite": INVALID_DATA, "negative": OUTSIDE_SUPPORT,
        "far upper tail": DEGENERATE_PIT,
        "negative, far tail": DEGENERATE_PIT, "plain": OK}),
]


def _rows(family, how, threads=1):
    fam = dist.resolve_family(family)
    if isinstance(how, TestOptions):
        return _p_value_rows(fam, X, SEEDS, how, threads=threads)
    return edf._p_value_rows(fam, fam.validate_params(SIMPLE), how, X,
                             SEEDS, 2, threads=threads)


def _single(family, how, x, seed):
    if isinstance(how, TestOptions):
        return vs_test(x, family, dataclasses.replace(how, seed=seed)).p_value
    return edf_test(x, family, SIMPLE, how, B=2, seed=seed).p_value


# every path serially, and on the pool with blocks and tiles of one row
# (n = 8): each row's null chunk of B = 2 is then its own pool item,
# evaluated a row at a time
@pytest.mark.parametrize("label, family, how, expected, threads", [
    pytest.param(*path, threads,
                 id=path[0] if threads == 1 else f"{path[0]}, 2 threads")
    for threads in (1, 2) for path in PATHS])
def test_each_row_equals_its_single_test(label, family, how, expected,
                                         threads, monkeypatch):
    if threads > 1:
        monkeypatch.setattr(vsgof._mc, "BLOCK", X.shape[1])
    p, cause = _rows(family, how, threads)
    for i, row in enumerate(ROWS):
        if row in expected:
            assert cause[i] == expected[row], row
        try:
            want = _single(family, how, X[i], int(SEEDS[i]))
        except VsgofError as exc:
            assert cause[i] != OK, row
            assert type(exc) is CAUSES[cause[i]][0], row
            assert np.isnan(p[i]), row
        else:
            assert cause[i] == OK, row
            assert p[i] == want, row


def test_the_matrix_reaches_every_cause():
    seen = {int(c) for _, family, how, _ in PATHS
            for c in _rows(family, how)[1]}
    assert seen == {OK, *CAUSES}
