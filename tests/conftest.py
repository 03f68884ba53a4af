"""Shared pure-Python oracles and fixtures for the test suite.

The oracles are deliberately written without numpy vectorization so they
stay an independent cross-check of the library's array code.
"""

import math
from collections import OrderedDict

import pytest

import vsgof._mc


@pytest.fixture(autouse=True)
def fresh_null_references(monkeypatch):
    """Every test starts with an empty null-reference cache, so that no
    result depends on the tests run before it."""
    monkeypatch.setattr(vsgof._mc, "_references", OrderedDict())
    monkeypatch.setattr(vsgof._mc, "_stored", 0)


@pytest.fixture
def uncached(monkeypatch):
    """Keep no null reference: every Monte-Carlo call simulates, for tests
    that compare runs (thread counts, block sizes) which would otherwise
    share one."""
    monkeypatch.setattr(vsgof._mc, "REFERENCE_VALUES", 0)


def spacing_oracle(values, m):
    """Plain-Python spacing entropy estimate; None if a spacing is zero."""
    s = sorted(values)
    n = len(s)
    total = 0.0
    for i in range(n):
        gap = s[min(i + m, n - 1)] - s[max(i - m, 0)]
        if gap <= 0.0:
            return None
        total += math.log(gap)
    return math.log(n / (2.0 * m)) + total / n


def window_bound_oracle(n, delta, extend):
    """Upper end of the candidate window range, recomputed independently."""
    top = (n - 1) // 2
    if extend:
        return top
    return min(max(int(math.floor(n ** (1.0 / 3.0 - delta) + 1e-9)), 1), top)


def select_window_oracle(values, mean_loglik, delta, extend, relax):
    """Brute-force window selection.

    Returns ("ties", None), ("constraint", None) or ("ok", m) where m is the
    smallest window maximizing the spacing estimate over the admissible set.
    """
    n = len(values)
    upper = window_bound_oracle(n, delta, extend)
    best_m, best_v, any_computable = None, None, False
    for m in range(1, upper + 1):
        v = spacing_oracle(values, m)
        if v is None:
            continue
        any_computable = True
        if not relax and v > -mean_loglik:
            continue
        if best_v is None or v > best_v:
            best_m, best_v = m, v
    if best_m is None:
        return ("ties", None) if not any_computable else ("constraint", None)
    return ("ok", best_m)
