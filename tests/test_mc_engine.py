"""The seeded Monte-Carlo engine and the window-selection rule.

The pinned values below were recorded before the chunk/thread-pool loops
of ``vstest``, ``edf`` and ``power`` were merged into ``vsgof._mc`` and
the window rule into ``vstest._select_rows``.  They are compared with
``==``: the engine's contract is that outputs stay bit for bit the same.
"""

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import select_window_oracle
import vsgof._mc
import vsgof.edf
import vsgof.vstest
from vsgof import (ParameterError, PowerScenario, TestOptions,
                   candidate_windows, edf_mc_p_value, edf_test,
                   monte_carlo_p_value, run_power_study, vs_test)
from vsgof.cli import main
from vsgof.distributions import resolve_family
from vsgof.spacing import batch_window_values
from vsgof.vstest import (_p_value_rows, _select_rows,
                          simulate_null_statistics)


def _data(kind, seed):
    rng = np.random.default_rng(seed)
    draw = {
        "exp": lambda: rng.exponential(1.3, size=30),
        "gamma": lambda: rng.gamma(2.5, 1.0, size=25),
        "normal": lambda: rng.normal(1.0, 2.0, size=30),
        "laplace": lambda: rng.laplace(0.0, 1.0, size=8),
        "pareto": lambda: 1.0 + rng.pareto(1.0, size=6),
        "fisher": lambda: rng.f(5.0, 10.0, size=40),
    }
    return draw[kind]()


# ---------------------------------------------------------------------------
# pinned outputs


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "kind, data_seed, family, options, p_value, ignored",
    [
        ("exp", 401, "exponential",
         dict(fixed_params=(1.0,), B=600, seed=11), 0.47, 0),
        ("gamma", 402, "gamma", dict(B=600, seed=12), 0.8, 0),
        ("normal", 403, "normal", dict(extend=True, B=300, seed=13), 0.85, 0),
        ("laplace", 404, "laplace", dict(relax=True, B=300, seed=14),
         0.31666666666666665, 0),
        # replicates discarded for want of an admissible window
        ("pareto", 405, "pareto", dict(B=600, seed=15), 0.8060200668896321, 2),
        # replicates discarded for failed refits
        ("fisher", 406, "fisher", dict(B=300, seed=16), 0.3310344827586207, 10),
    ],
)
def test_vs_test_monte_carlo_p_value_pinned(kind, data_seed, family, options,
                                            p_value, ignored, threads):
    report = vs_test(_data(kind, data_seed), family, threads=threads, **options)
    assert report.p_value_method == "monte_carlo"
    assert report.p_value == p_value
    assert report.ignored_replicates == ignored
    if ignored:  # the warning names the three causes of a discard
        assert (f"{ignored} of {options['B']} null replicates had no "
                "admissible window, a failed refit or a draw outside the "
                "null support and were ignored" in report.warnings)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "family, params, n, B, seed, refit, relax, counts, kept, total",
    [
        ("normal", (0.0, 1.0), 40, 700, 17, True, False,
         [0, 0, 26, 185, 206, 128, 79, 32, 16, 14, 4, 7, 2, 0, 1], 700,
         109.78038164582358),
        ("pareto", (1.0, 1.0), 8, 700, 18, True, False,
         [0, 176, 258, 266], 699, 133.90420153960468),
        ("pareto", (1.0, 1.0), 8, 700, 18, True, True,
         [0, 55, 108, 537], 700, 20.75829598213412),
        ("exponential", (2.0,), 30, 300, 19, False, False,
         [0, 0, 12, 56, 56, 18, 15, 12, 10, 10, 10, 10, 7, 12, 72], 300,
         47.68189951399409),
        # failed refits under relax: their windows still count in m_hat
        ("fisher", (5.0, 10.0), 40, 300, 20, True, True,
         [0, 0, 3, 30, 56, 41, 19, 17, 7, 7, 7, 9, 3, 2, 1, 1, 0, 2, 11, 84],
         281, 27.277465550261223),
        ("uniform", (0.0, 2.0), 30, 300, 21, True, False,
         [0, 0, 47, 103, 72, 45, 18, 8, 3, 1, 2, 1], 300, 34.53515955176827),
        ("uniform", (0.0, 2.0), 30, 300, 22, False, True,
         [0, 0, 49, 107, 77, 29, 13, 9, 7, 5, 3, 0, 1], 300,
         55.59084688082486),
        ("lognormal", (0.5, 0.8), 30, 300, 23, True, False,
         [0, 0, 21, 51, 54, 33, 17, 7, 19, 16, 5, 8, 3, 6, 60], 300,
         41.77664637047181),
        ("lognormal", (0.5, 0.8), 30, 300, 24, False, False,
         [0, 0, 10, 63, 49, 30, 18, 16, 13, 11, 7, 6, 9, 7, 61], 300,
         51.24231974378288),
        ("gamma", (2.5, 1.0), 30, 300, 25, True, False,
         [0, 0, 29, 99, 80, 40, 21, 12, 5, 6, 2, 0, 1, 0, 5], 300,
         54.07238866754896),
        ("gamma", (2.5, 1.0), 30, 300, 26, False, False,
         [0, 0, 37, 101, 66, 46, 15, 6, 6, 8, 3, 1, 1, 1, 9], 300,
         64.08468681712054),
        ("weibull", (1.5, 2.0), 30, 300, 27, True, False,
         [0, 0, 34, 100, 108, 22, 9, 16, 3, 5, 0, 1, 0, 0, 2], 300,
         53.39064536839217),
        ("weibull", (1.5, 2.0), 30, 300, 28, False, False,
         [0, 0, 38, 100, 69, 41, 23, 10, 8, 4, 2, 2, 1, 2], 300,
         63.09366054354368),
        ("laplace", (0.0, 1.0), 30, 300, 29, True, False,
         [0, 0, 10, 55, 60, 34, 30, 26, 23, 25, 22, 7, 6, 1, 1], 300,
         44.07216293577104),
        ("laplace", (0.0, 1.0), 30, 300, 30, False, True,
         [0, 0, 21, 39, 62, 31, 24, 29, 26, 25, 12, 15, 10, 5, 1], 300,
         52.89134951402164),
        # U-shaped: refits that fail, and draws rounded to 0 or 1 (outside
        # the null support), discarded
        ("beta", (0.2, 0.2), 30, 300, 31, True, False,
         [0, 290, 8, 2], 149, 20.500209271753516),
        ("beta", (0.2, 0.2), 30, 300, 32, False, True,
         [0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 8, 15, 45, 66, 162], 299,
         -573.068815723588),
    ],
)
def test_simulated_windows_pinned(family, params, n, B, seed, refit, relax,
                                  counts, kept, total, threads):
    stats, m_hat, ok = simulate_null_statistics(
        family, params, n, B, refit=refit, relax=relax,
        ms=candidate_windows(n, 1.0 / 12.0, True), seed=seed, threads=threads)
    assert np.bincount(m_hat).tolist() == counts
    assert int(ok.sum()) == kept
    assert math.fsum(stats[ok]) == total


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("test_id, p_value",
                         [("ks", 0.02), ("ad", 0.08285714285714285)])
def test_edf_mc_p_value_pinned(test_id, p_value, threads):
    x = np.random.default_rng(407).normal(0.2, 1.1, size=35)
    assert edf_mc_p_value(x, "normal", (0.0, 1.0), test_id, B=700, seed=19,
                          threads=threads) == p_value


@pytest.mark.parametrize("threads", [1, 2])
def test_power_study_pinned(threads):
    # 120 replicates = two chunks of 50 and a partial one of 20 per cell
    scn = PowerScenario(
        name="pin", null_family="dexp", null_params=(1.0,),
        alt_family="dweibull", alt_params=(1.5, 1.0), tests=("vs", "ad"),
        n_values=(15,), replicates=120, B=100, seed=20)
    rows = run_power_study(scn, threads=threads).rows
    assert [(r.n, r.test, r.rejections, r.errors) for r in rows] == [
        (15, "vs", 13, 0), (15, "ad", 7, 0)]


# ---------------------------------------------------------------------------
# block grouping is not part of the contract


def _grouped_outputs():
    """The outputs of every caller of ``vsgof._mc.null_map``; with B = 600
    a single test draws chunks of 256, 256 and 88 rows, and with B = 300
    each power replicate spans two chunks."""
    out = []
    for n in (20, 60):
        x = np.random.default_rng(412).gamma(2.0, 1.5, size=n)
        for params in ((2.0, 1.5), None):  # simple, composite
            for threads in (1, 2):
                r = vs_test(x, "gamma", fixed_params=params, B=600, seed=21,
                            simulate_p_value=True, threads=threads)
                out.append((r.p_value, r.ignored_replicates))
    x = np.random.default_rng(413).normal(0.2, 1.1, size=20)
    for test_id in ("ks", "ad"):
        out.append(edf_test(x, "normal", (0.0, 1.0), test_id, B=600,
                            seed=22).p_value)
    for n in (20, 60):
        null = simulate_null_statistics(
            "gamma", (2.0, 1.5), n, 600, refit=True, seed=23,
            ms=candidate_windows(n, 1.0 / 12.0, True))
        out.append([a.tobytes() for a in null])
    scn = PowerScenario(
        name="grouping", null_family="dexp", null_params=(1.0,),
        alt_family="dweibull", alt_params=(1.2, 1.0), tests=("vs", "ks"),
        n_values=(20,), replicates=60, B=300, seed=24)
    out.append([(r.rejections, r.errors) for r in run_power_study(scn).rows])
    return out


@pytest.mark.parametrize("block", [1, 3000, 2 ** 40])
def test_block_grouping_changes_no_bit(uncached, monkeypatch, block):
    # 1: one row per tile; 3000: the 256-row chunks of n = 20 and 60 in
    # tiles (of 43 and 41 rows at n = 60); 2**40: every chunk of a call in
    # one block.  The EDF callers' budget is 2 * BLOCK, and the vs
    # callers' is capped by MAX_BUDGET, so both bounds move together.
    default = _grouped_outputs()
    monkeypatch.setattr(vsgof._mc, "BLOCK", block)
    monkeypatch.setattr(vsgof._mc, "MAX_BUDGET", block)
    assert _grouped_outputs() == default


# parameters of every family, for the draws of the tiling tests
TILE_PARAMS = {"uniform": (-1.0, 3.0), "normal": (0.5, 1.7),
               "lognormal": (0.2, 0.8), "exponential": (0.7,),
               "gamma": (2.5, 1.5), "weibull": (1.3, 2.0),
               "pareto": (2.0, 1.5), "fisher": (4.0, 6.0),
               "laplace": (-0.3, 1.2), "beta": (2.0, 3.0)}


@pytest.mark.parametrize("how", ["sample", "sample_pit"])
@pytest.mark.parametrize("fid", sorted(TILE_PARAMS))
def test_tiles_from_one_generator_equal_the_chunk_draw(fid, how):
    # null_map draws a chunk above BLOCK in tiles of rows, in order, from
    # the chunk's one generator: their rows are the chunk's, bit for bit
    fam = resolve_family(fid)
    draw = getattr(fam, how)
    p = fam.validate_params(TILE_PARAMS[fid])
    child = np.random.SeedSequence(25).spawn(3)[2]
    chunk = draw(p, (50, 13), np.random.default_rng(child))
    rng = np.random.default_rng(child)
    tiles = np.concatenate([draw(p, (rows, 13), rng) for rows in (7, 1, 30, 12)])
    assert tiles.tobytes() == chunk.tobytes()


@pytest.mark.parametrize("block", [1, 3000, 2 ** 14])
def test_no_evaluation_sees_more_than_a_block(monkeypatch, block):
    # every call of evaluate sees at most BLOCK values, or one row where a
    # row is more, and the rows come back as the seeded chunks drew them
    monkeypatch.setattr(vsgof._mc, "BLOCK", block)
    fam = resolve_family("normal")
    p = fam.validate_params((0.5, 1.7))
    # 163 x 200 values: ceil(163 / 2) = 82 rows of 200 would be too many
    for n, B, reps in [(20, 600, 3), (60, 600, 2), (200, 600, 1),
                       (200, 300, 2), (200, 163, 1), (5000, 10, 1)]:
        seen = []

        def evaluate(X):
            seen.append(X.size)
            return X.sum(axis=1), X[:, 0]

        sums, first = vsgof._mc.null_map(fam.sample, [p] * reps, n, B,
                                         list(range(reps)), evaluate)
        want = np.concatenate([
            fam.sample(p, (size, n), np.random.default_rng(child))
            for seed in range(reps)
            for size, child in vsgof._mc.seed_chunks(seed, B)])
        assert max(seen) <= max(block, n) and sum(seen) == reps * B * n
        assert sums.tobytes() == want.sum(axis=1).tobytes()
        assert first.tobytes() == want[:, 0].tobytes()


def _vs_budget_outputs():
    """vs null outputs at n = 200, whose 256-row chunks (51,200 values)
    exceed BLOCK: every window (simple normal) and the default windows
    with a refit (composite gamma), one test and two rows of a power
    cell."""
    out, rng = [], np.random.default_rng(414)
    for family, params, extend, draw in [
            ("normal", (0.0, 1.0), True, rng.standard_normal),
            ("gamma", None, False, lambda size: rng.gamma(2.5, 1.0, size))]:
        x, X = draw(200), draw((2, 200))
        ms = candidate_windows(200, 1.0 / 12.0, extend)
        null = simulate_null_statistics(
            family, (2.5, 1.0) if params is None else params, 200, 600,
            refit=params is None, ms=ms, seed=26)
        out.append([a.tobytes() for a in null])
        r = vs_test(x, family, fixed_params=params, extend=extend, B=600,
                    seed=27, simulate_p_value=True, threads=2)
        out.append((r.p_value, r.ignored_replicates))
        p, cause = _p_value_rows(
            resolve_family(family), X, np.array([28, 29]),
            TestOptions(fixed_params=params, extend=extend, B=300,
                        simulate_p_value=True))
        out.append((p.tobytes(), cause.tobytes()))
    return out


def test_vs_budget_changes_no_bit(uncached, monkeypatch):
    # four tiles of 64 rows per chunk, two of 128, and whole chunks
    default = _vs_budget_outputs()
    for budget in (vsgof._mc.BLOCK, 2 * vsgof._mc.BLOCK, 256 * 200):
        monkeypatch.setattr(vsgof.vstest, "_budget", lambda ms: budget)
        assert _vs_budget_outputs() == default


def _recording(monkeypatch):
    """The budgets the vs paths pass to ``null_map``, and the (budget,
    size) of every null evaluation, as they are recorded."""
    budgets, seen = [], []
    null_map = vsgof.vstest.null_map

    def recording_null_map(*args, budget, **kwargs):
        budgets.append(budget)
        *args, evaluate = args

        def recording_evaluate(X):
            seen.append((budgets[-1], X.size))
            return evaluate(X)

        return null_map(*args, recording_evaluate, budget=budget, **kwargs)

    monkeypatch.setattr(vsgof.vstest, "null_map", recording_null_map)
    return budgets, seen


def test_no_vs_evaluation_sees_more_than_its_budget(uncached, monkeypatch):
    # the budget reaches null_map from both vs null paths, and tiles it
    budgets, seen = _recording(monkeypatch)
    _vs_budget_outputs()
    assert len(budgets) == 6
    assert all(size <= budget for budget, size in seen)
    # every window: a 256-row chunk is one evaluation, and the budget
    # groups a power row's with its next 44-row chunk (60,000 values)
    sizes = [size for _, size in seen]
    assert 256 * 200 in sizes and max(sizes) == (256 + 44) * 200
    # the default three windows (a simple gamma null): 2 x 128 rows
    seen.clear()
    r = vs_test(np.random.default_rng(416).gamma(2.5, 1.0, size=200),
                "gamma", fixed_params=(2.5, 1.0), B=256, seed=30,
                simulate_p_value=True)
    assert budgets[-1] == len(r.window_scan.windows) * vsgof._mc.BLOCK
    assert [size for _, size in seen] == [128 * 200] * 2


def test_vs_budget_is_capped_at_a_large_n(uncached, monkeypatch):
    # n = 1000 with extend: 499 windows, yet a 256-row chunk (256,000
    # values) runs as four tiles of 64 rows, and the partial chunk whole
    n, budgets, seen = 1000, *_recording(monkeypatch)
    ms = candidate_windows(n, 1.0 / 12.0, True)
    assert len(ms) == 499 and vsgof._mc.MAX_BUDGET < 256 * n

    def null():
        return [a.tobytes() for a in simulate_null_statistics(
            "normal", (0.0, 1.0), n, 300, refit=False, ms=ms, seed=32)]

    tiled = null()
    assert budgets == [vsgof._mc.MAX_BUDGET]
    assert [size for _, size in seen] == [64 * n] * 4 + [44 * n]
    monkeypatch.setattr(vsgof._mc, "MAX_BUDGET", 256 * n)  # whole chunks
    assert null() == tiled
    assert [size for _, size in seen[5:]] == [256 * n, 44 * n]


@pytest.mark.parametrize("threads", [1, 2])
def test_an_edf_power_chunk_is_grouped_by_its_budget(monkeypatch, threads):
    # a power chunk of 50 replicates at n = 20 and B = 200: 8 replicates
    # (32,000 values) to a block of at most 2 * BLOCK, so ceil(50 / 8) = 7
    # evaluations
    seen, null_map = [], vsgof.edf.null_map

    def recording_null_map(draw, params_rows, n, B, seeds, evaluate, **kw):
        def recording(U):
            seen.append(U.size)
            return evaluate(U)
        return null_map(draw, params_rows, n, B, seeds, recording, **kw)

    monkeypatch.setattr(vsgof.edf, "null_map", recording_null_map)
    fam = resolve_family("pareto")
    X = 1.0 + np.random.default_rng(417).lognormal(0.0, 1.0, size=(50, 20))
    seeds = np.arange(500, 550, dtype=np.int64)
    p, cause = vsgof.edf._p_value_rows(fam, fam.validate_params((1.0, 1.0)),
                                       "ad", X, seeds, 200, threads=threads)
    assert sorted(seen) == [2 * 200 * 20] + [8 * 200 * 20] * 6
    assert max(seen) <= 2 * vsgof._mc.BLOCK and not cause.any()
    assert p.tolist() == [
        edf_test(x, "pareto", (1.0, 1.0), "ad", B=200, seed=int(s)).p_value
        for x, s in zip(X, seeds)]


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 - 1])
def test_seed_chunks_are_the_spawned_children(seed, k):
    # the children of an int seed are built directly, with the state
    # SeedSequence(seed).spawn would give them
    chunks = vsgof._mc.seed_chunks(seed, (k - 1) * 256 + 7)
    assert [size for size, _ in chunks] == [256] * (k - 1) + [7]
    for (_, child), spawned in zip(chunks, np.random.SeedSequence(seed).spawn(k),
                                   strict=True):
        assert (child.generate_state(8).tobytes()
                == spawned.generate_state(8).tobytes())


@pytest.mark.parametrize("seeds", [
    [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1],
    [int(s) for s in np.random.default_rng(25).integers(2 ** 63, size=1000)],
], ids=["edges", "random"])
def test_child_words_are_the_seed_sequence_children(seeds):
    # a job of several seeds hashes its chunks' children at once: the
    # state words of SeedSequence(seed, spawn_key=(k,)), and a generator
    # seeded from them draws as one seeded from that child
    words = vsgof._mc._child_words(seeds, 40)
    assert words.shape == (len(seeds), 40, 4)
    for seed, rows in zip(seeds, words):
        for k, w in enumerate(rows):
            child = np.random.SeedSequence(seed, spawn_key=(k,))
            assert (w.tobytes()
                    == child.generate_state(4, np.uint64).tobytes())
            drawn = np.random.default_rng(vsgof._mc._Words(w))
            assert (drawn.bit_generator.random_raw(8).tobytes()
                    == np.random.default_rng(child)
                    .bit_generator.random_raw(8).tobytes())


def test_only_jobs_of_several_seeds_below_2_64_hash_at_once(monkeypatch):
    # a one-seed job keeps seed_chunks, and so does a job with a seed of
    # 2**64 or more, whose entropy has more words; the rows are the same
    # either way
    calls = []
    child_words = vsgof._mc._child_words
    monkeypatch.setattr(vsgof._mc, "_child_words",
                        lambda *args: calls.append(args) or child_words(*args))
    fam = resolve_family("normal")
    p = fam.validate_params((0.5, 1.7))

    def rows(seeds):  # B = 300: two chunks per seed
        return vsgof._mc.null_map(fam.sample, [p] * len(seeds), 7, 300,
                                  seeds, lambda X: (X.sum(axis=1),))[0]

    seeds = [3, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64 + 5]
    alone = {seed: rows([seed]) for seed in seeds}
    assert not calls
    assert (rows(np.array(seeds[:2])).tobytes()
            == np.concatenate([alone[s] for s in seeds[:2]]).tobytes())
    assert (rows(seeds[:3]).tobytes()
            == np.concatenate([alone[s] for s in seeds[:3]]).tobytes())
    assert len(calls) == 2
    assert (rows(seeds).tobytes()
            == np.concatenate([alone[s] for s in seeds]).tobytes())
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# curtailed null simulations


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget", [13 * 30, 13 * 120, 13 * 500])
def test_a_settled_replicate_draws_no_later_row(fresh_pools, budget,
                                                threads):
    # seven replicates of B = 500 (chunks of 256 and 244 rows), which the
    # settle of the test settles once they have 1, 60, 256, 257, 400 and
    # 500 rows, and never; gamma draws take a varying number of generator
    # values, so a tile drawn out of order would move every later bit.
    # Replicate r draws gamma(2 + r, 1), so that each draw names its own.
    fam = resolve_family("gamma")
    n, B, stop = 13, 500, [1, 60, 256, 257, 400, 500, 501]
    params = [fam.validate_params((2.0 + r, 1.0)) for r in range(7)]
    seeds = list(range(40, 47))
    draws, seen, rows, settled = [], [], [[] for _ in params], {}

    def draw(p, size, rng):
        draws.append((int(p[0]) - 2, size[0]))
        return fam.sample(p, size, rng)

    def evaluate(X):
        seen.append(X.size)
        return (X,)

    def settle(owner, X):
        for r in np.unique(owner):
            assert r not in settled  # nor is it evaluated
            rows[r].append(X[owner == r])
        done = np.array([sum(map(len, got)) >= s
                         for got, s in zip(rows, stop)])
        settled.update((r, len(draws)) for r in np.flatnonzero(done)
                       if r not in settled)
        return done

    assert vsgof._mc.null_map(draw, params, n, B, seeds, evaluate,
                              threads=threads, budget=budget,
                              settle=settle) is None
    full, = vsgof._mc.null_map(fam.sample, params, n, B, seeds,
                               lambda X: (X,))
    full = full.reshape(7, B, n)
    assert max(seen) <= budget
    for r, got in enumerate(rows):
        got = np.concatenate(got)
        drawn = [size for who, size in draws if who == r]
        # each replicate's rows are the first of its full null, bit for
        # bit, drawn in tiles that never cross the chunk boundary
        assert got.tobytes() == full[r, :len(got)].tobytes()
        assert sum(drawn) == len(got) >= min(stop[r], B)
        assert len(got) <= 256 or 256 in np.cumsum(drawn)
        if r in settled:
            assert all(who != r for who, _ in draws[settled[r]:])
    assert sorted(settled) == list(range(6))
    assert [len(np.concatenate(got)) for got in rows][-2:] == [B, B]


# ---------------------------------------------------------------------------
# the kept thread pools


@pytest.fixture
def fresh_pools(monkeypatch):
    """No pool kept from earlier tests; the pools built here are shut
    down after the test."""
    pools = {}
    monkeypatch.setattr(vsgof._mc, "_pools", pools)
    yield pools
    for pool in pools.values():
        pool.shutdown()


def _normal_null(threads, evaluate=lambda X: (X.sum(axis=1),), B=3000):
    # n = 20: 12 chunks, grouped three to a block, so four pool tasks
    fam = resolve_family("normal")
    return vsgof._mc.null_map(fam.sample, [fam.validate_params((0.0, 1.0))],
                              20, B, [31], evaluate, threads=threads)[0]


def test_calls_reuse_one_pool(fresh_pools, monkeypatch):
    built = []

    class Counting(vsgof._mc.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(vsgof._mc, "ThreadPoolExecutor", Counting)
    one = _normal_null(1)
    assert _normal_null(2).tobytes() == one.tobytes()
    assert _normal_null(2).tobytes() == one.tobytes()
    # threads=2: the caller and one pool worker
    assert len(built) == 1 and fresh_pools == {1: built[0]}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_no_more_than_threads_evaluations_at_once(fresh_pools, threads):
    lock, running, most, where = threading.Lock(), [0], [0], set()

    def evaluate(X):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            where.add(threading.get_ident())
        time.sleep(0.01)
        with lock:
            running[0] -= 1
        return (X.sum(axis=1),)

    assert (_normal_null(threads, evaluate, B=6000).tobytes()
            == _normal_null(1, B=6000).tobytes())
    assert 1 <= most[0] <= threads
    if threads == 1:  # serially, in the calling thread
        assert where == {threading.get_ident()}


def test_a_pool_worker_runs_nested_calls_serially(fresh_pools):
    # every worker of the pool would wait on a pool whose workers all wait
    want, got = _normal_null(1), []

    def evaluate(X):
        got.append(_normal_null(2))
        return (X.sum(axis=1),)

    caller = threading.Thread(target=_normal_null, args=(2, evaluate),
                              daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(got) == 4 and all(g.tobytes() == want.tobytes() for g in got)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool(fresh_pools):
    # the parent's pool threads do not exist in a forked child; a child
    # that submitted to its inherited pool would wait forever
    want = _normal_null(2)
    assert 1 in fresh_pools
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            code = 0 if _normal_null(2).tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_threads_raise_the_error_a_serial_run_raises(threads):
    # item 4 fails at once while item 3 is still running; both fail, and
    # the first in order is raised, as a serial run raises it
    ran = []

    def fn(i):
        ran.append(i)
        if i == 3:
            time.sleep(0.05)
        if i in (3, 4):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 3"):
        vsgof._mc._run_all(fn, list(range(12)), threads)
    assert set(range(4)) <= set(ran) and len(ran) < 12


def _lone_chunk(fid, threads, budget, evaluate=lambda X: (X,), draw=None):
    # B = 200 at n = 13: one seeded chunk, cut by the budget into tiles
    fam = resolve_family(fid)
    return vsgof._mc.null_map(
        draw or fam.sample, [fam.validate_params(TILE_PARAMS[fid])], 13, 200,
        [26], evaluate, threads=threads, budget=budget, share_tiles=True)[0]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("tiles", [2, 3, 4, 5])
@pytest.mark.parametrize("fid", ["gamma", "beta", "fisher", "normal"])
def test_a_lone_chunk_shares_its_tiles_bit_for_bit(fresh_pools, fid, tiles,
                                                   threads):
    # a lone chunk's tiles are drawn in turn, by whichever thread evaluates
    # them, from the chunk's one generator; these samplers take a varying
    # number of generator values per draw, so a tile drawn out of turn
    # would move every later bit
    budget = -(-200 // tiles) * 13  # the fewest tiles of this many rows

    def evaluate(X):
        time.sleep(0.002)  # let the threads interleave
        return (X,)

    fam = resolve_family(fid)
    (_, child), = vsgof._mc.seed_chunks(26, 200)
    whole = fam.sample(fam.validate_params(TILE_PARAMS[fid]), (200, 13),
                       np.random.default_rng(child))
    serial = _lone_chunk(fid, 1, budget)
    assert serial.tobytes() == whole.tobytes()
    assert _lone_chunk(fid, threads, budget, evaluate).tobytes() \
        == whole.tobytes()


def test_one_row_tiles_are_drawn_in_turn_under_stress(fresh_pools):
    # 200 one-row tiles on three threads, which switch every microsecond:
    # a tile taken by one thread and drawn after a later tile drawn by
    # another would move the bits
    fam = resolve_family("gamma")
    (_, child), = vsgof._mc.seed_chunks(26, 200)
    whole = fam.sample(fam.validate_params(TILE_PARAMS["gamma"]), (200, 13),
                       np.random.default_rng(child))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_lone_chunk("gamma", 3, 13).tobytes() for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [whole.tobytes()] * 10


def test_only_a_lone_tiled_chunk_shares_its_tiles(fresh_pools, uncached,
                                                  monkeypatch):
    # at threads = 1, for a chunk of one tile, for a job of several blocks
    # and where the caller does not ask, null_map runs its blocks as
    # before: no turns are taken.  The EDF callers ask where the PIT is a
    # CDF; the vs callers never do
    turns = []
    in_turn = vsgof._mc._in_turn
    monkeypatch.setattr(vsgof._mc, "_in_turn",
                        lambda *args: turns.append(1) or in_turn(*args))
    fam = resolve_family("normal")
    p = fam.validate_params((0.5, 1.7))

    def shared(threads, B, seeds, budget, share_tiles=True):
        before = len(turns)
        vsgof._mc.null_map(fam.sample, [p] * len(seeds), 13, B, seeds,
                           lambda X: (X,), threads=threads, budget=budget,
                           share_tiles=share_tiles)
        return len(turns) - before

    def taken(run):
        before = len(turns)
        run()
        return len(turns) - before

    assert shared(2, 200, [1], 13 * 50) == 1  # four tiles
    assert shared(2, 200, [1], 13 * 50, share_tiles=False) == 0
    assert shared(1, 200, [1], 13 * 50) == 0
    assert shared(2, 200, [1], 13 * 200) == 0  # one tile
    assert shared(2, 300, [1], 13 * 50) == 0  # two chunks
    assert shared(2, 200, [1, 2], 13 * 50) == 0  # two replicates
    # n = 200, B = 200: one EDF chunk in two tiles; B = 225 and the
    # default windows: one vs chunk in two tiles
    rng = np.random.default_rng(5)
    x = rng.gamma(2.5, 1.5, 200)
    assert taken(lambda: edf_test(x, "gamma", (2.5, 1.5), "ks", B=200,
                                  seed=11, threads=2)) == 1
    assert taken(lambda: edf_test(x, "exponential", (1.0,), "ks", B=200,
                                  seed=11, threads=2)) == 0
    assert taken(lambda: vs_test(rng.beta(2.0, 3.0, 200), "beta", B=225,
                                 seed=11, simulate_p_value=True,
                                 threads=2)) == 0


@pytest.mark.parametrize("threads", [2, 3])
def test_a_failed_tile_draw_raises_and_frees_the_waiting_threads(
        fresh_pools, monkeypatch, threads):
    # the draw of the second tile fails: the turn passes on all the same,
    # so no thread waits for it, and its error is raised
    fam = resolve_family("gamma")
    draws, outcome = [], []

    class Patient(threading.Condition):
        # were the turn never passed on, a waiting pool thread is let go
        # after the test has failed, so that the pool can shut down
        def wait_for(self, predicate, timeout=None):
            return super().wait_for(predicate, timeout or 40.0)

    monkeypatch.setattr(vsgof._mc.threading, "Condition", Patient)

    def draw(params, size, rng):
        draws.append(size)
        if len(draws) == 2:
            time.sleep(0.05)  # while another thread takes the third tile
            raise ValueError("tile 2")
        return fam.sample(params, size, rng)

    def evaluate(X):
        time.sleep(0.01)
        return (X,)

    def run():
        try:
            _lone_chunk("gamma", threads, 13 * 40, evaluate, draw)
        except ValueError as error:
            outcome.append(error)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=20)
    assert not caller.is_alive(), "the tiles' threads hang"
    assert [str(e) for e in outcome] == ["tile 2"]


# ---------------------------------------------------------------------------
# the window-selection rule


def _selection_matrix():
    """Samples of n=13 with their mean null log-likelihoods: plain rows,
    rows with ties, rows that fail the constraint or bind it part-way."""
    rng = np.random.default_rng(408)
    rows = [rng.normal(size=13) for _ in range(4)]
    rows.append(np.repeat(np.arange(5.0), 3)[:13])  # triples: m=1 fails
    rows.append(np.repeat(np.arange(7.0), 2)[:13])  # pairs
    rows.append(np.array([0.0] * 7 + [1.0] * 6))  # no window computable
    rows += [rng.exponential(size=13) for _ in range(3)]
    loglik = [float(np.mean(-0.5 * r ** 2 - 0.5 * math.log(2 * math.pi)))
              for r in rows[:4]]
    loglik += [-1.0, -1.0, -1.0]
    ms = np.arange(1, 7)
    V, _ = batch_window_values(np.sort(rows[7:], axis=1), ms)
    loglik.append(-float(np.nanmin(V[0])) + 1.0)  # bound below every estimate
    mid = np.sort(V[1])
    loglik.append(-0.5 * float(mid[2] + mid[3]))  # bound between estimates
    loglik.append(-float(np.nanmax(V[2])) - 1.0)  # bound above every estimate
    return np.sort(rows, axis=1), np.array(loglik)


@pytest.mark.parametrize("relax", [False, True])
def test_select_rows_matches_brute_force_oracle(relax):
    S, loglik = _selection_matrix()
    ms = candidate_windows(13, 1.0 / 12.0, True)
    V, computable = batch_window_values(S, ms)
    col, ok = _select_rows(V, computable, loglik, relax)
    statuses = []
    for i in range(S.shape[0]):
        status, m = select_window_oracle(list(S[i]), loglik[i], 1.0 / 12.0,
                                         True, relax)
        statuses.append(status)
        assert ok[i] == (status == "ok")
        if status == "ok":
            assert ms[col[i]] == m
    assert "ties" in statuses
    assert ("constraint" in statuses) != relax

    # a failed refit (NaN log-likelihood) never yields a usable row
    with_nan = loglik.copy()
    with_nan[0] = np.nan
    col_nan, ok_nan = _select_rows(V, computable, with_nan, relax)
    assert not ok_nan[0]
    np.testing.assert_array_equal(ok_nan[1:], ok[1:])
    np.testing.assert_array_equal(col_nan[1:], col[1:])

    # the bound is inclusive: an estimate equal to it stays admissible
    j = int(np.nanargmax(V[0]))
    col_eq, ok_eq = _select_rows(V[:1], computable[:1], -V[0, j:j + 1], relax)
    assert ok_eq[0] and col_eq[0] == j


# ---------------------------------------------------------------------------
# thread-count invariance and seed checks


# ``uncached`` is one constant setting for every example
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    null=st.sampled_from([("normal", (0.0, 1.0)), ("exponential", (2.0,)),
                          ("gamma", (2.0, 1.0)), ("pareto", (1.0, 1.0))]),
    n=st.integers(5, 25),
    B=st.integers(1, 700),
    seed=st.integers(0, 2 ** 63),
    threads=st.integers(2, 4),
    refit=st.booleans(),
    relax=st.booleans(),
)
def test_results_invariant_to_thread_count(uncached, null, n, B, seed,
                                           threads, refit, relax):
    family, params = null
    ms = candidate_windows(n, 1.0 / 12.0, True)
    one = simulate_null_statistics(family, params, n, B, refit=refit,
                                   relax=relax, ms=ms, seed=seed, threads=1)
    many = simulate_null_statistics(family, params, n, B, refit=refit,
                                    relax=relax, ms=ms, seed=seed,
                                    threads=threads)
    for a, b in zip(one, many):
        np.testing.assert_array_equal(a, b)
    x = np.random.default_rng(seed).exponential(size=n)
    assert (edf_mc_p_value(x, "exponential", (1.0,), "cvm", B=B, seed=seed)
            == edf_mc_p_value(x, "exponential", (1.0,), "cvm", B=B, seed=seed,
                              threads=threads))


@pytest.mark.parametrize("bad_seed", [-1, 1.5, "7", True, np.float64(3.0)])
def test_bad_seeds_raise_parameter_error(bad_seed):
    with pytest.raises(ParameterError, match="seed"):
        simulate_null_statistics("normal", (0.0, 1.0), 20, 50, refit=False,
                                 ms=np.arange(1, 3), seed=bad_seed)


@pytest.mark.parametrize("bad_B", [0, 2.5, True])
def test_bad_replicate_counts_raise_parameter_error(bad_B):
    with pytest.raises(ParameterError, match="B must be"):
        monte_carlo_p_value(0.1, "normal", (0.0, 1.0), 20, B=bad_B,
                            refit=False, ms=np.arange(1, 3), seed=1)


def test_numpy_integer_seed_equals_int_seed(uncached):
    x = np.random.default_rng(410).normal(size=20)
    assert (vs_test(x, "normal", seed=np.int64(5), B=50).p_value
            == vs_test(x, "normal", seed=5, B=50).p_value)
    assert vs_test(x, "normal", seed=0, B=50).p_value_method == "monte_carlo"


def test_cli_bad_seed_exits_four(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in
                              np.random.default_rng(411).normal(size=20)))
    code = main(["test", str(path), "--family", "normal", "--seed=-1",
                 "--B", "100"])
    err = capsys.readouterr().err
    assert code == 4
    assert "seed must be an integer >= 0" in err
