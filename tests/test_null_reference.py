"""The null-reference cache of ``vsgof._mc.null_reference``.

A single test's Monte-Carlo reference depends on its key alone, so a
repeated key reuses the sorted reference instead of simulating again.  A
hit must give the same bits as a miss, a key that differs in one field
must never hit, the cache must stay within its value budget, and
concurrent calls must give what serial ones give.  The conftest fixture
empties the cache before every test.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import vsgof._mc
import vsgof.edf
import vsgof.vstest
from vsgof import EstimationError, edf_test, monte_carlo_p_value, vs_test
from vsgof.edf import _pit_rows, _resolve_test
from vsgof.vstest import simulate_null_statistics


def _share_above(stats, ok, observed):
    """The share of the kept null statistics strictly above the observed
    one, and the kept count, by plain comparison."""
    return (ok & (stats > observed)).sum() / ok.sum(), ok.sum()


def _share_at_or_above(null, observed):
    """The share of the null statistics at or above the observed one."""
    return (null >= observed).sum() / null.size


def _bits(value):
    """A value's exact identity: floats by their hex, arrays by dtype and
    bytes, dataclasses field by field."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


@pytest.fixture
def builds(monkeypatch):
    """Counts the references built: the vs simulations (through the
    module attribute, as ``monte_carlo_p_value`` calls it) and the EDF
    ``null_map`` runs."""
    counts = {"vs": 0, "edf": 0}

    def counting(name, module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting("vs", vsgof.vstest, "simulate_null_statistics")
    counting("edf", vsgof.edf, "null_map")
    return counts


# ---------------------------------------------------------------------------
# a hit equals a miss


VS_CASES = {
    "simple": (lambda g: g.exponential(1.3, size=30), "exponential",
               dict(fixed_params=(1.0,), B=600, seed=11)),
    "composite": (lambda g: g.gamma(2.5, 1.0, size=25), "gamma",
                  dict(B=600, seed=12)),
    "extend": (lambda g: g.normal(1.0, 2.0, size=30), "normal",
               dict(extend=True, B=300, seed=13)),
    # the pinned cases with discards of test_mc_engine: no admissible
    # window (pareto) and failed refits (fisher)
    "pareto-discards": (lambda g: 1.0 + g.pareto(1.0, size=6), "pareto",
                        dict(B=600, seed=15)),
    "fisher-discards": (lambda g: g.f(5.0, 10.0, size=40), "fisher",
                        dict(B=300, seed=16)),
}
VS_SEEDS = {"simple": 401, "composite": 402, "extend": 403,
            "pareto-discards": 405, "fisher-discards": 406}
PINNED = {"pareto-discards": (0.8060200668896321, 2),
          "fisher-discards": (0.33793103448275863, 10)}


@pytest.mark.parametrize("case", sorted(VS_CASES))
def test_vs_hit_equals_miss_bit_for_bit(case, builds):
    draw, family, options = VS_CASES[case]
    x = draw(np.random.default_rng(VS_SEEDS[case]))
    miss = vs_test(x, family, **options)
    assert builds["vs"] == 1
    hit = vs_test(x, family, threads=2, **options)
    assert builds["vs"] == 1  # nothing simulated
    assert _bits(hit) == _bits(miss)
    if case in PINNED:
        assert (miss.p_value, miss.ignored_replicates) == PINNED[case]
        assert any(f"{miss.ignored_replicates} of {options['B']} null "
                   "replicates" in w for w in hit.warnings)
    # the searchsorted count against the share of the simulated replicates
    params = (miss.estimate.params if miss.estimate is not None
              else options["fixed_params"])
    stats, _, ok = simulate_null_statistics(
        family, params, miss.n, options["B"],
        refit=miss.estimate is not None, ms=miss.window_scan.windows,
        relax=miss.relax, seed=options["seed"])
    p, kept = _share_above(stats, ok, np.float64(miss.statistic))
    assert float(p).hex() == miss.p_value.hex()
    assert options["B"] - kept == miss.ignored_replicates


def test_all_discarded_error_repeats_word_for_word(builds):
    x = np.array([7.284056079172491e-05, 0.0057410230065873605,
                  0.058183585655950006, 0.9666634208773721])
    messages = []
    for _ in range(2):
        with pytest.raises(EstimationError) as err:
            vs_test(x, "gamma", fixed_params=(0.02, 1.0), B=8, seed=0)
        messages.append(str(err.value))
    assert builds["vs"] == 1
    assert messages[0] == messages[1]
    assert "every Monte-Carlo replicate was discarded" in messages[0]


@pytest.mark.parametrize("test_id", ["ks", "cvm", "ad"])
def test_edf_hit_equals_miss_bit_for_bit(test_id, builds):
    x = np.random.default_rng(407).normal(0.2, 1.1, size=35)
    miss = edf_test(x, "normal", (0.0, 1.0), test_id, B=700, seed=19)
    hit = edf_test(x, "normal", (0.0, 1.0), test_id, B=700, seed=19,
                   threads=2)
    assert builds["edf"] == 1
    assert _bits(hit) == _bits(miss)
    # the searchsorted count against the share of the simulated replicates
    _, kernel = _resolve_test(test_id)
    fam = vsgof.distributions.resolve_family("normal")
    p = fam.validate_params((0.0, 1.0))
    null, = vsgof._mc.null_map(fam, [p], 35, 700, [19],
                               lambda X: (kernel(_pit_rows(fam, p, X)),))
    assert (float(_share_at_or_above(null, miss.statistic)).hex()
            == miss.p_value.hex())


NULL = np.array([np.nan, 0.1, 0.5, 0.5, 0.9, np.nan, -np.inf, np.inf])


@pytest.mark.parametrize("observed", [-np.inf, 0.0, 0.1, 0.5, 0.7, 0.9,
                                      np.inf, np.nan])
def test_vs_count_is_the_plain_comparison(monkeypatch, observed):
    # ties, infinities, discarded replicates, and NaN statistics and
    # observed values, which no comparison counts
    ok = np.array([True, True, True, False, True, True, True, True])
    monkeypatch.setattr(vsgof.vstest, "simulate_null_statistics",
                        lambda *a, **k: (NULL, NULL, ok))
    p, ignored = monte_carlo_p_value(observed, "normal", (0.0, 1.0), 20,
                                     B=8, refit=False, ms=np.arange(1, 3),
                                     seed=1)
    want, kept = _share_above(NULL, ok, observed)
    assert (p, ignored) == (want, 8 - kept)


@pytest.mark.parametrize("shift", [-1.0, -0.1, 0.0, 0.1])
def test_edf_count_is_the_plain_comparison(monkeypatch, shift):
    x = np.random.default_rng(8).normal(size=20)
    observed = edf_test(x, "normal", (0.0, 1.0), "cvm", B=8, seed=1).statistic
    null = observed + (NULL - 0.5 + shift)  # two ties at shift 0.0
    monkeypatch.setattr(vsgof.edf, "null_map", lambda *a, **k: (null,))
    p = edf_test(x, "normal", (0.0, 1.0), "cvm", B=8, seed=2).p_value
    assert p == _share_at_or_above(null, observed)


# ---------------------------------------------------------------------------
# a key that differs in one field never hits


VS_BASE = dict(observed=0.1, family="normal", params=(0.0, 1.0), n=20,
               B=200, refit=False, ms=np.arange(1, 3), relax=False, seed=3)
VS_VARIANTS = {
    "negative zero": dict(params=(-0.0, 1.0)),
    "extend windows": dict(ms=np.arange(1, 10)),
    "relax": dict(relax=True),
    "B": dict(B=201),
    "seed": dict(seed=4),
    "refit": dict(refit=True),
    "family": dict(family="laplace"),
}


@pytest.mark.parametrize("field", sorted(VS_VARIANTS))
def test_vs_key_differing_in_one_field_misses(field, builds):
    base = dict(VS_BASE)
    observed = base.pop("observed")
    monte_carlo_p_value(observed, **base)
    monte_carlo_p_value(observed, **{**base, **VS_VARIANTS[field]})
    assert builds["vs"] == 2
    monte_carlo_p_value(observed, **base)  # the base key still hits
    assert builds["vs"] == 2


EDF_BASE = dict(family="normal", params=(0.0, 1.0), test_id="ks", B=200,
                seed=3)
EDF_VARIANTS = {
    "negative zero": dict(params=(-0.0, 1.0)),
    "test id": dict(test_id="cvm"),
    "B": dict(B=201),
    "seed": dict(seed=4),
    "family": dict(family="laplace"),
}


@pytest.mark.parametrize("field", sorted(EDF_VARIANTS))
def test_edf_key_differing_in_one_field_misses(field, builds):
    x = np.random.default_rng(9).normal(size=20)
    edf_test(x, **EDF_BASE)
    edf_test(x, **{**EDF_BASE, **EDF_VARIANTS[field]})
    assert builds["edf"] == 2
    edf_test(x, **EDF_BASE)
    assert builds["edf"] == 2


def test_negative_zero_is_its_own_key_with_the_same_result(builds):
    x = np.random.default_rng(10).normal(size=20)
    a = vs_test(x, "normal", fixed_params=(0.0, 1.0), B=200, seed=5)
    b = vs_test(x, "normal", fixed_params=(-0.0, 1.0), B=200, seed=5)
    assert builds["vs"] == 2
    assert a.p_value == b.p_value


# ---------------------------------------------------------------------------
# the bound


def _stored_costs():
    return sum(entry[2] for entry in vsgof._mc._references.values())


def test_cache_stays_within_its_value_budget(builds):
    x = np.random.default_rng(11).uniform(size=20)
    budget = vsgof._mc.REFERENCE_VALUES
    for seed in range(16):  # 16 references of 5000 values exceed 2**16
        edf_test(x, "uniform", (0.0, 1.0), "ks", B=5000, seed=seed)
        assert vsgof._mc._stored == _stored_costs() <= budget
    assert len(vsgof._mc._references) < 16
    assert builds["edf"] == 16
    # the oldest went first: the latest is kept, the first is rebuilt
    edf_test(x, "uniform", (0.0, 1.0), "ks", B=5000, seed=15)
    assert builds["edf"] == 16
    edf_test(x, "uniform", (0.0, 1.0), "ks", B=5000, seed=0)
    assert builds["edf"] == 17


def test_least_recently_used_goes_first(monkeypatch, builds):
    monkeypatch.setattr(vsgof._mc, "REFERENCE_VALUES", 3 * 302)
    x = np.random.default_rng(15).uniform(size=20)
    for seed in (0, 1, 2, 0, 3):  # room for three; 0 is used again
        edf_test(x, "uniform", (0.0, 1.0), "ks", B=300, seed=seed)
    assert builds["edf"] == 4
    edf_test(x, "uniform", (0.0, 1.0), "ks", B=300, seed=0)
    assert builds["edf"] == 4
    edf_test(x, "uniform", (0.0, 1.0), "ks", B=300, seed=1)
    assert builds["edf"] == 5


def test_reference_larger_than_the_budget_is_used_not_kept(monkeypatch,
                                                          builds):
    monkeypatch.setattr(vsgof._mc, "REFERENCE_VALUES", 500)
    x = np.random.default_rng(12).uniform(size=20)
    small = edf_test(x, "uniform", (0.0, 1.0), "ad", B=300, seed=1)
    large = edf_test(x, "uniform", (0.0, 1.0), "ad", B=600, seed=1)
    assert list(vsgof._mc._references) and _stored_costs() <= 500
    assert edf_test(x, "uniform", (0.0, 1.0), "ad", B=600, seed=1) == large
    assert edf_test(x, "uniform", (0.0, 1.0), "ad", B=300, seed=1) == small
    assert builds["edf"] == 3  # the large one twice, the small one once


def test_cached_references_are_read_only():
    x = np.random.default_rng(13).normal(size=20)
    vs_test(x, "normal", fixed_params=(0.0, 1.0), B=100, seed=1)
    (ref, _, _), = vsgof._mc._references.values()
    assert not ref.flags.writeable
    assert np.all(np.diff(ref) >= 0)


# ---------------------------------------------------------------------------
# concurrency


def _calls():
    """Repeated and distinct keys, vs and EDF, for one batch of calls."""
    g = np.random.default_rng(14)
    xs = [g.normal(size=20) for _ in range(4)]
    calls = []
    for i, x in enumerate(xs):
        for seed in (1, 2):
            calls.append(lambda x=x, s=seed: vs_test(
                x, "normal", fixed_params=(0.0, 1.0), B=300, seed=s))
            calls.append(lambda x=x, s=seed: vs_test(x, "normal", B=300,
                                                     seed=s))
            calls.append(lambda x=x, s=seed, t="ks cvm ad".split()[i % 3]:
                         edf_test(x, "normal", (0.0, 1.0), t, B=300, seed=s))
    return calls * 2


def test_concurrent_calls_equal_serial_ones(monkeypatch):
    calls = _calls()
    serial = [_bits(call()) for call in calls]
    # a budget of a few references, so that threads also evict
    monkeypatch.setattr(vsgof._mc, "REFERENCE_VALUES", 1000)
    monkeypatch.setattr(vsgof._mc, "_references", type(
        vsgof._mc._references)())
    monkeypatch.setattr(vsgof._mc, "_stored", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            concurrent = [_bits(r) for r in
                          pool.map(lambda c: c(), calls, timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    # a lost update of the running total would break this
    assert vsgof._mc._stored == _stored_costs() <= 1000
