"""Tests for the scenario parser and the power-study harness."""

import re
from pathlib import Path

import numpy as np
import pytest

from vsgof import distributions, edf, edf_test, vs_test, vstest
from vsgof._mc import CELL_CHUNK, seed_chunks
from vsgof.errors import DataError, ParameterError, VsgofError
from vsgof.power import (
    PowerScenario,
    PowerTable,
    parse_scenario_file,
    run_power_study,
)
from vsgof.vstest import _SIMULATE_FLAGS, TestOptions


def write(tmp_path, text):
    path = tmp_path / "case.scenario"
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = """\
name = size-check
null_family = dunif
null_params = 1, 3
alt_family = dunif
alt_params = 0, 1
alt_shift = 1
alt_scale = 2
tests = vs, ks
n = 20
alpha = 0.05
replicates = 250
B = 200
seed = 7
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_scenario(tmp_path):
    scn = parse_scenario_file(write(tmp_path, MINIMAL))
    assert scn.name == "size-check"
    assert scn.null_family == "dunif"
    assert scn.null_params == (1.0, 3.0)
    assert scn.alt_params == (0.0, 1.0)
    assert scn.alt_shift == 1.0 and scn.alt_scale == 2.0
    assert scn.tests == ("vs", "ks")
    assert scn.n_values == (20,)
    assert scn.replicates == 250 and scn.B == 200 and scn.seed == 7
    assert scn.simulate == "auto"  # default
    assert not scn.extend and not scn.relax and scn.delta is None


def test_parse_comments_and_blank_lines(tmp_path):
    text = "# full-line comment\n\n" + MINIMAL.replace(
        "seed = 7", "seed = 7   # trailing comment"
    )
    scn = parse_scenario_file(write(tmp_path, text))
    assert scn.seed == 7


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_parse_shipped_scenarios():
    pareto = parse_scenario_file(SCENARIO_DIR / "pareto-vs-shifted-lognormal.scenario")
    assert pareto.null_family == "dpareto"
    assert pareto.null_params == (1.0, 1.0)
    assert pareto.alt_family == "dlnorm"
    assert pareto.alt_shift == 1.0
    assert pareto.tests == ("vs", "ks", "cvm", "ad")
    assert pareto.n_values == (20, 30, 50, 100)
    assert pareto.replicates == 1000 and pareto.B == 500
    assert pareto.seed == 20260816

    weib = parse_scenario_file(SCENARIO_DIR / "exponential-vs-weibull.scenario")
    assert weib.null_family == "dexp"
    assert weib.null_params == (0.5,)
    assert weib.alt_family == "dweibull"
    assert weib.alt_params == (1.3, 2.0)
    assert weib.n_values == (20, 30, 50, 100)
    assert weib.seed == 20260817


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t.replace("name = size-check", "name size-check"),
         r"line 1: expected 'key = value'"),
        (lambda t: t + "frobnicate = 3\n", r"unknown key 'frobnicate'"),
        (lambda t: t + "seed = 8\n", r"duplicate key 'seed'"),
        (lambda t: t.replace("replicates = 250", "replicates = abc"),
         r"line 11: cannot read replicates"),
        (lambda t: t.replace("n = 20", "n ="), r"line 9: n lists no values"),
        (lambda t: t.replace("seed = 7\n", ""), r"missing required keys: seed"),
    ],
)
def test_parse_errors(tmp_path, mangle, message):
    with pytest.raises(DataError, match=message):
        parse_scenario_file(write(tmp_path, mangle(MINIMAL)))


def test_parse_bool_values(tmp_path):
    scn = parse_scenario_file(write(tmp_path, MINIMAL + "relax = yes\n"))
    assert scn.relax
    with pytest.raises(DataError, match="expects true/false"):
        parse_scenario_file(write(tmp_path, MINIMAL + "extend = maybe\n"))


def test_parse_missing_file():
    with pytest.raises(DataError, match="cannot read scenario file"):
        parse_scenario_file("/nonexistent/path.scenario")


# ---------------------------------------------------------------------------
# scenario validation


def base_kwargs(**over):
    kw = dict(
        name="case",
        null_family="dnorm",
        alt_family="dnorm",
        alt_params=(0.0, 1.0),
        n_values=(20,),
        seed=1,
        replicates=10,
        B=50,
    )
    kw.update(over)
    return kw


def test_edf_tests_need_simple_null():
    with pytest.raises(ParameterError, match="null_params"):
        PowerScenario(**base_kwargs(tests=("vs", "ks")))
    # composite null is fine for the spacing test alone
    PowerScenario(**base_kwargs(tests=("vs",)))


@pytest.mark.parametrize(
    "over",
    [
        {"tests": ("vs", "watson"), "null_params": (0.0, 1.0)},
        {"tests": ()},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"replicates": 0},
        {"B": 0},
        {"n_values": ()},
        {"n_values": (2,)},  # vs needs n >= 3
        {"alt_scale": 0.0},
        {"simulate": "sometimes"},
        {"simulate": "false", "extend": True},
        {"name": ""},
        {"null_family": "dcauchy"},
        {"B": True},  # a bool is an int, but not a replicate count
        {"replicates": 2.5},
        {"replicates": True},
        {"n_values": (10.5,)},
        {"n_values": (20, True)},
        {"seed": -5},
        {"seed": 1.5},
        {"delta": 0.5},
        {"delta": 1.0 / 3.0},
        {"null_params": (0.0, -1.0)},
        {"null_params": (0.0,)},
        {"alt_params": (0.0, 0.0)},
        {"alt_family": "dexp", "alt_params": (-2.0,)},
    ],
)
def test_scenario_validation_rejects(over):
    with pytest.raises(ParameterError):
        PowerScenario(**base_kwargs(**over))


@pytest.mark.parametrize("key", ["alt_shift", "alt_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_shift_or_scale_rejected(key, value):
    # such a scenario would only run into an error on every replicate
    with pytest.raises(ParameterError, match="finite"):
        PowerScenario(**base_kwargs(**{key: value}))


def test_non_finite_scale_in_a_scenario_file_rejected(tmp_path):
    text = MINIMAL.replace("alt_scale = 2", "alt_scale = nan")
    with pytest.raises(ParameterError, match="alt_scale finite"):
        parse_scenario_file(write(tmp_path, text))


def test_edf_only_scenario_allows_n_two():
    scn = PowerScenario(
        **base_kwargs(tests=("ks",), null_params=(0.0, 1.0), n_values=(2,))
    )
    assert scn.n_values == (2,)


# ---------------------------------------------------------------------------
# running studies


def test_size_matches_alpha_when_alternative_equals_null(tmp_path):
    # alt_shift + alt_scale * U(0,1) with shift 1, scale 2 IS the null
    # U(1,3), so every cell estimates the test's size at alpha = 0.05.
    scn = parse_scenario_file(write(tmp_path, MINIMAL))
    table = run_power_study(scn, threads=4)
    assert {((r.n), r.test) for r in table.rows} == {(20, "vs"), (20, "ks")}
    for r in table.rows:
        assert r.errors == 0
        assert r.replicates == 250
        assert 0.5 <= r.power_pct <= 12.0  # ~4 SE around 5%


def test_power_study_deterministic_across_threads():
    scn = PowerScenario(
        name="det",
        null_family="dexp",
        null_params=(1.0,),
        alt_family="dlnorm",
        alt_params=(0.0, 1.0),
        tests=("vs", "cvm"),
        n_values=(12, 25),
        seed=99,
        replicates=120,
        B=80,
    )
    t1 = run_power_study(scn, threads=1)
    t8 = run_power_study(scn, threads=8)
    assert t1.rows == t8.rows
    # an asymptotic vs-only scenario simulates no null: the study itself
    # must reject a bad thread count
    asymptotic = PowerScenario(
        name="asym", null_family="dexp", alt_family="dlnorm",
        alt_params=(0.0, 1.0), n_values=(12,), seed=99, replicates=3,
        simulate="false")
    for bad_threads in (0, -3, "2", None, 1.5, True):
        for study in (scn, asymptotic):
            with pytest.raises(ParameterError, match="threads must be"):
                run_power_study(study, threads=bad_threads)


def test_replicate_errors_are_counted_not_rejected():
    # Normal draws violate the exponential support, so the spacing test and
    # the EDF tests raise a data error for (almost) every replicate.
    scn = PowerScenario(
        name="err",
        null_family="dexp",
        null_params=(1.0,),
        alt_family="dnorm",
        alt_params=(0.0, 1.0),
        tests=("vs", "ks", "ad"),
        n_values=(15,),
        seed=5,
        replicates=40,
        B=50,
    )
    table = run_power_study(scn)
    rows = [table.row(15, test) for test in scn.tests]
    for row in rows:
        assert row.errors > 0
        assert row.rejections + row.errors <= row.replicates
    # every test sees the same draws, and a draw outside the support is an
    # error for each of them, not an EDF rejection
    assert len({row.errors for row in rows}) == 1


def test_power_detects_clear_misfit():
    scn = PowerScenario(
        name="shifted",
        null_family="dpareto",
        null_params=(1.0, 1.0),
        alt_family="dlnorm",
        alt_params=(0.0, 1.0),
        alt_shift=1.0,
        tests=("vs",),
        n_values=(50,),
        seed=11,
        replicates=100,
        B=120,
    )
    row = run_power_study(scn, threads=4).row(50, "vs")
    assert row.power_pct > 70.0


def test_table_row_lookup_and_formats():
    scn = PowerScenario(
        name="fmt",
        null_family="dunif",
        null_params=(0.0, 1.0),
        alt_family="dbeta",
        alt_params=(2.0, 2.0),
        tests=("vs", "ad"),
        n_values=(10,),
        seed=3,
        replicates=30,
        B=40,
    )
    table = run_power_study(scn)
    assert isinstance(table, PowerTable)
    with pytest.raises(KeyError):
        table.row(10, "ks")

    text = table.to_text()
    assert text.startswith("scenario: fmt\n")
    assert "alpha=0.05  replicates=30  B=40  seed=3" in text
    body = text.splitlines()
    assert re.match(r"\s+n\s+test\s+power_pct\s+se_pct\s+errors", body[2])
    assert len(body) == 4 + len(table.rows)  # title, meta, header, rule

    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "scenario,n,test,power_pct,se_pct,errors"
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.rows):
        fields = line.split(",")
        assert fields[0] == "fmt"
        assert int(fields[1]) == row.n and fields[2] == row.test
        assert float(fields[3]) == pytest.approx(row.power_pct, abs=0.005)
        assert int(fields[5]) == row.errors


def test_power_row_standard_error():
    from vsgof.power import PowerRow

    row = PowerRow(scenario="s", n=10, test="vs", rejections=250,
                   errors=0, replicates=1000)
    assert row.power_pct == 25.0
    assert row.se_pct == pytest.approx(100.0 * (0.25 * 0.75 / 1000) ** 0.5)


# ---------------------------------------------------------------------------
# pinned tables of the paths the shipped scenarios never reach
#
# (n, test, rejections, errors) per cell, recorded with each replicate run
# as its own vs_test/edf_test call and compared with ``==``: a change to how
# a cell is evaluated must leave every table as it is.  The error cells
# note which VsgofError each replicate raised when recorded.

PINNED_PATHS = {
    "composite-normal": (
        dict(null_family="dnorm", alt_family="dlaplace",
             alt_params=(0.0, 1.0), n_values=(20,)),
        [(20, "vs", 8, 0)]),
    "composite-gamma": (
        dict(null_family="dgamma", alt_family="dweibull",
             alt_params=(1.5, 1.0), n_values=(20,)),
        [(20, "vs", 5, 0)]),
    "composite-weibull": (
        dict(null_family="dweibull", alt_family="dgamma",
             alt_params=(2.0, 1.0), n_values=(20,)),
        [(20, "vs", 4, 0)]),
    "composite-beta": (
        dict(null_family="dbeta", alt_family="dunif", alt_params=(0.1, 0.9),
             n_values=(20,)),
        [(20, "vs", 9, 0)]),
    # n >= 80: the normal limit, simple and composite
    "asymptotic": (
        dict(null_family="dexp", null_params=(1.0,), alt_family="dweibull",
             alt_params=(1.2, 1.0), n_values=(80, 120)),
        [(80, "vs", 23, 0), (120, "vs", 25, 0)]),
    "asymptotic-composite": (
        dict(null_family="dnorm", alt_family="dlaplace",
             alt_params=(0.0, 1.0), n_values=(100,)),
        [(100, "vs", 44, 0)]),
    "simulate-true": (
        dict(null_family="dexp", null_params=(1.0,), alt_family="dweibull",
             alt_params=(1.2, 1.0), n_values=(80,), simulate="true"),
        [(80, "vs", 18, 0)]),
    "simulate-false": (
        dict(null_family="dnorm", null_params=(0.0, 1.0),
             alt_family="dlaplace", alt_params=(0.0, 1.0), n_values=(20,),
             simulate="false"),
        [(20, "vs", 38, 0)]),
    "extend": (
        dict(null_family="dnorm", null_params=(0.0, 1.0),
             alt_family="dlaplace", alt_params=(0.0, 1.0), n_values=(30,),
             extend=True),
        [(30, "vs", 26, 0)]),
    "relax": (
        dict(null_family="dnorm", null_params=(0.0, 1.0),
             alt_family="dlaplace", alt_params=(0.0, 1.0), n_values=(30,),
             relax=True),
        [(30, "vs", 32, 0)]),
    "extend-relax-composite": (
        dict(null_family="dgamma", alt_family="dlnorm", alt_params=(0.0, 0.5),
             n_values=(12,), extend=True, relax=True),
        [(12, "vs", 3, 0)]),
    # B = 300: every inner simulation runs in two seed chunks (256 + 44)
    "two-seed-chunks": (
        dict(null_family="dexp", null_params=(1.0,), alt_family="dweibull",
             alt_params=(1.2, 1.0), n_values=(20,),
             tests=("vs", "ks", "cvm", "ad"), B=300),
        [(20, "vs", 9, 0), (20, "ks", 6, 0), (20, "cvm", 4, 0),
         (20, "ad", 2, 0)]),
    # B * n = 18000 null values per replicate
    "larger-than-a-block": (
        dict(null_family="dexp", null_params=(1.0,), alt_family="dweibull",
             alt_params=(1.2, 1.0), n_values=(60,),
             tests=("vs", "ks", "cvm", "ad"), B=300),
        [(60, "vs", 11, 0), (60, "ks", 7, 0), (60, "cvm", 8, 0),
         (60, "ad", 7, 0)]),
    "composite-larger-than-a-block": (
        dict(null_family="dgamma", alt_family="dweibull",
             alt_params=(1.5, 1.0), n_values=(60,), B=300),
        [(60, "vs", 2, 0)]),
    # DataError: draws of Pareto(0.005, 1) overflow to inf
    "data-non-finite": (
        dict(null_family="dpareto", null_params=(1.0, 1.0),
             alt_family="dpareto", alt_params=(0.005, 1.0), n_values=(20,),
             tests=("vs", "ks")),
        [(20, "vs", 31, 29), (20, "ks", 30, 30)]),
    # DataError: finite values whose spread max - min overflows (and, on
    # a few, a log-density or a PIT that overflows first)
    "data-spread-overflow": (
        dict(null_family="dnorm", null_params=(0.0, 1.0), alt_family="dunif",
             alt_params=(-1.7, 1.7), alt_scale=1e308, n_values=(10,),
             tests=("vs", "ks")),
        [(10, "vs", 0, 60), (10, "ks", 0, 60)]),
    # DataError: observations outside the support, or a degenerate PIT
    "data-outside-support": (
        dict(null_family="dexp", null_params=(1.0,), alt_family="dnorm",
             alt_params=(0.0, 1.0), n_values=(6,),
             tests=("vs", "ks", "cvm", "ad")),
        [(6, "vs", 0, 59), (6, "ks", 0, 58), (6, "cvm", 0, 58),
         (6, "ad", 0, 59)]),
    "data-degenerate-pit": (
        dict(null_family="dnorm", null_params=(0.0, 1.0), alt_family="dunif",
             alt_params=(100.0, 101.0), n_values=(10,), tests=("vs", "ks")),
        [(10, "vs", 60, 0), (10, "ks", 0, 60)]),
    # DataError (beta draws at exactly 0 or 1, outside the fit interval)
    # and ConstraintError
    "data-fit-interval": (
        dict(null_family="dbeta", alt_family="dbeta", alt_params=(0.05, 0.05),
             n_values=(5,), B=20),
        [(5, "vs", 0, 60)]),
    # EstimationError (no spread to fit) and TiesError
    "ties-and-failed-fits": (
        dict(null_family="dnorm", alt_family="dunif", alt_params=(0.0, 1.0),
             alt_shift=1.0, alt_scale=2e-16, n_values=(3,), B=20),
        [(3, "vs", 0, 60)]),
    # TiesError: ~45 distinct values leave no window computable on a few
    "ties": (
        dict(null_family="dunif", null_params=(0.0, 2.0), alt_family="dunif",
             alt_params=(0.0, 1.0), alt_shift=1.0, alt_scale=1e-14,
             n_values=(20,), tests=("vs", "ks")),
        [(20, "vs", 57, 3), (20, "ks", 60, 0)]),
    # ConstraintError on every replicate
    "constraint": (
        dict(null_family="dweibull", alt_family="dweibull",
             alt_params=(0.05, 1.0), n_values=(5,), B=20),
        [(5, "vs", 0, 60)]),
    # EstimationError: the one null replicate (B = 1) is discarded (6),
    # and ConstraintError (10)
    "all-null-discarded": (
        dict(null_family="dbeta", alt_family="dbeta", alt_params=(0.5, 0.5),
             n_values=(3,), B=1),
        [(3, "vs", 16, 16)]),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("path", sorted(PINNED_PATHS))
def test_power_table_pinned(path, threads):
    over, expected = PINNED_PATHS[path]
    scn = PowerScenario(**{**dict(name=path, replicates=60, B=100, seed=5,
                                  tests=("vs",)), **over})
    rows = run_power_study(scn, threads=threads).rows
    assert [(r.n, r.test, r.rejections, r.errors) for r in rows] == expected


# ---------------------------------------------------------------------------
# oracle: a cell equals its replicates run one test call at a time
#
# One small scenario per test id, each with replicates that end in errors:
# constraint failures and all null replicates discarded (vs, composite
# beta), data outside the support (ks), a degenerate PIT (cvm) and
# non-finite draws (ad).  Two more run at B = 300, so that each
# replicate's null draws from its seed's children 0 and 1, both hashed at
# once for the chunk: a simple-null vs cell with data outside the
# support, and the ad cell.

ORACLE_SCENARIOS = {
    "vs": dict(null_family="dbeta", alt_family="dbeta",
               alt_params=(0.5, 0.5), n_values=(3, 9, 80), B=2),
    "ks": dict(null_family="dexp", null_params=(1.0,), alt_family="dnorm",
               alt_params=(1.5, 1.0), n_values=(8, 20)),
    "cvm": dict(null_family="dnorm", null_params=(0.0, 1.0),
                alt_family="dunif", alt_params=(5.0, 40.0), n_values=(4,)),
    "ad": dict(null_family="dpareto", null_params=(1.0, 1.0),
               alt_family="dpareto", alt_params=(0.005, 1.0),
               n_values=(10,)),
    "vs-B300": dict(tests=("vs",), null_family="dexp", null_params=(1.0,),
                    alt_family="dnorm", alt_params=(1.5, 1.0),
                    n_values=(8, 20), B=300),
    "ad-B300": dict(tests=("ad",), null_family="dpareto",
                    null_params=(1.0, 1.0), alt_family="dpareto",
                    alt_params=(0.005, 1.0), n_values=(10,), B=300),
}


def _one_call_per_replicate(scn, n, test, cell_seed):
    """(rejections, errors) of a cell, replaying its chunk streams and
    calling vs_test or edf_test on each replicate's sample and seed."""
    alt = distributions.resolve_family(scn.alt_family)
    alt_p = alt.validate_params(scn.alt_params)
    rejections = errors = 0
    for size, child in seed_chunks(cell_seed, scn.replicates, CELL_CHUNK):
        gen = np.random.default_rng(child)
        for _ in range(size):
            x = scn.alt_shift + scn.alt_scale * alt.sample(alt_p, n, gen)
            seed = int(gen.integers(2 ** 63))
            try:
                if test == "vs":
                    p = vs_test(x, scn.null_family, TestOptions(
                        delta=scn.delta, extend=scn.extend, relax=scn.relax,
                        simulate_p_value=_SIMULATE_FLAGS[scn.simulate],
                        B=scn.B, fixed_params=scn.null_params,
                        seed=seed)).p_value
                else:
                    p = edf_test(x, scn.null_family, scn.null_params, test,
                                 B=scn.B, seed=seed).p_value
            except VsgofError:
                errors += 1
                continue
            rejections += p <= scn.alpha
    return rejections, errors


@pytest.mark.parametrize("case", sorted(ORACLE_SCENARIOS))
def test_power_cells_match_one_call_per_replicate(case):
    scn = PowerScenario(**{**dict(name=f"oracle-{case}", tests=(case,),
                                  replicates=60, B=60, seed=8),
                           **ORACLE_SCENARIOS[case]})
    test, = scn.tests
    table = run_power_study(scn)
    cell_seeds = np.random.SeedSequence(scn.seed).spawn(len(scn.n_values))
    total_errors = 0
    for n, cell_seed in zip(scn.n_values, cell_seeds):
        row = table.row(n, test)
        assert (row.rejections, row.errors) == _one_call_per_replicate(
            scn, n, test, cell_seed)
        total_errors += row.errors
    assert total_errors > 0


@pytest.mark.parametrize("test, module", [("vs", vstest), ("ks", edf)])
def test_a_chunk_with_one_surviving_replicate(monkeypatch, test, module):
    # five of the six replicates hold data outside the dexp support, so
    # the chunk passes null_map a job of one seed, which keeps seed_chunks'
    # children
    jobs, null_map = [], module.null_map
    monkeypatch.setattr(module, "null_map", lambda *args, **kwargs: (
        jobs.append(len(args[4])) or null_map(*args, **kwargs)))
    scn = PowerScenario(name=f"one-survivor-{test}", tests=(test,),
                        null_family="dexp", null_params=(1.0,),
                        alt_family="dnorm", alt_params=(0.5, 1.0),
                        n_values=(8,), replicates=6, B=300, seed=2)
    row = run_power_study(scn).row(8, test)
    assert jobs == [1] and row.errors == 5
    cell_seed, = np.random.SeedSequence(scn.seed).spawn(1)
    assert (row.rejections, row.errors) == _one_call_per_replicate(
        scn, 8, test, cell_seed)


# ---------------------------------------------------------------------------
# a seed of 2**64 or more has more entropy words than the power path hashes
# at once: single tests with one keep seed_chunks' children (values of the
# seeding before power chunks were hashed at once)


@pytest.mark.parametrize("fixed_params, p_value", [
    (None, 0.26666666666666666), ((2.5, 1.0), 0.37333333333333335)])
def test_vs_test_with_a_seed_above_2_64_pinned(fixed_params, p_value):
    x = np.random.default_rng(31).gamma(2.5, 1.0, size=30)
    r = vs_test(x, "gamma", fixed_params=fixed_params, B=300,
                seed=2 ** 64 + 5)
    assert (r.p_value, r.ignored_replicates) == (p_value, 0)


@pytest.mark.parametrize("test, p_value", [
    ("ks", 0.7733333333333333), ("cvm", 0.76), ("ad", 0.7933333333333333)])
def test_edf_test_with_a_seed_above_2_64_pinned(test, p_value):
    y = np.random.default_rng(32).normal(size=40)
    assert edf_test(y, "normal", (0.0, 1.0), test, B=300,
                    seed=2 ** 64 + 5).p_value == p_value
