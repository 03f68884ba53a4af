"""Tests for the scenario parser and the power-study harness."""

import re
from pathlib import Path

import pytest

from vsgof.errors import DataError, ParameterError
from vsgof.power import (
    PowerScenario,
    PowerTable,
    parse_scenario_file,
    run_power_study,
)


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
    for bad_threads in (0, -3, "2", None, 1.5, True):
        with pytest.raises(ParameterError, match="threads must be"):
            run_power_study(scn, threads=bad_threads)


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
