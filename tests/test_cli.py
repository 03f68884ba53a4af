"""End-to-end tests of the command-line interface (in-process)."""

import io
import json

import numpy as np
import pytest

from vsgof.cli import main

CONSTRAINT_SAMPLE = [
    7.311756441375062e-14,
    0.000405514556529735,
    0.0016723413278128102,
    0.008231103533126158,
    0.017947885947406268,
    0.020089655033975737,
    0.08352148183210897,
    0.12234019307097213,
]


def datafile(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# entropy subcommand


def test_entropy_single_window(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0, 4.0])
    code, out, err = run(capsys, "entropy", path, "--window", "1")
    assert code == 0 and err == ""
    assert "n = 4" in out
    assert "entropy_estimate = 1.0397207708399179" in out


def test_entropy_json_matches_text(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0, 4.0])
    jpath = tmp_path / "report.json"
    code, out, _ = run(capsys, "entropy", path, "--window", "1",
                       "--json", str(jpath))
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == "vsgof/entropy-report/v1"
    assert payload["n"] == 4 and payload["window"] == 1
    # the text line prints the repr of the very same float
    assert f"entropy_estimate = {payload['entropy_estimate']!r}" in out


def test_entropy_scan_marks_uncomputable_windows(tmp_path, capsys):
    values = [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]  # boundary tie
    path = datafile(tmp_path, values)
    jpath = tmp_path / "scan.json"
    code, out, _ = run(capsys, "entropy", path, "--scan", "--json", str(jpath))
    assert code == 0
    assert "scanned_windows = 1..4" in out
    assert "\n     1  -\n" in out  # m=1 not computable under the tie
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == "vsgof/entropy-scan/v1"
    assert payload["windows"] == [1, 2, 3, 4]
    assert payload["estimates"][0] is None
    assert all(isinstance(v, float) for v in payload["estimates"][1:])
    assert payload["best_window"] >= 2
    line = f"best_estimate = {payload['best_estimate']!r}"
    assert line in out


def test_entropy_flag_validation(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0])
    with pytest.raises(SystemExit) as exc:
        main(["entropy", path])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["entropy", path, "--window", "1", "--scan"])
    assert exc.value.code == 2


def test_entropy_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1.0\n2.0\n3.0\n4.0\n"))
    code, out, _ = run(capsys, "entropy", "-", "--window", "1")
    assert code == 0
    assert "entropy_estimate = 1.0397207708399179" in out


# ---------------------------------------------------------------------------
# data reading


def test_header_line_is_tolerated(tmp_path, capsys):
    path = tmp_path / "with_header.csv"
    path.write_text("value\n1.0\n2.0\n3.0\n4.0\n")
    code, out, _ = run(capsys, "entropy", str(path), "--window", "1")
    assert code == 0 and "n = 4" in out


def test_second_bad_line_is_an_error(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("value\n1.0\nbroken\n3.0\n")
    code, _, err = run(capsys, "entropy", str(path), "--window", "1")
    assert code == 3
    assert "line 3: cannot parse 'broken'" in err


def test_multicolumn_data_rejected(tmp_path, capsys):
    path = tmp_path / "two_cols.csv"
    path.write_text("1.0,5.0\n2.0,6.0\n")
    code, _, err = run(capsys, "entropy", str(path), "--window", "1")
    assert code == 3
    assert "single column" in err


def test_trailing_commas_are_fine(tmp_path, capsys):
    path = tmp_path / "trailing.csv"
    path.write_text("1.0,\n2.0,\n3.0,\n4.0,\n")
    code, out, _ = run(capsys, "entropy", str(path), "--window", "1")
    assert code == 0 and "n = 4" in out


@pytest.mark.parametrize("body", ["", "value\n", "1.0\ninf\n2.0\n"])
def test_unusable_data_exits_three(tmp_path, capsys, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    code, _, err = run(capsys, "entropy", str(path), "--window", "1")
    assert code == 3 and err.startswith("error:")


def test_overflowing_spread_exits_three(tmp_path, capsys):
    path = datafile(tmp_path, [-1e308, -5e307, 0.0, 5e307, 1e308, 2e307, -2e307])
    code, _, err = run(capsys, "test", path, "--family", "dnorm")
    assert code == 3 and "spread" in err


def test_log_density_below_float_range_exits_three(tmp_path, capsys):
    path = datafile(tmp_path, [1e155, -1e155, 0.0, 1.0, 2.0, 3.0])
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--params=0,1", "--seed", "1", "--B", "10")
    assert code == 3 and "below the float range" in err


def test_rate_beyond_the_float_range_exits_seven(tmp_path, capsys):
    path = datafile(tmp_path, [1e-320, 2e-320, 3e-320, 5e-320, 8e-320, 1.3e-319])
    for family in ("dexp", "dgamma"):
        code, _, err = run(capsys, "test", path, "--family", family)
        assert code == 7 and "did not converge" in err


def test_weibull_fit_of_a_tiny_shape_is_not_a_parameter_error(tmp_path, capsys):
    # the fitted scale underflowed to 0 and the test exited 4, blaming
    # parameters that were never given; it is a fit, and the constraint
    # (exit 5) or relax (exit 0) decides
    path = datafile(tmp_path, np.r_[1e-300 * np.arange(1, 30), 1e300])
    code, _, err = run(capsys, "test", path, "--family", "dweibull",
                       "--simulate-p", "false")
    assert code == 5 and "null bound" in err
    jpath = tmp_path / "report.json"
    code, _, _ = run(capsys, "test", path, "--family", "dweibull",
                     "--simulate-p", "false", "--relax", "--json", str(jpath))
    params = json.loads(jpath.read_text())["estimate"]["params"]
    assert code == 0 and all(v > 0 for v in params.values())


def test_invalid_thread_count_exits_four(tmp_path, capsys):
    x = np.random.default_rng(57).normal(size=40)
    path = datafile(tmp_path, x)
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--seed", "1", "--threads", "0")
    assert code == 4 and "threads" in err


def test_very_negative_delta_runs(capsys, monkeypatch):
    x = np.random.default_rng(58).normal(size=40)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(repr(float(v)) for v in x)))
    code, out, _ = run(capsys, "test", "-", "--family", "dnorm", "--delta=-1000",
                       "--seed", "1", "--B", "50", "--json", "-")
    assert code == 0
    assert json.loads(out[out.index("\n{") + 1:])["delta"] == -1000.0


def test_missing_data_file(capsys):
    code, _, err = run(capsys, "entropy", "/no/such/file.txt", "--window", "1")
    assert code == 3
    assert "cannot read data file" in err


# ---------------------------------------------------------------------------
# test subcommand


def test_composite_normal_report_and_json(tmp_path, capsys):
    x = np.random.default_rng(31).normal(size=200)
    path = datafile(tmp_path, x)
    jpath = tmp_path / "report.json"
    code, out, _ = run(capsys, "test", path, "--family", "dnorm",
                       "--json", str(jpath))
    assert code == 0
    assert "family = normal (dnorm)" in out
    assert "statistic = 0.11022116217620992" in out
    assert "optimal_window = 3" in out
    assert "p_value = 0.32100630398466357" in out
    assert "p_value_method = asymptotic" in out
    assert "Mean = -0.008900042710428204" in out
    assert "St. dev. = 0.9426586118716721" in out
    assert "B =" not in out  # asymptotic path has no Monte-Carlo block

    payload = json.loads(jpath.read_text())
    assert payload["schema"] == "vsgof/test-report/v1"
    assert payload["statistic"] == 0.11022116217620992
    assert payload["p_value"] == 0.32100630398466357
    assert payload["B"] is None and payload["seed"] is None
    assert payload["estimate"]["provenance"] == "mle"
    assert payload["estimate"]["params"]["Mean"] == -0.008900042710428204
    assert payload["warnings"] == []


def test_simple_null_monte_carlo_block(tmp_path, capsys):
    x = np.random.default_rng(55).exponential(2.0, size=40)
    path = datafile(tmp_path, x)
    code, out, _ = run(capsys, "test", path, "--family", "dexp",
                       "--params", "0.5", "--B", "400", "--seed", "12")
    assert code == 0
    assert "p_value_method = monte_carlo" in out
    assert "B = 400" in out
    assert "seed = 12" in out
    assert "ignored_replicates = 0" in out
    assert "estimates:" not in out  # simple null fits nothing


def test_monte_carlo_without_seed_is_a_usage_error(tmp_path, capsys):
    x = np.random.default_rng(56).normal(size=40)
    path = datafile(tmp_path, x)
    code, _, err = run(capsys, "test", path, "--family", "dnorm")
    assert code == 4
    assert "seed" in err


def test_unknown_family_exits_four(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0, 4.0])
    code, _, err = run(capsys, "test", path, "--family", "dcauchy")
    assert code == 4
    assert "unknown family" in err


def test_wrong_parameter_arity_exits_four(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0, 4.0])
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--params", "0,1,2")
    assert code == 4


def test_unparseable_params_exit_four(tmp_path, capsys):
    path = datafile(tmp_path, [1.0, 2.0, 3.0, 4.0])
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--params", "a,b")
    assert code == 4
    assert "cannot parse --params" in err


def test_constraint_violation_exits_five(tmp_path, capsys):
    path = datafile(tmp_path, CONSTRAINT_SAMPLE)
    code, _, err = run(capsys, "test", path, "--family", "dlnorm",
                       "--simulate-p", "false")
    assert code == 5
    assert "relax=True drops the constraint" in err


def test_relax_rescues_constraint_violation(tmp_path, capsys):
    path = datafile(tmp_path, CONSTRAINT_SAMPLE)
    code, out, _ = run(capsys, "test", path, "--family", "dlnorm",
                       "--simulate-p", "false", "--relax")
    assert code == 0
    assert "statistic = -1.042116370695675" in out


def test_tied_data_exits_six(tmp_path, capsys):
    path = datafile(tmp_path, [2.0] * 10)
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--params", "0,1")
    assert code == 6
    assert "tied" in err


def test_degenerate_fit_exits_seven(tmp_path, capsys):
    path = datafile(tmp_path, [2.0] * 10)
    code, _, err = run(capsys, "test", path, "--family", "dnorm")
    assert code == 7
    assert "degenerate" in err


def test_extend_with_simulate_false_exits_four(tmp_path, capsys):
    x = np.random.default_rng(57).normal(size=30)
    path = datafile(tmp_path, x)
    code, _, err = run(capsys, "test", path, "--family", "dnorm",
                       "--extend", "--simulate-p", "false", "--seed", "1")
    assert code == 4


def test_ties_warning_is_printed(tmp_path, capsys):
    x = sorted(np.random.default_rng(58).normal(size=20))
    x[1] = x[0]
    path = datafile(tmp_path, x)
    code, out, _ = run(capsys, "test", path, "--family", "dnorm",
                       "--simulate-p", "false")
    assert code == 0
    assert "warning: sample contains tied values" in out


# ---------------------------------------------------------------------------
# power subcommand


def test_power_study_text_and_csv(tmp_path, capsys):
    scenario = tmp_path / "tiny.scenario"
    scenario.write_text(
        "name = cli-tiny\n"
        "null_family = dexp\n"
        "null_params = 0.5\n"
        "alt_family = dexp\n"
        "alt_params = 0.5\n"
        "tests = vs, ks\n"
        "n = 15\n"
        "replicates = 60\n"
        "B = 80\n"
        "seed = 7\n"
    )
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "power", str(scenario), "--csv", str(csv_path),
                       "--threads", "4")
    assert code == 0
    assert out.startswith("scenario: cli-tiny\n")
    assert "replicates=60" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scenario,n,test,power_pct,se_pct,errors"
    assert len(lines) == 3  # two cells
    assert lines[1].startswith("cli-tiny,15,vs,")


def test_power_scenario_errors_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("name = x\nbogus_key = 1\n")
    code, _, err = run(capsys, "power", str(bad))
    assert code == 3
    assert "unknown key" in err
    code, _, err = run(capsys, "power", str(tmp_path / "missing.scenario"))
    assert code == 3


def test_power_semantic_errors_exit_four(tmp_path, capsys):
    bad = tmp_path / "semantic.scenario"
    bad.write_text(
        "name = x\n"
        "null_family = dnorm\n"
        "alt_family = dnorm\n"
        "alt_params = 0, 1\n"
        "tests = ks\n"  # EDF test without null_params
        "n = 20\n"
        "seed = 1\n"
    )
    code, _, err = run(capsys, "power", str(bad))
    assert code == 4
    assert "null_params" in err


@pytest.mark.parametrize("line", ["alt_scale = nan", "alt_shift = inf"])
def test_power_non_finite_shift_or_scale_exits_four(tmp_path, capsys, line):
    bad = tmp_path / "non-finite.scenario"
    bad.write_text(
        "name = x\n"
        "null_family = dnorm\n"
        "null_params = 0, 1\n"
        "alt_family = dnorm\n"
        "alt_params = 0, 1\n"
        f"{line}\n"
        "tests = vs, ks\n"
        "n = 20\n"
        "replicates = 20\n"
        "seed = 1\n"
    )
    code, out, err = run(capsys, "power", str(bad))
    assert code == 4
    assert "must be finite" in err and out == ""
