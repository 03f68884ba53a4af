"""Command-line interface: entropy estimation, goodness-of-fit testing,
and power studies over datasets of plain numbers.

Input data is a text file (or ``-`` for standard input) holding one value
per line or a single-column CSV; one leading header line is tolerated.
Reports print as human-readable text on stdout; ``--json PATH`` writes the
machine-readable version (numerics are printed with full precision so the
two representations agree exactly).

Exit codes: 0 success, 2 usage, 3 bad data, 4 bad parameters,
5 constraint violation, 6 tied data, 7 estimation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import distributions as dist
from .errors import (CapabilityError, ConstraintError, DataError,
                     EstimationError, ParameterError, TiesError, VsgofError)
from .power import parse_scenario_file, run_power_study
from .sample import Sample
from .spacing import best_window, max_valid_window, vasicek_estimate
from .vstest import _SIMULATE_FLAGS, TestOptions, vs_test

__all__ = ["main"]

EXIT_CODES: dict[type, int] = {
    DataError: 3,
    ParameterError: 4,
    CapabilityError: 4,
    ConstraintError: 5,
    TiesError: 6,
    EstimationError: 7,
}


def _read_values(path: str) -> np.ndarray:
    """Parse a dataset: one float per line, or single-column CSV where the
    first line may be a header.  Parse failures name the offending line."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read data file {path}: {exc}") from None

    values: list[float] = []
    first_data_line = True
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = [f.strip().strip('"') for f in stripped.split(",")]
        if sum(1 for f in fields[1:] if f) > 0:
            raise DataError(
                f"line {lineno}: expected a single column, found "
                f"{len(fields)} fields")
        token = fields[0]
        try:
            value = float(token)
        except ValueError:
            if first_data_line:  # tolerate one header line
                first_data_line = False
                continue
            raise DataError(
                f"line {lineno}: cannot parse {token!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise DataError(f"line {lineno}: non-finite value {token!r}")
        values.append(value)
        first_data_line = False
    if not values:
        raise DataError(f"no numeric data found in {path}")
    return np.asarray(values, dtype=float)


def _parse_params(raw: str | None) -> tuple[float, ...] | None:
    if raw is None:
        return None
    try:
        items = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"cannot parse --params value {raw!r}") from None
    if not items:
        raise ParameterError("--params lists no values")
    return items


def _write_json(path: str, payload: dict) -> None:
    if path == "-":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _cmd_entropy(args) -> int:
    if args.window is None and not args.scan:
        args.parser.error("one of --window or --scan is required")
    if args.window is not None and args.scan:
        args.parser.error("--window and --scan are mutually exclusive")
    x = Sample(_read_values(args.data))

    if args.window is not None:
        estimate = vasicek_estimate(x, args.window)
        payload = {
            "schema": "vsgof/entropy-report/v1",
            "n": x.n,
            "window": args.window,
            "entropy_estimate": estimate,
        }
        print(f"n = {x.n}")
        print(f"window = {args.window}")
        print(f"entropy_estimate = {estimate!r}")
    else:
        m_best, scan = best_window(x)
        best = scan.value_at(m_best)
        payload = {
            "schema": "vsgof/entropy-scan/v1",
            "n": x.n,
            "windows": [int(m) for m in scan.windows],
            "estimates": [float(v) if ok else None
                          for v, ok in zip(scan.values, scan.computable)],
            "best_window": m_best,
            "best_estimate": best,
        }
        print(f"n = {x.n}")
        print(f"scanned_windows = 1..{max_valid_window(x.n)}")
        print(f"best_window = {m_best}")
        print(f"best_estimate = {best!r}")
        print("window table:")
        for m, v, ok in zip(scan.windows, scan.values, scan.computable):
            print(f"  {int(m):>4}  {float(v)!r}" if ok else f"  {int(m):>4}  -")
    if args.json:
        _write_json(args.json, payload)
    return 0


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def _cmd_test(args) -> int:
    x = Sample(_read_values(args.data))
    fam = dist.resolve_family(args.family)
    opts = TestOptions(
        delta=args.delta,
        extend=args.extend,
        relax=args.relax,
        simulate_p_value=_SIMULATE_FLAGS[args.simulate_p],
        B=args.B,
        fixed_params=_parse_params(args.params),
        seed=args.seed,
    )
    report = vs_test(x, fam.family_id, opts, threads=args.threads)

    labels = dist.param_labels(fam.family_id)
    print(f"family = {report.family_id} ({fam.call})")
    print(f"n = {report.n}")
    print(f"statistic = {report.statistic!r}")
    print(f"optimal_window = {report.optimal_window}")
    print(f"p_value = {report.p_value!r}")
    print(f"p_value_method = {report.p_value_method}")
    print(f"delta = {report.delta!r}")
    if report.p_value_method == "monte_carlo":
        print(f"B = {report.B}")
        print(f"seed = {report.seed}")
        print(f"ignored_replicates = {report.ignored_replicates}")
    if report.estimate is not None:
        print("estimates:")
        for label, value in zip(labels, report.estimate.params):
            print(f"  {label} = {float(value)!r}")
    for w in report.warnings:
        print(f"warning: {w}")

    if args.json:
        estimate = None
        if report.estimate is not None:
            estimate = {
                "provenance": report.estimate.provenance,
                "params": {label: float(v) for label, v in
                           zip(labels, report.estimate.params)},
            }
        _write_json(args.json, {
            "schema": "vsgof/test-report/v1",
            "family": report.family_id,
            "call": fam.call,
            "n": report.n,
            "statistic": report.statistic,
            "optimal_window": report.optimal_window,
            "p_value": report.p_value,
            "p_value_method": report.p_value_method,
            "delta": report.delta,
            "extend": report.extend,
            "relax": report.relax,
            "B": report.B,
            "seed": report.seed,
            "ignored_replicates": report.ignored_replicates,
            "estimate": estimate,
            "warnings": list(report.warnings),
        })
    return 0


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def _cmd_power(args) -> int:
    scenario = parse_scenario_file(args.scenario)
    table = run_power_study(scenario, threads=args.threads)
    sys.stdout.write(table.to_text())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsgof",
        description=("Goodness-of-fit testing from spacing-based entropy "
                     "estimates, with EDF reference tests and power studies."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser(
        "entropy", help="spacing-based entropy estimate of a dataset")
    p_entropy.add_argument("data", help="data file, or - for stdin")
    p_entropy.add_argument("--window", type=int, default=None,
                           help="spacing window (1 <= m < n/2)")
    p_entropy.add_argument("--scan", action="store_true",
                           help="tabulate every valid window and the argmax")
    p_entropy.add_argument("--json", metavar="PATH", default=None,
                           help="also write a JSON report to PATH")
    p_entropy.set_defaults(func=_cmd_entropy, parser=p_entropy)

    p_test = sub.add_parser(
        "test", help="goodness-of-fit test of a parametric family")
    p_test.add_argument("data", help="data file, or - for stdin")
    p_test.add_argument("--family", required=True,
                        help="null family id or its d-call name "
                             f"({', '.join(dist.call_name(f) for f in dist.family_ids())})")
    p_test.add_argument("--params", default=None,
                        help="comma-separated null parameters (simple null); "
                             "omitted = fit by maximum likelihood")
    p_test.add_argument("--delta", type=float, default=None,
                        help="window-range exponent adjustment (< 1/3)")
    p_test.add_argument("--extend", action="store_true",
                        help="search every valid window (forces Monte-Carlo)")
    p_test.add_argument("--relax", action="store_true",
                        help="drop the nonnegativity constraint on the statistic")
    p_test.add_argument("--B", type=int, default=5000,
                        help="Monte-Carlo replicates (default 5000)")
    p_test.add_argument("--simulate-p", choices=tuple(_SIMULATE_FLAGS),
                        default="auto", dest="simulate_p",
                        help="Monte-Carlo p-value: auto decides by sample size")
    p_test.add_argument("--seed", type=int, default=None,
                        help="seed for Monte-Carlo paths (required there)")
    p_test.add_argument("--threads", type=int, default=1,
                        help="worker threads (never changes results)")
    p_test.add_argument("--json", metavar="PATH", default=None,
                        help="also write a JSON report to PATH")
    p_test.set_defaults(func=_cmd_test, parser=p_test)

    p_power = sub.add_parser(
        "power", help="run a power study from a scenario file")
    p_power.add_argument("scenario", help="scenario file (key = value lines)")
    p_power.add_argument("--csv", metavar="PATH", default=None,
                         help="also write the table as CSV to PATH")
    p_power.add_argument("--threads", type=int, default=1,
                         help="worker threads (never changes results)")
    p_power.set_defaults(func=_cmd_power, parser=p_power)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VsgofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
