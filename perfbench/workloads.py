"""The four workloads: inputs made from the workload seed, the fixed list
of calls that one pass makes, and how each call is run and checked.

Samples are drawn with ``numpy`` directly, so the program under test
receives only the data.  The same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Null parameters per family, in vsgof's order, with a numpy sampler for
# the same law (rate parameters become numpy scales).
FAMILIES = {
    "uniform": ((-1.0, 2.0), lambda g, p, n: g.uniform(p[0], p[1], n)),
    "normal": ((1.0, 2.0), lambda g, p, n: g.normal(p[0], p[1], n)),
    "lognormal": ((0.0, 0.5), lambda g, p, n: g.lognormal(p[0], p[1], n)),
    "exponential": ((2.0,), lambda g, p, n: g.exponential(1.0 / p[0], n)),
    "gamma": ((2.5, 1.5), lambda g, p, n: g.gamma(p[0], 1.0 / p[1], n)),
    "weibull": ((1.5, 2.0), lambda g, p, n: p[1] * g.weibull(p[0], n)),
    "pareto": ((3.0, 1.0), lambda g, p, n: p[1] * (1.0 + g.pareto(p[0], n))),
    "fisher": ((5.0, 10.0), lambda g, p, n: g.f(p[0], p[1], n)),
    "laplace": ((0.0, 1.5), lambda g, p, n: g.laplace(p[0], p[1], n)),
    "beta": ((2.0, 3.0), lambda g, p, n: g.beta(p[0], p[1], n)),
}
CLOSED_FORM = ("uniform", "normal", "lognormal", "exponential", "pareto",
               "laplace")
SIZES = (20, 60, 200)
VS_B = 2000  # Monte-Carlo replicates of each vs-closed-form call

# vs-iterative-fit: replicates per family, set so that no family takes most
# of a pass (a fisher replicate costs ~100x a gamma one).
# The fisher B is not cut further: each pass draws fresh seeds, and with
# fewer replicates the share of slow non-converging fits, and so the pass
# time, varies from pass to pass.
ITERATIVE_B = {"gamma": 750, "weibull": 300, "beta": 225, "fisher": 12}
ITERATIVE_SAMPLES = {"gamma": 4, "weibull": 4, "beta": 4, "fisher": 3}
# The fisher samples do not depend on the workload seed: the fisher MLE
# fails on some fitted samples (a fixed 1e-9 gradient tolerance), and such
# a call must fail on every run alike.
FISHER_SEED = 18060724

EDF_B = 200
# Replicates per timed power-study call: two of the study's outer chunks of
# 50, so that threads=2 splits every call; and the B of its inner tests.
CELL_REPLICATES = 100
CELL_B = 200
SCENARIOS = ("pareto-vs-shifted-lognormal", "exponential-vs-weibull",
             "size-sanity")
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
# Externally tabulated rejection rates (percent) of the acceptance gate for
# the two shipped reference scenarios: (tests, n values) of the cells, the
# rates, and the gate's tolerance in points.
TABULATED = {
    "pareto-vs-shifted-lognormal": (("vs",), (20, 30, 50, 100),
                                    {(20, "vs"): 59.79, (30, "vs"): 77.66,
                                     (50, "vs"): 94.02, (100, "vs"): 99.99},
                                    4.5),
    "exponential-vs-weibull": (("vs", "ks", "cvm", "ad"), (100,),
                               {(100, "vs"): 67.14, (100, "ks"): 21.91,
                                (100, "cvm"): 24.60, (100, "ad"): 34.67},
                               5.0),
}


@dataclass(frozen=True)
class VsCall:
    label: str
    x: np.ndarray
    family: str
    fixed_params: tuple | None
    B: int
    seed: int
    simulate: bool | None = True
    extend: bool = False
    batch: bool = False  # member of the repeated-null batch
    fixed_input: bool = False  # data and seed independent of the workload seed
    kind: str = "vs"

    def run(self, vsgof, threads):
        return vsgof.vs_test(self.x, self.family, fixed_params=self.fixed_params,
                             B=self.B, seed=self.seed,
                             simulate_p_value=self.simulate,
                             extend=self.extend, threads=threads)


@dataclass(frozen=True)
class CliCall:
    """``vsgof test - ... --json -`` with the data on standard input; the
    same test made through the library is the reference."""
    label: str
    lib: VsCall
    kind: str = "cli"

    def run(self, vsgof, threads):
        c = self.lib
        argv = ["test", "-", "--family", c.family, "--B", str(c.B),
                "--seed", str(c.seed), "--json", "-", "--threads", str(threads),
                "--simulate-p", {None: "auto", True: "true", False: "false"}[c.simulate]]
        if c.fixed_params is not None:
            argv.append("--params=" + ",".join(repr(float(v)) for v in c.fixed_params))
        if c.extend:
            argv.append("--extend")
        data = "\n".join(repr(float(v)) for v in c.x) + "\n"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                _stdin(data):
            code = vsgof.cli.main(argv)
        if code != 0:
            raise CliError(f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        return json.loads(text[text.index("\n{") + 1:])


@dataclass(frozen=True)
class EdfCall:
    label: str
    x: np.ndarray
    family: str
    params: tuple
    test: str
    B: int
    seed: int
    kind: str = "edf"

    def run(self, vsgof, threads):
        return vsgof.edf_test(self.x, self.family, self.params, self.test,
                              B=self.B, seed=self.seed, threads=threads)


@dataclass(frozen=True)
class PowerCall:
    label: str
    scenario: object
    size_study: bool
    kind: str = "power"

    def run(self, vsgof, threads):
        return vsgof.run_power_study(self.scenario, threads=threads)


class CliError(Exception):
    """The command line exited with a non-zero code."""


@contextlib.contextmanager
def _stdin(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


@dataclass
class Workload:
    name: str
    seed: int
    calls: list  # with the Monte-Carlo seeds of pass 0
    warmups: list

    def pass_calls(self, index: int) -> list:
        """The calls of pass ``index``: the same data, and from pass 1 on
        fresh Monte-Carlo seeds drawn from (workload seed, pass index), so
        that no pass repeats a null reference of an earlier pass.  Within a
        pass the repeated-null batch keeps one shared seed, and the fisher
        calls of vs-iterative-fit take their seeds from the fixed stream."""
        if index == 0:
            return list(self.calls)
        g = _rng(self.seed, f"{self.name} pass {index}")
        fixed = np.random.default_rng([FISHER_SEED, index])
        batch_seed = _seed(g)

        def reseed(call):
            if call.kind == "cli":
                return dataclasses.replace(call, lib=reseed(call.lib))
            if call.kind == "power":
                return dataclasses.replace(call, scenario=dataclasses.replace(
                    call.scenario, seed=_seed(g)))
            if call.kind == "vs" and call.batch:
                return dataclasses.replace(call, seed=batch_seed)
            fresh = fixed if call.kind == "vs" and call.fixed_input else g
            return dataclasses.replace(call, seed=_seed(fresh))

        return [reseed(c) for c in self.calls]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed), *name.encode()]))


def _seed(g: np.random.Generator) -> int:
    return int(g.integers(2 ** 31))


def _draw(g, family, n):
    params, draw = FAMILIES[family]
    return draw(g, params, n)


def vs_closed_form(seed: int, vsgof) -> Workload:
    g = _rng(seed, "vs-closed-form")
    calls: list = []
    samples = {(f, n): _draw(g, f, n) for n in SIZES for f in FAMILIES}
    for n in SIZES:
        for f, (params, _) in FAMILIES.items():
            calls.append(VsCall(f"simple {f} n={n}", samples[f, n], f, params,
                                VS_B, _seed(g)))
        for f in CLOSED_FORM:
            calls.append(VsCall(f"composite {f} n={n}", samples[f, n], f, None,
                                VS_B, _seed(g)))
        for f, fixed in (("normal", FAMILIES["normal"][0]),
                         ("exponential", None)):
            kind = "simple" if fixed else "composite"
            calls.append(VsCall(f"extend {kind} {f} n={n}", samples[f, n], f,
                                fixed, VS_B, _seed(g), extend=True))
    for f, (params, _) in FAMILIES.items():
        calls.append(VsCall(f"default simple {f} n=200", samples[f, 200], f,
                            params, VS_B, _seed(g), simulate=None))
    for f in CLOSED_FORM:
        calls.append(VsCall(f"default composite {f} n=200", samples[f, 200], f,
                            None, VS_B, _seed(g), simulate=None))
    batch_seed = _seed(g)
    params = FAMILIES["normal"][0]
    for i in range(40):
        calls.append(VsCall(f"batch normal #{i} n=20", _draw(g, "normal", 20),
                            "normal", params, VS_B, batch_seed, batch=True))
    for f, n, fixed in (("normal", 60, FAMILIES["normal"][0]),
                        ("exponential", 60, None), ("laplace", 20, None)):
        kind = "simple" if fixed else "composite"
        calls.append(CliCall(f"cli {kind} {f} n={n}", VsCall(
            f"library {kind} {f} n={n}", _draw(g, f, n), f, fixed, VS_B,
            _seed(g))))

    w = _draw(g, "normal", 20)
    warm = [VsCall("warm simple", w, "normal", FAMILIES["normal"][0], 300, 1),
            VsCall("warm composite", w, "normal", None, 300, 1),
            VsCall("warm extend", w, "normal", None, 300, 1, extend=True),
            VsCall("warm asymptotic", _draw(g, "normal", 100), "normal", None,
                   300, 1, simulate=None)]
    warm.append(CliCall("warm cli", warm[0]))
    return Workload("vs-closed-form", seed, calls, warm)


def vs_iterative_fit(seed: int, vsgof) -> Workload:
    g = _rng(seed, "vs-iterative-fit")
    fixed = np.random.default_rng(FISHER_SEED)
    calls = []
    for n in SIZES:
        for f, B in ITERATIVE_B.items():
            src = fixed if f == "fisher" else g
            for i in range(ITERATIVE_SAMPLES[f]):
                calls.append(VsCall(f"composite {f} #{i} n={n}",
                                    _draw(src, f, n), f, None, B, _seed(src),
                                    fixed_input=src is fixed))
    warm = [VsCall("warm composite", _draw(g, "gamma", 20), "gamma", None, 50, 1)]
    return Workload("vs-iterative-fit", seed, calls, warm)


def edf_simple(seed: int, vsgof) -> Workload:
    g = _rng(seed, "edf-simple")
    calls = []
    for n in SIZES:
        for f, (params, _) in FAMILIES.items():
            x = _draw(g, f, n)
            for test in ("ks", "cvm", "ad"):
                calls.append(EdfCall(f"{test} {f} n={n}", x, f, params, test,
                                     EDF_B, _seed(g)))
    w = _draw(g, "exponential", 20)
    warm = [EdfCall(f"warm {t}", w, "exponential", (2.0,), t, 300, 1)
            for t in ("ks", "cvm", "ad")]
    return Workload("edf-simple", seed, calls, warm)


def power_scenarios(seed: int, vsgof) -> Workload:
    """run_power_study calls of CELL_REPLICATES replicates on one (n, test)
    cell of a shipped scenario each, with seeds drawn from the workload
    seed.  A size-sanity cell is split into calls of the same size, so that
    its replicates as shipped are all made in every pass."""
    g = _rng(seed, "power-scenarios")
    calls = []
    for name in SCENARIOS:
        scn = vsgof.parse_scenario_file(SCENARIO_DIR / f"{name}.scenario")
        size_study = scn.alt_family == scn.null_family and \
            scn.alt_params == scn.null_params
        parts = scn.replicates // CELL_REPLICATES if size_study else 1
        for n in scn.n_values:
            for test in scn.tests:
                for part in range(parts):
                    cell = dataclasses.replace(
                        scn, n_values=(n,), tests=(test,),
                        replicates=CELL_REPLICATES, B=CELL_B, seed=_seed(g))
                    label = f"{name} n={n} {test}" + (
                        f" part {part + 1}" if parts > 1 else "")
                    calls.append(PowerCall(label, cell, size_study))
    scn = calls[-1].scenario
    warm = [PowerCall("warm", dataclasses.replace(scn, replicates=4), False)]
    return Workload("power-scenarios", seed, calls, warm)


def tabulated_studies(vsgof) -> list:
    """The cells of the two reference scenarios that have externally
    tabulated rates, as shipped: 1000 replicates, B = 500 and the
    scenario's own seed, so the gate's tolerance applies directly."""
    studies = []
    for name, (tests, sizes, rates, tol) in TABULATED.items():
        scn = vsgof.parse_scenario_file(SCENARIO_DIR / f"{name}.scenario")
        studies.append((dataclasses.replace(scn, tests=tests, n_values=sizes),
                        rates, tol))
    return studies


BUILDERS = {
    "vs-closed-form": vs_closed_form,
    "vs-iterative-fit": vs_iterative_fit,
    "edf-simple": edf_simple,
    "power-scenarios": power_scenarios,
}


def build(name: str, seed: int, vsgof) -> Workload:
    return BUILDERS[name](seed, vsgof)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def fingerprint(call, out) -> tuple:
    """Exact identity of an output, for comparing passes bit for bit."""
    if isinstance(out, BaseException):
        return ("failed", type(out).__name__)
    if call.kind == "vs":
        est = () if out.estimate is None else tuple(
            float(v).hex() for v in out.estimate.params)
        return (out.statistic.hex(), out.optimal_window, float(out.p_value).hex(),
                out.p_value_method, out.ignored_replicates, est)
    if call.kind == "edf":
        return (out.statistic.hex(), float(out.p_value).hex())
    if call.kind == "cli":
        return json.dumps(out, sort_keys=True)
    return tuple((r.n, r.test, r.rejections, r.errors, r.replicates)
                 for r in out.rows)


def data_part(call, out) -> tuple:
    """The part of an output that depends on the data alone and not on the
    Monte-Carlo seed, so it is the same in every pass."""
    if isinstance(out, BaseException):
        return ("failed", type(out).__name__)
    if call.kind == "vs":
        est = () if out.estimate is None else tuple(
            float(v).hex() for v in out.estimate.params)
        p = (float(out.p_value).hex() if out.p_value_method == "asymptotic"
             else None)
        return (out.statistic.hex(), out.optimal_window, out.p_value_method,
                est, p)
    if call.kind == "edf":
        return (out.statistic.hex(),)
    if call.kind == "cli":
        return tuple(json.dumps(out.get(k), sort_keys=True) for k in
                     ("statistic", "optimal_window", "p_value_method",
                      "estimate"))
    return tuple((r.n, r.test, r.replicates) for r in out.rows)


def check_passes(vsgof, passes: list) -> tuple[list[str], list[list[str]]]:
    """Every check made apart from the program, on a run's passes, given
    as (calls, outputs) with pass 0 first.

    Pass 0 gets every check.  Later passes make the same calls on the same
    data with fresh Monte-Carlo seeds: the data-only part of each output
    must equal pass 0's, and what the seed changes is checked anew.

    Returns (problems, faults), faults being the failed calls of each pass.
    A fit that falls short of scipy's maximum on a seed-independent input
    is a known fault of the program that hits that call in every pass: it
    is a failed operation, not a wrong result.
    """
    import checks  # scipy.stats loads only once the timed passes are over
    bad: list[str] = []
    faults: list[list[str]] = []
    calls0, outs0 = passes[0]
    fit_faults: dict[int, str] = {}
    size: dict[str, list[int]] = {}
    alpha = 0.0
    for i, (calls, outs) in enumerate(passes):
        failed, batch = [], []
        for j, (call, out) in enumerate(zip(calls, outs)):
            if i and data_part(call, out) != data_part(calls0[j], outs0[j]):
                bad.append(f"pass {i}: {call.label}: {data_part(call, out)} "
                           f"!= pass 0's {data_part(calls0[j], outs0[j])}")
            if isinstance(out, BaseException):
                failed.append(f"{call.label}: {type(out).__name__}: {out}")
                continue
            if call.kind == "vs":
                if i == 0:
                    bad += checks.check_vs(call, out)
                    found = (checks.check_fit(call, out)
                             if out.estimate is not None else [])
                    if found and call.fixed_input:
                        fit_faults[j] = found[0]
                    else:
                        bad += found
                elif out.p_value_method == "monte_carlo":
                    bad += checks.check_p_count(f"pass {i}: vs {call.label}",
                                                out.p_value, out.B,
                                                out.ignored_replicates)
                if j in fit_faults:
                    failed.append(fit_faults[j])
                if call.batch:
                    batch.append(out.p_value)
            elif call.kind == "cli":
                if i == 0:
                    lib = call.lib.run(vsgof, 1)
                    bad += (checks.check_vs(call.lib, lib)
                            + checks.check_cli(call, out, lib))
                else:
                    bad += checks.check_p_count(
                        f"pass {i}: {call.label}", out["p_value"], out["B"],
                        out["ignored_replicates"])
            elif call.kind == "edf":
                bad += (checks.check_edf(call, out) if i == 0 else
                        checks.check_p_count(f"pass {i}: edf {call.label}",
                                             out.p_value, out.B))
            else:
                bad += checks.check_power(call, out)
                if call.size_study:
                    alpha = call.scenario.alpha
                    for row in out.rows:
                        cell = size.setdefault(
                            f"{call.scenario.name} n={row.n} {row.test}",
                            [0, 0, call.scenario.B])
                        cell[0] += row.rejections
                        cell[1] += row.replicates
        if batch:
            bad += checks.check_uniform(batch, f"pass {i}: repeated-null batch")
        faults.append(failed)
    return bad + checks.check_size(size, alpha), faults


def check_tabulated(vsgof) -> list[str]:
    """The tabulated cells of the reference scenarios, run as shipped at
    threads=2, against the acceptance gate's rates and tolerances."""
    import checks
    bad = []
    for scn, rates, tol in tabulated_studies(vsgof):
        bad += checks.check_tabulated(vsgof.run_power_study(scn, threads=2),
                                      rates, tol)
    return bad


def check_same(ref: list, other: list, label: str) -> list[str]:
    """Two passes over the same inputs must give bitwise equal outputs."""
    bad = [f"{label}: call {i} differs: {a!r} vs {b!r}"
           for i, (a, b) in enumerate(zip(ref, other)) if a != b]
    if len(ref) != len(other):
        bad.append(f"{label}: {len(other)} outputs, expected {len(ref)}")
    return bad
