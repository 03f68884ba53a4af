"""Self-test of the benchmark's correctness checks.

Run from the repository root:

    python3 perfbench/selftest.py

It makes a few small genuine outputs with vsgof, shows that every check
accepts them, then perturbs each output the way a fault would and shows
that the matching check rejects it.  Exit code 0 when every check
behaves, 1 otherwise.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import vsgof  # noqa: E402
import vsgof.cli  # noqa: E402
import workloads  # noqa: E402
from workloads import CliCall, EdfCall, PowerCall, VsCall  # noqa: E402


def main() -> int:
    g = np.random.default_rng(20181806)
    normal = workloads.FAMILIES["normal"][0]
    simple = VsCall("simple normal n=60", g.normal(1.0, 2.0, 60), "normal",
                    normal, 400, 11)
    composite = VsCall("composite exponential n=60", g.exponential(0.5, 60),
                       "exponential", None, 400, 12)
    asymptotic = VsCall("default composite normal n=200",
                        g.normal(1.0, 2.0, 200), "normal", None, 400, 13,
                        simulate=None)
    edf = EdfCall("ad normal n=60", simple.x, "normal", normal, "ad", 400, 14)
    cli = CliCall("cli simple normal n=60", simple)
    size_scn = vsgof.parse_scenario_file(
        workloads.SCENARIO_DIR / "size-sanity.scenario")
    size = PowerCall("size-sanity n=20", size_scn, True)
    simple_again = dataclasses.replace(simple, seed=15)

    r_simple, r_comp, r_asym = (c.run(vsgof, 1) for c in
                                (simple, composite, asymptotic))
    r_simple_t2 = simple.run(vsgof, 2)
    r_edf, r_cli, r_size, r_again = (c.run(vsgof, 1) for c in
                                     (edf, cli, size, simple_again))
    tabulated = [(vsgof.run_power_study(scn, threads=2), rates, tol)
                 for scn, rates, tol in workloads.tabulated_studies(vsgof)]
    pareto, rates, tol = tabulated[0]

    def shifted_window(report):
        scan = report.window_scan.windows
        other = scan[1] if report.optimal_window == scan[0] else scan[0]
        return dataclasses.replace(report, optimal_window=int(other))

    def p_one_count_up(report):
        step = 1.0 / (report.B - report.ignored_replicates)
        return dataclasses.replace(report, p_value=report.p_value + step)

    def row_off(table, n, points):
        """The table with its row at n moved by ``points`` percent."""
        rows = tuple(dataclasses.replace(r, rejections=r.rejections + round(
            points * r.replicates / 100)) if r.n == n else r
                     for r in table.rows)
        return dataclasses.replace(table, rows=rows)

    def size_cells(table):
        return {f"n={r.n} {r.test}": (r.rejections, r.replicates,
                                      table.scenario.B) for r in table.rows}

    fp = workloads.fingerprint
    cases = [
        # (description, problems found, a fault is expected)
        ("genuine simple-null report", checks.check_vs(simple, r_simple), False),
        ("genuine composite report", checks.check_vs(composite, r_comp)
         + checks.check_fit(composite, r_comp), False),
        ("genuine asymptotic report", checks.check_vs(asymptotic, r_asym),
         False),
        ("genuine EDF report", checks.check_edf(edf, r_edf), False),
        ("genuine CLI report", checks.check_cli(cli, r_cli, r_simple), False),
        ("genuine tabulated power rows", sum(
            (checks.check_tabulated(*t) for t in tabulated), []), False),
        ("genuine size-study rows", checks.check_size(
            size_cells(r_size), size_scn.alpha), False),
        ("genuine later pass", workloads.check_passes(vsgof, [
            ([simple], [r_simple]), ([simple_again], [r_again])])[0], False),
        ("genuine threads=1 and threads=2 reports", workloads.check_same(
            [fp(simple, r_simple)], [fp(simple, r_simple_t2)], "threads"),
         False),
        ("statistic off by 1e-6 relative", checks.check_vs(
            composite, dataclasses.replace(
                r_comp, statistic=r_comp.statistic * (1 + 1e-6))), True),
        ("a different selected window", checks.check_vs(
            simple, shifted_window(r_simple)), True),
        ("a mid-range power row (pareto n=20) 10 points off",
         checks.check_tabulated(row_off(pareto, 20, -10), rates, tol), True),
        ("a near-certain power row (pareto n=100) 10 points off",
         checks.check_tabulated(row_off(pareto, 100, -10), rates, tol), True),
        ("size-study rejections 10 points above the level", checks.check_size(
            size_cells(row_off(r_size, 20, 10)), size_scn.alpha), True),
        ("a later pass whose statistic differs from the first's",
         workloads.check_passes(vsgof, [
             ([simple], [r_simple]),
             ([simple_again], [dataclasses.replace(
                 r_again, statistic=r_again.statistic * (1 + 1e-6))])])[0],
         True),
        ("p-values that differ between threads=1 and threads=2",
         workloads.check_same([fp(simple, r_simple)],
                              [fp(simple, p_one_count_up(r_simple_t2))],
                              "threads"), True),
        ("asymptotic p-value off by 1e-6", checks.check_vs(
            asymptotic, dataclasses.replace(
                r_asym, p_value=r_asym.p_value + 1e-6)), True),
        ("Monte-Carlo p-value that is not a count", checks.check_vs(
            simple, dataclasses.replace(
                r_simple, p_value=r_simple.p_value + 1e-4)), True),
        ("EDF statistic off by 1e-6 relative", checks.check_edf(
            edf, dataclasses.replace(
                r_edf, statistic=r_edf.statistic * (1 + 1e-6))), True),
        ("CLI p-value unlike the library's", checks.check_cli(
            cli, dict(r_cli, p_value=r_cli["p_value"] + 1e-3), r_simple), True),
        ("composite fit short of the maximum", checks.check_fit(
            composite, dataclasses.replace(r_comp, estimate=dataclasses.replace(
                r_comp.estimate, params=r_comp.estimate.params * 1.01))), True),
        ("null p-values piled up near zero", checks.check_uniform(
            list(np.linspace(0.0, 0.05, 40)), "batch"), True),
    ]
    failures = 0
    for what, problems, expect_fault in cases:
        ok = bool(problems) == expect_fault
        failures += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - failures} of {len(cases)} checks behave as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
