"""Benchmark of vsgof: vs_test, edf_test, the CLI and power studies.

Run from the repository root:

    python3 perfbench/run.py --workload vs-closed-form --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another in this
process.  A run sets up (import, inputs from the seed, one warm-up call of
each kind), then makes passes over the workload's fixed list of calls,
alternately with ``threads=1`` and ``threads=2``, until ``--seconds`` have
gone.  Seven fresh processes, spread over the passes, time the set-up.
Every pass runs the same data with fresh Monte-Carlo seeds.  Each call is
timed at its best over the run's passes (see README.md for why).  Every output is checked against
computations made apart from the program.  With ``--trace 1`` the run makes
one untraced and one traced pass at ``threads=1`` and reports per-module
numbers instead; a second process repeats both and must reproduce every
exact count.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one process, at most two computing threads: the pool of threads=2 only
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_RUNS = 7  # set-up is timed in this many fresh processes
MIN_ROUNDS = 3  # each call is timed at least three times per thread count
THREADS = (1, 2)
CHILD_TIMEOUT_S = 120


def _import_vsgof():
    """Import vsgof from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import vsgof
        import vsgof.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import vsgof from {src}: {exc}")
    if Path(vsgof.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: vsgof imported from {vsgof.__file__}, "
                 f"not from {src}")
    return vsgof


def _run_child(kind, name, seed):
    """Run this script as a child process of the given kind and return the
    last line it prints; the child has ended when this returns."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--child", kind]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"perfbench: {kind} process exited with {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _run_pass(vsgof, calls, threads):
    """One pass over the calls; returns (seconds, per-call seconds, outputs).
    A call that raises one of the program's errors is a failed operation,
    and its exception stands in for the output."""
    outputs, latencies = [], []
    start = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        try:
            out = call.run(vsgof, threads)
        except (vsgof.VsgofError, workloads.CliError) as exc:
            out = exc
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs


def _setup(vsgof, name, seed):
    """Inputs from the seed plus one untimed warm-up call of each kind."""
    wl = workloads.build(name, seed, vsgof)
    for call in wl.warmups:
        call.run(vsgof, 1)
    return wl


def _setup_once(name, seed):
    """The time, in a fresh process, from the first statement of this script
    to the end of ``_setup``: import, inputs and warm-up calls, as a user's
    process pays them."""
    return float(_run_child("setup", name, seed))


def _measure(vsgof, wl, seconds):
    """Timed rounds of one pass at threads=1 and one at threads=2, in
    alternating order, until the next round would overrun ``seconds``.
    Pass p makes ``wl.pass_calls(p)``.  The SETUP_RUNS set-up processes run
    one before the first round and one after each round, so that they
    sample the whole run and not one moment of it."""
    times = {t: [] for t in THREADS}
    latencies = {t: [] for t in THREADS}
    passes = []  # (threads, calls, outputs)
    setups = [_setup_once(wl.name, wl.seed)]
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for threads in (THREADS if rounds % 2 == 0 else THREADS[::-1]):
            calls = wl.pass_calls(len(passes))
            dt, lat, outputs = _run_pass(vsgof, calls, threads)
            times[threads].append(dt)
            latencies[threads].append(lat)
            passes.append((threads, calls, outputs))
        rounds += 1
        if len(setups) < SETUP_RUNS:
            setups.append(_setup_once(wl.name, wl.seed))
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    setups += [_setup_once(wl.name, wl.seed)
               for _ in range(SETUP_RUNS - len(setups))]
    return times, latencies, passes, rounds, statistics.median(setups)


def _fingerprints(calls, outputs):
    return [workloads.fingerprint(c, o) for c, o in zip(calls, outputs)]


def run_untraced(vsgof, name, seed, seconds, report_peak):
    wl = _setup(vsgof, name, seed)
    times, latencies, passes, rounds, setup_s = _measure(vsgof, wl, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    problems, faults = workloads.check_passes(
        vsgof, [(calls, outs) for _, calls, outs in passes])
    # threads=1 against threads=2: the first threads=2 pass, made again at
    # threads=1 after the timed passes, must give the same outputs bit for bit
    _, calls, outs = next(p for p in passes if p[0] == 2)
    _, _, again = _run_pass(vsgof, calls, 1)
    problems += workloads.check_same(_fingerprints(calls, outs),
                                     _fingerprints(calls, again),
                                     "threads=2 pass made again at threads=1")
    if name == "power-scenarios":
        problems += workloads.check_tabulated(vsgof)
    # each call at its best over the run's passes, per thread count
    best = {t: [min(col) for col in zip(*latencies[t])] for t in THREADS}
    ok_best = [b for b, o in zip(best[1], passes[0][2])
               if not isinstance(o, BaseException)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(best[1]), "s"),
        "pass_s.t2": (sum(best[2]), "s"),
        "call_s.p50": (statistics.median(ok_best), "s"),
    }
    if report_peak:
        metrics["peak_rss_mb"] = (peak_mb, "MB")
    detail = {
        "passes": {str(t): times[t] for t in THREADS},
        "rounds": rounds,
        "calls": len(ok_best),
        "best_call_s": {str(t): best[t] for t in THREADS},
        "failed_calls": faults[0],
        "check_s": time.perf_counter() - check_start,
    }
    return _result(problems, len(passes) * len(wl.calls),
                   sum(map(len, faults)), metrics, detail)


def run_traced(vsgof, name, seed, replay=True):
    """One untraced pass with the seeds of pass 1, then one traced pass with
    those of pass 0, both at threads=1.  With ``replay`` a second process
    makes the same two passes, and its traced pass must reproduce every
    exact count and output; otherwise return those counts and outputs."""
    wl = _setup(vsgof, name, seed)
    base_calls, calls = wl.pass_calls(1), wl.pass_calls(0)
    base_s, _, base_outs = _run_pass(vsgof, base_calls, 1)
    tracer = spans.Tracer()
    tracer.install(vsgof)
    try:
        tracer.reset()
        traced_s, _, outs = _run_pass(vsgof, calls, 1)
        found = tracer.metrics(traced_s)
    finally:
        tracer.uninstall()
    counts = {key: found[key] for key in spans.EXACT_COUNTS}
    digest = hashlib.sha256(
        repr(_fingerprints(calls, outs)).encode()).hexdigest()
    if not replay:
        return {"counts": counts, "outputs": digest}

    problems, faults = workloads.check_passes(
        vsgof, [(calls, outs), (base_calls, base_outs)])
    again = json.loads(_run_child("replay", name, seed))
    for key in spans.EXACT_COUNTS:
        if counts[key] != again["counts"][key]:
            problems.append(f"fault: exact count {key} is {counts[key]} in one "
                            f"process and {again['counts'][key]} in another")
    if digest != again["outputs"]:
        problems.append("fault: the traced pass gave other outputs in a "
                        "second process")
    found["trace.overhead_s"] = traced_s - base_s
    metrics = {k: (v, _unit(k)) for k, v in found.items()}
    detail = {
        "failed_calls": faults[0],
        "untraced_pass_s": base_s,
        "traced_pass_s": traced_s,
        "missing_names": tracer.missing,
        "vs_mc_calls": tracer.vs_mc_calls,
        "repeat_null_share": (found["vstest.repeat_null_calls"]
                              / tracer.vs_mc_calls
                              if tracer.vs_mc_calls else 0.0),
        "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                  for i, n, s, e, p in tracer.spans],
    }
    return _result(problems, 2 * len(wl.calls), sum(map(len, faults)),
                   metrics, detail)


def _unit(name):
    if name == "trace.coverage":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    timed = name.endswith(("_s", ".s")) or "_s." in name
    return "s" if timed else "count"


def _result(problems, attempted, failed, metrics, detail):
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": dict(detail, problems=problems),
    }


def _print_summary(name, res):
    """Human-readable lines ahead of the JSON result."""
    d = res["detail"]
    print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    for call in d["failed_calls"]:
        print(f"  failed: {call}")
    notes = {}
    if "passes" in d:
        k = len(d["passes"]["1"])
        notes = {"setup_s": f"median over {SETUP_RUNS} fresh processes",
                 "pass_s": f"sum over calls of each call's best of {k}",
                 "pass_s.t2": f"the same at threads=2, best of {k}",
                 "call_s.p50": f"median over {d['calls']} calls, each best of {k}"}
    for key, m in res["metrics"].items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key} = {m['value']:.6g} {m['unit']}{note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the child processes this script starts: one timed set-up, or the
    # traced run made again for its exact counts
    parser.add_argument("--child", choices=("setup", "replay"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    vsgof = _import_vsgof()
    if args.child == "setup":
        _setup(vsgof, args.workload, args.seed)
        print(repr(time.perf_counter() - _T0))
        return 0
    if args.child == "replay":
        print(json.dumps(run_traced(vsgof, args.workload, args.seed,
                                    replay=False)))
        return 0

    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            res = run_traced(vsgof, name, args.seed)
        else:
            res = run_untraced(vsgof, name, args.seed, args.seconds,
                               report_peak=len(names) == 1)
        results[name] = res
        res["detail"]["run_s"] = time.perf_counter() - _T0
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        for problem in res["detail"]["problems"]:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        _print_summary(name, res)

    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name,
                              **{k: res[k] for k in ("correct", "attempted",
                                                     "failed", "metrics")}}))
        metrics = {f"{name}/{k}": v for name, r in results.items()
                   for k, v in r["metrics"].items()}
        if not args.trace:
            # one process ran every workload: its peak is the whole run's
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
            print(f"all: peak_rss_mb = {peak:.6g} MB (the whole process)")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics,
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0


sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
