"""Spans and counts recorded from outside the package.

The tracer places wrappers around the names through which vsgof calls
its own layers (module attributes, family-instance methods and the
``Sample`` constructor hook) and removes them again afterwards.  Nothing
under ``src/`` changes.  A name that no longer exists is skipped and
listed in ``missing``; the time it used to cover then shows up as self
time of its caller and lowers ``trace.coverage``.

Spans nest by call order on one thread (traced passes run at
``threads=1``).  Per-call spans are aggregated as they close; only spans
at depth 0 and 1 are kept as records, because the scalar special
functions and per-row fits open hundreds of thousands of spans per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

_SPECIAL_NAMES = ("digamma", "_trigamma", "std_normal_cdf",
                  "std_normal_quantile", "log_gamma", "log_beta", "harmonic")
FIT_FAMILIES = ("gamma", "weibull", "beta", "fisher")
CDF_FAMILIES = ("normal", "lognormal")

# Counts that depend only on the inputs: a traced pass that repeats on the
# same inputs must reproduce each of them exactly.
EXACT_COUNTS = ("sample.builds", "distributions.variates",
                "distributions.fit_rows", "distributions.fit_failed",
                "distributions.cdf_evals", "special.calls",
                "spacing.window_evals", "spacing.log_evals",
                "vstest.null_reps", "vstest.ignored_fit",
                "vstest.ignored_window", "vstest.repeat_null_calls",
                "edf.null_reps", "power.replicates", "power.inner_calls",
                "power.errors")


class _Frame:
    __slots__ = ("name", "module", "group", "family", "start", "child_s",
                 "span_id", "parent_id", "fit_failed")

    def __init__(self, name, module, group, family, span_id, parent_id):
        self.name = name
        self.module = module
        self.group = group
        self.family = family
        self.span_id = span_id
        self.parent_id = parent_id
        self.child_s = 0.0
        self.fit_failed = 0
        self.start = time.perf_counter()


class Tracer:
    """Collects spans and counts for one traced pass at a time."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []
        self.reset()

    # -- recording ----------------------------------------------------------
    def reset(self) -> None:
        self.stack: list[_Frame] = []
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.module_self: Counter = Counter()
        self.name_self: Counter = Counter()
        self.group_outer: Counter = Counter()  # group or (group, family)
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.depth1_s = 0.0
        self.vs_mc_calls = 0
        self._null_keys: set = set()
        self._next_id = 0

    def _enter(self, name, module, group, family) -> _Frame:
        if group == "loglik" and self.active["fit"]:
            group = "loglik_in_fit"
        parent = self.stack[-1].span_id if self.stack else None
        frame = _Frame(name, module, group, family, self._next_id, parent)
        self._next_id += 1
        self.active[group] += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        self.module_self[frame.module] += dur - frame.child_s
        self.name_self[frame.name] += dur - frame.child_s
        self.active[frame.group] -= 1
        if not self.active[frame.group]:
            self.group_outer[frame.group] += dur
            if frame.family:
                self.group_outer[(frame.group, frame.family)] += dur
        depth = len(self.stack)
        if depth:
            parent = self.stack[-1]
            parent.child_s += dur
            if depth == 1:
                self.depth1_s += dur
                if parent.name == "power.run_power_study":
                    self.counts["power.inner_calls"] += 1
        if depth <= 1:
            self.spans.append((frame.span_id, frame.name, frame.start, end,
                               frame.parent_id))

    def _wrap(self, fn, name, module, group, family=None, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, module, group, family)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if hook is not None:
                    hook(frame, args, kwargs, None, exc)
                raise
            tracer._exit(frame)
            if hook is not None:
                hook(frame, args, kwargs, result, None)
            return result

        return traced

    # -- count hooks --------------------------------------------------------
    def _in_frame(self, name) -> _Frame | None:
        for f in reversed(self.stack):
            if f.name == name:
                return f
        return None

    def _on_draw(self, frame, args, kwargs, result, exc):
        if result is not None:
            self.counts["distributions.variates"] += int(np.size(result))

    def _on_fit(self, frame, args, kwargs, result, exc):
        if self.active["fit"]:  # a row of an enclosing fit_rows call
            return
        self.counts["distributions.fit_rows"] += 1
        if exc is not None:
            self.counts["distributions.fit_failed"] += 1

    def _on_fit_rows(self, frame, args, kwargs, result, exc):
        if result is None:
            return
        ok = np.asarray(result[1], dtype=bool)
        failed = int((~ok).sum())
        self.counts["distributions.fit_rows"] += int(ok.size)
        self.counts["distributions.fit_failed"] += failed
        mc = self._in_frame("vstest.simulate_null_statistics")
        if mc is not None:
            mc.fit_failed += failed

    def _on_cdf(self, frame, args, kwargs, result, exc):
        if result is not None:
            self.counts["distributions.cdf_evals"] += int(np.size(result))

    def _on_special(self, frame, args, kwargs, result, exc):
        self.counts["special.calls"] += 1

    def _on_windows(self, frame, args, kwargs, result, exc):
        if result is None:
            return
        rows, windows = np.shape(result[0])
        n = np.shape(args[0] if args else kwargs["sorted_rows"])[-1]
        self.counts["spacing.window_evals"] += rows * windows
        self.counts["spacing.log_evals"] += rows * windows * n

    def _on_simulate(self, frame, args, kwargs, result, exc):
        if result is None:
            return
        ok = np.asarray(result[2], dtype=bool)
        ignored = int((~ok).sum())
        self.counts["vstest.null_reps"] += int(ok.size)
        self.counts["vstest.ignored_fit"] += frame.fit_failed
        self.counts["vstest.ignored_window"] += ignored - frame.fit_failed

    def _on_vs_test(self, frame, args, kwargs, result, exc):
        if result is None or result.p_value_method != "monte_carlo":
            return
        if result.estimate is not None:
            params = result.estimate.params
        elif len(args) > 2:  # vs_test(x, family, opts)
            params = args[2].fixed_params
        else:
            params = kwargs.get("fixed_params")
        key = (result.family_id, np.asarray(params, dtype=float).tobytes(),
               result.n, result.window_scan.windows.tobytes(), result.relax,
               result.B, result.seed)
        self.vs_mc_calls += 1
        if key in self._null_keys:
            self.counts["vstest.repeat_null_calls"] += 1
        self._null_keys.add(key)

    def _on_power(self, frame, args, kwargs, result, exc):
        if result is None:
            return
        for row in result.rows:
            self.counts["power.replicates"] += row.replicates
            self.counts["power.errors"] += row.errors

    def _on_sample(self, frame, args, kwargs, result, exc):
        self.counts["sample.builds"] += 1

    # -- installing wrappers ------------------------------------------------
    def _patch(self, owner, attr, label, module, group, family=None,
               hook=None, instance=False) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        setattr(owner, attr,
                self._wrap(original, label, module, group, family, hook))
        self._patches.append((owner, attr, original, instance))

    def _patch_shared(self, places, label, module, group, hook=None):
        """Wrap one function once and place the wrapper at every name that
        refers to it (``from x import f`` copies the name)."""
        original = None
        for mod, attr in places:
            original = getattr(mod, attr, None) if mod is not None else None
            if original is not None:
                break
        if original is None:
            self.missing.append(label)
            return
        wrapped = self._wrap(original, label, module, group, None, hook)
        for mod, attr in places:
            if mod is not None and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original, False))

    def install(self, vsgof) -> None:
        mods = {name: _optional_module(f"vsgof.{name}") for name in (
            "vstest", "edf", "power", "cli", "spacing", "special", "sample",
            "distributions")}
        vt, edf, power, cli = (mods["vstest"], mods["edf"], mods["power"],
                               mods["cli"])
        self._patch_shared([(vsgof, "vs_test"), (vt, "vs_test"),
                            (power, "vs_test"), (cli, "vs_test")],
                           "vstest.vs_test", "vstest", "vs", self._on_vs_test)
        self._patch_shared([(vsgof, "monte_carlo_p_value"),
                            (vt, "monte_carlo_p_value")],
                           "vstest.monte_carlo_p_value", "vstest", "mc")
        self._patch_shared([(vt, "simulate_null_statistics")],
                           "vstest.simulate_null_statistics", "vstest",
                           "simulate", self._on_simulate)
        self._patch_shared([(vsgof, "edf_test"), (edf, "edf_test")],
                           "edf.edf_test", "edf", "edf")
        edf_mc = getattr(edf, "edf_mc_p_value", None)
        if edf_mc is not None:
            edf_sig = inspect.signature(edf_mc)

            def on_edf_mc(frame, args, kwargs, result, exc):
                if result is not None:
                    bound = edf_sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts["edf.null_reps"] += int(bound.arguments["B"])
        self._patch_shared([(vsgof, "edf_mc_p_value"),
                            (edf, "edf_mc_p_value"),
                            (power, "edf_mc_p_value")],
                           "edf.edf_mc_p_value", "edf", "edf_mc",
                           on_edf_mc if edf_mc is not None else None)
        self._patch_shared([(vt, "batch_window_values"),
                            (mods["spacing"], "batch_window_values")],
                           "spacing.batch_window_values", "spacing", "window",
                           self._on_windows)
        self._patch_shared([(vsgof, "run_power_study"),
                            (power, "run_power_study"),
                            (cli, "run_power_study")],
                           "power.run_power_study", "power", "power",
                           self._on_power)
        self._patch_shared([(cli, "main")], "cli.main", "cli", "cli")
        for fname in _SPECIAL_NAMES:
            self._patch_shared([(mods["special"], fname), (vt, fname)],
                               f"special.{fname}", "special", "special",
                               self._on_special)
        sample_cls = getattr(mods["sample"], "Sample", None)
        self._patch(sample_cls, "__post_init__", "sample.Sample", "sample",
                    "sample", hook=self._on_sample)

        methods = (("sample", "draw", self._on_draw),
                   ("fit", "fit", self._on_fit),
                   ("fit_rows", "fit", self._on_fit_rows),
                   ("mean_loglik_rows", "loglik", None),
                   ("log_density", "loglik", None),
                   ("cdf", "cdf", self._on_cdf))
        for fid in vsgof.family_ids():
            fam = vsgof.resolve_family(fid)
            for meth, group, hook in methods:
                self._patch(fam, meth, f"distributions.{fid}.{meth}",
                            "distributions", group, fid, hook, instance=True)

    def uninstall(self) -> None:
        for owner, attr, original, instance in reversed(self._patches):
            if instance:
                delattr(owner, attr)  # the class method shows through again
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def metrics(self, pass_s: float) -> dict[str, float]:
        g, c, ms = self.group_outer, self.counts, self.module_self
        window_s = g["window"]
        out = {
            "sample.build_s": g["sample"],
            "sample.builds": c["sample.builds"],
            "distributions.draw_s": g["draw"],
            "distributions.variates": c["distributions.variates"],
            "distributions.fit_s": g["fit"],
        }
        for fid in FIT_FAMILIES:
            out[f"distributions.fit_s.{fid}"] = g[("fit", fid)]
        out.update({
            "distributions.fit_rows": c["distributions.fit_rows"],
            "distributions.fit_failed": c["distributions.fit_failed"],
            "distributions.loglik_s": g["loglik"],
            "distributions.cdf_s": g["cdf"],
        })
        for fid in CDF_FAMILIES:
            out[f"distributions.cdf_s.{fid}"] = g[("cdf", fid)]
        out.update({
            "distributions.cdf_evals": c["distributions.cdf_evals"],
            "special.s": g["special"],
            "special.calls": c["special.calls"],
            "spacing.window_values_s": window_s,
            "spacing.window_evals": c["spacing.window_evals"],
            "spacing.log_evals": c["spacing.log_evals"],
            "spacing.log_evals_per_s": (c["spacing.log_evals"] / window_s
                                        if window_s > 0 else 0.0),
            "vstest.self_s": ms["vstest"],
            "vstest.mc_s": g["mc"],
            "vstest.mc_self_s": (self.name_self["vstest.monte_carlo_p_value"]
                                 + self.name_self["vstest.simulate_null_statistics"]),
            "vstest.null_reps": c["vstest.null_reps"],
            "vstest.ignored_fit": c["vstest.ignored_fit"],
            "vstest.ignored_window": c["vstest.ignored_window"],
            "vstest.repeat_null_calls": c["vstest.repeat_null_calls"],
            "edf.mc_s": g["edf_mc"],
            "edf.self_s": ms["edf"],
            "edf.null_reps": c["edf.null_reps"],
            "power.study_s": g["power"],
            "power.self_s": ms["power"],
            "power.replicates": c["power.replicates"],
            "power.inner_calls": c["power.inner_calls"],
            "power.errors": c["power.errors"],
            "cli.main_s": g["cli"],
            "cli.self_s": ms["cli"],
            "trace.coverage": self.depth1_s / pass_s if pass_s > 0 else 0.0,
        })
        return out


def _optional_module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None
