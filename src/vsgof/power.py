"""Scenario-driven power studies: rejection rates of the spacing-based
test and the EDF references against a chosen alternative.

A scenario draws ``replicates`` samples of each size ``n`` from the
alternative (optionally affine-shifted, e.g. ``1 + LN(0,1)``), runs the
selected tests against the null family, and reports the share of p-values
at or below ``alpha`` per (n, test) cell, with a binomial standard error.
Replicates that end in a test error (ties, constraint violations, failed
fits) are counted in a separate column, never as rejections.

Scenario files are flat ``key = value`` text (``#`` starts a comment)::

    name        = pareto-vs-shifted-lognormal
    null_family = dpareto
    null_params = 1, 1        # omit for a composite (fitted) null
    alt_family  = dlnorm
    alt_params  = 0, 1
    alt_shift   = 1           # sample = alt_shift + alt_scale * draw
    tests       = vs, ks, cvm, ad
    n           = 20, 30, 50, 100
    alpha       = 0.05
    replicates  = 1000
    B           = 500
    seed        = 20260816

Optional keys ``alt_scale`` (default 1), ``delta``, ``extend``, ``relax``
and ``simulate`` tune the spacing test; ``simulate`` is ``auto`` (choose
by sample size, like the test itself), ``true`` (always Monte-Carlo) or
``false`` (always the asymptotic formula) and has no effect on the EDF
tests, whose p-values are always simulated.  EDF tests need a simple
null, so ``null_params`` is required whenever ks/cvm/ad appear in
``tests``.

Reproducibility: every (n, test) cell owns a branch of the scenario's
seed sequence and runs, in order, in seeded chunks of ``CELL_CHUNK`` = 50
replicates, each replicate drawing its inner Monte-Carlo seed from the
chunk stream right after its sample.  A chunk's null matrices are
stacked in one ``vsgof._mc.null_map``, each drawn from its own inner seed
exactly as ``vs_test``/``edf_test`` would draw it, and curtailed: a
replicate's null stops once its p-value can only exceed ``alpha``.  The
rows that are drawn keep their bits, so every replicate keeps the
decision p <= alpha, or the error, of its own test call, and the tables
equal those of one call per replicate; ``threads`` shares only the
evaluations, so results are bitwise identical for any value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from . import distributions as dist
from . import edf, vstest
from ._mc import CELL_CHUNK, check_count, check_seed, seed_chunks
from .errors import DataError, ParameterError
from .vstest import _SIMULATE_FLAGS, TestOptions, _check_delta

__all__ = [
    "PowerScenario",
    "PowerRow",
    "PowerTable",
    "parse_scenario_file",
    "run_power_study",
]

_TEST_IDS = ("vs", "ks", "cvm", "ad")


@dataclass(frozen=True)
class PowerScenario:
    name: str
    null_family: str
    alt_family: str
    alt_params: tuple[float, ...]
    n_values: tuple[int, ...]
    seed: int
    null_params: tuple[float, ...] | None = None  # None = composite null
    alt_shift: float = 0.0
    alt_scale: float = 1.0
    tests: tuple[str, ...] = ("vs",)
    alpha: float = 0.05
    replicates: int = 1000
    B: int = 500
    delta: float | None = None
    extend: bool = False
    relax: bool = False
    simulate: str = "auto"  # "auto" | "true" | "false" (spacing test only)

    def __post_init__(self):
        if not self.name:
            raise ParameterError("scenario needs a nonempty name")
        dist.resolve_family(self.null_family)
        if self.null_params is not None:
            dist.validate_params(self.null_family, self.null_params)
        dist.validate_params(self.alt_family, self.alt_params)
        _check_delta(self.delta)
        if not self.tests:
            raise ParameterError("scenario selects no tests")
        for t in self.tests:
            if t not in _TEST_IDS:
                raise ParameterError(
                    f"unknown test {t!r}; choose from: {', '.join(_TEST_IDS)}")
        edf = [t for t in self.tests if t != "vs"]
        if edf and self.null_params is None:
            raise ParameterError(
                f"tests {', '.join(edf)} need a fully specified null: "
                "set null_params")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        check_count(self.replicates, "replicates")
        check_count(self.B, "B")
        check_seed(self.seed)
        if not self.n_values:
            raise ParameterError("scenario lists no sample sizes")
        n_min = 3 if "vs" in self.tests else 2
        for n in self.n_values:
            check_count(n, "sample size")
            if n < n_min:
                raise ParameterError(
                    f"sample size {n} is too small (minimum {n_min} for the "
                    "selected tests)")
        if not (math.isfinite(self.alt_shift) and 0.0 < self.alt_scale < math.inf):
            raise ParameterError(
                "alt_shift must be finite and alt_scale finite and positive, "
                f"got {self.alt_shift} and {self.alt_scale}")
        if self.simulate not in _SIMULATE_FLAGS:
            raise ParameterError(
                f"simulate must be one of {', '.join(_SIMULATE_FLAGS)}, "
                f"got {self.simulate!r}")
        if self.extend and self.simulate == "false":
            raise ParameterError(
                "extend=true forces Monte-Carlo p-values and cannot be "
                "combined with simulate=false")


@dataclass(frozen=True)
class PowerRow:
    scenario: str
    n: int
    test: str
    rejections: int
    errors: int
    replicates: int

    @property
    def power_pct(self) -> float:
        return 100.0 * self.rejections / self.replicates

    @property
    def se_pct(self) -> float:
        p = self.rejections / self.replicates
        return 100.0 * math.sqrt(p * (1.0 - p) / self.replicates)


@dataclass(frozen=True)
class PowerTable:
    scenario: PowerScenario
    rows: tuple[PowerRow, ...] = field(default_factory=tuple)

    def row(self, n: int, test: str) -> PowerRow:
        for r in self.rows:
            if r.n == n and r.test == test:
                return r
        raise KeyError(f"no ({n}, {test}) cell in this table")

    def to_text(self) -> str:
        out = StringIO()
        out.write(f"scenario: {self.scenario.name}\n")
        out.write(f"alpha={self.scenario.alpha}  "
                  f"replicates={self.scenario.replicates}  "
                  f"B={self.scenario.B}  seed={self.scenario.seed}\n")
        header = f"{'n':>6}  {'test':<4}  {'power_pct':>9}  {'se_pct':>7}  {'errors':>6}"
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for r in self.rows:
            out.write(f"{r.n:>6}  {r.test:<4}  {r.power_pct:>9.2f}  "
                      f"{r.se_pct:>7.3f}  {r.errors:>6}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = ["scenario,n,test,power_pct,se_pct,errors"]
        for r in self.rows:
            lines.append(f"{r.scenario},{r.n},{r.test},"
                         f"{r.power_pct:.2f},{r.se_pct:.3f},{r.errors}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------

_SCALARS = {
    "name": str,
    "null_family": str,
    "alt_family": str,
    "alt_shift": float,
    "alt_scale": float,
    "alpha": float,
    "replicates": int,
    "B": int,
    "seed": int,
    "delta": float,
    "extend": bool,
    "relax": bool,
    "simulate": str,
}
_LISTS = {"null_params": float, "alt_params": float, "tests": str, "n": int}
_REQUIRED = ("name", "null_family", "alt_family", "alt_params", "n", "seed")


def _parse_scalar(kind, raw: str, lineno: int, key: str):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise DataError(f"line {lineno}: {key} expects true/false, got {raw!r}")
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise DataError(
            f"line {lineno}: cannot read {key} value {raw!r} as "
            f"{kind.__name__}") from None


def parse_scenario_file(path) -> PowerScenario:
    """Read one scenario from a flat key=value file (grammar above).

    Raises DataError with a line number for malformed lines or values and
    ParameterError for semantically invalid scenarios.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read scenario file {path}: {exc}") from None

    found: dict[str, object] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(
                f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key in found:
            raise DataError(f"line {lineno}: duplicate key {key!r}")
        if key in _SCALARS:
            found[key] = _parse_scalar(_SCALARS[key], raw, lineno, key)
        elif key in _LISTS:
            kind = _LISTS[key]
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if not items:
                raise DataError(f"line {lineno}: {key} lists no values")
            found[key] = tuple(
                _parse_scalar(kind, item, lineno, key) for item in items)
        else:
            known = ", ".join(sorted((*_SCALARS, *_LISTS)))
            raise DataError(
                f"line {lineno}: unknown key {key!r} (known keys: {known})")

    missing = [k for k in _REQUIRED if k not in found]
    if missing:
        raise DataError(
            f"scenario file {path} is missing required keys: "
            f"{', '.join(missing)}")
    if "n" in found:
        found["n_values"] = found.pop("n")
    return PowerScenario(**found)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Study runner
# ---------------------------------------------------------------------------

def _cell_chunk(scn: PowerScenario, n: int, test: str, count: int,
                seed_seq: np.random.SeedSequence, threads: int
                ) -> tuple[int, int]:
    """(rejections, errors) over `count` replicates of one (n, test) cell.

    Each replicate draws its sample and then its inner Monte-Carlo seed
    from the chunk stream; the test then runs on all of them at once, with
    the p-value each would get from its own vs_test/edf_test call (NaN
    where that call raises a VsgofError).
    """
    gen = np.random.default_rng(seed_seq)
    alt = dist.resolve_family(scn.alt_family)
    alt_p = alt.validate_params(scn.alt_params)
    X = np.empty((count, n))
    seeds = np.empty(count, dtype=np.int64)
    for i in range(count):
        X[i] = scn.alt_shift + scn.alt_scale * alt.sample(alt_p, n, gen)
        seeds[i] = gen.integers(2 ** 63)
    fam = dist.resolve_family(scn.null_family)
    if test == "vs":
        p, cause = vstest._p_value_rows(fam, X, seeds, TestOptions(
            delta=scn.delta, extend=scn.extend, relax=scn.relax,
            simulate_p_value=_SIMULATE_FLAGS[scn.simulate], B=scn.B,
            fixed_params=scn.null_params), threads=threads, alpha=scn.alpha)
    else:
        p, cause = edf._p_value_rows(fam, fam.validate_params(scn.null_params),
                                     test, X, seeds, scn.B, threads=threads,
                                     alpha=scn.alpha)
    return int((p <= scn.alpha).sum()), int(np.count_nonzero(cause))


def run_power_study(scenario: PowerScenario, *, threads: int = 1) -> PowerTable:
    """Estimate rejection rates for every (n, test) cell of the scenario.

    The cells and their chunks run in order; ``threads`` shares each
    chunk's null evaluations between the calling thread and the kept
    pool.  The table is bitwise identical for any value.
    """
    threads = check_count(threads, "threads")
    cells = [(n, t) for n in scenario.n_values for t in scenario.tests]
    cell_seqs = np.random.SeedSequence(scenario.seed).spawn(len(cells))
    rows = []
    for (n, t), seq in zip(cells, cell_seqs):
        rejections, errors = map(sum, zip(*(
            _cell_chunk(scenario, n, t, size, child, threads)
            for size, child in seed_chunks(seq, scenario.replicates,
                                           CELL_CHUNK))))
        rows.append(PowerRow(scenario.name, n, t, rejections, errors,
                             scenario.replicates))
    return PowerTable(scenario=scenario, rows=tuple(rows))
