"""The ten supported null families.

Each family provides, under a common interface: parameter validation,
log-density, CDF, quantile (generalized inverse), exact sampling, and
maximum-likelihood fitting.  Each family has one MLE, ``fit_rows``: it
fits every row of a (B, n) Monte-Carlo matrix and flags, not raises, a row
that fails or is degenerate.  It also returns each row's maximized mean
log-likelihood (NaN where the row fails), the null term of a composite
test statistic, so that no caller takes a second pass over the rows.
Every single-sample fit is row 0 of ``fit_rows``, so a sample and its null
replicates share one estimator; the module function ``fit_rows`` returns
the parameters and flags only.  Six families have textbook closed forms,
and their log-likelihood comes from the same sufficient statistics; a row
whose mean (or spread), or whose fitted rate, is beyond the float range
fails.  Gamma, weibull, beta and fisher share one
Newton ascent of the mean log-likelihood l over the rows not yet converged
(``_newton_ascent``): a closed-form Newton step, or the unit gradient where
the Hessian is not negative definite, halved until l does not fall, until
the step promises a rise of at most 1e-13 max(1, |l|).  Each family
supplies its start, l, and the gradient and Hessian of l: gamma and weibull
in the shape of the profile likelihood, beta in (a, b), fisher in the log
degrees of freedom.  Gamma and beta also give the size of the log-gamma
terms their l is summed from, whose rounding can hide its last gains.  A
fisher row fails once its ascent takes df1 or df2 above 1e5: its likelihood
still rises towards the scaled chi-square limit of F, and the computed
log-density, accurate to ~1e-11 at 1e5, drifts beyond it.  Gamma, weibull
and beta return l at the point the ascent returns, fisher the mean
log-density there.
The standard normal CDF and its inverse (``ndtr``, ``ndtri``), digamma,
trigamma (as ``zeta(2, x)``) and log-gamma come from ``scipy.special``.

Families are addressed either by id ("normal") or by the d-prefixed call
name ("dnorm").  Parameter conventions:

==========  =======================  ==========================
family      call                     parameters (in order)
==========  =======================  ==========================
uniform     dunif                    Min a, Max b (a < b)
normal      dnorm                    Mean, St. dev.
lognormal   dlnorm                   Location, Scale (of log x)
exponential dexp                     Rate
gamma       dgamma                   Shape, Rate
weibull     dweibull                 Shape, Scale
pareto      dpareto                  mu (shape), c (scale/min)
fisher      df                       df1, df2
laplace     dlaplace                 Location, Scale
beta        dbeta                    Shape1, Shape2
==========  =======================  ==========================

Parameter and support constraints are class data: ``positive_params``
names the parameters that must be > 0 and ``fit_interval`` the open
interval fitted data must lie in, and the base class builds every check
and message from them; only uniform adds its own ``Min < Max`` check.
The support is that interval too, except where it depends on the
parameters or holds its edge: uniform, exponential and pareto say so in
``outside_support``.

Sampling draws from a caller-supplied ``numpy.random.Generator``.  The
base class samples by inverse CDF (uniform, exponential, weibull, pareto,
laplace); normal/lognormal transform standard normals, and gamma/beta/fisher
use the generator's native rejection/ratio samplers.  ``sample_pit`` gives
the probability integral transform F(X) of the draw ``sample`` makes from
the same generator state, in two steps: ``pit_draw`` takes from the
generator what it gives, and ``pit_of`` maps that to the PIT.  For an
inverse-CDF family X = Q(U): the draw is U, and F(X) is taken to be U
itself, which differs from the computed F(Q(U)) by rounding only.  A
family with its own sampler (``_Sampled``) draws X and computes F(X).

The module functions are the one input boundary: they validate the
parameters and convert the values to float arrays once.  The family methods
take validated parameters and float arrays, never warn (a value beyond the
float range becomes inf, an undefined one NaN), and flag the rows they
cannot fit: a row ``fit_rows`` flags ok passes ``param_rows_ok``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, betaincinv, gammainc, gammainccinv,
                           gammaincinv, gammaln, ndtr, ndtri, psi, zeta)

from .errors import CapabilityError, DataError, EstimationError, ParameterError
from .sample import Sample, as_sample

__all__ = [
    "FitResult",
    "family_ids",
    "resolve_family",
    "validate_params",
    "log_density",
    "cdf",
    "quantile",
    "sample",
    "fit_mle",
    "fit_rows",
    "mean_loglik_rows",
    "closed_form_entropy",
    "default_delta",
    "param_labels",
    "call_name",
]

_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny


def _lbeta(a, b):
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def _betaincinv(a, b, q):
    """``betaincinv``, or the small-q series y0 (1 + (b - 1) y0 / (a + 1)),
    y0 = (a B(a, b) q)^(1/a) from its log, for q > 0 below the smallest
    normal float (where ``betaincinv`` can be 20 % off) or where it fails
    (NaN, or the smallest normal float, at q below ~1e-200).  Where that
    leaves [0, 1], as at shapes such as (300, 1e300) and (5e-301, 350),
    the one-sided gamma limit: ``gammaincinv(a, q) / b`` for b >= a, else
    ``1 - gammainccinv(b, q) / a``."""
    y = betaincinv(a, b, q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y0 = np.exp((np.log(a) + _lbeta(a, b) + np.log(q)) / a)
        series = y0 * (1.0 + (b - 1.0) * y0 / (a + 1.0))
        y = np.where((q > 0) & ((q < _TINY) | ~(y > _TINY)), series, y)
        inside = (y >= 0.0) & (y <= 1.0)  # False for NaN
        if not inside.all():
            y = np.where(inside, y, gammaincinv(a, q) / b if b >= a
                         else 1.0 - gammainccinv(b, q) / a)
    return y[()]


def _spread(X: np.ndarray) -> np.ndarray:
    """Rows whose observations are not all equal."""
    return X.max(axis=1) > X.min(axis=1)


def _newton_step(g, H):
    """Newton step -H⁻¹g of each row, solved in closed form for one
    parameter (``H = (h,)``) or two (``H = (h11, h12, h22)``), where H is
    negative definite (the returned mask), else the unit gradient; and the
    rise g·step each step promises to first order (the Newton decrement)."""
    if len(g) == 1:
        (g1,), (a,) = g, H
        newton, G = a < 0.0, g1[:, None]
        step, unit = -G / a[:, None], G / np.abs(G)
    else:
        (g1, g2), (a, b, c) = g, H
        det = a * c - b * b
        newton, G = (a < 0.0) & (det > 0.0), np.column_stack(g)
        step = np.column_stack([b * g2 - c * g1, b * g1 - a * g2]) / det[:, None]
        unit = G / np.hypot(g1, g2)[:, None]
    step = np.where(newton[:, None], step, unit)
    return step, (G * step).sum(axis=1), newton


def _newton_ascent(theta, rows, loglik, grad_hess, ll=None, top=math.inf,
                   terms=None):
    """Newton ascent of the mean log-likelihood l on the ``rows`` of
    ``theta`` (rows x k, k = 1 or 2), in place; returns the converged mask,
    and failed rows become NaN.  ``loglik(r, *t)`` is l of rows ``r`` at
    coordinates ``t`` (``ll``: l at the start, by default from ``loglik``);
    ``grad_hess(r, *t)`` gives the gradient and Hessian as
    :func:`_newton_step` takes them, only at a row's start or at the last
    point ``loglik`` saw for it.

    A step is halved until l does not fall.  A row converges once its step
    promises a rise of at most 1e-13 max(1, |l|), taking a last Newton step
    or standing where the step is the gradient (a tolerance on the gradient
    alone would fail rows whose l no longer resolves the gain).  Where l is
    summed from larger terms (of size ``terms(r, *t)``), their rounding can
    hide the gain first: a row whose Newton step finds no rise in l,
    promising at most 1e-13 ``terms``, converges at its Newton point where
    l is finite and the decrement there no larger, else where it stands.  A
    row whose step halves below 1e-18 otherwise, that still moves after 200
    steps, or that takes a parameter above ``top`` fails.
    """
    ok = np.zeros(theta.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        th = theta[rows]  # the rows still climbing, their points and their l
        l = loglik(rows, *th.T) if ll is None else ll[rows]
        for _ in range(200):
            if rows.size == 0:
                break
            step, dec, newton = _newton_step(*grad_hess(rows, *th.T))
            done = dec <= 1e-13 * np.maximum(1.0, np.abs(l))
            pend, lam, th0, l0 = np.flatnonzero(~done), 1.0, th.copy(), l.copy()
            while pend.size and lam > 1e-18:
                trial = th[pend] + lam * step[pend]
                t = loglik(rows[pend], *trial.T)
                take = t >= l[pend]
                hit = pend[take]
                th[hit], l[hit] = trial[take], t[take]
                pend, lam = pend[~take], 0.5 * lam
            k = np.flatnonzero((l == l0) & newton & ~done)  # no rise in l
            if terms is not None and k.size:
                k = k[dec[k] <= 1e-13 * terms(rows[k], *th0[k].T)]
                th[k], done[k] = th0[k], True
                pt = th[k] + step[k]  # the Newton point, if it is no worse
                fine = np.isfinite(loglik(rows[k], *pt.T))
                _, dec1, nt1 = _newton_step(*grad_hess(rows[k[fine]], *pt[fine].T))
                fine[fine] = nt1 & (dec1 <= dec[k[fine]])
                step[k[~fine]] = 0.0
            step[~newton] = 0.0  # a gradient step is not taken on converging
            theta[rows[done]] = th[done] + step[done]
            ok[rows[done]] = True
            live = ~done & (th <= top).all(axis=1)
            live[pend] = False
            rows, th, l = rows[live], th[live], l[live]
    ok &= (theta <= top).all(axis=1)
    theta[~ok] = np.nan
    return ok


@dataclass(frozen=True, slots=True)
class FitResult:
    """Parameters attached to a test: fitted or user-fixed."""

    family_id: str
    params: np.ndarray
    provenance: str  # "mle" or "user_fixed"

    def labelled(self) -> dict[str, float]:
        fam = resolve_family(self.family_id)
        return {name: float(v) for name, v in zip(fam.param_names, self.params)}


class _Family:
    family_id: str = ""
    call: str = ""
    param_names: tuple[str, ...] = ()
    default_delta: float = 1.0 / 12.0
    # human description of the support, used in error messages
    support_text: str = "the real line"
    # indices of the parameters that must be > 0
    positive_params: tuple[int, ...] = ()
    # open interval that data must lie in to be fitted; None: the real line
    fit_interval: tuple[float, float] | None = None
    # whether ``pit_of`` evaluates the CDF, rather than passing U through
    pit_is_cdf: bool = False

    # -- validation ---------------------------------------------------------
    def validate_params(self, params) -> np.ndarray:
        p = np.atleast_1d(np.asarray(params, dtype=float))
        if p.shape != (len(self.param_names),):
            raise ParameterError(
                f"{self.family_id} expects {len(self.param_names)} parameter(s) "
                f"({', '.join(self.param_names)}), got {p.shape[0]}"
            )
        if not np.all(np.isfinite(p)):
            raise ParameterError(f"{self.family_id} parameters must be finite, got {p.tolist()}")
        self._check_params(p)
        return p

    def param_rows_ok(self, P: np.ndarray) -> np.ndarray:
        """Which rows of a (rows, k) parameter matrix ``validate_params``
        accepts (e.g. fitted parameters)."""
        return np.isfinite(P).all(axis=-1) & self._constraint_rows(P)

    def _constraint_rows(self, P: np.ndarray) -> np.ndarray:
        """The family's constraints on finite parameter rows (``P.T[i]`` is
        parameter i of every row, or of the one vector)."""
        ok = True
        for i in self.positive_params:
            ok = ok & (P.T[i] > 0)
        return ok

    def _check_params(self, p: np.ndarray) -> None:
        pos = self.positive_params
        if not self._constraint_rows(p):
            need = " and ".join(f"{self.param_names[i]} > 0" for i in pos)
            got = p[pos[0]] if len(pos) == 1 else p.tolist()
            raise ParameterError(f"{self.family_id} requires {need}, got {got}")

    def outside_fit_interval(self, X: np.ndarray) -> np.ndarray:
        """Elementwise: the values a fit rejects (not inside ``fit_interval``)."""
        if self.fit_interval is None:
            return np.zeros(np.shape(X), dtype=bool)
        lo, hi = self.fit_interval
        return (X <= lo) | (X >= hi)

    def outside_support(self, params, x: np.ndarray) -> np.ndarray:
        """Elementwise: the values outside the support under ``params``
        (``support_text``); by default those outside ``fit_interval``."""
        return self.outside_fit_interval(x)

    def validate_fit_data(self, x: np.ndarray) -> None:
        """Support precondition for fitting (independent of parameter values)."""
        bad = np.flatnonzero(self.outside_fit_interval(x))
        if bad.size:
            lo, hi = self.fit_interval
            need = ("strictly positive observations" if hi == math.inf
                    else f"observations strictly inside ({lo:g}, {hi:g})")
            raise DataError(f"{self.family_id} requires {need}; "
                            f"violations at positions {bad.tolist()[:10]}")

    # -- core quantities ----------------------------------------------------
    def log_density(self, params, x):
        raise NotImplementedError

    def cdf(self, params, x):
        raise NotImplementedError

    def quantile(self, params, q):
        raise NotImplementedError

    def pit_draw(self, params, size, rng: np.random.Generator) -> np.ndarray:
        """What the generator gives for a draw: the uniforms U of an
        inverse-CDF draw Q(U).  Generator.random() is [0, 1): a 0 is nudged
        into (0, 1)."""
        U = rng.random(size)
        return np.maximum(U, _TINY, out=U)

    def pit_of(self, params, V: np.ndarray) -> np.ndarray:
        """The PIT of the draw whose ``pit_draw`` is V: U itself."""
        return V

    def sample_pit(self, params, size, rng: np.random.Generator) -> np.ndarray:
        """The PIT of the draw ``sample`` makes from the same generator."""
        return self.pit_of(params, self.pit_draw(params, size, rng))

    def sample(self, params, size, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draw; families with a faster exact sampler override it
        (``_Sampled``)."""
        return self.quantile(params, self.pit_draw(params, size, rng))

    def closed_form_entropy(self, params) -> float:
        raise CapabilityError(
            f"no closed-form entropy is implemented for the {self.family_id} family"
        )

    # -- batch helpers (Monte-Carlo engine) ---------------------------------
    def fit_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-wise MLE for a (B, n) matrix; returns (params (B,k), ok (B,),
        the maximized mean log-likelihood (B,), NaN where not ok)."""
        raise NotImplementedError

    def mean_loglik_rows(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Mean log-density of each row of X under the matching row of P."""
        return self.log_density(P.T[:, :, None], X).mean(axis=1)

    def fit_error(self, x: np.ndarray) -> EstimationError:
        """The error of a failed fit of one sample, from its data alone:
        "degenerate" if they have no spread, "did not converge" otherwise."""
        if not _spread(x[None, :])[0]:
            return EstimationError(
                f"{self.family_id} MLE degenerate: data have no spread")
        return EstimationError(f"{self.family_id} MLE did not converge")


class _Sampled(_Family):
    """A family with its own exact sampler: the PIT of a draw is its CDF."""

    pit_is_cdf = True

    def pit_draw(self, params, size, rng):
        return self.sample(params, size, rng)

    def pit_of(self, params, V):
        return self.cdf(params, V)


def _log_width(a, b):
    """log(b - a) for a < b, also where b - a overflows."""
    with np.errstate(over="ignore"):
        w = b - a
    return np.where(w < np.inf, np.log(w),
                    np.log(0.5 * b - 0.5 * a) + _LOG_2)


class _Uniform(_Family):
    family_id = "uniform"
    call = "dunif"
    param_names = ("Min", "Max")
    support_text = "the interval [Min, Max]"

    def _constraint_rows(self, P):
        return P.T[0] < P.T[1]

    def _check_params(self, p):
        if not self._constraint_rows(p):
            raise ParameterError(f"uniform requires Min < Max, got {p.tolist()}")

    def outside_support(self, params, x):
        return (x < params[0]) | (x > params[1])

    # Where Max - Min overflows, the CDF and quantile work on the halves of
    # Min, Max and x; Python floats overflow to inf without a warning

    def log_density(self, params, x):
        a, b = params[0], params[1]
        inside = (x >= a) & (x <= b)
        return np.where(inside, -_log_width(a, b), -np.inf)

    def cdf(self, params, x):
        a, b = float(params[0]), float(params[1])
        with np.errstate(over="ignore"):  # x far outside [a, b]: clipped
            if b - a < math.inf:
                return np.clip((x - a) / (b - a), 0.0, 1.0)
            return np.clip((0.5 * x - 0.5 * a) / (0.5 * b - 0.5 * a), 0.0, 1.0)

    def quantile(self, params, q):
        a, b = float(params[0]), float(params[1])
        # a + (b - a) q can round above b: to 0 at (-1e300, -700) and q = 1
        if b - a < math.inf:
            return np.minimum(a + (b - a) * q, b)
        return np.minimum(2.0 * (0.5 * a + (0.5 * b - 0.5 * a) * q), b)

    def fit_rows(self, X):
        lo, hi = X.min(axis=1), X.max(axis=1)
        ok = (hi > lo) & (lo > -np.inf) & (hi < np.inf)  # False for NaN
        ll = -_log_width(np.where(ok, lo, np.nan), np.where(ok, hi, np.nan))
        return np.column_stack([lo, hi]), ok, ll

    def closed_form_entropy(self, params) -> float:
        return float(_log_width(params[0], params[1]))


class _Normal(_Sampled):
    family_id = "normal"
    call = "dnorm"
    param_names = ("Mean", "St. dev.")
    positive_params = (1,)

    def log_density(self, params, x):
        mu, sd = params[0], params[1]
        with np.errstate(over="ignore"):  # -inf: below the float range
            z = (x - mu) / sd
            return -np.log(sd) - 0.5 * _LOG_2PI - 0.5 * z * z

    def cdf(self, params, x):
        mu, sd = params[0], params[1]
        with np.errstate(over="ignore"):
            return ndtr((x - mu) / sd)

    def quantile(self, params, q):
        mu, sd = params[0], params[1]
        return mu + sd * ndtri(q)

    def sample(self, params, size, rng):
        mu, sd = float(params[0]), float(params[1])
        with np.errstate(over="ignore"):  # inf: beyond the float range
            return mu + sd * rng.standard_normal(size)

    def fit_rows(self, X):
        # a mean or spread beyond the float range is not a fit
        with np.errstate(over="ignore", invalid="ignore"):
            mu = X.mean(axis=1)
            sd = np.sqrt(((X - mu[:, None]) ** 2).mean(axis=1))
        ok = (sd > 0) & (sd < np.inf)
        ll = -np.log(np.where(ok, sd, np.nan)) - 0.5 * (_LOG_2PI + 1.0)
        return np.column_stack([mu, sd]), ok, ll

    def closed_form_entropy(self, params) -> float:
        # log(sigma * sqrt(2 pi e))
        return math.log(float(params[1])) + 0.5 * (_LOG_2PI + 1.0)


class _LogNormal(_Sampled):
    family_id = "lognormal"
    call = "dlnorm"
    param_names = ("Location", "Scale")
    support_text = "positive reals"
    positive_params = (1,)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        mu, sd = params[0], params[1]
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            z = (lx - mu) / sd
            out = -lx - np.log(sd) - 0.5 * _LOG_2PI - 0.5 * z * z
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        mu, sd = params[0], params[1]
        below = x <= 0  # False for NaN, which stays NaN
        with np.errstate(over="ignore"):  # +-inf: a tiny sd
            z = (np.log(np.where(below, 1.0, x)) - mu) / sd
        return np.where(below, 0.0, ndtr(z))

    def quantile(self, params, q):
        mu, sd = params[0], params[1]
        with np.errstate(over="ignore"):  # inf: beyond the float range
            return np.exp(mu + sd * ndtri(q))

    def sample(self, params, size, rng):
        mu, sd = float(params[0]), float(params[1])
        with np.errstate(over="ignore"):  # inf: beyond the float range
            return np.exp(mu + sd * rng.standard_normal(size))

    def fit_rows(self, X):
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.log(X)
            mu = L.mean(axis=1)
            sd = np.sqrt(((L - mu[:, None]) ** 2).mean(axis=1))
        ok = sd > 0  # NaN: a row holding 0, a negative value or +inf
        ll = -mu - np.log(np.where(ok, sd, np.nan)) - 0.5 * (_LOG_2PI + 1.0)
        return np.column_stack([mu, sd]), ok, ll


class _Exponential(_Family):
    family_id = "exponential"
    call = "dexp"
    param_names = ("Rate",)
    support_text = "non-negative reals"
    positive_params = (0,)
    fit_interval = (0.0, math.inf)

    def outside_support(self, params, x):
        return x < 0

    def log_density(self, params, x):
        lam = params[0]
        with np.errstate(over="ignore"):  # -inf: below the float range
            return np.where(x >= 0, np.log(lam) - lam * x, -np.inf)

    def cdf(self, params, x):
        lam = params[0]
        with np.errstate(over="ignore"):  # lam x beyond the range: 1
            return np.where(x < 0, 0.0, -np.expm1(-lam * np.maximum(x, 0.0)))

    def quantile(self, params, q):
        lam = params[0]
        with np.errstate(divide="ignore", over="ignore"):
            return -np.log1p(-q) / lam

    def fit_rows(self, X):
        # a mean beyond the float range gives a rate of 0, a subnormal one
        # (below ~5.6e-309) an infinite rate: both fail, and so does a row
        # holding a value <= 0 (or NaN), whatever its mean
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lam = 1.0 / X.mean(axis=1)
        ok = (lam > 0) & (lam < np.inf)
        if not X.min(initial=np.inf) > 0:  # row minima only where needed
            ok &= X.min(axis=1) > 0
        lam[~ok] = np.nan
        return lam[:, None], ok, np.log(lam) - 1.0


class _Gamma(_Sampled):
    family_id = "gamma"
    call = "dgamma"
    param_names = ("Shape", "Rate")
    support_text = "positive reals"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        a, rate = params[0], params[1]
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            out = a * np.log(rate) - gammaln(a) + (a - 1.0) * lx - rate * x
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        a, rate = params[0], params[1]
        with np.errstate(over="ignore"):  # rate x beyond the range: 1
            F = gammainc(a, rate * np.maximum(x, 0.0))
        # gammainc rounds above 1 at tiny shapes (1 + 2.4e-14 at 1e-300)
        return np.minimum(F, 1.0, out=F if np.ndim(F) else None)

    def quantile(self, params, q):
        a, rate = params[0], params[1]
        with np.errstate(over="ignore"):  # inf: beyond the float range
            return gammaincinv(a, q) / rate

    def sample(self, params, size, rng):
        a, rate = float(params[0]), float(params[1])
        with np.errstate(over="ignore"):  # inf: beyond the float range
            return rng.standard_gamma(a, size) / rate

    def fit_rows(self, X):
        # Newton ascent in the shape a of the profile likelihood (rate =
        # a / mean x), with s = log(mean x) - mean(log x):
        #   l(a) = a (log a - s - 1) - log Gamma(a) - mean(log x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mean = X.mean(axis=1)  # inf: s is inf and the row fails
            mlx = np.log(X).mean(axis=1)
            s = np.log(mean) - mlx
            a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)

        def loglik(r, a):
            return a * (np.log(a) - s[r] - 1.0) - gammaln(a) - mlx[r]

        def grad_hess(r, a):
            return (np.log(a) - psi(a) - s[r],), (1.0 / a - zeta(2, a),)

        rows = np.flatnonzero(_spread(X) & (s > 0.0) & np.isfinite(s))
        # a log a and log Gamma(a) cancel in l
        ok = _newton_ascent(a[:, None], rows, loglik, grad_hess,
                            terms=lambda r, a: gammaln(a))  # moves a
        with np.errstate(over="ignore"):  # inf: a subnormal mean, and the fit fails
            rate = a / mean
        ok &= rate < np.inf
        P = np.where(ok[:, None], np.column_stack([a, rate]), np.nan)
        return P, ok, loglik(slice(None), P[:, 0])


class _Weibull(_Family):
    family_id = "weibull"
    call = "dweibull"
    param_names = ("Shape", "Scale")
    default_delta = 2.0 / 15.0
    support_text = "positive reals"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        a, b = params[0], params[1]
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            lb = np.log(b)
            out = np.log(a) - a * lb + (a - 1.0) * lx - np.exp(a * (lx - lb))
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        a, b = params[0], params[1]
        with np.errstate(over="ignore"):  # (x / b)^a beyond the range: 1
            z = np.maximum(x, 0.0) / b
            return np.where(x < 0, 0.0, -np.expm1(-(z ** a)))

    def quantile(self, params, q):
        a, b = params[0], params[1]
        with np.errstate(divide="ignore", over="ignore"):
            return b * (-np.log1p(-q)) ** (1.0 / a)

    def fit_rows(self, X):
        # Newton ascent in the shape a of the profile likelihood (scale^a =
        # mean x^a).  With v = log(x / max x), which keeps exp(a v) in range
        # for large trial shapes and resolves values that differ in their
        # last digits, and u = log x:
        #   l(a) = log a + a mean(v) - log mean(exp(a v)) - mean(u) - 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xmax = X.max(axis=1)
            V = np.log(X / xmax[:, None])
            wide = X.min(axis=1) / xmax < _TINY  # x / max x leaves the normal range
            V[wide] = np.log(X[wide]) - np.log(xmax[wide, None])
            vbar = V.mean(axis=1)
            ubar = np.log(xmax) + vbar
            spread = V.std(axis=1)
            a = math.pi / math.sqrt(6.0) / spread  # Gumbel moment initializer

        # l, l' = 1/a + mean(v) - E_w v and l'' = -1/a^2 - Var_w v come from
        # sums over w = exp(a v), which loglik keeps for grad_hess: one exp
        # pass per point (a row loglik has not seen reads NaN and fails)
        s0, s1, s2 = np.full((3, X.shape[0]), np.nan)  # sum w, sum w v, sum w v^2

        def loglik(r, a):
            Vr = V[r]
            W = np.exp(a[:, None] * Vr)
            WV = W * Vr
            s0[r], s1[r], s2[r] = W.sum(axis=1), WV.sum(axis=1), (WV * Vr).sum(axis=1)
            return np.log(a) + a * vbar[r] - np.log(s0[r] / X.shape[1]) - ubar[r] - 1.0

        def grad_hess(r, a):
            w, ev = s0[r], s1[r] / s0[r]
            return (1.0 / a + vbar[r] - ev,), (-1.0 / (a * a) - (s2[r] / w - ev * ev),)

        rows = np.flatnonzero(_spread(X) & (spread > 0.0) & np.isfinite(spread))
        ok = _newton_ascent(a[:, None], rows, loglik, grad_hess)  # moves a
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = np.log(np.mean(np.exp(a[:, None] * V), axis=1))
            b = xmax * np.exp(lw / a)
            # b is at least the geometric mean, so at least min x > 0, yet
            # exp(lw / a) can underflow where xmax is large: take the log
            low = ~(b > 0.0)
            b[low] = np.exp(np.log(xmax[low]) + lw[low] / a[low])
        return np.column_stack([a, b]), ok, np.log(a) + a * vbar - lw - ubar - 1.0


class _Pareto(_Family):
    family_id = "pareto"
    call = "dpareto"
    param_names = ("mu", "c")
    support_text = "reals >= c"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def outside_support(self, params, x):
        return x < params[1]

    def log_density(self, params, x):
        mu, c = params[0], params[1]
        inside = x >= c
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(x > 0, x, 1.0))
            out = np.log(mu) + mu * np.log(c) - (mu + 1.0) * lx
        return np.where(inside, out, -np.inf)

    def cdf(self, params, x):
        mu, c = params[0], params[1]
        t = mu * (np.log(c) - np.log(np.maximum(x, c)))
        return np.where(x < c, 0.0, -np.expm1(t))

    def quantile(self, params, q):
        mu, c = params[0], params[1]
        with np.errstate(divide="ignore", over="ignore"):  # inf: the rounding
            return c * (1.0 - q) ** (-1.0 / mu)

    def fit_rows(self, X):
        c = X.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mlx, lc = np.log(X).mean(axis=1), np.log(c)
            mu = 1.0 / (mlx - lc)
        ok = (mu > 0) & (mu < np.inf)  # c > 0 too: mu is NaN or 0 otherwise
        mu[~ok] = np.nan
        ll = np.log(mu) + mu * lc - (mu + 1.0) * mlx
        return np.column_stack([mu, c]), ok, ll

    def closed_form_entropy(self, params) -> float:
        mu, c = float(params[0]), float(params[1])
        return -math.log(mu) + math.log(c) + 1.0 / mu + 1.0


# log of the largest df a fisher fit returns: beyond it the computed mean
# log-density drifts from its exact value by more than 1e-10
_FISHER_TOP = math.log(1e5)
_FISHER_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)  # df1 starts


class _Fisher(_Sampled):
    family_id = "fisher"
    call = "df"
    param_names = ("df1", "df2")
    default_delta = 2.0 / 15.0
    support_text = "positive reals"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        d1, d2 = params[0], params[1]
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            half1, half2 = 0.5 * d1, 0.5 * d2
            out = (half1 * (np.log(d1) + lx)
                   + half2 * np.log(d2)
                   - (half1 + half2) * np.log(d1 * x + d2)
                   - lx - _lbeta(half1, half2))
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        d1, d2 = params[0], params[1]
        with np.errstate(invalid="ignore", over="ignore"):
            dx = d1 * np.maximum(x, 0.0)
            w = dx / (dx + d2)
        # inf / inf at x = +inf (or where d1 * x overflows): the limit is 1
        w = np.where(np.isinf(dx), 1.0, w)
        return betainc(0.5 * d1, 0.5 * d2, w)

    def quantile(self, params, q):
        d1, d2 = params[0], params[1]
        y = _betaincinv(0.5 * d1, 0.5 * d2, q)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return d2 * y / (d1 * (1.0 - y))

    def sample(self, params, size, rng):
        d1, d2 = float(params[0]), float(params[1])
        return rng.f(d1, d2, size)

    def _grad_hess(self, X, mlx, *eta):
        """Gradient and Hessian of the mean log-likelihood in eta = (log df1,
        log df2) for each row of X (``mlx``: its mean log x)."""
        d1, d2 = np.exp(eta)
        D = d1[:, None] * X + d2[:, None]
        U = 1.0 / D
        R = X * U
        mld, mR, mU = (np.log(D).mean(axis=1), R.mean(axis=1), U.mean(axis=1))
        hs = 0.5 * (d1 + d2)
        psi_s, tri_s = psi(hs), zeta(2, hs)
        # score and Hessian in (df1, df2), then in eta by the chain rule
        g1 = d1 * (0.5 * (np.log(d1) + 1.0 + mlx - mld) - hs * mR
                   - 0.5 * (psi(0.5 * d1) - psi_s))
        g2 = d2 * (0.5 * (np.log(d2) + 1.0 - mld) - hs * mU
                   - 0.5 * (psi(0.5 * d2) - psi_s))
        a = g1 + d1 * d1 * (0.5 / d1 - mR + hs * (R * R).mean(axis=1)
                            - 0.25 * (zeta(2, 0.5 * d1) - tri_s))
        c = g2 + d2 * d2 * (0.5 / d2 - mU + hs * (U * U).mean(axis=1)
                            - 0.25 * (zeta(2, 0.5 * d2) - tri_s))
        b = d1 * d2 * (hs * (R * U).mean(axis=1) - 0.5 * (mR + mU) + 0.25 * tri_s)
        return (g1, g2), (a, b, c)

    def fit_rows(self, X):
        # Newton ascent on eta = (log df1, log df2) from the best point of an
        # 8 x 3 grid.  A row whose ascent takes df1 or df2 above 1e5 fails,
        # its likelihood still rising towards the scaled chi-square limit of F.
        size = X.shape[0]
        r = np.arange(size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mlx, m = np.log(X).mean(axis=1), X.mean(axis=1)
            d2 = np.clip(np.where(m > 1.1, 2.0 * m / (m - 1.0), 4.0), 0.5, 500.0)
            d2 = np.column_stack([d2, 2.0 * d2, np.full(size, 4.0)])
            # the first best grid point in (df1, df2) order; NaN is not best
            ll = np.hstack([self.log_density((d1, d2[:, :, None]), X[:, None, :])
                            .mean(axis=-1) for d1 in _FISHER_GRID])
        k = np.nan_to_num(ll, nan=-np.inf).argmax(axis=1)
        ll = ll[r, k]
        eta = np.log(np.column_stack([np.array(_FISHER_GRID)[k // 3], d2[r, k % 3]]))
        ok = _newton_ascent(
            eta, np.flatnonzero(_spread(X) & np.isfinite(ll)),
            lambda i, *e: self.mean_loglik_rows(X[i], np.exp(np.column_stack(e))),
            lambda i, *e: self._grad_hess(X[i], mlx[i], *e), ll=ll, top=_FISHER_TOP)
        P = np.exp(eta)
        return P, ok, self.mean_loglik_rows(X, P)


class _Laplace(_Family):
    family_id = "laplace"
    call = "dlaplace"
    param_names = ("Location", "Scale")
    positive_params = (1,)

    def log_density(self, params, x):
        mu, sc = params[0], params[1]
        with np.errstate(over="ignore"):  # -inf: below the float range
            return -np.log(2.0 * sc) - np.abs(x - mu) / sc

    def cdf(self, params, x):
        mu, sc = params[0], params[1]
        with np.errstate(over="ignore"):
            z = (x - mu) / sc
            return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def quantile(self, params, q):
        mu, sc = params[0], params[1]
        with np.errstate(divide="ignore", over="ignore"):
            lower = mu + sc * np.log(2.0 * q)
            upper = mu - sc * np.log(2.0 * (1.0 - q))
        return np.where(q < 0.5, lower, upper)

    def fit_rows(self, X):
        n = X.shape[1]
        mu = np.median(X, axis=1)
        with np.errstate(over="ignore"):  # inf: a sum beyond the float range
            dev = np.abs(X - mu[:, None]).sum(axis=1)
        sc = dev / n
        ok = (sc > 0) & (sc < np.inf)
        # -log(2 sc) - 1 from the sum: a scale below the normal range is
        # rounded to a few digits
        ll = math.log(0.5 * n) - np.log(np.where(ok, dev, np.nan)) - 1.0
        return np.column_stack([mu, sc]), ok, ll


class _Beta(_Sampled):
    family_id = "beta"
    call = "dbeta"
    param_names = ("Shape1", "Shape2")
    default_delta = 2.0 / 15.0
    support_text = "the open interval (0, 1)"
    positive_params = (0, 1)
    fit_interval = (0.0, 1.0)

    def log_density(self, params, x):
        a, b = params[0], params[1]
        inside = (x > 0.0) & (x < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(inside, x, 0.5)
            out = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log1p(-xs) - _lbeta(a, b)
        return np.where(inside, out, -np.inf)

    def cdf(self, params, x):
        a, b = params[0], params[1]
        return betainc(a, b, np.clip(x, 0.0, 1.0))

    def quantile(self, params, q):
        a, b = params[0], params[1]
        return _betaincinv(a, b, q)

    def sample(self, params, size, rng):
        a, b = float(params[0]), float(params[1])
        return rng.beta(a, b, size)

    def fit_rows(self, X):
        # Newton ascent in (a, b) from the method-of-moments start on
        #   l(a, b) = (a - 1) mean(log x) + (b - 1) mean(log(1 - x)) - log B(a, b)
        # which is concave.  log B is finite at some a, b <= 0, where l is
        # -inf; it is summed from log Gamma(a + b), which can far exceed |l|
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mlx = np.log(X).mean(axis=1)
            ml1x = np.log1p(-X).mean(axis=1)
            m = X.mean(axis=1)
            v = X.var(axis=1)
            common = m * (1.0 - m) / v - 1.0
        moments = common > 0.0
        P = np.column_stack([np.where(moments, m * common, 1.0),
                             np.where(moments, (1.0 - m) * common, 1.0)])

        def loglik(r, a, b):
            l = (a - 1.0) * mlx[r] + (b - 1.0) * ml1x[r] - _lbeta(a, b)
            return np.where(np.minimum(a, b) > 0.0, l, -np.inf)

        def grad_hess(r, a, b):
            psi_ab, tri_ab = psi(a + b), zeta(2, a + b)
            tri_a, tri_b = zeta(2, a), zeta(2, b)
            h11, h22 = tri_ab - tri_a, tri_ab - tri_b
            # where b >> a (or a >> b) the curvature is below the rounding of
            # its trigammas: noise, and the step is the gradient's
            h11[h11 > -1e-12 * tri_a] = np.nan
            h22[h22 > -1e-12 * tri_b] = np.nan
            return ((psi_ab - psi(a) + mlx[r], psi_ab - psi(b) + ml1x[r]),
                    (h11, tri_ab, h22))

        rows = np.flatnonzero(_spread(X) & (v > 0.0)
                              & np.isfinite(mlx) & np.isfinite(ml1x))
        ok = _newton_ascent(P, rows, loglik, grad_hess,
                            terms=lambda r, a, b: gammaln(a + b))
        return P, ok, np.where(ok, loglik(slice(None), *P.T), np.nan)


_FAMILIES: dict[str, _Family] = {}
_BY_CALL: dict[str, _Family] = {}
for _cls in (_Uniform, _Normal, _LogNormal, _Exponential, _Gamma,
             _Weibull, _Pareto, _Fisher, _Laplace, _Beta):
    _inst = _cls()
    _FAMILIES[_inst.family_id] = _inst
    _BY_CALL[_inst.call] = _inst


def family_ids() -> tuple[str, ...]:
    """All supported family ids, in registry order."""
    return tuple(_FAMILIES)


def resolve_family(name: str) -> _Family:
    """Look a family up by id ('normal') or call name ('dnorm')."""
    key = str(name).strip().lower()
    fam = _FAMILIES.get(key) or _BY_CALL.get(key)
    if fam is None:
        known = ", ".join(f"{f.family_id}/{f.call}" for f in _FAMILIES.values())
        raise ParameterError(f"unknown family {name!r}; known families: {known}")
    return fam


def validate_params(family: str, params) -> np.ndarray:
    return resolve_family(family).validate_params(params)


def log_density(family: str, params, x):
    """Log density; -inf outside the support.  Broadcasts params against x."""
    fam = resolve_family(family)
    return fam.log_density(fam.validate_params(params), np.asarray(x, dtype=float))


def cdf(family: str, params, x):
    fam = resolve_family(family)
    return fam.cdf(fam.validate_params(params), np.asarray(x, dtype=float))


def quantile(family: str, params, q):
    """Generalized inverse CDF; q must lie in [0, 1]."""
    fam = resolve_family(family)
    p = fam.validate_params(params)
    qa = np.asarray(q, dtype=float)
    if np.any(np.isnan(qa)) or np.any((qa < 0.0) | (qa > 1.0)):
        raise ParameterError("quantile levels must lie in [0, 1]")
    return fam.quantile(p, qa)


def sample(family: str, params, size, rng: np.random.Generator) -> np.ndarray:
    """Draw variates; deterministic given the generator state."""
    fam = resolve_family(family)
    return fam.sample(fam.validate_params(params), size, rng)


def fit_mle(family: str, x: "Sample | np.ndarray") -> FitResult:
    """Maximum-likelihood fit.

    Raises DataError when observations violate the family's support and
    EstimationError when the data are degenerate or a numerical solver
    fails to converge.
    """
    fam = resolve_family(family)
    x = as_sample(x).values
    fam.validate_fit_data(x)
    P, ok, _ = fam.fit_rows(x[None, :])
    if not ok[0]:
        raise fam.fit_error(x)
    return FitResult(family_id=fam.family_id, params=P[0], provenance="mle")


def fit_rows(family: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise MLE over a (B, n) matrix (Monte-Carlo internals): the
    parameters and the ok flag of each row."""
    return resolve_family(family).fit_rows(np.asarray(X, dtype=float))[:2]


def mean_loglik_rows(family: str, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-row mean log-likelihood for row-wise parameters (MC internals)."""
    return resolve_family(family).mean_loglik_rows(np.asarray(X, dtype=float),
                                                   np.asarray(P, dtype=float))


def closed_form_entropy(family: str, params) -> float:
    """Exact differential entropy, for the families that have one here
    (uniform, normal, pareto); CapabilityError otherwise."""
    fam = resolve_family(family)
    return fam.closed_form_entropy(fam.validate_params(params))


def default_delta(family: str) -> float:
    return resolve_family(family).default_delta


def param_labels(family: str) -> tuple[str, ...]:
    return resolve_family(family).param_names


def call_name(family: str) -> str:
    return resolve_family(family).call
