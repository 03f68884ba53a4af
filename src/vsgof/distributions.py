"""The ten supported null families.

Each family provides, under a common interface: parameter validation,
log-density, CDF, quantile (generalized inverse), exact sampling, and
maximum-likelihood fitting.  Each family has one MLE, ``fit_rows``: it
fits every row of a (B, n) Monte-Carlo matrix and flags, not raises, a row
that fails or is degenerate.  Every single-sample fit is row 0 of
``fit_rows``, so a sample and its null replicates share one estimator.
Six families have textbook closed forms; gamma, weibull and beta run a
Newton iteration as array code over the rows not yet converged (profile
Newton in the shape, damped Newton for beta).  Fisher's ``fit_rows`` loops
its scalar damped Newton over the rows.  The standard normal CDF and its
inverse (``ndtr``, ``ndtri``), digamma, trigamma and log-gamma come from
``scipy.special``.

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

Sampling draws from a caller-supplied ``numpy.random.Generator``.  The
base class samples by inverse CDF (exponential, weibull, pareto, laplace);
uniform scales raw uniforms, normal/lognormal transform standard normals,
and gamma/beta/fisher use the generator's native rejection/ratio samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, betaincinv, gammainc, gammaincinv, gammaln,
                           ndtr, ndtri, polygamma, psi)

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

_LOG_2PI = math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny


def _lbeta(a, b):
    return gammaln(a) + gammaln(b) - gammaln(np.asarray(a) + np.asarray(b))


def _betaincinv(a, b, q):
    """``betaincinv``, or where it fails for q > 0 (NaN, or the smallest
    normal float, at q below ~1e-200) the series y = (a B(a, b) q)^(1/a)."""
    q = np.asarray(q, dtype=float)
    y = betaincinv(a, b, q)
    with np.errstate(divide="ignore"):
        return np.where((q > 0) & ~(y > _TINY),
                        np.exp((np.log(a) + _lbeta(a, b) + np.log(q)) / a),
                        y)[()]


def _spread(X: np.ndarray) -> np.ndarray:
    """Rows whose observations are not all equal."""
    return X.max(axis=1) > X.min(axis=1)


def _positive(u: np.ndarray) -> np.ndarray:
    # keep inverse-CDF draws strictly inside (0, 1): Generator.random() is
    # [0, 1), only the zero endpoint needs nudging
    return np.maximum(u, _TINY)


def _profile_newton(a: np.ndarray, rows: np.ndarray, tol: np.ndarray,
                    score) -> np.ndarray:
    """Row-wise Newton on a positive 1-D parameter; updates ``a`` in place.

    ``score(rows, a_rows)`` returns the score and its slope at ``a_rows``
    for those rows.  Each row stops once |score| < tol; a step that would
    make the parameter non-positive is halved until it does not.  Returns
    the converged mask: rows still moving after 100 evaluations, or whose
    step is not finite, did not converge.
    """
    done = np.zeros(a.shape[0], dtype=bool)
    for _ in range(100):
        cur = a[rows]
        f, fp = score(rows, cur)
        conv = np.abs(f) < tol[rows]
        done[rows[conv]] = True
        step = f / fp
        live = ~conv & np.isfinite(step)
        rows, cur, step = rows[live], cur[live], step[live]
        if rows.size == 0:
            break
        new = cur - step
        bad = new <= 0.0
        while np.any(bad):
            step[bad] *= 0.5
            new[bad] = cur[bad] - step[bad]
            bad = new <= 0.0
        a[rows] = new
    return done


@dataclass(frozen=True)
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

    def sample(self, params, size, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draw; families with a faster exact sampler override it."""
        return self.quantile(params, _positive(rng.random(size)))

    def closed_form_entropy(self, params) -> float:
        raise CapabilityError(
            f"no closed-form entropy is implemented for the {self.family_id} family"
        )

    # -- batch helpers (Monte-Carlo engine) ---------------------------------
    def fit_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise MLE for a (B, n) matrix; returns (params (B,k), ok (B,))."""
        raise NotImplementedError

    def _cols(self, P: np.ndarray):
        return tuple(P[:, j:j + 1] for j in range(P.shape[1]))

    def mean_loglik_rows(self, X: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Mean log-density of each row of X under the matching row of P."""
        return self.log_density(self._cols(P), X).mean(axis=1)

    def fit(self, x: np.ndarray) -> np.ndarray:
        """MLE of one sample: row 0 of :meth:`fit_rows` on ``x[None, :]``.

        Raises EstimationError when the row fails: "degenerate" if the
        data have no spread, "did not converge" otherwise.
        """
        x = np.asarray(x, dtype=float)
        P, ok = self.fit_rows(x[None, :])
        if not ok[0]:
            if not _spread(x[None, :])[0]:
                raise EstimationError(
                    f"{self.family_id} MLE degenerate: data have no spread")
            raise EstimationError(f"{self.family_id} MLE did not converge")
        return P[0]


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

    def log_density(self, params, x):
        a, b = params[0], params[1]
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        return np.where(inside, -np.log(np.asarray(b) - np.asarray(a)), -np.inf)

    def cdf(self, params, x):
        a, b = params[0], params[1]
        x = np.asarray(x, dtype=float)
        return np.clip((x - a) / (np.asarray(b) - np.asarray(a)), 0.0, 1.0)

    def quantile(self, params, q):
        a, b = params[0], params[1]
        q = np.asarray(q, dtype=float)
        return a + (b - a) * q

    def sample(self, params, size, rng):
        a, b = float(params[0]), float(params[1])
        return a + (b - a) * rng.random(size)

    def fit_rows(self, X):
        lo = X.min(axis=1)
        hi = X.max(axis=1)
        return np.column_stack([lo, hi]), hi > lo

    def closed_form_entropy(self, params) -> float:
        return math.log(float(params[1]) - float(params[0]))


class _Normal(_Family):
    family_id = "normal"
    call = "dnorm"
    param_names = ("Mean", "St. dev.")
    positive_params = (1,)

    def log_density(self, params, x):
        mu, sd = params[0], params[1]
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # -inf: below the float range
            z = (x - mu) / sd
            return -np.log(np.asarray(sd)) - 0.5 * _LOG_2PI - 0.5 * z * z

    def cdf(self, params, x):
        mu, sd = params[0], params[1]
        with np.errstate(over="ignore"):
            return ndtr((np.asarray(x, dtype=float) - mu) / sd)

    def quantile(self, params, q):
        mu, sd = params[0], params[1]
        return mu + sd * ndtri(np.asarray(q, dtype=float))

    def sample(self, params, size, rng):
        mu, sd = float(params[0]), float(params[1])
        return mu + sd * rng.standard_normal(size)

    def fit_rows(self, X):
        mu = X.mean(axis=1)
        sd = np.sqrt(((X - mu[:, None]) ** 2).mean(axis=1))
        return np.column_stack([mu, sd]), sd > 0

    def closed_form_entropy(self, params) -> float:
        # log(sigma * sqrt(2 pi e))
        return math.log(float(params[1])) + 0.5 * (_LOG_2PI + 1.0)


class _LogNormal(_Family):
    family_id = "lognormal"
    call = "dlnorm"
    param_names = ("Location", "Scale")
    support_text = "positive reals"
    positive_params = (1,)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        mu, sd = params[0], params[1]
        x = np.asarray(x, dtype=float)
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            z = (lx - mu) / sd
            out = -lx - np.log(np.asarray(sd)) - 0.5 * _LOG_2PI - 0.5 * z * z
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        mu, sd = params[0], params[1]
        x = np.asarray(x, dtype=float)
        below = x <= 0  # False for NaN, which stays NaN
        z = (np.log(np.where(below, 1.0, x)) - mu) / sd
        return np.where(below, 0.0, ndtr(z))

    def quantile(self, params, q):
        mu, sd = params[0], params[1]
        return np.exp(mu + sd * ndtri(np.asarray(q, dtype=float)))

    def sample(self, params, size, rng):
        mu, sd = float(params[0]), float(params[1])
        return np.exp(mu + sd * rng.standard_normal(size))

    def fit_rows(self, X):
        L = np.log(X)
        mu = L.mean(axis=1)
        sd = np.sqrt(((L - mu[:, None]) ** 2).mean(axis=1))
        return np.column_stack([mu, sd]), sd > 0


class _Exponential(_Family):
    family_id = "exponential"
    call = "dexp"
    param_names = ("Rate",)
    support_text = "non-negative reals"
    positive_params = (0,)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        lam = params[0]
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.log(np.asarray(lam)) - lam * x, -np.inf)

    def cdf(self, params, x):
        lam = params[0]
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.expm1(-lam * np.maximum(x, 0.0)))

    def quantile(self, params, q):
        lam = params[0]
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            return -np.log1p(-q) / lam

    def fit_rows(self, X):
        mean = X.mean(axis=1)
        ok = mean > 0
        with np.errstate(divide="ignore"):
            lam = np.where(ok, 1.0 / mean, np.nan)
        return lam[:, None], ok


class _Gamma(_Family):
    family_id = "gamma"
    call = "dgamma"
    param_names = ("Shape", "Rate")
    support_text = "positive reals"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        a, rate = params[0], params[1]
        x = np.asarray(x, dtype=float)
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            out = a * np.log(np.asarray(rate)) - gammaln(a) + (a - 1.0) * lx - rate * x
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        a, rate = params[0], params[1]
        x = np.asarray(x, dtype=float)
        return gammainc(a, rate * np.maximum(x, 0.0))

    def quantile(self, params, q):
        a, rate = params[0], params[1]
        return gammaincinv(a, np.asarray(q, dtype=float)) / rate

    def sample(self, params, size, rng):
        a, rate = float(params[0]), float(params[1])
        return rng.standard_gamma(a, size) / rate

    def fit_rows(self, X):
        # Profile likelihood: rate = shape / mean(x); Newton in the shape on
        #   log(shape) - psi(shape) = log(mean x) - mean(log x)
        mean = X.mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(mean) - np.log(X).mean(axis=1)
            a = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        rows = np.flatnonzero(_spread(X) & (s > 0.0) & np.isfinite(s))

        def score(rows, a_):
            # the slope 1/a - psi'(a) is negative: the residual decreases
            return (np.log(a_) - psi(a_) - s[rows],
                    1.0 / a_ - polygamma(1, a_))

        ok = _profile_newton(a, rows, np.full(a.shape, 1e-13), score)
        a[~ok] = np.nan
        return np.column_stack([a, a / mean]), ok


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
        x = np.asarray(x, dtype=float)
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            lb = np.log(np.asarray(b))
            out = np.log(np.asarray(a)) - a * lb + (a - 1.0) * lx - np.exp(a * (lx - lb))
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        a, b = params[0], params[1]
        x = np.asarray(x, dtype=float)
        z = np.maximum(x, 0.0) / b
        return np.where(x < 0, 0.0, -np.expm1(-(z ** a)))

    def quantile(self, params, q):
        a, b = params[0], params[1]
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            return b * (-np.log1p(-q)) ** (1.0 / a)

    def fit_rows(self, X):
        # Profile on the shape: scale(a) = (mean x^a)^(1/a); the profile score
        #   g(a) = sum(x^a log x)/sum(x^a) - 1/a - mean(log x)
        # is increasing in a. Weights are normalized by max(log x) to avoid
        # overflow for large trial shapes.
        with np.errstate(divide="ignore", invalid="ignore"):
            U = np.log(X)
            ubar = U.mean(axis=1)
            spread = U.std(axis=1)
            a = math.pi / math.sqrt(6.0) / spread  # Gumbel moment initializer
        umax = U.max(axis=1)
        rows = np.flatnonzero(_spread(X) & (spread > 0.0) & np.isfinite(spread))

        def score(rows, a_):
            Ur = U[rows]
            W = np.exp(a_[:, None] * (Ur - umax[rows, None]))
            sw = W.sum(axis=1)
            r = (W * Ur).sum(axis=1) / sw
            var_w = (W * (Ur - r[:, None]) ** 2).sum(axis=1) / sw
            return r - 1.0 / a_ - ubar[rows], var_w + 1.0 / (a_ * a_)

        tol = 1e-13 * np.maximum(1.0, np.abs(ubar))
        ok = _profile_newton(a, rows, tol, score)
        a[~ok] = np.nan
        with np.errstate(invalid="ignore"):
            b = np.exp(umax + np.log(np.mean(np.exp(a[:, None] * (U - umax[:, None])),
                                              axis=1)) / a)
        return np.column_stack([a, b]), ok


class _Pareto(_Family):
    family_id = "pareto"
    call = "dpareto"
    param_names = ("mu", "c")
    support_text = "reals >= c"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        mu, c = params[0], params[1]
        x = np.asarray(x, dtype=float)
        inside = x >= c
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(x > 0, x, 1.0))
            out = np.log(np.asarray(mu)) + mu * np.log(np.asarray(c)) - (mu + 1.0) * lx
        return np.where(inside, out, -np.inf)

    def cdf(self, params, x):
        mu, c = params[0], params[1]
        x = np.asarray(x, dtype=float)
        t = mu * (np.log(np.asarray(c)) - np.log(np.maximum(x, c)))
        return np.where(x < c, 0.0, -np.expm1(t))

    def quantile(self, params, q):
        mu, c = params[0], params[1]
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            return c * (1.0 - q) ** (-1.0 / mu)

    def fit_rows(self, X):
        c = X.min(axis=1)
        t = np.log(X).mean(axis=1) - np.log(c)
        ok = t > 0
        with np.errstate(divide="ignore"):
            mu = np.where(ok, 1.0 / t, np.nan)
        return np.column_stack([mu, c]), ok

    def closed_form_entropy(self, params) -> float:
        mu, c = float(params[0]), float(params[1])
        return -math.log(mu) + math.log(c) + 1.0 / mu + 1.0


class _Fisher(_Family):
    family_id = "fisher"
    call = "df"
    param_names = ("df1", "df2")
    default_delta = 2.0 / 15.0
    support_text = "positive reals"
    positive_params = (0, 1)
    fit_interval = (0.0, math.inf)

    def log_density(self, params, x):
        d1, d2 = params[0], params[1]
        x = np.asarray(x, dtype=float)
        pos = x > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(pos, x, 1.0))
            half1 = 0.5 * np.asarray(d1, dtype=float)
            half2 = 0.5 * np.asarray(d2, dtype=float)
            out = (half1 * (np.log(np.asarray(d1)) + lx)
                   + half2 * np.log(np.asarray(d2))
                   - (half1 + half2) * np.log(d1 * x + d2)
                   - lx - _lbeta(half1, half2))
        return np.where(pos, out, -np.inf)

    def cdf(self, params, x):
        d1, d2 = params[0], params[1]
        x = np.asarray(x, dtype=float)
        dx = d1 * np.maximum(x, 0.0)
        with np.errstate(invalid="ignore"):
            w = dx / (dx + d2)
        # inf / inf at x = +inf (or where d1 * x overflows): the limit is 1
        w = np.where(np.isinf(dx), 1.0, w)
        return betainc(0.5 * np.asarray(d1), 0.5 * np.asarray(d2), w)

    def quantile(self, params, q):
        d1, d2 = params[0], params[1]
        y = _betaincinv(0.5 * np.asarray(d1), 0.5 * np.asarray(d2), q)
        with np.errstate(divide="ignore", invalid="ignore"):
            return d2 * y / (d1 * (1.0 - y))

    def sample(self, params, size, rng):
        d1, d2 = float(params[0]), float(params[1])
        return rng.f(d1, d2, size)

    def _mean_score(self, d1: float, d2: float, x: np.ndarray,
                    mlx: float) -> np.ndarray:
        denom = d1 * x + d2
        mld = float(np.mean(np.log(denom)))
        mxd = float(np.mean(x / denom))
        mid = float(np.mean(1.0 / denom))
        half_sum = 0.5 * (d1 + d2)
        psi_sum = psi(half_sum)
        s1 = 0.5 * (math.log(d1) + 1.0 + mlx) - 0.5 * mld - half_sum * mxd \
            - 0.5 * (psi(0.5 * d1) - psi_sum)
        s2 = 0.5 * (math.log(d2) + 1.0) - 0.5 * mld - half_sum * mid \
            - 0.5 * (psi(0.5 * d2) - psi_sum)
        return np.array([s1, s2])

    def fit_rows(self, X):
        P = np.full((X.shape[0], 2), np.nan)
        ok = np.zeros(X.shape[0], dtype=bool)
        for i, x in enumerate(X):
            try:
                P[i], ok[i] = self.fit(x), True
            except EstimationError:
                pass
        return P, ok

    def fit(self, x):
        """Damped Newton on one sample; fit_rows runs it row by row."""
        x = np.asarray(x, dtype=float)
        mlx = float(np.mean(np.log(x)))
        m = float(np.mean(x))
        d2 = 2.0 * m / (m - 1.0) if m > 1.1 else 4.0
        d2 = min(max(d2, 0.5), 500.0)

        def mean_ll(d1_, d2_):
            return float(np.mean(self.log_density(np.array([d1_, d2_]), x)))

        best = None
        for d1_try in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            for d2_try in (d2, 2.0 * d2, 4.0):
                ll = mean_ll(d1_try, d2_try)
                if best is None or ll > best[0]:
                    best = (ll, d1_try, d2_try)
        _, d1, d2 = best

        # damped Newton on eta = (log df1, log df2); Jacobian of the mean
        # score by central differences of the analytic score
        eta = np.log([d1, d2])
        s = self._mean_score(*np.exp(eta), x, mlx)
        for _ in range(300):
            if float(np.linalg.norm(s)) <= 1e-9:
                break
            J = np.empty((2, 2))
            h = 1e-6
            for j in range(2):
                ep = eta.copy(); ep[j] += h
                em = eta.copy(); em[j] -= h
                J[:, j] = (self._mean_score(*np.exp(ep), x, mlx)
                           - self._mean_score(*np.exp(em), x, mlx)) / (2.0 * h)
            try:
                step = np.linalg.solve(J, -s)
            except np.linalg.LinAlgError:
                step = s  # fall back to a gradient direction
            norm0 = float(np.linalg.norm(s))
            lam = 1.0
            for _damp in range(40):
                trial = eta + lam * step
                if np.all(np.abs(trial) < 30.0):
                    s_try = self._mean_score(*np.exp(trial), x, mlx)
                    if float(np.linalg.norm(s_try)) < norm0:
                        eta, s = trial, s_try
                        break
                lam *= 0.5
            else:
                raise EstimationError(
                    f"fisher MLE stalled (gradient norm {norm0:.2e})")
        else:
            raise EstimationError(
                f"fisher MLE did not converge (gradient norm {float(np.linalg.norm(s)):.2e})")
        return np.exp(eta)


class _Laplace(_Family):
    family_id = "laplace"
    call = "dlaplace"
    param_names = ("Location", "Scale")
    positive_params = (1,)

    def log_density(self, params, x):
        mu, sc = params[0], params[1]
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # -inf: below the float range
            return -np.log(2.0 * np.asarray(sc)) - np.abs(x - mu) / sc

    def cdf(self, params, x):
        mu, sc = params[0], params[1]
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            z = (x - mu) / sc
            return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def quantile(self, params, q):
        mu, sc = params[0], params[1]
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            lower = mu + sc * np.log(2.0 * q)
            upper = mu - sc * np.log(2.0 * (1.0 - q))
        return np.where(q < 0.5, lower, upper)

    def fit_rows(self, X):
        mu = np.median(X, axis=1)
        sc = np.abs(X - mu[:, None]).mean(axis=1)
        return np.column_stack([mu, sc]), sc > 0


class _Beta(_Family):
    family_id = "beta"
    call = "dbeta"
    param_names = ("Shape1", "Shape2")
    default_delta = 2.0 / 15.0
    support_text = "the open interval (0, 1)"
    positive_params = (0, 1)
    fit_interval = (0.0, 1.0)

    def log_density(self, params, x):
        a, b = params[0], params[1]
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & (x < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(inside, x, 0.5)
            out = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log1p(-xs) - _lbeta(a, b)
        return np.where(inside, out, -np.inf)

    def cdf(self, params, x):
        a, b = params[0], params[1]
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return betainc(a, b, x)

    def quantile(self, params, q):
        a, b = params[0], params[1]
        return _betaincinv(a, b, q)

    def sample(self, params, size, rng):
        a, b = float(params[0]), float(params[1])
        return rng.beta(a, b, size)

    def fit_rows(self, X):
        # Damped Newton on the score
        #   (psi(a+b) - psi(a) + mean log x, psi(a+b) - psi(b) + mean log(1-x))
        # from the method-of-moments start; a step is halved until it stays
        # in a, b > 0 and lowers the score norm.
        with np.errstate(divide="ignore", invalid="ignore"):
            mlx = np.log(X).mean(axis=1)
            ml1x = np.log1p(-X).mean(axis=1)
            m = X.mean(axis=1)
            v = X.var(axis=1)
            common = m * (1.0 - m) / v - 1.0
        moments = common > 0.0
        a = np.where(moments, m * common, 1.0)
        b = np.where(moments, (1.0 - m) * common, 1.0)
        ok = np.zeros(X.shape[0], dtype=bool)
        rows = np.flatnonzero(_spread(X) & (v > 0.0)
                              & np.isfinite(mlx) & np.isfinite(ml1x))

        def score(rows, a_, b_):
            psi_ab = psi(a_ + b_)
            s1, s2 = psi_ab - psi(a_) + mlx[rows], psi_ab - psi(b_) + ml1x[rows]
            return s1, s2, np.sqrt(s1 * s1 + s2 * s2)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s1, s2, norm = score(rows, a[rows], b[rows])
            for _ in range(200):
                conv = norm <= 1e-10
                ok[rows[conv]] = True
                live = ~conv
                rows, s1, s2, norm = rows[live], s1[live], s2[live], norm[live]
                if rows.size == 0:
                    break
                ra, rb = a[rows], b[rows]
                tg_ab = polygamma(1, ra + rb)
                h11, h22 = tg_ab - polygamma(1, ra), tg_ab - polygamma(1, rb)
                det = h11 * h22 - tg_ab * tg_ab
                d1 = (tg_ab * s2 - h22 * s1) / det
                d2 = (tg_ab * s1 - h11 * s2) / det
                pend = np.arange(rows.size)  # rows whose step is not yet taken
                lam = 1.0
                for _damp in range(40):
                    ta, tb = ra[pend] + lam * d1[pend], rb[pend] + lam * d2[pend]
                    t1, t2, tn = score(rows[pend], ta, tb)
                    take = (ta > 0.0) & (tb > 0.0) & (tn < norm[pend])
                    hit = pend[take]
                    a[rows[hit]], b[rows[hit]] = ta[take], tb[take]
                    s1[hit], s2[hit], norm[hit] = t1[take], t2[take], tn[take]
                    pend = pend[~take]
                    if pend.size == 0:
                        break
                    lam *= 0.5
                moved = np.ones(rows.size, dtype=bool)
                moved[pend] = False  # stalled: no step lowered the norm
                rows, s1, s2, norm = rows[moved], s1[moved], s2[moved], norm[moved]
        P = np.column_stack([a, b])
        P[~ok] = np.nan
        return P, ok


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
    return fam.log_density(fam.validate_params(params), x)


def cdf(family: str, params, x):
    fam = resolve_family(family)
    return fam.cdf(fam.validate_params(params), x)


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
    s = as_sample(x)
    fam.validate_fit_data(s.values)
    params = fam.fit(s.values)
    return FitResult(family_id=fam.family_id, params=params, provenance="mle")


def fit_rows(family: str, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise MLE over a (B, n) matrix (Monte-Carlo internals)."""
    return resolve_family(family).fit_rows(np.asarray(X, dtype=float))


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
