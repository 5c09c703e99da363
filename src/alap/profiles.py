"""Nonlinearity profiles a(t) generating the quasilinear operator.

A profile bundles the scalar flux law a(t) (a(0) = 0, increasing), its
derivative, its primitive A(t) = int_0^t a, its inverse on [0, inf), and
the two ellipticity exponents a0 <= t a'(t)/a(t) <= a1 that control the
degeneracy of the operator div(a(|g|) g / |g|).

Three families are built in:

* power:     a(t) = t**(p-1),               a0 = a1 = p - 1
* piecewise: a(t) = t**alpha below t0 and c2 t**beta + c3 above, with
             c2, c3 solved from C^1 matching; a0 = min(alpha, beta),
             a1 = max(alpha, beta)
* logpower:  a(t) = t**alpha * log(beta t + gamma), gamma >= 1;
             a0 = alpha, a1 = 1 + alpha

Profiles are immutable and all operations are pure.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from alap import geometry
from alap.errors import DegenerateInputError
from alap.quadrature import gauss_primitive

#: default tolerance slack for the ellipticity certification
ELLIPTICITY_SLACK = 1e-9


@dataclass(frozen=True)
class Profile:
    """Immutable flux law with derived quantities.

    Attributes:
        family: one of "power", "piecewise", "logpower".
        params: the family's numeric parameters, in declaration order.
        a: flux magnitude, vectorized over t >= 0.
        da: derivative a'(t), vectorized over t > 0.
        big_a: primitive A(t) = int_0^t a(s) ds.
        a_inv: inverse of a on [0, inf).
        a0: lower ellipticity exponent.
        a1: upper ellipticity exponent.
    """

    family: str
    params: tuple
    a: Callable = field(repr=False)
    da: Callable = field(repr=False)
    big_a: Callable = field(repr=False)
    a_inv: Callable = field(repr=False)
    a0: float = 0.0
    a1: float = 0.0

    def ratio(self, t):
        """Ellipticity ratio t a'(t) / a(t) for t > 0."""
        t = np.asarray(t, dtype=float)
        return t * self.da(t) / self.a(t)


def make_power(p):
    """Pure power law a(t) = t**(p-1); the operator is the p-Laplacian."""
    if p <= 1.0:
        raise ValueError(f"power profile needs p > 1, got {p}")
    q = p - 1.0

    def a(t):
        return np.asarray(t, dtype=float) ** q

    def da(t):
        return q * np.asarray(t, dtype=float) ** (q - 1.0)

    def big_a(t):
        return np.asarray(t, dtype=float) ** p / p

    def a_inv(s):
        return np.asarray(s, dtype=float) ** (1.0 / q)

    return Profile("power", (p,), a, da, big_a, a_inv, a0=q, a1=q)


def make_piecewise(alpha, beta, t0):
    """Two-branch law t**alpha below t0, c2 t**beta + c3 above.

    The leading coefficient of the lower branch is normalized to 1; c2 and
    c3 are forced by C^1 matching at t0:

        c2 = (alpha / beta) t0**(alpha - beta),  c3 = t0**alpha (1 - alpha/beta)
    """
    if alpha <= 0 or beta <= 0 or t0 <= 0:
        raise ValueError("piecewise profile needs alpha, beta, t0 > 0")
    if alpha == beta:
        raise ValueError("alpha == beta is a pure power law; use make_power")
    c2 = (alpha / beta) * t0 ** (alpha - beta)
    c3 = t0**alpha * (1.0 - alpha / beta)
    a_at_t0 = t0**alpha
    big_a_at_t0 = t0 ** (alpha + 1.0) / (alpha + 1.0)

    def a(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t0, t**alpha, c2 * t**beta + c3)

    def da(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t0, alpha * t ** (alpha - 1.0), c2 * beta * t ** (beta - 1.0))

    def big_a(t):
        t = np.asarray(t, dtype=float)
        upper = (
            big_a_at_t0
            + c2 * (t ** (beta + 1.0) - t0 ** (beta + 1.0)) / (beta + 1.0)
            + c3 * (t - t0)
        )
        return np.where(t < t0, t ** (alpha + 1.0) / (alpha + 1.0), upper)

    def a_inv(s):
        s = np.asarray(s, dtype=float)
        upper_arg = np.maximum(s - c3, 0.0) / c2
        return np.where(s < a_at_t0, s ** (1.0 / alpha), upper_arg ** (1.0 / beta))

    return Profile(
        "piecewise",
        (alpha, beta, t0),
        a,
        da,
        big_a,
        a_inv,
        a0=min(alpha, beta),
        a1=max(alpha, beta),
    )


def make_logpower(alpha, beta, gamma):
    """Logarithmically perturbed power a(t) = t**alpha log(beta t + gamma).

    gamma >= 1 is required so that a >= 0 and a(0) = 0 hold on [0, inf);
    the inverse has no closed form and is computed for all elements at
    once by safeguarded Newton-bisection, polished with two Newton steps.
    It is inf where s exceeds a(float max).
    """
    if alpha <= 0 or beta <= 0 or gamma <= 0:
        raise ValueError("logpower profile needs alpha, beta, gamma > 0")
    if gamma < 1.0:
        raise ValueError("gamma < 1 makes a(t) negative near 0; need gamma >= 1")

    # beta t / gamma overflows only past ``big``, where gamma lies far below
    # an ulp of beta t
    big = math.inf if beta <= gamma else 0.5 * np.finfo(float).max * gamma / beta

    def log_term(t):
        # log(beta t + gamma) without the cancellation that zeroes a(t) below 1e-16
        if np.any(t > big):
            top = math.log(beta) + np.log(np.maximum(t, big))
            return np.where(t > big, top, log_term(np.minimum(t, big)))
        return math.log(gamma) + np.log1p(beta * t / gamma)

    def a(t):
        t = np.asarray(t, dtype=float)
        return t**alpha * log_term(t)

    def da(t):
        t = np.asarray(t, dtype=float)
        second = t**alpha * beta / (beta * np.minimum(t, big) + gamma)
        if np.any(t > big):  # beta t overflows there: divide by t + gamma / beta
            second = np.where(t > big, t**alpha / (np.maximum(t, big) + gamma / beta), second)
        return alpha * t ** (alpha - 1.0) * log_term(t) + second

    def big_a(t):
        return gauss_primitive(a, t)

    t_max = np.finfo(float).max

    # a(t) and da(t) overflow near the top of float64's range: an infinite
    # a(hi) ends the doubling, and a nan Newton step fails the bracket test
    @np.errstate(over="ignore", invalid="ignore")
    def a_inv(s):
        s_arr = np.asarray(s, dtype=float)
        out = np.where(s_arr <= 0.0, 0.0, s_arr).ravel()  # NaN and inf pass through
        out[out > a(t_max)] = np.inf  # the inverse lies beyond float64
        solve = np.isfinite(out) & (out > 0.0)
        s = out[solve]
        # the bracket [0, hi], hi doubled from 1 up to t_max while a(hi) < s
        hi = np.ones_like(s)
        while np.any(short := a(hi) < s):
            hi[short] = np.minimum(2.0 * hi[short], t_max)
        # safeguarded Newton from hi (a step that leaves the bracket bisects
        # it) until the step is below brentq's rtol of 4 eps; 2200 steps let
        # bisection alone span the double range
        lo, t, todo = np.zeros_like(s), hi, np.ones(s.shape, dtype=bool)
        for _ in range(2200):
            f = a(t) - s
            lo, hi = np.where(f < 0.0, t, lo), np.where(f > 0.0, t, hi)
            newton = t - f / da(t)
            step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            step = np.where(todo & (f != 0.0), step, t)
            todo &= np.abs(step - t) > 4.0 * np.finfo(float).eps * step
            t = step
            if not todo.any():
                break
        for _ in range(2):
            t = t - (a(t) - s) / da(t)
        out[solve] = t
        return out.reshape(s_arr.shape) if s_arr.shape else float(out[0])

    return Profile(
        "logpower", (alpha, beta, gamma), a, da, big_a, a_inv, a0=alpha, a1=1.0 + alpha
    )


_FAMILIES = {
    "power": (make_power, ("p",)),
    "piecewise": (make_piecewise, ("alpha", "beta", "t0")),
    "logpower": (make_logpower, ("alpha", "beta", "gamma")),
}


def make_from_family(family, **params):
    """Construct a built-in profile from config-style keys."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown profile family {family!r}; expected one of {sorted(_FAMILIES)}")
    maker, names = _FAMILIES[family]
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise ValueError(f"profile family {family!r} takes {names}; missing {missing}, extra {extra}")
    return maker(*(params[n] for n in names))


def flux(profile, g):
    """Vector flux (a(|g|)/|g|) g, extended by 0 at g = 0.

    ``g`` has shape (..., n); the leading axes are batch axes.
    """
    g = np.asarray(g, dtype=float)
    comps = np.moveaxis(g, -1, 0)
    mag = np.sqrt(geometry.component_dot(comps, comps))
    scale = np.divide(profile.a(mag), mag, out=np.zeros_like(mag), where=mag > 0.0)
    return g * scale[..., None]


def monotonicity_gap(profile, xi, zeta):
    """(flux(xi) - flux(zeta)) . (xi - zeta); strictly positive off the diagonal.

    Accepts batched inputs of shape (..., n). Raises DegenerateInputError if
    any pair is equal or either vector vanishes.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.any(np.all(xi == zeta, axis=-1)):
        raise DegenerateInputError("monotonicity gap needs xi != zeta")
    if np.any(np.all(xi == 0.0, axis=-1)) or np.any(np.all(zeta == 0.0, axis=-1)):
        raise DegenerateInputError("monotonicity gap needs nonzero vectors")
    diff = xi - zeta
    gap = np.sum((flux(profile, xi) - flux(profile, zeta)) * diff, axis=-1)
    return float(gap) if gap.shape == () else gap


@dataclass(frozen=True)
class EllipticityReport:
    """Outcome of sampling the ratio t a'(t)/a(t) against [a0, a1]."""

    samples: np.ndarray
    ratios: np.ndarray
    ok: np.ndarray
    a0: float
    a1: float
    min_ratio: float
    max_ratio: float
    passed: bool
    failures: tuple


def certify_ellipticity(profile, t_samples):
    """Check a0 <= t a'(t)/a(t) <= a1 on the given positive samples."""
    t = np.asarray(t_samples, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("ellipticity samples must be positive")
    ratios = profile.ratio(t)
    ok = (ratios >= profile.a0 - ELLIPTICITY_SLACK) & (ratios <= profile.a1 + ELLIPTICITY_SLACK)
    failures = tuple(
        (float(tt), float(rr)) for tt, rr in zip(t[~ok], ratios[~ok])
    )
    return EllipticityReport(
        samples=t,
        ratios=ratios,
        ok=ok,
        a0=profile.a0,
        a1=profile.a1,
        min_ratio=float(np.min(ratios)),
        max_ratio=float(np.max(ratios)),
        passed=bool(ok.all()),
        failures=failures,
    )
