"""Deterministic quadrature helpers.

Adaptive Simpson with interval bisection is used where a certified absolute
tolerance is required (barrier profile integrals); a fixed-order
Gauss-Legendre rule is used where vectorized throughput matters (primitive
of the nonlinearity evaluated on whole arrays).
"""

import functools

import numpy as np

from alap.errors import QuadratureError


@functools.cache
def _gauss_legendre_01():
    """32-node Gauss-Legendre nodes and weights mapped from [-1, 1] to
    [0, 1], read-only and built on first use: only the log-power primitive
    reads them, so a power-law run never imports ``numpy.polynomial``."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    table = 0.5 * (nodes + 1.0), 0.5 * weights
    for column in table:
        column.flags.writeable = False
    return table


#: bisection depth at which ``adaptive_simpson`` gives up
SIMPSON_MAX_DEPTH = 60


def adaptive_simpson(f, a, b, tol):
    """Integral of ``f`` on [a, b] to absolute tolerance ``tol``.

    Classic recursive Simpson bisection with the 1/15 error estimate.
    Raises QuadratureError if SIMPSON_MAX_DEPTH bisections are reached
    before the local tolerance is met (signals an inconsistent integrand).
    """
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, SIMPSON_MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    # roundoff floor: once the requested tolerance falls below the float
    # resolution of the partial sums, further bisection cannot help
    floor = 4.0 * np.finfo(float).eps * (abs(left) + abs(right))
    if abs(err) <= max(15.0 * tol, floor) or lm == a or rm == m:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson did not converge on [{a}, {b}] (residual {err:.3e})"
        )
    half = 0.5 * tol
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def gauss_primitive(f, t):
    """Vectorized ``int_0^t f(s) ds`` by 32-node Gauss-Legendre on [0, t].

    Exact to near machine precision for integrands analytic on [0, t];
    ``t`` may be any array of non-negative values.
    """
    x01, w01 = _gauss_legendre_01()
    t = np.asarray(t, dtype=float)
    scaled = t[..., None] * x01
    vals = f(scaled)
    return t * np.sum(vals * w01, axis=-1)
