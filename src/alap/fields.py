"""Drift vector fields H(x) with certified structural bounds.

Two regimes are distinguished, matching the two halves of the theory:

* basic: |H|_inf <= h_upper and |div H| <= h_upper (enough for the
  regularity machinery);
* transversal: additionally 0 < h_lower <= H_n <= h_upper componentwise
  bounds, H Lipschitz, and div H >= 0 (enough for the characteristic-flow
  machinery, whose orbits then cross every level transversally).

Only constant and affine fields are provided: their bounds are exact by
corner evaluation on a box, and together they realize every regime the
toolkit exercises (zero / positive divergence, straight / curved orbits).
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: absolute tolerance of the finite-difference divergence cross-check
DIV_FD_TOL = 1e-6


@dataclass(frozen=True)
class FieldH:
    """Immutable drift field with its certified bounds.

    ``eval_fn`` maps point arrays of shape (..., n) to vectors (..., n);
    ``div_fn`` maps them to scalars (...).  ``h_lower`` and
    ``lipschitz_const`` are present only for fields valid in transversal mode.
    ``affine`` is the pair (coeff, offset) with H(x) = coeff @ x + offset,
    set by the constant and affine makers; orbits are integrated exactly
    from it, so a field without it has no orbits.
    """

    kind: str
    dim: int
    eval_fn: Callable = field(repr=False)
    div_fn: Callable = field(repr=False)
    h_upper: float = 0.0
    h_lower: Optional[float] = None
    lipschitz_const: Optional[float] = None
    params: tuple = ()
    affine: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __call__(self, x):
        return self.eval_fn(np.asarray(x, dtype=float))

    def divergence(self, x):
        return self.div_fn(np.asarray(x, dtype=float))

    @property
    def transversal(self):
        return self.h_lower is not None


def make_constant_field(c):
    """Constant field H == c with c_n > 0; div H == 0."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if c[-1] <= 0.0:
        raise ValueError(f"constant field needs positive last component, got {c[-1]}")

    def eval_fn(x):
        out = np.empty(x.shape)
        out[...] = c
        return out

    def div_fn(x):
        return np.zeros(x.shape[:-1])

    return FieldH(
        kind="constant",
        dim=n,
        eval_fn=eval_fn,
        div_fn=div_fn,
        h_upper=float(np.max(np.abs(c))),
        h_lower=float(c[-1]),
        lipschitz_const=0.0,
        params=tuple(c),
        affine=(np.zeros((n, n)), c),
    )


def _corners(lower, upper):
    n = len(lower)
    pts = np.array(
        [[(upper if (k >> i) & 1 else lower)[i] for i in range(n)] for k in range(2**n)]
    )
    return pts


def make_affine_field(coeff, offset, domain):
    """Affine field H(x) = coeff @ x + offset, certified on ``domain``.

    Being affine, the componentwise extrema over a box are attained at the
    corners, so the bounds h_lower and h_upper are exact. Rejects fields
    with tr(coeff) < 0 (divergence sign) or with a non-positive last
    component anywhere on the box.
    """
    coeff = np.asarray(coeff, dtype=float)
    offset = np.asarray(offset, dtype=float)
    n = offset.shape[0]
    if coeff.shape != (n, n):
        raise ValueError(f"coefficient matrix must be {n}x{n}, got {coeff.shape}")
    trace = float(np.trace(coeff))
    if trace < 0.0:
        raise ValueError(f"affine field needs tr(coeff) >= 0, got {trace}")
    corners = _corners(domain.lower, domain.upper)
    h_corner = corners @ coeff.T + offset
    hn_min = float(np.min(h_corner[:, -1]))
    if hn_min <= 0.0:
        raise ValueError(f"affine field needs H_n > 0 on the domain; corner min {hn_min}")
    h_upper = max(float(np.max(np.abs(h_corner))), abs(trace))

    def eval_fn(x):
        return x @ coeff.T + offset

    def div_fn(x):
        return np.full(x.shape[:-1], trace)

    return FieldH(
        kind="affine",
        dim=n,
        eval_fn=eval_fn,
        div_fn=div_fn,
        h_upper=h_upper,
        h_lower=hn_min,
        lipschitz_const=float(np.max(np.sum(np.abs(coeff), axis=1))),
        params=(tuple(map(tuple, coeff)), tuple(offset)),
        affine=(coeff, offset),
    )


@dataclass(frozen=True)
class FieldReport:
    """Per-sample bound checks plus the FD divergence cross-check."""

    mode: str
    passed: bool
    worst: dict
    rows: tuple


def certify_field(fieldh, domain, samples, mode="transversal"):
    """Certify the bound set of ``mode`` at the given sample points.

    Every sample row records the field value, the divergence, the central
    finite-difference divergence, and a per-bound flag. The FD cross-check
    must agree with the analytic divergence to DIV_FD_TOL.
    """
    if mode not in ("basic", "transversal"):
        raise ValueError(f"mode must be basic or transversal, got {mode!r}")
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    hvals = fieldh(x)
    divs = fieldh.divergence(x)
    step = 1e-5 * domain.delta
    fd_div = np.zeros_like(divs)
    for k in range(fieldh.dim):
        e = np.zeros(fieldh.dim)
        e[k] = step
        fd_div += (fieldh(x + e)[..., k] - fieldh(x - e)[..., k]) / (2.0 * step)

    hu = fieldh.h_upper
    ok_sup = np.max(np.abs(hvals), axis=-1) <= hu + 1e-12
    ok_div = np.abs(divs) <= hu + 1e-12
    ok_fd = np.abs(fd_div - divs) <= DIV_FD_TOL
    ok = ok_sup & ok_div & ok_fd
    if mode == "transversal":
        hl = fieldh.h_lower if fieldh.h_lower is not None else -np.inf
        ok_lower = hvals[..., -1] >= hl - 1e-12
        ok_pos = hvals[..., -1] > 0.0
        ok_divsign = divs >= -1e-12
        ok = ok & ok_lower & ok_pos & ok_divsign

    rows = tuple(
        tuple(map(float, x[i]))
        + tuple(map(float, hvals[i]))
        + (float(divs[i]), float(fd_div[i]), int(ok[i]))
        for i in range(x.shape[0])
    )
    worst_idx = int(np.argmax(np.abs(fd_div - divs)))
    worst = {
        "max_abs_H": float(np.max(np.abs(hvals))),
        "max_abs_div": float(np.max(np.abs(divs))),
        "min_H_n": float(np.min(hvals[..., -1])),
        "max_fd_mismatch": float(np.abs(fd_div - divs)[worst_idx]),
        "worst_fd_point": tuple(map(float, x[worst_idx])),
    }
    return FieldReport(mode=mode, passed=bool(ok.all()), worst=worst, rows=rows)
