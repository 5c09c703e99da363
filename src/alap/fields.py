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

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: absolute tolerance of the finite-difference divergence cross-check
DIV_FD_TOL = 1e-6


@dataclass(frozen=True)
class FieldH:
    """Immutable affine drift field H(x) = coeff @ x + offset with its
    certified bounds.

    A field maps point arrays of shape (..., n) to vectors (..., n), and its
    divergence is the constant tr(coeff). ``h_lower`` is present only for
    fields valid in transversal mode. The pair (coeff, offset) is left out
    of compare and hash, which see the kind and the bounds.
    """

    kind: str
    coeff: np.ndarray = field(repr=False, compare=False)
    offset: np.ndarray = field(repr=False, compare=False)
    h_upper: float = 0.0
    h_lower: Optional[float] = None

    def __call__(self, x):
        out = np.asarray(x, dtype=float) @ self.coeff.T
        out += self.offset  # in place: a face array's evaluation holds one array
        return out

    def divergence(self, x):
        return np.full(np.shape(x)[:-1], float(np.trace(self.coeff)))

    @property
    def dim(self):
        return len(self.offset)

    @property
    def lipschitz_const(self):
        """The Lipschitz constant of H in the max norm: the largest row sum of |coeff|."""
        return float(np.max(np.sum(np.abs(self.coeff), axis=1)))

    @property
    def transversal(self):
        return self.h_lower is not None


def make_constant_field(c):
    """Constant field H == c with c_n > 0; div H == 0."""
    c = np.asarray(c, dtype=float)
    if c[-1] <= 0.0:
        raise ValueError(f"constant field needs positive last component, got {c[-1]}")
    return FieldH(
        kind="constant",
        coeff=np.zeros((len(c), len(c))),
        offset=c,
        h_upper=float(np.max(np.abs(c))),
        h_lower=float(c[-1]),
    )


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
    corners = np.array(list(itertools.product(*zip(domain.lower, domain.upper))))
    h_corner = corners @ coeff.T + offset
    hn_min = float(np.min(h_corner[:, -1]))
    if hn_min <= 0.0:
        raise ValueError(f"affine field needs H_n > 0 on the domain; corner min {hn_min}")
    h_upper = max(float(np.max(np.abs(h_corner))), abs(trace))
    return FieldH(kind="affine", coeff=coeff, offset=offset, h_upper=h_upper, h_lower=hn_min)


@dataclass(frozen=True)
class FieldReport:
    """Per-sample bound checks plus the FD divergence cross-check, with one
    entry per sample point in each array."""

    mode: str
    passed: bool
    worst: dict
    points: np.ndarray
    values: np.ndarray
    divergence: np.ndarray
    fd_divergence: np.ndarray
    ok: np.ndarray


def certify_field(fieldh, domain, samples, mode="transversal"):
    """Certify the bound set of ``mode`` at the given sample points.

    Every sample point gets the field value, the divergence, the central
    finite-difference divergence, and one flag for all bounds. The FD cross-check
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

    worst_idx = int(np.argmax(np.abs(fd_div - divs)))
    worst = {
        "max_abs_H": float(np.max(np.abs(hvals))),
        "max_abs_div": float(np.max(np.abs(divs))),
        "min_H_n": float(np.min(hvals[..., -1])),
        "max_fd_mismatch": float(np.abs(fd_div - divs)[worst_idx]),
        "worst_fd_point": tuple(map(float, x[worst_idx])),
    }
    return FieldReport(
        mode=mode, passed=bool(ok.all()), worst=worst, points=x, values=hvals,
        divergence=divs, fd_divergence=fd_div, ok=ok,
    )
