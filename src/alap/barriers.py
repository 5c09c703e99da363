"""Explicit comparison functions and their certified differential inequalities.

Two families are implemented, both radially symmetric:

* RingBarrier: v = k (exp(-alpha rho^2) - exp(-alpha R_out^2)) on the ring
  r/2 <= rho <= R_out = r + margin, with two sets of constants:
  - radial: kappa = 2 (1 + n/a0), alpha = kappa / r^2, margin in (0, r) and
    k fixed by v(r/2) = m. It is a subsolution in the strong sense
    Delta_A v >= a(|grad v|)/rho, which pins the growth of the head near a
    ball touching the free boundary and yields two closed-form growth
    constants (one per sign of the ring flux margin);
  - Hopf: 1/2 < kappa < 2 (1 + (n-2)/a0), alpha = 4 kappa / r^2, margin 0
    and k = 1; scaled by a small s it satisfies
    Delta_A (s v) >= a(s |grad v|)/rho, the engine of the boundary-point
    lemma behind the strong maximum principle.

* BoundaryBarrier: v = theta(|x - center| - R0) built on an exterior
  sphere of radius R0, where theta is the explicit primitive of an inverse
  flux law chosen so that a'(theta') theta'' + ((n-1)/R0) a(theta') + h = 0;
  it dominates the head near the zero-data boundary portion and its slope
  at 0 is the boundary growth constant.

Everything here is exact formula evaluation plus quadrature; no solver
regularization enters, so certification margins are meaningful at the
1e-10 level.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from alap.quadrature import adaptive_simpson

#: pass threshold for pointwise differential-inequality margins
INEQ_TOL = 1e-10


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != dim:
        raise ValueError(f"points have dimension {pts.shape[-1]}, barrier has {dim}")
    return pts


def _canonical_kappa(dim, a0):
    """The radial ring's decay parameter 2 (1 + n/a0)."""
    return 2.0 * (1.0 + dim / a0)


# ---------------------------------------------------------------------------
# ring barriers: the radial subsolution and the boundary-point (Hopf) ring


@dataclass(frozen=True)
class RingBarrier:
    """Ring comparison function v = k (exp(-alpha rho^2) - exp(-alpha R_out^2)).

    Attributes:
        center: ball center.
        radius: inner ball radius r; the ring is [r/2, r + margin].
        margin: outer collar width, in (0, r) for the radial ring, 0 for Hopf.
        floor_value: v(r/2), the head minimum m the radial ring is pinned to.
        dim: ambient dimension (2 or 3).
        a0: lower ellipticity exponent of the profile in use.
        kappa: decay parameter.
        alpha: kappa / r^2 (radial) or 4 kappa / r^2 (Hopf).
        amplitude: k; 1 for the Hopf ring.
    """

    center: tuple
    radius: float
    margin: float
    floor_value: float
    dim: int
    a0: float
    kappa: float
    alpha: float
    amplitude: float

    @property
    def outer_radius(self):
        return self.radius + self.margin

    def rho(self, x):
        pts = _as_points(x, self.dim)
        return np.sqrt(np.sum((pts - np.asarray(self.center)) ** 2, axis=-1))


def make_radial_barrier(center, radius, margin, floor_value, dim, a0, kappa=None):
    """Build the radial ring; kappa defaults to the canonical 2 (1 + n/a0).

    An explicit kappa is allowed (used to witness sharpness of the
    canonical choice) and only needs to be positive.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 0.0 < margin < radius:
        raise ValueError("margin must lie in (0, radius)")
    if floor_value < 0:
        raise ValueError("floor value must be non-negative")
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if a0 <= 0:
        raise ValueError("a0 must be positive")
    if kappa is None:
        kappa = _canonical_kappa(dim, a0)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    alpha = kappa / radius**2
    outer = radius + margin
    denom = math.exp(-alpha * radius**2 / 4.0) - math.exp(-alpha * outer**2)
    return RingBarrier(
        center=tuple(float(c) for c in center), radius=float(radius), margin=float(margin),
        floor_value=float(floor_value), dim=dim, a0=float(a0), kappa=float(kappa),
        alpha=float(alpha), amplitude=float(floor_value / denom),
    )


def hopf_kappa_range(dim, a0):
    return 0.5, 2.0 * (1.0 + (dim - 2.0) / a0)


def make_hopf_barrier(center, radius, kappa, dim, a0):
    """Build the unit-amplitude Hopf ring on R/2 <= rho <= R; kappa must lie
    in hopf_kappa_range (where the certificate still fails for part of the
    range when a0 is small, which it reports honestly)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    lo, hi = hopf_kappa_range(dim, a0)
    if not lo < kappa < hi:
        raise ValueError(f"kappa must lie in ({lo}, {hi}), got {kappa}")
    alpha = 4.0 * kappa / radius**2
    return RingBarrier(
        center=tuple(float(c) for c in center), radius=float(radius), margin=0.0,
        floor_value=math.exp(-alpha * radius**2 / 4.0) - math.exp(-alpha * radius**2),
        dim=dim, a0=float(a0), kappa=float(kappa), alpha=alpha, amplitude=1.0,
    )


def _ring_pieces(barrier, rho):
    """|grad v|, Laplacian of v, and the Hessian contraction sum_ij v_i v_j v_ij
    of v = k (exp(-alpha rho^2) - const)."""
    a, k, n = barrier.alpha, barrier.amplitude, barrier.dim
    e = np.exp(-a * rho**2)
    grad_mag = 2.0 * a * k * rho * e
    lap = -2.0 * a * k * e * (n - 2.0 * a * rho**2)
    hess_contr = -((2.0 * a * k) ** 3) * rho**2 * np.exp(-3.0 * a * rho**2) * (
        1.0 - 2.0 * a * rho**2
    )
    return grad_mag, lap, hess_contr


def radial_a_laplacian(barrier, profile, x, scale=1.0):
    """Closed-form Delta_A (scale v) at ring points, where grad v never vanishes.

    Assembled from the second-order expansion
    Delta_A v = a(q)/q^3 { q^2 lap + (a'(q) q / a(q) - 1) sum v_i v_j v_ij },
    into which the scale enters only through a(scale q) and a'(scale q).
    """
    rho = barrier.rho(x)
    q, lap, hess = _ring_pieces(barrier, rho)
    sq = scale * q
    ratio = profile.da(sq) * sq / profile.a(sq)
    out = profile.a(sq) / q**3 * (q**2 * lap + (ratio - 1.0) * hess)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


#: uniform ring points that ``ring_sampling_plan`` draws after its tensor grid
RING_RANDOM_POINTS = 100


def ring_sampling_plan(barrier, seed=0):
    """Deterministic ring sampling: tensor radii x angles plus seeded extras.

    40 radii span the closed ring [radius/2, outer_radius]. Angles: 16 in
    2D; a 12 x 12 (polar x azimuthal) grid in 3D. RING_RANDOM_POINTS
    uniform ring points are appended from the given seed.
    """
    rng = np.random.default_rng(seed)
    radii = np.linspace(barrier.radius / 2.0, barrier.outer_radius, 40)
    center = np.asarray(barrier.center)
    if barrier.dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        polar = np.linspace(0.05, math.pi - 0.05, 12)
        azim = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        tt, pp = np.meshgrid(polar, azim, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
    pts = (radii[:, None, None] * dirs[None, :, :] + center).reshape(-1, barrier.dim)
    extra_r = rng.uniform(barrier.radius / 2.0, barrier.outer_radius, RING_RANDOM_POINTS)
    raw = rng.normal(size=(RING_RANDOM_POINTS, barrier.dim))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    pts_extra = center + extra_r[:, None] * raw
    return np.concatenate([pts, pts_extra], axis=0)


@dataclass(frozen=True)
class BarrierReport:
    """Pointwise margins of a differential inequality over a sample set.

    The inequality is lhs >= rhs, or lhs <= rhs when ``lhs_above`` is
    False (a supersolution); a point passes when its margin, the room the
    inequality leaves there, is at least -INEQ_TOL.
    """

    label: str
    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    lhs_above: bool = True

    @cached_property
    def margins(self):
        return self.lhs - self.rhs if self.lhs_above else self.rhs - self.lhs

    @cached_property
    def ok(self):
        """Per point, whether its margin is at least -INEQ_TOL."""
        return self.margins >= -INEQ_TOL

    @property
    def min_margin(self):
        return float(np.min(self.margins))

    @property
    def passed(self):
        return bool(np.all(self.ok))

    def columns(self):
        """CSV columns: label, point coordinates, lhs, rhs, margin and pass."""
        label = [self.label] * len(self.points)
        return [label, *self.points.T, self.lhs, self.rhs, self.margins, self.ok.astype(int)]


def _certify_ring(label, barrier, profile, scale, samples, seed):
    """Check Delta_A (scale v) >= a(scale |grad v|)/rho over the ring plan."""
    pts = ring_sampling_plan(barrier, seed) if samples is None else _as_points(samples, barrier.dim)
    rho = barrier.rho(pts)
    q, _, _ = _ring_pieces(barrier, rho)
    lhs = radial_a_laplacian(barrier, profile, pts, scale)
    rhs = profile.a(scale * q) / rho
    return BarrierReport(label=label, points=pts, lhs=lhs, rhs=rhs)


def certify_radial_inequality(barrier, profile, samples=None, seed=0):
    """Check Delta_A v >= a(|grad v|)/rho pointwise over the sampling plan."""
    label = f"radial_{profile.family}_n{barrier.dim}_k{barrier.kappa:g}"
    return _certify_ring(label, barrier, profile, 1.0, samples, seed)


def certify_hopf_inequality(barrier, profile, scale, samples=None, seed=0):
    """Check Delta_A (scale v) >= a(scale |grad v|)/rho over the ring plan."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    label = f"hopf_{profile.family}_n{barrier.dim}_k{barrier.kappa:g}_s{scale:g}"
    return _certify_ring(label, barrier, profile, scale, samples, seed)


def lipschitz_constant_nonpositive_margin(profile, dim, h_upper, delta):
    """Growth constant for the branch where the ring flux margin is <= 0:

        a_inv(h_upper * delta) * (exp(3 kappa / 4) - 1) / kappa
    """
    if h_upper <= 0 or delta <= 0:
        raise ValueError("h_upper and delta must be positive")
    kap = _canonical_kappa(dim, profile.a0)
    return float(profile.a_inv(h_upper * delta)) * (math.exp(0.75 * kap) - 1.0) / kap


def lipschitz_constant_positive_margin(profile, dim, h_upper):
    """Growth constant for the positive-margin branch:

        a_inv(h_upper) * (exp(3 kappa / 4) - 1) / (2 kappa)
    """
    if h_upper <= 0:
        raise ValueError("h_upper must be positive")
    kap = _canonical_kappa(dim, profile.a0)
    return float(profile.a_inv(h_upper)) * (math.exp(0.75 * kap) - 1.0) / (2.0 * kap)


# ---------------------------------------------------------------------------
# boundary barrier on an exterior sphere


@dataclass(frozen=True)
class BoundaryBarrier:
    """Distance-profile supersolution pinned to an exterior sphere.

    theta(t) integrates a_inv(E(t)) with
    E(t) = (a(M/R0) + c) exp(((n-1)/R0)(D - t)) - c and c = h R0/(n-1),
    so that a'(theta') theta'' + ((n-1)/R0) a(theta') + h = 0 identically.
    The tabulated knots carry cumulative adaptive-Simpson integrals.
    """

    center: tuple
    sphere_radius: float
    m_ceiling: float
    h_upper: float
    diameter: float
    dim: int
    knots: np.ndarray
    table: np.ndarray
    quad_tol: float

    def distance(self, x):
        pts = _as_points(x, self.dim)
        return np.sqrt(np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)) - self.sphere_radius


def _theta_core(profile, m_ceiling, r0, h_upper, diameter, dim):
    c = h_upper * r0 / (dim - 1.0)
    base = float(profile.a(m_ceiling / r0)) + c
    rate = (dim - 1.0) / r0

    def exp_arg(t):
        return base * np.exp(rate * (diameter - np.asarray(t, dtype=float))) - c

    def slope(t):
        return profile.a_inv(exp_arg(t))

    return c, exp_arg, slope


def _theta(barrier, profile):
    """(c, E, theta') of a built boundary barrier."""
    return _theta_core(profile, barrier.m_ceiling, barrier.sphere_radius, barrier.h_upper,
                       barrier.diameter, barrier.dim)


def _theta_derivatives(barrier, profile, t):
    """theta'(t) and theta''(t), the derivative of the closed-form theta'."""
    c, exp_arg, slope = _theta(barrier, profile)
    rate = (barrier.dim - 1.0) / barrier.sphere_radius
    sl = slope(t)
    return sl, -rate * (exp_arg(t) + c) / profile.da(sl)


#: knots of the tabulated boundary profile theta on [0, D]
THETA_KNOTS = 257

#: the tabulated theta's absolute tolerance, relative to max(M, crude integral)
THETA_QUAD_TOL = 1e-10


def make_boundary_barrier(profile, center, sphere_radius, m_ceiling, h_upper, diameter, dim):
    """Tabulate theta on [0, D] with certified absolute tolerance.

    The tolerance is THETA_QUAD_TOL * max(M, crude integral) overall,
    split across the THETA_KNOTS - 1 knot intervals; the integral scale
    enters because theta can exceed M by orders of magnitude for strongly
    degenerate laws, and an absolute M-scaled tolerance would then sit
    below float resolution.
    """
    if sphere_radius <= 0 or m_ceiling <= 0 or h_upper <= 0 or diameter <= 0:
        raise ValueError("sphere_radius, m_ceiling, h_upper, diameter must be positive")
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    _, _, slope = _theta_core(profile, m_ceiling, sphere_radius, h_upper, diameter, dim)
    knots = np.linspace(0.0, diameter, THETA_KNOTS)
    crude = float(np.trapezoid(slope(knots), knots))
    quad_tol = THETA_QUAD_TOL * max(m_ceiling, abs(crude))
    per_interval = quad_tol / (THETA_KNOTS - 1)
    table = np.zeros(THETA_KNOTS)
    for i in range(1, THETA_KNOTS):
        piece = adaptive_simpson(lambda s: float(slope(s)), knots[i - 1], knots[i], per_interval)
        table[i] = table[i - 1] + piece
    return BoundaryBarrier(
        center=tuple(float(c) for c in center),
        sphere_radius=float(sphere_radius),
        m_ceiling=float(m_ceiling),
        h_upper=float(h_upper),
        diameter=float(diameter),
        dim=dim,
        knots=knots,
        table=table,
        quad_tol=quad_tol,
    )


def boundary_profile_value(barrier, profile, t):
    """theta(t) on [0, D]: tabulated prefix plus an adaptive remainder."""
    t = float(t)
    if t < 0.0 or t > barrier.diameter * (1.0 + 1e-12):
        raise ValueError(f"t = {t} outside [0, {barrier.diameter}]")
    _, _, slope = _theta(barrier, profile)
    idx = int(np.searchsorted(barrier.knots, t, side="right")) - 1
    idx = max(0, min(idx, len(barrier.knots) - 1))
    base_t = float(barrier.knots[idx])
    tail = 0.0
    if t > base_t:
        tail = adaptive_simpson(lambda s: float(slope(s)), base_t, t, barrier.quad_tol)
    return float(barrier.table[idx] + tail)


def boundary_profile_slope(barrier, profile, t):
    """theta'(t) = a_inv(E(t)); positive and decreasing on [0, D]."""
    return _theta(barrier, profile)[2](t)


def boundary_profile_ode_residual(barrier, profile, t):
    """a'(theta') theta'' + ((n-1)/R0) a(theta') + h, evaluated pointwise.

    theta'' comes from differentiating the closed-form theta' analytically,
    so the residual measures nothing but the coherence of a, a' and a_inv;
    it must vanish to ~1e-8 h. (Note: the first factor is a', not a; the
    a-form does not annihilate the closed-form slope.)
    """
    sl, second = _theta_derivatives(barrier, profile, np.asarray(t, dtype=float))
    rate = (barrier.dim - 1.0) / barrier.sphere_radius
    out = profile.da(sl) * second + rate * profile.a(sl) + barrier.h_upper
    return float(out) if out.shape == () else out


def boundary_a_laplacian(barrier, profile, x):
    """Delta_A of theta(d(x)) outside the sphere, via the radial expansion."""
    pts = _as_points(x, barrier.dim)
    dist_center = np.sqrt(np.sum((pts - np.asarray(barrier.center)) ** 2, axis=-1))
    d = dist_center - barrier.sphere_radius
    if np.any(d < -1e-12) or np.any(d > barrier.diameter * (1.0 + 1e-12)):
        raise ValueError("points must lie between the sphere and distance D from it")
    sl, second = _theta_derivatives(barrier, profile, d)
    out = profile.da(sl) * second + (barrier.dim - 1.0) / dist_center * profile.a(sl)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def certify_boundary_supersolution(barrier, profile, fieldh, samples):
    """Check Delta_A v + div H <= 0 at points outside the exterior sphere."""
    pts = _as_points(samples, barrier.dim)
    lhs = boundary_a_laplacian(barrier, profile, pts) + fieldh.divergence(pts)
    return BarrierReport(
        label=f"boundary_{profile.family}_n{barrier.dim}",
        points=pts, lhs=lhs, rhs=np.zeros_like(lhs), lhs_above=False,
    )
