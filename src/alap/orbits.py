"""Characteristic orbits of the drift field and their flow Jacobian.

An orbit is the maximal integral curve of X' = H(X) through a seed
(omega, h) placed on the level x_n = h; since H_n >= h_lower > 0 the last
coordinate increases strictly along it and the curve leaves the box in
both time directions through faces below and above the level.

The fields are affine, H(x) = A x + b, so every orbit is the
exact flow X(t) = exp(tM) X0 in homogeneous coordinates, with the
augmented matrix M = [[A, b], [0, 0]] (Van Loan 1978; Moler & Van Loan
2003). Orbits are stored at the fixed spacing delta(Omega)/2048, built for
a whole batch of seeds by doubling: the samples at times K dt .. (2K-1) dt
are those at 0 .. (K-1) dt times exp(K dt M), for the seeds still inside
the box. Exit times are bisected on the exact flow from the last sample
inside, and dense output is the exact flow from the nearest sample. The
flow map T_h(t, omega) = X(t, omega) has the Jacobian determinant

    Y_h(t, omega) = -H_n(omega, h) exp( int_0^t div H(X(s)) ds )
                  = -H_n(omega, h) exp( tr(A) t ),

since div H is the constant tr(A). It is cross-checked against a
finite-difference determinant assembled from the exact flow of 2(n-1)+1
shifted seeds.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from alap.errors import DomainExitError, StepFailureError

#: fixed integrator step as a fraction of the domain diameter
STEP_DIVISOR = 2048

#: step budget of a march: it doubles its samples while it holds at most this many
MAX_STEPS = 64 * STEP_DIVISOR


@dataclass(frozen=True)
class Orbit:
    """Sampled maximal integral curve through (omega, h).

    ``times``/``points`` hold the fixed-step states between the exit times
    ``t_minus < 0 < t_plus``; the exact exit endpoints and their face names
    are stored separately.
    """

    omega: tuple
    level: float
    times: np.ndarray
    points: np.ndarray
    t_minus: float
    t_plus: float
    exit_minus: np.ndarray
    exit_plus: np.ndarray
    face_minus: str
    face_plus: str
    step: float

    @property
    def seed(self):
        return np.array(list(self.omega) + [self.level])


def _generator(fieldh):
    """The augmented matrix M = [[A, b], [0, 0]] of the field."""
    gen = np.zeros((fieldh.dim + 1, fieldh.dim + 1))
    gen[:-1, :-1] = fieldh.coeff
    gen[:-1, -1] = fieldh.offset
    return gen


def _expm(mats):
    """exp of every square matrix of the stack ``mats`` (..., k, k).

    Scaling and squaring: each matrix is scaled by 2**-s, s the least power
    that brings its 1-norm below 1/2, summed by its Taylor series to degree
    16 (remainder below 1e-19) and squared s times. Each matrix is computed
    on its own, whatever else is in the stack.
    """
    norms = np.max(np.sum(np.abs(mats), axis=-2), axis=-1)
    s = np.asarray(np.maximum(np.frexp(norms)[1] + 1, 0))
    scaled = np.ldexp(mats, -s[..., None, None])
    term = out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape)
    for k in range(1, 17):
        term = term @ scaled / k
        out = out + term
    for r in range(int(np.max(s, initial=0))):
        out = np.where((s > r)[..., None, None], out @ out, out)
    return out


def _flow(gen, x, ts):
    """exp(t M) applied to each row of ``x`` (..., n), each with its own time
    of ``ts`` (...)."""
    return _apply(_expm(np.asarray(ts, dtype=float)[..., None, None] * gen), x)


def _apply(flows, x):
    """The flow matrices ``flows`` (..., n+1, n+1) applied to the rows of
    ``x`` (..., n). The product is summed column by column, so a row's
    result does not depend on the other rows."""
    out = flows[..., :-1, -1]
    for j in range(x.shape[-1]):
        out = out + flows[..., :-1, j] * x[..., j, None]
    return out


def _reversed(fieldh):
    """The field -H, whose forward orbits are the backward orbits of H."""
    return dataclasses.replace(fieldh, coeff=-fieldh.coeff, offset=-fieldh.offset)


def _exit_face(domain, x):
    """The name of the face nearest to ``x``; a tie goes to the lower axis, then to min."""
    k = int(np.argmin(np.abs(np.stack([x - domain.lower, x - domain.upper], axis=1))))
    return f"{'xyz'[k // 2]}{('min', 'max')[k % 2]}"


def _march(fieldh, domain, seeds, dt, tol_len, max_steps):
    """Exact samples of every row of ``seeds`` at the times k * dt until it
    leaves the box.

    The samples of the rows still inside double, in blocks of an eighth of
    a doubling (at least 128 samples): a row leaves once it has a sample
    outside the box, so no row gets samples far past its exit, and its
    steps end at its last sample before the first one outside. Each row's
    flow depends on its own samples only, so dropping the others changes
    none of its bits. The step after the last sample is bisected on the
    exact flow, all rows with one matrix per halving, until the bracket
    length times h_upper is at most ``tol_len``. The flow matrices come in
    two ``_expm`` stacks, one of every doubling shift 2**k dt the step
    budget allows and one of every bisection width; ``_expm`` computes each
    matrix of a stack on its own, so each is the matrix a lone call gives.
    Every seed lies inside the box. Returns (samples, steps, t_exit,
    x_exit): ``samples[i]`` holds row i at the times k * dt, k = 0 ..
    steps[i].
    """
    gen = _generator(fieldh)
    x = np.array(seeds, dtype=float)[None]
    samples, steps = [None] * x.shape[1], np.zeros(x.shape[1], dtype=int)
    rows = np.arange(x.shape[1])  # the rows of ``x``, still inside
    # the shifts past every row's exit go unused, and for a fast-growing
    # field their matrices may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        doubling = _expm((dt * 2.0 ** np.arange(max_steps.bit_length()))[:, None, None] * gen)
    while len(rows):
        if len(x) > max_steps:
            raise StepFailureError("orbit march exceeded its step budget")
        # the samples at K dt .. (2K-1) dt are those at 0 .. (K-1) dt
        # times exp(K dt M), K = len(x), a power of two
        shift = len(x)
        flows, block = doubling[shift.bit_length() - 1], max(128, shift // 8)
        later = []
        for lo in range(0, shift, block):
            later.append(_apply(flows, x[lo:lo + block]))
            inside = domain.contains(later[-1])
            left = ~np.all(inside, axis=0)
            if not np.any(left):
                continue
            for i, first in zip(np.flatnonzero(left), np.argmin(inside[:, left], axis=0)):
                parts = [x[:, i]] + [b[:, i] for b in later[:-1]] + [later[-1][:first, i]]
                samples[rows[i]], steps[rows[i]] = np.concatenate(parts), shift + lo + first - 1
            x, later, rows = x[:, ~left], [b[:, ~left] for b in later], rows[~left]
            if not len(rows):
                break
        x = np.concatenate([x] + later)
    halvings = 0
    while dt * 0.5**halvings * max(fieldh.h_upper, 1e-30) > tol_len:
        halvings += 1
    widths = dt * 0.5 ** np.arange(halvings + 1)
    halving = _expm(widths[:, None, None] * gen)
    x_lo = np.array([row[-1] for row in samples])
    lo = np.zeros(len(x_lo))
    for width, flows in zip(widths[1:], halving[1:]):
        trial = _apply(flows, x_lo)
        stay = domain.contains(trial)
        x_lo[stay] = trial[stay]
        lo[stay] += width
    return samples, steps, steps * dt + lo + widths[-1], _apply(halving[-1], x_lo)


def march_capacity(domain):
    """The time (2 MAX_STEPS - 1) dt: a march follows every orbit that
    leaves the box before it.

    ``_march`` doubles its samples from one while it holds at most
    MAX_STEPS, a power of two, so its last doubling reaches the sample
    2 MAX_STEPS - 1, and it stops a row at its first sample past the exit.
    H_n >= h_lower lifts x_n at least that fast inside the box, so the
    orbit from level h leaves it within max(top - h, h - bottom) / h_lower.
    """
    return (2 * MAX_STEPS - 1) * domain.delta / STEP_DIVISOR


def _omega_rows(omegas, dim):
    """Omegas as an (m, dim-1) array; in 2D a flat sequence of scalars
    is one omega per entry."""
    rows = np.asarray(omegas, dtype=float)
    if rows.ndim == 1 and dim == 2:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[1] != dim - 1:
        raise ValueError(f"omegas need shape (m, {dim - 1}), got {rows.shape}")
    return rows


def integrate_orbits(fieldh, omegas, level, domain, tol=1e-9):
    """Maximal orbits through (omega, level) for every omega, as one batch.

    ``omegas`` holds one point of the level per row (shape (m, n-1), or a
    flat sequence of scalars in 2D). All seeds march forward, then all
    backward along the reversed field; ``tol`` sets the positional
    resolution of the exit points, tol * delta(Omega). Returns a list of
    Orbit in the order of ``omegas``.
    """
    omegas = _omega_rows(omegas, domain.dim)
    seeds = np.concatenate([omegas, np.full((len(omegas), 1), float(level))], axis=1)
    outside = ~domain.contains(seeds)
    if np.any(outside):
        raise ValueError(f"seed {seeds[np.argmax(outside)]} lies outside the domain")
    if not len(seeds):
        return []
    delta = domain.delta
    dt = delta / STEP_DIVISOR
    tol_len = tol * delta
    fwd_pts, fwd_steps, t_plus, exit_plus = _march(fieldh, domain, seeds, dt, tol_len, MAX_STEPS)
    bwd_pts, bwd_steps, t_back, exit_minus = _march(
        _reversed(fieldh), domain, seeds, dt, tol_len, MAX_STEPS
    )
    out = []
    for i, omega in enumerate(omegas):
        nf, nb = fwd_steps[i], bwd_steps[i]
        # a row's samples go once its orbit holds them
        bwd, fwd, bwd_pts[i], fwd_pts[i] = bwd_pts[i], fwd_pts[i], None, None
        out.append(
            Orbit(
                omega=tuple(omega),
                level=float(level),
                times=np.concatenate([-dt * np.arange(nb, 0, -1), dt * np.arange(nf + 1)]),
                points=np.concatenate([bwd[:0:-1], fwd], axis=0),
                t_minus=float(-t_back[i]),
                t_plus=float(t_plus[i]),
                exit_minus=exit_minus[i].copy(),
                exit_plus=exit_plus[i].copy(),
                face_minus=_exit_face(domain, exit_minus[i]),
                face_plus=_exit_face(domain, exit_plus[i]),
                step=dt,
            )
        )
    return out


def integrate_orbit(fieldh, omega, level, domain, tol=1e-9):
    """Maximal orbit through (omega, level): a batch of one seed."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape != (domain.dim - 1,):
        raise ValueError(f"omega needs {domain.dim - 1} coordinates, got {omega.shape}")
    return integrate_orbits(fieldh, omega[None, :], level, domain, tol)[0]


def _check_times(t_minus, t_plus, ts):
    """DomainExitError unless every time of ``ts`` lies in its orbit's
    interval; the exit times are one pair for all times or one per time."""
    lo, hi, ts = np.broadcast_arrays(t_minus, t_plus, ts)
    bad = (ts < lo - 1e-15) | (ts > hi + 1e-15)
    if np.any(bad):
        i = np.argmax(bad)
        raise DomainExitError(f"t = {ts[i]} outside ({lo[i]}, {hi[i]})")


def orbit_point(fieldh, orbit, t):
    """Dense output X(t): the exact flow from the nearest stored sample.

    ``orbit`` is one Orbit with ``t`` a time or an array of times, or a
    list of orbits with ``t`` one time per orbit (row i is X(t[i]) on
    orbit i). The orbits' times, padded with +inf, form a table of one row
    per orbit (a lone orbit's one row serves all its times), and every
    time finds its nearest sample in one search over its row: the count of
    stored times below t, as ``searchsorted`` finds it (the padding is never
    below t). All rows flow in one batched product; each row's result is
    the one a lone call gives.
    """
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts)
    if isinstance(orbit, Orbit):
        orbit, rows = [orbit], np.zeros(len(flat), dtype=int)
    elif flat.shape != (len(orbit),):
        raise ValueError(f"{flat.size} times for {len(orbit)} orbits")
    else:
        rows = np.arange(len(orbit))
    exits = np.array([(o.t_minus, o.t_plus) for o in orbit]).reshape(-1, 2)
    _check_times(exits[:, 0], exits[:, 1], flat)
    sizes = np.array([len(o.times) for o in orbit], dtype=int)
    width = np.max(sizes, initial=0)
    pad = np.full(width, np.inf)  # pad[:0] leaves an empty list something to join
    table = np.concatenate(
        [pad[:0], *(part for o in orbit for part in (o.times, pad[len(o.times):]))]
    ).reshape(len(orbit), width)
    right = np.clip(np.sum(table < flat[:, None], axis=1), 1, sizes[rows] - 1)
    left = np.maximum(right - 1, 0)  # a one-sample orbit has right = 0
    idx = np.where(flat - table[rows, left] <= table[rows, right] - flat, left, right)
    x = np.array([orbit[r].points[i] for r, i in zip(rows, idx)]).reshape(-1, fieldh.dim)
    x = _flow(_generator(fieldh), x, flat - table[rows, idx])
    return x[0] if ts.ndim == 0 else x


def jacobian_analytic(fieldh, orbit, t):
    """Closed-form determinant -H_n(seed) exp(tr(A) t).

    The divergence of H = A x + b is the constant tr(A), so its integral
    along the orbit from the seed time 0 to t is tr(A) t. ``t`` is a time
    or an array of times.
    """
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts)
    _check_times(orbit.t_minus, orbit.t_plus, flat)
    vals = -float(fieldh(orbit.seed)[-1]) * np.exp(np.trace(fieldh.coeff) * flat)
    return float(vals[0]) if ts.ndim == 0 else vals


def jacobian_numeric_batch(fieldh, omegas, level, times, fd_step=1e-5):
    """Finite-difference determinants at ``times[i, j]`` on the orbit of omega i.

    The time column is the field value at X(t); the omega columns are
    central differences of 2(n-1) shifted seeds. Every shifted seed of
    every omega is taken along the exact flow to each of its times in one
    batched product. The column order (time first) gives (-1)**(n-1) H_n
    at t = 0, so the sign is normalized to the closed form's convention of
    -H_n in every dimension. Returns an array shaped like ``times``.
    """
    dim = fieldh.dim
    gen = _generator(fieldh)
    omegas = _omega_rows(omegas, dim)
    times = np.asarray(times, dtype=float).reshape(len(omegas), -1)
    shifts = np.zeros((2 * dim - 1, dim))
    for k in range(dim - 1):
        shifts[1 + 2 * k, k] = fd_step
        shifts[2 + 2 * k, k] = -fd_step
    seeds = np.concatenate([omegas, np.full((len(omegas), 1), float(level))], axis=1)
    batch = seeds[:, None, None, :] + shifts
    ends = _flow(gen, batch, times[:, :, None])
    hvals = fieldh(ends[..., 0, :])
    diffs = [
        (ends[..., 1 + 2 * k, :] - ends[..., 2 + 2 * k, :]) / (2.0 * fd_step)
        for k in range(dim - 1)
    ]
    jac = np.stack([hvals] + diffs, axis=-1)
    orientation = 1.0 if dim % 2 == 0 else -1.0
    return orientation * np.linalg.det(jac)


def jacobian_numeric(fieldh, omega, level, t, domain, fd_step=1e-5):
    """Finite-difference determinant of (t, omega) -> X(t, omega) at one
    time: a batch of one omega and one time. ``domain`` is not read: the
    exact flow needs no step size."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    dets = jacobian_numeric_batch(fieldh, omega[None, :], level, [[t]], fd_step)
    return float(dets[0, 0])


def jacobian_gap_tol(fieldh, domain, t_max, fd_step=1e-5):
    """Bound on the relative gap between ``jacobian_analytic`` and
    ``jacobian_numeric_batch`` at times |t| <= ``t_max`` in ``domain``.

    The flow is affine in its seed, so the central differences have no
    truncation error, only roundoff. Let L be the Lipschitz constant,
    m = max(h_upper, e^(L t_max)) and X the largest coordinate on the box.
    An end point sums n + 1 rounded terms of size at most m X, so a
    difference entry is off by at most d = (n + 1) ulp(m X) / fd_step. Along
    each of the n - 1 difference columns the determinant moves by at most
    n d times an (n-1)-minor of entries at most m, (n-1)! m^(n-1); and it
    is H_n(seed) e^(tr(A) t) >= h_lower e^(-n L t_max). So the relative gap
    is at most (n - 1) n! d m^(n-1) e^(n L t_max) / h_lower.
    """
    n = domain.dim
    growth = math.exp(fieldh.lipschitz_const * t_max)
    m = max(fieldh.h_upper, growth)
    x_max = float(np.max(np.abs([domain.lower, domain.upper])))
    d = (n + 1) * float(np.spacing(m * x_max)) / fd_step
    return (n - 1) * math.factorial(n) * d * m ** (n - 1) * growth**n / fieldh.h_lower


@dataclass(frozen=True)
class JacobianBoundsReport:
    """Measured range of -Y_h over orbit samples against the field bounds.

    With div H >= 0 the lower bound h_lower <= -Y_h is derivable for
    forward times (the divergence integral is nonnegative there) and that
    is what the pass flag asserts; the backward-time minimum is reported
    because it genuinely dips below h_lower whenever div H > 0.
    """

    min_neg_jacobian_forward: float
    min_neg_jacobian_full: float
    max_neg_jacobian: float
    h_lower: float
    h_upper: float
    measured_upper_constant: float
    passed: bool


def certify_jacobian_bounds(fieldh, orbits, times_per_orbit=16):
    """Verify h_lower <= -Y_h on sampled forward times; report the range.

    The upper bound carries an unspecified constant, so the certificate
    only measures max(-Y_h)/h_upper and asserts the lower bound.
    """
    fwd, full = [], []
    for orbit in orbits:
        ts = np.linspace(orbit.t_minus, orbit.t_plus, times_per_orbit)
        # the seed time 0 closes the forward range
        vals = -jacobian_analytic(fieldh, orbit, np.append(ts, 0.0))
        full.extend(vals[:-1])
        fwd.extend(vals[:-1][ts >= 0.0])
        fwd.append(vals[-1])
    fwd = np.asarray(fwd)
    full = np.asarray(full)
    hi = float(np.max(full))
    return JacobianBoundsReport(
        min_neg_jacobian_forward=float(np.min(fwd)),
        min_neg_jacobian_full=float(np.min(full)),
        max_neg_jacobian=hi,
        h_lower=fieldh.h_lower,
        h_upper=fieldh.h_upper,
        measured_upper_constant=hi / fieldh.h_upper,
        passed=bool(float(np.min(fwd)) >= fieldh.h_lower - 1e-9),
    )


class OrbitFamily:
    """Orbits of one field at a fixed level, integrated in batches."""

    def __init__(self, fieldh, domain, level, tol=1e-9):
        self.fieldh = fieldh
        self.domain = domain
        self.level = float(level)
        self.tol = tol

    def orbits(self, omegas):
        """Orbits through every omega, marched as one batch."""
        return integrate_orbits(self.fieldh, omegas, self.level, self.domain, self.tol)

    def orbit(self, omega):
        return self.orbits([omega])[0]
