"""Characteristic orbits of the drift field and their flow Jacobian.

An orbit is the maximal integral curve of X' = H(X) through a seed
(omega, h) placed on the level x_n = h; since H_n >= h_lower > 0 the last
coordinate increases strictly along it and the curve leaves the box in
both time directions through faces below and above the level.

The fields are constant or affine, H(x) = A x + b, so every orbit is the
exact flow X(t) = exp(tM) X0 in homogeneous coordinates, with the
augmented matrix M = [[A, b], [0, 0]] (Van Loan 1978; Moler & Van Loan
2003). Orbits are stored at the fixed spacing delta(Omega)/2048, built for
a whole batch of seeds by doubling: the samples at times K dt .. (2K-1) dt
are those at 0 .. (K-1) dt times exp(K dt M), for the seeds still inside
the box. Exit times are bisected on the exact flow from the last sample
inside, and dense output is the exact flow from the nearest sample. The flow map T_h(t, omega) = X(t, omega)
has the closed-form Jacobian determinant

    Y_h(t, omega) = -H_n(omega, h) exp( int_0^t div H(X(s)) ds )

which is cross-checked against a finite-difference determinant assembled
from the exact flow of 2(n-1)+1 shifted seeds.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from alap.errors import DomainExitError, StepFailureError

#: fixed integrator step as a fraction of the domain diameter
STEP_DIVISOR = 2048


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
    """The augmented matrix M = [[A, b], [0, 0]] of an affine field."""
    if fieldh.affine is None:
        raise ValueError(
            f"orbits need a constant or affine field; a {fieldh.kind!r} field has no affine form"
        )
    coeff, offset = fieldh.affine
    gen = np.zeros((fieldh.dim + 1, fieldh.dim + 1))
    gen[:-1, :-1] = coeff
    gen[:-1, -1] = offset
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
    return dataclasses.replace(
        fieldh,
        eval_fn=lambda x: -fieldh.eval_fn(x),
        affine=None if fieldh.affine is None else tuple(-part for part in fieldh.affine),
    )


def _exit_face(domain, x):
    best, best_d = None, math.inf
    for k in range(domain.dim):
        for side, plane in (("min", domain.lower[k]), ("max", domain.upper[k])):
            d = abs(float(x[k]) - plane)
            if d < best_d:
                best, best_d = f"{'xyz'[k]}{side}", d
    return best


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
    length times h_upper is at most ``tol_len``. Every seed lies inside
    the box. Returns (samples, steps, t_exit, x_exit): ``samples[i]`` holds
    row i at the times k * dt, k = 0 .. steps[i].
    """
    gen = _generator(fieldh)
    x = np.array(seeds, dtype=float)[None]
    samples, steps = [None] * x.shape[1], np.zeros(x.shape[1], dtype=int)
    rows = np.arange(x.shape[1])  # the rows of ``x``, still inside
    while len(rows):
        if len(x) > max_steps:
            raise StepFailureError("orbit march exceeded its step budget")
        # the samples at K dt .. (2K-1) dt are those at 0 .. (K-1) dt
        # times exp(K dt M), K = len(x)
        shift = len(x)
        flows, block = _expm(shift * dt * gen), max(128, shift // 8)
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
    x_lo = np.array([row[-1] for row in samples])
    lo = np.zeros(len(x_lo))
    for width in widths[1:]:
        trial = _flow(gen, x_lo, width)
        stay = domain.contains(trial)
        x_lo[stay] = trial[stay]
        lo[stay] += width
    return samples, steps, steps * dt + lo + widths[-1], _flow(gen, x_lo, widths[-1])


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
    if not fieldh.transversal:
        raise ValueError("orbit tracing needs a transversal-mode field (H_n > 0)")
    if not len(seeds):
        return []
    delta = domain.delta
    dt = delta / STEP_DIVISOR
    tol_len = tol * delta
    max_steps = STEP_DIVISOR * 64
    fwd_pts, fwd_steps, t_plus, exit_plus = _march(fieldh, domain, seeds, dt, tol_len, max_steps)
    bwd_pts, bwd_steps, t_back, exit_minus = _march(
        _reversed(fieldh), domain, seeds, dt, tol_len, max_steps
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
    interval; the exit times are scalars or one per time."""
    lo, hi, ts = np.broadcast_arrays(t_minus, t_plus, ts)
    bad = (ts < lo - 1e-15) | (ts > hi + 1e-15)
    if np.any(bad):
        i = np.argmax(bad)
        raise DomainExitError(f"t = {ts[i]} outside ({lo[i]}, {hi[i]})")


def _sample_index(orbit, ts):
    """Per time, the index of the last stored sample at or before it,
    clamped to the stored range."""
    times = orbit.times
    clamped = np.clip(ts, times[0], times[-1])
    return np.clip(np.searchsorted(times, clamped, side="right") - 1, 0, len(times) - 1)


def _nearest_sample(orbit, ts):
    """Per time, the index of the stored sample nearest to it."""
    times = orbit.times
    right = np.clip(np.searchsorted(times, ts), 1, len(times) - 1)
    left = right - 1
    return np.where(ts - times[left] <= times[right] - ts, left, right)


def orbit_point(fieldh, orbit, t):
    """Dense output X(t): the exact flow from the nearest stored sample.

    ``orbit`` is one Orbit with ``t`` a time or an array of times, or a
    list of orbits with ``t`` one time per orbit (row i is X(t[i]) on
    orbit i). All rows flow in one batched product; each row's result is
    the one a lone call gives.
    """
    gen = _generator(fieldh)
    ts = np.asarray(t, dtype=float)
    if isinstance(orbit, Orbit):
        flat = np.atleast_1d(ts)
        _check_times(orbit.t_minus, orbit.t_plus, flat)
        idx = _nearest_sample(orbit, flat)
        x, start = orbit.points[idx], orbit.times[idx]
    else:
        flat = ts
        if flat.shape != (len(orbit),):
            raise ValueError(f"{flat.size} times for {len(orbit)} orbits")
        exits = np.array([(o.t_minus, o.t_plus) for o in orbit]).reshape(-1, 2)
        _check_times(exits[:, 0], exits[:, 1], flat)
        idx = [int(_nearest_sample(o, tk)) for o, tk in zip(orbit, flat)]
        x = np.array([o.points[i] for o, i in zip(orbit, idx)]).reshape(-1, fieldh.dim)
        start = np.array([o.times[i] for o, i in zip(orbit, idx)], dtype=float)
    x = _flow(gen, x, flat - start)
    return x[0] if ts.ndim == 0 else x


def _cumulative_divergence(vals, h):
    """Cumulative composite Simpson integral of samples ``vals`` spaced ``h``.

    Even samples accumulate whole Simpson panels in sequence, odd ones add
    the half-panel rule to the panel start, and a trailing odd interval is
    closed by the trapezoid rule.
    """
    n = len(vals)
    cum = np.zeros(n)
    end = 2 * ((n - 1) // 2)
    if end:
        v0, v1, v2 = vals[0:end:2], vals[1:end:2], vals[2 : end + 1 : 2]
        cum[2 : end + 1 : 2] = np.add.accumulate(h / 3.0 * (v0 + 4.0 * v1 + v2))
        cum[1:end:2] = cum[0 : end - 1 : 2] + h / 12.0 * (5.0 * v0 + 8.0 * v1 - v2)
    if end < n - 1:
        cum[n - 1] = cum[n - 2] + 0.5 * h * (vals[n - 2] + vals[n - 1])
    return cum


def jacobian_analytic(fieldh, orbit, t):
    """Closed-form determinant -H_n(seed) exp(int_0^t div H along the orbit).

    The divergence integral is accumulated by composite Simpson over the
    stored fixed-step samples, once per call, closed by the trapezoid rule
    from the last sample to t. ``t`` is a time or an array of times.
    """
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts)
    _check_times(orbit.t_minus, orbit.t_plus, flat)
    cum = _cumulative_divergence(fieldh.divergence(orbit.points), orbit.step)
    # the stored samples start at the backward exit; the formula integrates
    # from the seed time 0, which is a stored sample by construction
    idx = _sample_index(orbit, flat)
    integral = cum[idx] - cum[_sample_index(orbit, 0.0)]
    rest = flat - orbit.times[idx]
    moved = rest != 0.0
    if np.any(moved):
        d0 = fieldh.divergence(orbit.points[idx[moved]])
        d1 = fieldh.divergence(orbit_point(fieldh, orbit, flat[moved]))
        integral[moved] += 0.5 * rest[moved] * (d0 + d1)
    hn_seed = float(fieldh(orbit.seed)[-1])
    vals = [-hn_seed * math.exp(v) for v in integral]
    return vals[0] if ts.ndim == 0 else np.array(vals)


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
    if not fieldh.transversal:
        raise ValueError("Jacobian bounds need a transversal-mode field")
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
