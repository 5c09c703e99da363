"""Characteristic orbits of the drift field and their flow Jacobian.

An orbit is the maximal integral curve of X' = H(X) through a seed
(omega, h) placed on the level x_n = h; since H_n >= h_lower > 0 the last
coordinate increases strictly along it and the curve leaves the box in
both time directions through faces below and above the level.

Integration is classic fixed-step fourth-order Runge-Kutta with step
delta(Omega)/2048 and bisection on the exit time; fixed steps keep every
report bit-reproducible. One engine marches a whole batch of seeds as an
(m, n) array, forward and backward, so every RK4 stage is one field
evaluation for the batch; each row takes exactly the steps and exit
bisection a lone orbit would. The flow map T_h(t, omega) = X(t, omega) has
the closed-form Jacobian determinant

    Y_h(t, omega) = -H_n(omega, h) exp( int_0^t div H(X(s)) ds )

which is cross-checked against a finite-difference determinant assembled
from 2(n-1)+1 independent orbit integrations.
"""

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

    def state_before(self, t):
        """Index of the last stored sample with time <= t."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return max(0, min(idx, len(self.times) - 1))


def _rk4_step(fieldh, x, dt):
    """One RK4 step of the rows of ``x``; ``dt`` is a float or an (m, 1)
    column of per-row steps."""
    k1 = fieldh(x)
    k2 = fieldh(x + 0.5 * dt * k1)
    k3 = fieldh(x + 0.5 * dt * k2)
    k4 = fieldh(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reversed(fieldh):
    """The field -H, whose forward orbits are the backward orbits of H."""
    return type(fieldh)(
        kind=fieldh.kind,
        dim=fieldh.dim,
        eval_fn=lambda x: -fieldh.eval_fn(x),
        div_fn=fieldh.div_fn,
        h_upper=fieldh.h_upper,
        h_lower=fieldh.h_lower,
        lipschitz_const=fieldh.lipschitz_const,
        params=fieldh.params,
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
    """Fixed-step march of every row of ``seeds`` until it leaves the box.

    Rows step together and drop out when their next step would leave; each
    row's crossing step is then bisected on its own bracket, halving until
    the bracket length times h_upper is below ``tol_len``. Returns
    (samples, steps, t_exit, x_exit): ``samples[k, i]`` is row i after k
    steps, valid for k <= steps[i].
    """
    x = np.array(seeds, dtype=float)
    steps = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    samples = [x.copy()]
    while live.size:
        x_next = _rk4_step(fieldh, x[live], dt)
        stay = domain.contains(x_next)
        live = live[stay]
        if not live.size:
            break
        x[live] = x_next[stay]
        steps[live] += 1
        samples.append(x.copy())
        if steps[live[0]] > max_steps:
            raise StepFailureError("orbit march exceeded its step budget")
    speed = max(fieldh.h_upper, 1e-30)
    lo = np.zeros(len(x))
    hi = np.full(len(x), dt)
    while True:
        rows = np.nonzero((hi - lo) * speed > tol_len)[0]
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        inside = domain.contains(_rk4_step(fieldh, x[rows], mid[:, None]))
        lo[rows] = np.where(inside, mid, lo[rows])
        hi[rows] = np.where(inside, hi[rows], mid)
    x_exit = _rk4_step(fieldh, x, hi[:, None])
    return np.stack(samples), steps, steps * dt + hi, x_exit


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
        out.append(
            Orbit(
                omega=tuple(omega),
                level=float(level),
                times=np.concatenate([-dt * np.arange(nb, 0, -1), dt * np.arange(nf + 1)]),
                points=np.concatenate([bwd_pts[nb:0:-1, i], fwd_pts[: nf + 1, i]], axis=0),
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
    """Per time, the index of the stored state it re-steps from: the last
    sample at or before it, clamped to the stored range."""
    times = orbit.times
    clamped = np.clip(ts, times[0], times[-1])
    return np.clip(np.searchsorted(times, clamped, side="right") - 1, 0, len(times) - 1)


def _split_steps(remaining, step):
    """How a march of ``step`` reaches each time of ``remaining`` >= 0: full
    steps while more than one step is left, then one partial step. Returns
    (full step counts, partial step lengths)."""
    rest = np.array(remaining, dtype=float)
    full = np.zeros(rest.shape, dtype=int)
    while True:
        far = rest > step
        if not np.any(far):
            return full, rest
        rest[far] -= step
        full[far] += 1


def _restep(fieldh, x, remaining, step):
    """Advance each row of ``x`` by its own time ``remaining`` >= 0."""
    full, rest = _split_steps(remaining, step)
    for k in range(int(full.max())):
        rows = full > k
        x[rows] = _rk4_step(fieldh, x[rows], step)
    return _rk4_step(fieldh, x, rest[:, None])


def _start_states(fieldh, orbits, ts):
    """Per row i, the stored state of ``orbits[i]`` that time ``ts[i]``
    re-steps from, the time left to go, and the orbits' common step."""
    if ts.shape != (len(orbits),):
        raise ValueError(f"{ts.size} times for {len(orbits)} orbits")
    steps = {orbit.step for orbit in orbits}
    if len(steps) > 1:
        raise ValueError("orbits re-stepped as one batch must share one step")
    exits = np.array([(orbit.t_minus, orbit.t_plus) for orbit in orbits]).reshape(-1, 2)
    _check_times(exits[:, 0], exits[:, 1], ts)
    idx = [orbit.state_before(t) for orbit, t in zip(orbits, ts)]
    x = np.array([orbit.points[i] for orbit, i in zip(orbits, idx)]).reshape(-1, fieldh.dim)
    start = np.array([orbit.times[i] for orbit, i in zip(orbits, idx)], dtype=float)
    return x, ts - start, steps.pop() if steps else 0.0


def orbit_point(fieldh, orbit, t):
    """Dense output X(t): re-step from the nearest stored state.

    ``orbit`` is one Orbit with ``t`` a time or an array of times, or a
    list of orbits with ``t`` one time per orbit (row i is X(t[i]) on
    orbit i). All rows re-step as one batch, forward and backward groups
    each along their own field; each row takes exactly the steps a lone
    call would.
    """
    ts = np.asarray(t, dtype=float)
    if isinstance(orbit, Orbit):
        flat = np.atleast_1d(ts)
        _check_times(orbit.t_minus, orbit.t_plus, flat)
        idx = _sample_index(orbit, flat)
        x, rest, step = orbit.points[idx], flat - orbit.times[idx], orbit.step
    else:
        x, rest, step = _start_states(fieldh, orbit, ts)
    for rows, field_dir in ((rest > 0.0, fieldh), (rest < 0.0, _reversed(fieldh))):
        if np.any(rows):
            x[rows] = _restep(field_dir, x[rows], np.abs(rest[rows]), step)
    return x[0] if ts.ndim == 0 else x


def flow_map(fieldh, level, t, omega, domain):
    """T_h(t, omega) = X(t, omega); DomainExitError outside the interval."""
    orbit = integrate_orbit(fieldh, omega, level, domain)
    return orbit_point(fieldh, orbit, t)


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
    integral = cum[idx] - cum[orbit.state_before(0.0)]
    rest = flat - orbit.times[idx]
    moved = rest != 0.0
    if np.any(moved):
        d0 = fieldh.divergence(orbit.points[idx[moved]])
        d1 = fieldh.divergence(orbit_point(fieldh, orbit, flat[moved]))
        integral[moved] += 0.5 * rest[moved] * (d0 + d1)
    hn_seed = float(fieldh(orbit.seed)[-1])
    vals = [-hn_seed * math.exp(v) for v in integral]
    return vals[0] if ts.ndim == 0 else np.array(vals)


def jacobian_numeric_batch(fieldh, omegas, level, times, domain, fd_step=1e-5):
    """Finite-difference determinants at ``times[i, j]`` on the orbit of omega i.

    The time column is the field value at X(t); the omega columns are
    central differences of 2(n-1) shifted seeds. Every seed of every omega
    marches as one array: once forward through the nonnegative times and
    once backward through the negative ones. Each time is reached by the
    same full steps and final partial step as a march from the seed alone,
    taken off the march when its step count comes up; an omega leaves the
    march after its last time. The column order (time first) gives
    (-1)**(n-1) H_n at t = 0, so the sign is normalized to the closed
    form's convention of -H_n in every dimension. Returns an array shaped
    like ``times``.
    """
    dim = fieldh.dim
    omegas = _omega_rows(omegas, dim)
    times = np.asarray(times, dtype=float).reshape(len(omegas), -1)
    step = domain.delta / STEP_DIVISOR
    shifts = np.zeros((2 * dim - 1, dim))
    for k in range(dim - 1):
        shifts[1 + 2 * k, k] = fd_step
        shifts[2 + 2 * k, k] = -fd_step
    seeds = np.concatenate([omegas, np.full((len(omegas), 1), float(level))], axis=1)
    batch = (seeds[:, None, :] + shifts[None, :, :]).reshape(-1, dim)
    per_omega = len(shifts)
    ends = np.empty(times.shape + (per_omega, dim))
    backward = times < 0.0
    for chosen, field_dir in ((~backward, fieldh), (backward, _reversed(fieldh))):
        if not np.any(chosen):
            continue
        rows, cols = np.nonzero(chosen)
        full, rest = _split_steps(np.abs(times[rows, cols]), step)
        last = np.zeros(len(omegas), dtype=int)
        np.maximum.at(last, rows, full)
        x = batch.reshape(len(omegas), per_omega, dim).copy()
        live = np.unique(rows)
        k = 0
        while True:
            due = full == k
            if np.any(due):
                start = x[rows[due]].reshape(-1, dim)
                dts = np.repeat(rest[due], per_omega)[:, None]
                ends[rows[due], cols[due]] = _rk4_step(field_dir, start, dts).reshape(
                    -1, per_omega, dim
                )
            live = live[last[live] > k]
            if not live.size:
                break
            x[live] = _rk4_step(field_dir, x[live].reshape(-1, dim), step).reshape(
                -1, per_omega, dim
            )
            k += 1
    hvals = fieldh(ends[..., 0, :].reshape(-1, dim)).reshape(times.shape + (dim,))
    diffs = [
        (ends[..., 1 + 2 * k, :] - ends[..., 2 + 2 * k, :]) / (2.0 * fd_step)
        for k in range(dim - 1)
    ]
    jac = np.stack([hvals] + diffs, axis=-1)
    orientation = 1.0 if dim % 2 == 0 else -1.0
    return orientation * np.linalg.det(jac)


def jacobian_numeric(fieldh, omega, level, t, domain, fd_step=1e-5):
    """Finite-difference determinant of (t, omega) -> X(t, omega) at one
    time: a batch of one omega and one time."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    dets = jacobian_numeric_batch(fieldh, omega[None, :], level, [[t]], domain, fd_step)
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
    """Memoized orbits of one field at a fixed level, integrated in batches."""

    def __init__(self, fieldh, domain, level, tol=1e-9):
        self.fieldh = fieldh
        self.domain = domain
        self.level = float(level)
        self.tol = tol
        self._cache = {}

    def orbits(self, omegas):
        """Orbits through every omega; the uncached ones march as one batch."""
        keys = [tuple(np.atleast_1d(np.asarray(w, dtype=float))) for w in omegas]
        missing = list(dict.fromkeys(k for k in keys if k not in self._cache))
        if missing:
            batch = integrate_orbits(self.fieldh, missing, self.level, self.domain, self.tol)
            self._cache.update(zip(missing, batch))
        return [self._cache[k] for k in keys]

    def orbit(self, omega):
        return self.orbits([omega])[0]

    def interval(self, omega):
        orb = self.orbit(omega)
        return orb.t_minus, orb.t_plus
