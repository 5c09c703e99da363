"""Free-boundary diagnostics of a solved pair along characteristic orbits.

With div H >= 0 the saturation indicator cannot increase along orbits, the
wet set meets each orbit in an initial interval, and for every level h the
free boundary is the graph, in orbit time, of

    phi_h(omega) = sup { t : head along the orbit at (t, omega) > threshold }

(falling back to the entry time when the orbit is dry). This module
samples solved fields along orbits, certifies the monotonicity and
no-rewetting properties, extracts the graph with per-omega flags, and runs
a discrete lower semi-continuity check on it.
"""

from dataclasses import dataclass

import numpy as np

from alap import geometry
from alap.orbits import OrbitFamily, orbit_point


def sample_along_orbit(solution, grid, orbit):
    """(u-samples, chi-samples) at the orbit's stored sample points.

    The head is interpolated multilinearly; chi is read from the containing
    cell, because blending an indicator-like field would fabricate
    intermediate values and corrupt monotonicity measurements.
    """
    pts = orbit.points
    inside = grid.domain.contains(pts, tol=1e-12 * grid.domain.delta)
    if not np.all(inside):
        raise ValueError("orbit samples leave the solved grid")
    u_vals = geometry.interpolate_nodes(grid, solution.u, pts)
    chi_vals = geometry.cell_values_at(grid, solution.chi, pts)
    return u_vals, chi_vals


def _samples_of(solution, grid, orbits, samples):
    """Per-orbit (u-samples, chi-samples): ``samples`` when given (as from
    ``sample_along_orbit`` on each orbit, in order), else sampled here."""
    if samples is None:
        return [sample_along_orbit(solution, grid, orbit) for orbit in orbits]
    if len(samples) != len(orbits):
        raise ValueError(f"{len(samples)} sample sets for {len(orbits)} orbits")
    return samples


def default_chi_monotone_tol(eps, eps_u, m_ceiling, outer_tol=1e-7):
    """Allowed chi uptick along an orbit of a converged solve:
    2 outer_tol + 8 ulp(1) m_ceiling / eps.

    A converged solve publishes chi = T(u) + r, where T(u) = min(u_c/eps, 1)
    is the cut-off of the cell averages u_c of the projected head and
    |r| <= outer_tol its fixed-point residual (the stop of the solver's
    final stage, ``solver.outer_tol``). For a cell a that an orbit crosses
    before a cell b,

        chi_b - chi_a = T_b - T_a + r_b - r_a
                     <= max(u_b - u_a, 0) / eps + 2 outer_tol,

    as T is nondecreasing and 1/eps-Lipschitz in u_c. The head does not
    increase along the orbits of H, and the average over a cell of such a
    head does not increase from one cell of an axis-aligned orbit to the
    next (the orbits of every shipped config are vertical), so what is left
    of u_b - u_a is the roundoff of the cell averages, a few ulps of
    m_ceiling, which the cut-off magnifies by 1/eps. ``eps_u`` does not
    enter: a head noise of eps_u would allow 2 eps_u / eps = 1/2 at the
    default width eps = 4 eps_u, which no planted uptick below one half
    could fail.
    """
    return 2.0 * outer_tol + 8.0 * np.finfo(float).eps * m_ceiling / eps


@dataclass(frozen=True)
class MonotonicityReport:
    max_uptick: float
    tol: float
    per_orbit: tuple
    passed: bool


def certify_chi_monotone(solution, grid, orbits, tol, samples=None):
    """Largest uptick of chi along each orbit against the tolerance.

    The uptick of one orbit is max_j (chi_j - min_{i<=j} chi_i) over its
    samples in time order. ``samples`` holds each orbit's
    (u-samples, chi-samples) as from ``sample_along_orbit``; the orbits are
    sampled here when None.
    """
    upticks = []
    for _, chi_vals in _samples_of(solution, grid, orbits, samples):
        running = np.minimum.accumulate(chi_vals)
        upticks.append(float(np.max(chi_vals - running)))
    worst = max(upticks) if upticks else 0.0
    return MonotonicityReport(
        max_uptick=worst,
        tol=tol,
        per_orbit=tuple(upticks),
        passed=bool(worst <= tol),
    )


def _wet_bracket(orbit, u_vals, eps_u):
    """(lo, hi) times of the last wet sample and the sample after it, or
    (t, t) with t the exit time when the orbit is all dry (t_minus) or wet
    up to its last sample (t_plus)."""
    wet = np.flatnonzero(u_vals > eps_u)
    if not wet.size:
        return orbit.t_minus, orbit.t_minus
    last_wet = int(wet[-1])
    if last_wet == len(u_vals) - 1:
        return orbit.t_plus, orbit.t_plus
    return float(orbit.times[last_wet]), float(orbit.times[last_wet + 1])


def wet_interval_sup(solution, grid, fieldh, orbits, u_vals, refine_tol=1e-9):
    """Largest orbit time with head above the wet threshold, per orbit.

    ``u_vals`` holds one head array per orbit, at the orbit's samples (as
    from ``sample_along_orbit``). Each orbit's last wet sample and the
    sample after it bracket the supremum, which is bisected down to
    refine_tol * delta(Omega) in position; the entry time t_minus is
    returned when no sample is wet. Every orbit's bracket halves in one
    batched ``orbit_point`` call per step, each leaving the batch once its
    own bracket is resolved. Returns the array of suprema.
    """
    if len(u_vals) != len(orbits):
        raise ValueError(f"{len(u_vals)} head arrays for {len(orbits)} orbits")
    brackets = [_wet_bracket(o, u, solution.eps_u) for o, u in zip(orbits, u_vals)]
    lo = np.array([b[0] for b in brackets], dtype=float)
    hi = np.array([b[1] for b in brackets], dtype=float)
    tol_t = refine_tol * grid.domain.delta / max(fieldh.h_upper, 1e-300)
    rows = np.arange(len(lo))
    while True:
        rows = rows[hi[rows] - lo[rows] > tol_t]
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        x = orbit_point(fieldh, [orbits[i] for i in rows], mid)
        wet = geometry.interpolate_nodes(grid, solution.u, x) > solution.eps_u
        lo[rows] = np.where(wet, mid, lo[rows])
        hi[rows] = np.where(wet, hi[rows], mid)
    # an exit-time bracket (t, t) gives 0.5 * (t + t) = t exactly
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FreeBoundaryGraph:
    """Graph of the wet-interval suprema over an omega grid at one level.

    Flags per omega: ``set_empty`` (orbit never wet, value equals the entry
    time), ``boundary_touching`` (the graph point lies on the domain
    boundary, excluded from interior-only statements), ``identity_ok``
    (the wet set along the orbit is an initial interval within one sample
    step).
    """

    level: float
    omegas: np.ndarray
    values: np.ndarray
    t_minus: np.ndarray
    t_plus: np.ndarray
    set_empty: np.ndarray
    boundary_touching: np.ndarray
    identity_ok: np.ndarray


def extract_graph(solution, grid, fieldh, level, omegas, domain, refine_tol=1e-9, orbits=None,
                  samples=None):
    """Wet-interval suprema with flags, plus the interval-identity check.

    ``orbits`` are the orbits through ``omegas`` at ``level``, in order (as
    from ``OrbitFamily.orbits``), with their exit resolution already set;
    when None they are integrated here as one batch with exit resolution
    ``refine_tol``. ``samples`` holds each orbit's (u-samples, chi-samples)
    as from ``sample_along_orbit``; each orbit is sampled here once when
    None.

    The identity check verifies that samples more than one orbit step below
    the graph value are wet and samples above it are dry; a violation
    indicates re-wetting along the orbit, which contradicts the monotone
    structure and points to an unconverged solve.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim == 1 and domain.dim == 2:
        om_list = [(float(w),) for w in omegas]
    else:
        om_list = [tuple(map(float, w)) for w in np.atleast_2d(omegas)]
    if orbits is None:
        orbits = OrbitFamily(fieldh, domain, level, tol=refine_tol).orbits(om_list)
    elif [o.omega for o in orbits] != om_list or any(o.level != level for o in orbits):
        raise ValueError("the given orbits do not start at the omegas on this level")
    u_list = [u_vals for u_vals, _ in _samples_of(solution, grid, orbits, samples)]
    values = wet_interval_sup(solution, grid, fieldh, orbits, u_list, refine_tol)
    graph_points = orbit_point(fieldh, orbits, values)
    tmin = np.array([orbit.t_minus for orbit in orbits], dtype=float)
    tmax = np.array([orbit.t_plus for orbit in orbits], dtype=float)
    steps = np.array([orbit.step for orbit in orbits], dtype=float)
    wet = [u_vals > solution.eps_u for u_vals in u_list]
    set_empty = np.array([not np.any(w) for w in wet], dtype=bool)
    identity = np.array(
        [_wet_is_initial_interval(o, w, phi) for o, w, phi in zip(orbits, wet, values)],
        dtype=bool,
    )
    near = (
        (domain.distance_to_boundary(graph_points) <= 4.0 * refine_tol * domain.delta)
        | (values >= tmax - 2.0 * steps)
        | (values <= tmin + 2.0 * steps)
    )
    return FreeBoundaryGraph(
        level=float(level),
        omegas=omegas,
        values=values,
        t_minus=tmin,
        t_plus=tmax,
        set_empty=set_empty,
        boundary_touching=near | set_empty,
        identity_ok=identity,
    )


def _wet_is_initial_interval(orbit, wet, phi):
    """Samples more than one orbit step below ``phi`` are wet, those more
    than one step above it dry."""
    below = orbit.times < phi - orbit.step
    above = orbit.times > phi + orbit.step
    return bool(np.all(wet[below])) and bool(np.all(~wet[above]))


def default_lsc_tol(orbit_step, spacing, grad_max, h_lower):
    """Time tolerance for the discrete lsc check: two orbit steps plus the
    head interpolation error converted to time through transversality."""
    return 2.0 * orbit_step + spacing * grad_max / h_lower


@dataclass(frozen=True)
class LscReport:
    checked: int
    excluded: int
    violations: tuple
    tol: float
    passed: bool


def certify_lower_semicontinuity(graph, tol):
    """Discrete lower semi-continuity of the graph on its omega grid.

    Lower semi-continuity asks that no value exceed the smaller of its
    one-sided limits. Along each grid axis, the limit from each side of an
    interior omega is estimated by the nearest sample on that side, raised
    by one sample step of the slope where the graph rises toward omega.
    The slope is that of the side's two nearest samples, or of the other
    side's two where the side holds only one (none where neither holds
    two). A value is flagged when it exceeds the smallest estimate by more
    than tol, so a straight graph of any slope meets its estimates exactly
    while a value on the upper side of a jump, or on a spike, is flagged;
    ``tol`` also budgets genuine variation of the graph between samples,
    such as curvature. Boundary-touching and empty omegas are excluded.
    """
    values = np.asarray(graph.values, dtype=float)
    omegas = np.asarray(graph.omegas, dtype=float).reshape(len(values), -1)
    shape = (len(values),) if omegas.shape[1] == 1 else _infer_grid_shape(omegas)
    vals = values.reshape(shape)
    excluded = (graph.boundary_touching | graph.set_empty).reshape(shape)
    interior = tuple(slice(1, -1) for _ in shape)
    limit = np.full(vals[interior].shape, np.inf)
    for axis in range(len(shape) if min(shape) >= 3 else 0):
        v = np.moveaxis(vals, axis, 0)
        d = np.diff(v, axis=0)
        no_slope = np.zeros_like(v[:1])
        slope_below = np.concatenate([d[2:3] if len(v) > 3 else no_slope, d[:-2]])
        slope_above = np.concatenate([d[2:], d[-3:-2] if len(v) > 3 else no_slope])
        across = tuple(slice(None) if k == axis else slice(1, -1) for k in range(len(shape)))
        for side in (v[:-2] + np.maximum(slope_below, 0.0), v[2:] - np.minimum(slope_above, 0.0)):
            limit = np.minimum(limit, np.moveaxis(side, 0, axis)[across])
    excess = vals[interior] - limit
    checked = ~excluded[interior]
    flagged = np.argwhere(checked & (excess > tol))
    violations = tuple(
        (int(i[0]) + 1 if len(shape) == 1 else tuple(int(k) + 1 for k in i),
         float(excess[tuple(i)]))
        for i in flagged
    )
    return LscReport(
        checked=int(np.sum(checked)),
        excluded=int(np.sum(excluded)),
        violations=violations,
        tol=tol,
        passed=not violations,
    )


def _infer_grid_shape(omegas):
    first = omegas[:, 0]
    uniq = np.unique(first)
    rows = len(uniq)
    cols = len(first) // rows
    if rows * cols != len(first):
        raise ValueError("omega samples do not form a tensor grid")
    return rows, cols


@dataclass(frozen=True)
class RewettingReport:
    orbits_checked: int
    violations: tuple
    slack: float
    passed: bool


def certify_no_rewetting(solution, grid, fieldh, orbits, samples=None):
    """Once the head falls to the wet threshold along an orbit it must stay
    there; counts samples that re-wet, above twice the threshold, after the
    first dry sample. ``samples`` holds each orbit's (u-samples,
    chi-samples) as from ``sample_along_orbit``; the orbits are sampled
    here when None."""
    slack = solution.eps_u
    violations = []
    for idx, (u_vals, _) in enumerate(_samples_of(solution, grid, orbits, samples)):
        dry = u_vals <= solution.eps_u
        if not np.any(dry):
            continue
        first_dry = int(np.argmax(dry))
        tail = u_vals[first_dry:]
        bad = np.nonzero(tail > solution.eps_u + slack)[0]
        if bad.size:
            violations.append((idx, int(bad.size), float(np.max(tail))))
    return RewettingReport(
        orbits_checked=len(orbits),
        violations=tuple(violations),
        slack=float(slack),
        passed=not violations,
    )
