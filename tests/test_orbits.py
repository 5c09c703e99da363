import dataclasses
import math

import numpy as np
import pytest

from alap import fields, geometry, orbits
from alap.errors import DomainExitError

#: exact-flow points agree with closed forms and with the RK4 reference
#: kept below to this fraction of delta(Omega)
POINT_BOUND = 1e-12


def unit_square():
    return geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("zero"), 1.0
    )


def vertical_field():
    return fields.make_constant_field([0.0, 1.0])


def spiral_affine():
    dom = unit_square()
    return dom, fields.make_affine_field(0.1 * np.eye(2), np.array([0.0, 1.0]), dom)


def test_constant_field_orbit_is_vertical():
    dom = unit_square()
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.5, dom)
    assert orb.t_minus == pytest.approx(-0.5, abs=1e-8)
    assert orb.t_plus == pytest.approx(0.5, abs=1e-8)
    assert orb.face_minus == "ymin" and orb.face_plus == "ymax"
    x = orbits.orbit_point(vertical_field(), orb, 0.3)
    assert np.allclose(x, [0.5, 0.8], atol=1e-12)


def test_orbit_rejects_outside_seed():
    dom = unit_square()
    with pytest.raises(ValueError):
        orbits.integrate_orbit(vertical_field(), [1.5], 0.5, dom)


def test_affine_orbit_matches_closed_form():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.3], 0.4, dom)
    coeff_inv_b = np.linalg.solve(0.1 * np.eye(2), np.array([0.0, 1.0]))
    x0 = np.array([0.3, 0.4])
    for t in (-0.2, 0.15, 0.35):
        exact = math.exp(0.1 * t) * (x0 + coeff_inv_b) - coeff_inv_b
        got = orbits.orbit_point(f, orb, t)
        assert np.max(np.abs(got - exact)) <= POINT_BOUND * dom.delta


def test_orbit_time_reversal():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.3], 0.4, dom)
    xt = orbits.orbit_point(f, orb, 0.3)
    back_orbit = orbits.integrate_orbit(f, [xt[0]], xt[1], dom)
    back = orbits.orbit_point(f, back_orbit, -0.3)
    assert np.max(np.abs(back - np.array([0.3, 0.4]))) <= 1e-8 * dom.delta


def test_orbit_last_coordinate_strictly_increasing():
    dom, f = spiral_affine()
    rng = np.random.default_rng(11)
    for _ in range(25):
        om, lv = rng.uniform(0.05, 0.95, 2)
        orb = orbits.integrate_orbit(f, [om], lv, dom)
        heights = orb.points[:, -1]
        assert np.all(np.diff(heights) > 0.0)
        assert orb.exit_minus[-1] < lv < orb.exit_plus[-1]


def test_orbit_lipschitz_bound():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.4], 0.3, dom)
    rng = np.random.default_rng(2)
    idx = rng.integers(0, len(orb.times), size=(60, 2))
    for i, j in idx:
        lhs = np.linalg.norm(orb.points[i] - orb.points[j])
        assert lhs <= f.h_upper * abs(orb.times[i] - orb.times[j]) + 1e-9


def test_orbit_point_outside_interval_raises():
    dom = unit_square()
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.5, dom)
    with pytest.raises(DomainExitError):
        orbits.orbit_point(vertical_field(), orb, 2.0)


def test_jacobian_constant_field():
    dom = unit_square()
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.5, dom)
    assert orbits.jacobian_analytic(vertical_field(), orb, 0.2) == pytest.approx(-1.0)
    assert orbits.jacobian_numeric(vertical_field(), [0.5], 0.5, 0.2, dom) == pytest.approx(
        -1.0, abs=1e-8
    )


def test_jacobian_affine_closed_form():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.3], 0.4, dom)
    hn = float(f(np.array([0.3, 0.4]))[1])
    for t in (-0.25, 0.0, 0.3):
        expect = -hn * math.exp(0.2 * t)
        assert orbits.jacobian_analytic(f, orb, t) == pytest.approx(expect, rel=1e-10)


def test_jacobian_time_derivative_property():
    # dY/dt = Y div H along the orbit, checked by central differences
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.3], 0.4, dom)
    t, dt = 0.2, 1e-4
    lhs = (
        orbits.jacobian_analytic(f, orb, t + dt) - orbits.jacobian_analytic(f, orb, t - dt)
    ) / (2.0 * dt)
    rhs = orbits.jacobian_analytic(f, orb, t) * 0.2
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_jacobian_oracles_agree():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.3], 0.4, dom)
    for t in (-0.2, 0.25):
        ya = orbits.jacobian_analytic(f, orb, t)
        yn = orbits.jacobian_numeric(f, [0.3], 0.4, t, dom)
        assert abs(ya - yn) / abs(ya) < 1e-6


def curved_test_field():
    # genuinely nonlinear drift to exercise the finite-difference Jacobian
    def eval_fn(x):
        out = np.empty_like(np.asarray(x, dtype=float))
        out[..., 0] = 0.1 * np.sin(2.0 * x[..., 1])
        out[..., 1] = 1.0 + 0.1 * np.cos(2.0 * x[..., 0])
        return out

    def div_fn(x):
        return np.zeros(np.asarray(x).shape[:-1])

    return fields.FieldH(
        kind="custom", dim=2, eval_fn=eval_fn, div_fn=div_fn,
        h_upper=1.1, h_lower=0.9, lipschitz_const=0.2,
    )


def test_jacobian_numeric_richardson():
    # the exact flow serves affine fields only, so the formula is
    # cross-checked on a curved field through the RK4 reference below
    dom = unit_square()
    f = curved_test_field()
    orb = _ref_orbit_of(f, (0.4,), 0.3, dom)
    ya = _ref_jacobian(f, orb, 0.3)
    errs = [
        abs(_ref_jacobian_numeric(f, (0.4,), 0.3, 0.3, dom, s) - ya) for s in (2e-3, 1e-3, 5e-4)
    ]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert min(ratios) > 3.0  # quadratic shrink, allowing noise


def test_field_without_affine_form_has_no_orbits():
    dom = unit_square()
    f = curved_test_field()
    with pytest.raises(ValueError, match="no affine form"):
        orbits.integrate_orbits(f, [0.4], 0.3, dom)
    with pytest.raises(ValueError, match="no affine form"):
        orbits.jacobian_numeric(f, [0.4], 0.3, 0.1, dom)


def test_jacobian_bounds_constant_field():
    dom = unit_square()
    f = vertical_field()
    orbs = [orbits.integrate_orbit(f, [w], 0.5, dom) for w in (0.25, 0.5, 0.75)]
    rep = orbits.certify_jacobian_bounds(f, orbs)
    assert rep.passed
    assert rep.min_neg_jacobian_full == pytest.approx(1.0)
    assert rep.max_neg_jacobian == pytest.approx(1.0)


def test_jacobian_bounds_affine_field():
    dom, f = spiral_affine()
    orbs = [orbits.integrate_orbit(f, [w], 0.4, dom) for w in (0.2, 0.5, 0.8)]
    rep = orbits.certify_jacobian_bounds(f, orbs)
    assert rep.passed
    # positive divergence makes -Y dip below h_lower at backward times only
    assert rep.min_neg_jacobian_full < rep.h_lower
    assert rep.min_neg_jacobian_forward >= rep.h_lower - 1e-9
    assert rep.measured_upper_constant >= 1.0


def test_neg_jacobian_nondecreasing_forward():
    dom, f = spiral_affine()
    orb = orbits.integrate_orbit(f, [0.5], 0.3, dom)
    ts = np.linspace(orb.t_minus, orb.t_plus, 24)
    vals = [-orbits.jacobian_analytic(f, orb, float(t)) for t in ts]
    assert np.all(np.diff(vals) > 0.0)


def flow_map(fieldh, level, t, omega, domain):
    """T_h(t, omega) = X(t, omega); DomainExitError outside the interval."""
    return orbits.orbit_point(fieldh, orbits.integrate_orbit(fieldh, omega, level, domain), t)


def test_flow_map_basics():
    dom = unit_square()
    f = vertical_field()
    assert np.allclose(flow_map(f, 0.4, 0.0, [0.3], dom), [0.3, 0.4])
    assert np.allclose(flow_map(f, 0.4, 0.25, [0.3], dom), [0.3, 0.65], atol=1e-12)
    with pytest.raises(DomainExitError):
        flow_map(f, 0.4, 5.0, [0.3], dom)


def test_flow_map_injective_on_grid():
    dom, f = spiral_affine()
    pts = []
    for om in (0.3, 0.5, 0.7):
        orb = orbits.integrate_orbit(f, [om], 0.4, dom)
        for t in np.linspace(orb.t_minus * 0.9, orb.t_plus * 0.9, 7):
            pts.append(orbits.orbit_point(f, orb, float(t)))
    pts = np.array(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-3


def test_orbit_family_equals_integrate_orbits_bit_for_bit():
    dom, f = spiral_affine()
    omegas = [(0.3,), (0.5,), (0.3,), (0.7,)]
    fam = orbits.OrbitFamily(f, dom, 0.4, tol=1e-7)
    got = fam.orbits(omegas)
    ref = orbits.integrate_orbits(f, omegas, 0.4, dom, 1e-7)
    alone = [fam.orbit(w) for w in omegas]
    assert len(got) == len(ref) == len(alone) == 4
    for a, b, c in zip(got, ref, alone):
        for field in dataclasses.fields(orbits.Orbit):
            name = field.name
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert np.array_equal(getattr(a, name), getattr(c, name)), name
    # the repeated omega marches twice, to the same bits
    assert got[0] is not got[2] and np.array_equal(got[0].points, got[2].points)
    assert got[0].t_minus < 0.0 < got[0].t_plus


def test_orbit_and_jacobian_3d():
    dom = geometry.box_domain(
        [0, 0, 0], [1, 1, 1], ["zmax"], geometry.BoundaryData("zero"), 1.0
    )
    f = fields.make_affine_field(
        np.diag([0.05, 0.0, 0.1]), np.array([0.0, 0.1, 1.0]), dom
    )
    orb = orbits.integrate_orbit(f, [0.4, 0.6], 0.3, dom)
    assert np.all(np.diff(orb.points[:, 2]) > 0.0)
    t = 0.2
    ya = orbits.jacobian_analytic(f, orb, t)
    hn = float(f(np.array([0.4, 0.6, 0.3]))[2])
    assert ya == pytest.approx(-hn * math.exp(0.15 * t), rel=1e-9)
    yn = orbits.jacobian_numeric(f, [0.4, 0.6], 0.3, t, dom)
    assert abs(ya - yn) / abs(ya) < 1e-6


# --- exact-flow engine against a lone-orbit RK4 reference -----------------


def _ref_rk4(fieldh, x, dt):
    k1 = fieldh(x)
    k2 = fieldh(x + 0.5 * dt * k1)
    k3 = fieldh(x + 0.5 * dt * k2)
    k4 = fieldh(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_march(fieldh, sign, domain, x0, dt, tol_len):
    """One seed, one direction: fixed steps, then bisect the crossing step."""

    def step(x, h):
        return _ref_rk4(lambda y: sign * fieldh(y), x, h)

    xs, x = [x0.copy()], x0.copy()
    while True:
        x_next = step(x, dt)
        if not domain.contains(x_next):
            lo, hi = 0.0, dt
            while (hi - lo) * fieldh.h_upper > tol_len:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if domain.contains(step(x, mid)) else (lo, mid)
            return np.array(xs), (len(xs) - 1) * dt + hi, step(x, hi)
        xs.append(x_next)
        x = x_next


def _ref_orbit(fieldh, omega, level, domain, tol=1e-9):
    seed = np.array(list(omega) + [level], dtype=float)
    dt = domain.delta / orbits.STEP_DIVISOR
    fwd, t_plus, exit_plus = _ref_march(fieldh, 1.0, domain, seed, dt, tol * domain.delta)
    bwd, t_back, exit_minus = _ref_march(fieldh, -1.0, domain, seed, dt, tol * domain.delta)
    times = np.concatenate(
        [-dt * np.arange(len(bwd) - 1, 0, -1), dt * np.arange(len(fwd))]
    )
    return times, np.concatenate([bwd[:0:-1], fwd]), -t_back, t_plus, exit_minus, exit_plus


def _ref_orbit_of(fieldh, omega, level, domain):
    """The RK4 reference orbit as an Orbit."""
    times, pts, t_minus, t_plus, x_minus, x_plus = _ref_orbit(fieldh, omega, level, domain)
    return orbits.Orbit(
        omega=tuple(omega), level=float(level), times=times, points=pts, t_minus=t_minus,
        t_plus=t_plus, exit_minus=x_minus, exit_plus=x_plus, face_minus=_faces(domain, x_minus),
        face_plus=_faces(domain, x_plus), step=domain.delta / orbits.STEP_DIVISOR,
    )


def _faces(domain, x):
    d = np.concatenate([np.abs(x - domain.lower), np.abs(x - domain.upper)])
    k = int(np.argmin(d))
    return "xyz"[k % domain.dim] + ("min" if k < domain.dim else "max")


def cube_domain():
    return geometry.box_domain(
        [0, 0, 0], [1, 1, 1], ["zmax"], geometry.BoundaryData("zero"), 1.0
    )


ENGINE_CASES = {
    # straight orbits, no divergence
    "constant": lambda: (unit_square(), fields.make_constant_field([0.3, 1.0]),
                         [(w,) for w in np.linspace(0.05, 0.95, 7)], 0.4),
    # curved orbits with div H = 0.2 > 0
    "affine": lambda: (*spiral_affine(), [(w,) for w in np.linspace(0.05, 0.95, 7)], 0.4),
    "affine_3d": lambda: (
        cube_domain(),
        fields.make_affine_field(np.diag([0.05, 0.0, 0.1]), np.array([0.0, 0.1, 1.0]),
                                 cube_domain()),
        [(a, b) for a in (0.2, 0.5, 0.8) for b in (0.3, 0.7)],
        0.3,
    ),
    # off-diagonal coefficients: A is a genuine matrix
    "affine_full": lambda: (
        unit_square(),
        fields.make_affine_field(np.array([[0.1, 0.05], [0.02, 0.2]]), np.array([0.1, 1.0]),
                                 unit_square()),
        [(w,) for w in np.linspace(0.05, 0.95, 7)],
        0.3,
    ),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_exact_flow_orbits_match_rk4_reference(case):
    dom, f, omegas, level = ENGINE_CASES[case]()
    tol = 1e-9
    batch = orbits.integrate_orbits(f, omegas, level, dom, tol)
    assert len(batch) == len(omegas)
    # one exit bracket apart at most: tol * delta in position, over
    # h_lower in time
    t_bound = tol * dom.delta / f.h_lower
    for om, orb in zip(omegas, batch):
        times, pts, t_minus, t_plus, x_minus, x_plus = _ref_orbit(f, om, level, dom, tol)
        assert orb.omega == om and orb.level == level
        assert np.array_equal(orb.times, times)
        assert np.max(np.abs(orb.points - pts)) <= POINT_BOUND * dom.delta
        assert abs(orb.t_minus - t_minus) <= t_bound and abs(orb.t_plus - t_plus) <= t_bound
        assert np.max(np.abs(orb.exit_minus - x_minus)) <= f.h_upper * t_bound
        assert np.max(np.abs(orb.exit_plus - x_plus)) <= f.h_upper * t_bound
        assert (orb.face_minus, orb.face_plus) == (_faces(dom, x_minus), _faces(dom, x_plus))


def _doubling_march(fieldh, domain, seeds, dt, tol_len, max_steps):
    """The batch march that doubles every row until the slowest one exits,
    as the engine ran before it dropped exited rows; ``samples[k, i]`` is
    row i at time k * dt, valid for k <= steps[i]."""
    gen = orbits._generator(fieldh)
    x = np.array(seeds, dtype=float)[None]
    inside = domain.contains(x)
    while not np.all(np.any(~inside, axis=0)):
        if len(x) > max_steps:
            raise AssertionError("orbit march exceeded its step budget")
        later = orbits._flow(gen, x, len(x) * dt)
        x = np.concatenate([x, later])
        inside = np.concatenate([inside, domain.contains(later)])
    steps = np.argmin(inside, axis=0) - 1
    halvings = 0
    while dt * 0.5**halvings * max(fieldh.h_upper, 1e-30) > tol_len:
        halvings += 1
    widths = dt * 0.5 ** np.arange(halvings + 1)
    x_lo = x[steps, np.arange(x.shape[1])]
    lo = np.zeros(len(x_lo))
    for width in widths[1:]:
        trial = orbits._flow(gen, x_lo, width)
        stay = domain.contains(trial)
        x_lo[stay] = trial[stay]
        lo[stay] += width
    return x, steps, steps * dt + lo + widths[-1], orbits._flow(gen, x_lo, widths[-1])


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_march_without_exited_rows_is_bit_identical(case):
    dom, f, omegas, level = ENGINE_CASES[case]()
    seeds = np.array([list(om) + [level] for om in omegas])
    dt = dom.delta / orbits.STEP_DIVISOR
    args = (dom, seeds, dt, 1e-9 * dom.delta, orbits.STEP_DIVISOR * 64)
    for fieldh in (f, orbits._reversed(f)):
        samples, steps, t_exit, x_exit = orbits._march(fieldh, *args)
        ref, ref_steps, ref_t, ref_x = _doubling_march(fieldh, *args)
        if case in ("constant", "affine_full"):
            # the rows leave at different steps, so some leave the doubling early
            assert len(set(ref_steps.tolist())) > 1
        assert np.array_equal(steps, ref_steps)
        assert np.array_equal(t_exit, ref_t) and np.array_equal(x_exit, ref_x)
        for i, row in enumerate(samples):
            assert np.array_equal(row, ref[: ref_steps[i] + 1, i])


def _ref_cumulative_simpson(vals, h):
    n = len(vals)
    cum = np.zeros(n)
    for j in range((n - 1) // 2):
        i = 2 * j
        cum[i + 1] = cum[i] + h / 12.0 * (5.0 * vals[i] + 8.0 * vals[i + 1] - vals[i + 2])
        cum[i + 2] = cum[i] + h / 3.0 * (vals[i] + 4.0 * vals[i + 1] + vals[i + 2])
    if (n - 1) % 2 == 1:
        cum[n - 1] = cum[n - 2] + 0.5 * h * (vals[n - 2] + vals[n - 1])
    return cum


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 1001, 1002])
def test_vectorized_simpson_equals_the_loop(n):
    vals = np.random.default_rng(n).uniform(0.0, 2.0, n)
    h = 1.0 / 2048
    assert np.array_equal(orbits._cumulative_divergence(vals, h), _ref_cumulative_simpson(vals, h))


def _ref_flow(fieldh, x, t, step):
    """A lone march of the rows of x from time 0 to t, as the oracle did."""
    sign = 1.0 if t >= 0 else -1.0
    remaining = abs(t)
    while remaining > step:
        x = _ref_rk4(lambda y: sign * fieldh(y), x, step)
        remaining -= step
    return _ref_rk4(lambda y: sign * fieldh(y), x, remaining)


def _ref_point(fieldh, orb, t):
    """Dense output as a lone re-step from the last stored state <= t."""
    times = orb.times
    i = 0 if t <= times[0] else int(np.searchsorted(times, min(t, times[-1]), side="right")) - 1
    rest = t - times[i]
    return orb.points[i] if rest == 0.0 else _ref_flow(fieldh, orb.points[i], rest, orb.step)


def _ref_jacobian(fieldh, orb, t):
    cum = _ref_cumulative_simpson(fieldh.divergence(orb.points), orb.step)
    times = orb.times
    i = int(np.searchsorted(times, min(max(t, times[0]), times[-1]), side="right")) - 1
    integral = cum[i] - cum[int(np.searchsorted(times, 0.0, side="right")) - 1]
    rest = t - times[i]
    if rest != 0.0:
        d0 = float(fieldh.divergence(orb.points[i]))
        d1 = float(fieldh.divergence(_ref_point(fieldh, orb, t)))
        integral += 0.5 * rest * (d0 + d1)
    return -float(fieldh(orb.seed)[-1]) * math.exp(integral)


def _ref_jacobian_numeric(fieldh, omega, level, t, domain, fd_step=1e-5):
    """Finite-difference determinant from lone RK4 marches of the seed and
    its 2(n-1) shifts."""
    seed = np.array(list(omega) + [level], dtype=float)
    rows = [seed]
    for k in range(domain.dim - 1):
        e = np.zeros(domain.dim)
        e[k] = fd_step
        rows += [seed + e, seed - e]
    step = domain.delta / orbits.STEP_DIVISOR
    ends = [_ref_flow(fieldh, r, float(t), step) for r in rows]
    cols = [fieldh(ends[0])] + [
        (ends[1 + 2 * k] - ends[2 + 2 * k]) / (2.0 * fd_step) for k in range(domain.dim - 1)
    ]
    orientation = 1.0 if domain.dim % 2 == 0 else -1.0
    return orientation * float(np.linalg.det(np.stack(cols, axis=-1)))


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_one_pass_dense_output_and_jacobians_match_lone_marches(case):
    dom, f, omegas, level = ENGINE_CASES[case]()
    omegas = omegas[:3]
    batch = orbits.integrate_orbits(f, omegas, level, dom)
    times = np.array([np.linspace(o.t_minus, o.t_plus, 9) for o in batch])
    numeric = orbits.jacobian_numeric_batch(f, omegas, level, times)
    for om, orb, ts, dets in zip(omegas, batch, times, numeric):
        xs = orbits.orbit_point(f, orb, ts)
        ya = orbits.jacobian_analytic(f, orb, ts)
        for t, x, y, det in zip(ts, xs, ya, dets):
            assert np.max(np.abs(x - _ref_point(f, orb, float(t)))) <= POINT_BOUND * dom.delta
            assert y == _ref_jacobian(f, orb, float(t))
            # the difference columns divide point errors by the 2e-5 spread
            ref = _ref_jacobian_numeric(f, om, level, t, dom)
            assert abs(det - ref) <= POINT_BOUND * dom.delta / 1e-5 * abs(ref)


def _listed_times(dense, thin, rng):
    """Times on one orbit: stored samples, both exits, negative times and
    times a thinned orbit reaches by full steps plus a partial one."""
    stored = thin.times[len(thin.times) // 3]
    return [
        dense.t_minus, 0.5 * dense.t_minus, -0.37 * dense.step, 0.0, stored,
        stored + 3.7 * dense.step, thin.times[-1] + 0.6 * (dense.t_plus - thin.times[-1]),
        dense.t_plus, rng.uniform(dense.t_minus, 0.0), rng.uniform(0.0, dense.t_plus),
    ]


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_listed_orbit_points_equal_lone_calls(case):
    dom, f, omegas, level = ENGINE_CASES[case]()
    batch = orbits.integrate_orbits(f, omegas, level, dom)
    # keeping every fifth sample makes re-steps take up to four full steps
    # before the partial one, a different count per row
    thin = [dataclasses.replace(o, times=o.times[::5], points=o.points[::5]) for o in batch]
    rng = np.random.default_rng(len(case))
    listed, ts = [], []
    for dense, sparse in zip(batch, thin):
        for orbit in (dense, sparse):
            times = _listed_times(dense, sparse, rng)
            listed += [orbit] * len(times)
            ts += times
    order = rng.permutation(len(ts))
    listed = [listed[i] for i in order]
    ts = np.array(ts)[order]
    got = orbits.orbit_point(f, listed, ts)
    assert got.shape == (len(ts), dom.dim)
    for x, orbit, t in zip(got, listed, ts):
        assert np.array_equal(x, orbits.orbit_point(f, orbit, t))
        assert np.max(np.abs(x - _ref_point(f, orbit, float(t)))) <= POINT_BOUND * dom.delta


def test_listed_orbit_points_check_their_input():
    dom, f = spiral_affine()
    orbs = orbits.integrate_orbits(f, [0.3, 0.6], 0.4, dom)
    assert orbits.orbit_point(f, [], []).shape == (0, 2)
    with pytest.raises(ValueError, match="times for 2 orbits"):
        orbits.orbit_point(f, orbs, [0.1])
    with pytest.raises(DomainExitError):
        orbits.orbit_point(f, orbs, [0.1, orbs[1].t_plus + 0.1])


SMALL_DAM = """
schema_version = 1
seed = 5
domain.lower = 0 0
domain.upper = 1 1
domain.t_faces = ymax
domain.m = 0.6
domain.g.kind = hydrostatic
domain.g.level = 0.6
grid.resolution = 33 33
profile.family = power
profile.p = 2
field.kind = constant
field.c = 0 1
fb.levels = 0.1 0.2 0.3
fb.omega_count = 9
"""


def test_verify_fb_integrates_each_seed_once(tmp_path, monkeypatch):
    from collections import Counter

    from alap import cli

    marches = []
    real_march = orbits._march

    def counting_march(fieldh, domain, seeds, *args):
        marches.append([tuple(s) for s in np.asarray(seeds)])
        return real_march(fieldh, domain, seeds, *args)

    monkeypatch.setattr(orbits, "_march", counting_march)
    cfg = tmp_path / "dam.cfg"
    cfg.write_text(SMALL_DAM, encoding="utf-8")
    assert cli.main(["verify-fb", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # one forward and one backward batch per level, each seed in one of each
    assert len(marches) == 2 * 3
    per_seed = Counter(seed for batch in marches for seed in batch)
    assert len(per_seed) == 3 * 9
    assert set(per_seed.values()) == {2}


def test_verify_fb_samples_each_orbit_once(tmp_path, monkeypatch):
    from collections import Counter

    from alap import cli, free_boundary

    sampled = Counter()
    real_sample = free_boundary.sample_along_orbit

    def counting_sample(solution, grid, orbit, *args, **kwargs):
        sampled[(orbit.level, orbit.omega)] += 1
        return real_sample(solution, grid, orbit, *args, **kwargs)

    monkeypatch.setattr(free_boundary, "sample_along_orbit", counting_sample)
    cfg = tmp_path / "dam.cfg"
    cfg.write_text(SMALL_DAM, encoding="utf-8")
    assert cli.main(["verify-fb", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # three levels of nine orbits, each interpolated once for all certificates
    assert len(sampled) == 3 * 9
    assert set(sampled.values()) == {1}


def test_trace_csv_is_byte_identical_across_runs(tmp_path):
    from alap import cli

    cfg = tmp_path / "dam.cfg"
    cfg.write_text(SMALL_DAM, encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["trace", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        blobs.append((out / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].count(b"\n") == 1 + 9 * 32
