import math

import numpy as np
import pytest
from scipy.integrate import quad

from alap import barriers, fields, geometry, profiles

PROFILE_SET = [
    profiles.make_power(1.5),
    profiles.make_power(2.0),
    profiles.make_power(3.0),
    profiles.make_power(4.0),
    profiles.make_piecewise(1.0, 2.0, 1.0),
    profiles.make_piecewise(2.0, 1.0, 1.0),
    profiles.make_logpower(1.0, 1.0, 1.0),
    profiles.make_logpower(2.0, 1.0, 1.0),
]

_IDS = lambda p: f"{p.family}{p.params}"


# --- ring helpers that only these tests read ---------------------------------


class OutOfRingError(ValueError):
    """Evaluation point lies outside a barrier's annulus of definition."""


def radial_barrier_value(barrier, x):
    """v(x) on the ring; raises OutOfRingError outside [r/2, r + margin]."""
    rho = barrier.rho(x)
    lo = barrier.radius / 2.0 - 1e-12 * barrier.radius
    hi = barrier.outer_radius + 1e-12 * barrier.radius
    if np.any(rho < lo) or np.any(rho > hi):
        raise OutOfRingError("evaluation point outside the barrier ring")
    v = barrier.amplitude * (
        np.exp(-barrier.alpha * rho**2) - np.exp(-barrier.alpha * barrier.outer_radius**2)
    )
    return float(v[0]) if np.asarray(x).ndim == 1 else v


def ring_flux_margin(barrier, profile, h_upper):
    """The flux margin a(...)/(r+margin) - h_upper whose sign selects the
    growth-constant branch.

    Uses the conservative lower bound of |grad v| on the ring (outer-shell
    exponential with the inner-shell radius factor).
    """
    r, eps, kap = barrier.radius, barrier.margin, barrier.kappa
    alpha = barrier.alpha
    outer = r + eps
    grad_lower = (
        (kap / r)
        * barrier.floor_value
        * math.exp(-alpha * outer**2)
        / (math.exp(-kap / 4.0) - math.exp(-alpha * outer**2))
    )
    return float(profile.a(grad_lower)) / outer - h_upper


def hopf_outer_normal_derivative(barrier, scale=1.0):
    """d(scale v)/d rho at the outer sphere: negative for every admissible kappa."""
    a, radius = barrier.alpha, barrier.radius
    return float(scale * (-2.0 * a * radius * math.exp(-a * radius**2)))


def radial(prof, dim, kappa=None):
    return barriers.make_radial_barrier((0.0,) * dim, 1.0, 0.1, 1.0, dim, prof.a0, kappa=kappa)


def test_radial_barrier_shape():
    b = radial(profiles.make_power(2.0), 2)
    assert b.kappa == pytest.approx(6.0)
    assert b.alpha * (b.radius / 2.0) ** 2 == pytest.approx(b.kappa / 4.0)
    assert radial_barrier_value(b, np.array([1.1, 0.0])) == pytest.approx(0.0, abs=1e-15)
    assert radial_barrier_value(b, np.array([0.5, 0.0])) == pytest.approx(1.0)
    with pytest.raises(OutOfRingError):
        radial_barrier_value(b, np.array([0.2, 0.0]))


def test_radial_kappa_exceeds_two_for_all_profiles():
    for prof in PROFILE_SET:
        for dim in (2, 3):
            assert radial(prof, dim).kappa > 2.0


def test_radial_operator_matches_linear_reduction():
    # for the linear law the operator is the Laplacian of the barrier
    p2 = profiles.make_power(2.0)
    b = radial(p2, 2)
    rho = 0.75
    x = np.array([rho, 0.0])
    expected = (
        -2.0 * b.alpha * b.amplitude * math.exp(-b.alpha * rho**2) * (2.0 - 2.0 * b.alpha * rho**2)
    )
    assert barriers.radial_a_laplacian(b, p2, x) == pytest.approx(expected, rel=1e-13)


def _fd_divergence_of_flux(prof, barrier, x, h, scale=1.0):
    center = np.asarray(barrier.center)

    def gradv(y):
        rho2 = float(np.sum((y - center) ** 2))
        return -2.0 * barrier.alpha * barrier.amplitude * math.exp(-barrier.alpha * rho2) * (
            y - center
        )

    total = 0.0
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        total += (
            profiles.flux(prof, scale * gradv(x + e))[i]
            - profiles.flux(prof, scale * gradv(x - e))[i]
        ) / (2.0 * h)
    return total


@pytest.mark.parametrize(
    "prof, scale",
    [
        pytest.param(p, s, id=_IDS(p) + ("" if s == 1.0 else f"-scale{s:g}"))
        for s in (1.0, 0.37)
        for p in PROFILE_SET
    ],
)
def test_radial_operator_fd_convergence(prof, scale):
    # amplitude != 1 together with scale != 1: the one ring operator serves both
    b = radial(prof, 2)
    x = np.array([0.8, 0.1])
    closed = barriers.radial_a_laplacian(b, prof, x, scale)
    errs = [
        abs(_fd_divergence_of_flux(prof, b, x, h, scale) - closed) for h in (1e-2, 5e-3, 2.5e-3)
    ]
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_radial_inequality_certified(prof, dim):
    rep = barriers.certify_radial_inequality(radial(prof, dim), prof)
    assert rep.passed, rep.min_margin


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_radial_inequality_quarter_kappa_fails(prof, dim):
    canonical = radial(prof, dim)
    witness = radial(prof, dim, kappa=canonical.kappa / 4.0)
    rep = barriers.certify_radial_inequality(witness, prof)
    assert not rep.passed


def test_ring_flux_margin_branches():
    p2 = profiles.make_power(2.0)
    dead = barriers.make_radial_barrier((0.0, 0.0), 1.0, 0.1, 0.0, 2, p2.a0)
    assert ring_flux_margin(dead, p2, 1.0) == pytest.approx(-1.0)
    rich = barriers.make_radial_barrier((0.0, 0.0), 1.0, 0.1, 1e6, 2, p2.a0)
    assert ring_flux_margin(rich, p2, 1.0) > 0.0


def test_ring_flux_margin_crossing_in_floor_value():
    p2 = profiles.make_power(2.0)

    def margin(m):
        b = barriers.make_radial_barrier((0.0, 0.0), 1.0, 0.1, m, 2, p2.a0)
        return ring_flux_margin(b, p2, 1.0)

    lo, hi = 0.0, 1e6
    assert margin(lo) < 0 < margin(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if margin(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(margin(0.5 * (lo + hi))) < 1e-9


def test_growth_constants_closed_forms():
    p2 = profiles.make_power(2.0)
    # kappa = 6 for n = 2; a_inv is the identity for the linear law
    expect_nonpos = (math.exp(4.5) - 1.0) / 6.0
    got = barriers.lipschitz_constant_nonpositive_margin(p2, 2, 1.0, 1.0)
    assert got == pytest.approx(expect_nonpos, rel=1e-14)
    got_pos = barriers.lipschitz_constant_positive_margin(p2, 2, 1.0)
    assert got_pos == pytest.approx((math.exp(4.5) - 1.0) / 12.0, rel=1e-14)
    assert got_pos / got == pytest.approx(0.5)


def test_growth_constants_duplicate_formula_oracle():
    for prof in PROFILE_SET:
        for dim in (2, 3):
            kap = 2.0 * (1.0 + dim / prof.a0)
            h, delta = 0.7, 1.9
            ref = float(prof.a_inv(h * delta)) * (math.exp(0.75 * kap) - 1.0) / kap
            assert barriers.lipschitz_constant_nonpositive_margin(prof, dim, h, delta) == pytest.approx(ref)
            ref2 = float(prof.a_inv(h)) * (math.exp(0.75 * kap) - 1.0) / (2.0 * kap)
            assert barriers.lipschitz_constant_positive_margin(prof, dim, h) == pytest.approx(ref2)


def test_growth_constants_monotone_in_drift_bound():
    for prof in PROFILE_SET:
        vals = [barriers.lipschitz_constant_nonpositive_margin(prof, 2, h, 1.3) for h in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]
        vals = [barriers.lipschitz_constant_positive_margin(prof, 2, h) for h in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# boundary-point barrier


def test_hopf_range_and_construction():
    p2 = profiles.make_power(2.0)
    lo, hi = barriers.hopf_kappa_range(3, p2.a0)
    assert (lo, hi) == (0.5, 4.0)
    with pytest.raises(ValueError):
        barriers.make_hopf_barrier((0, 0, 0), 1.0, 5.0, 3, p2.a0)


def test_hopf_certified_at_canonical_point():
    p2 = profiles.make_power(2.0)
    b = barriers.make_hopf_barrier((0, 0, 0), 1.0, 2.0, 3, p2.a0)
    rep = barriers.certify_hopf_inequality(b, p2, 0.37)
    assert rep.passed


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_hopf_certified_above_threshold(prof, dim):
    lo, hi = barriers.hopf_kappa_range(dim, prof.a0)
    threshold = 0.5 * (1.0 + dim / prof.a0)
    if threshold >= hi:
        pytest.skip("printed range admits no pointwise-valid decay rate")
    for kap in np.linspace(threshold, hi - 1e-3 * (hi - lo), 4):
        b = barriers.make_hopf_barrier((0.0,) * dim, 1.0, float(kap), dim, prof.a0)
        for scale in (0.1, 1.0):
            rep = barriers.certify_hopf_inequality(b, prof, scale)
            assert rep.passed, (kap, scale, rep.min_margin)


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_hopf_fails_near_printed_lower_end(prof, dim):
    b = barriers.make_hopf_barrier((0.0,) * dim, 1.0, 0.51, dim, prof.a0)
    rep = barriers.certify_hopf_inequality(b, prof, 1.0)
    assert not rep.passed


def test_hopf_empty_valid_range_documented():
    # the low-ellipticity planar case admits no valid decay rate at all
    prof = profiles.make_power(1.5)
    lo, hi = barriers.hopf_kappa_range(2, prof.a0)
    assert 0.5 * (1.0 + 2 / prof.a0) >= hi
    for kap in np.linspace(lo + 1e-3, hi - 1e-3, 5):
        b = barriers.make_hopf_barrier((0.0, 0.0), 1.0, float(kap), 2, prof.a0)
        assert not barriers.certify_hopf_inequality(b, prof, 1.0).passed


def test_hopf_outer_normal_derivative():
    p2 = profiles.make_power(2.0)
    b = barriers.make_hopf_barrier((0, 0, 0), 1.0, 2.0, 3, p2.a0)
    expect = -2.0 * b.alpha * b.radius * math.exp(-b.alpha * b.radius**2)
    assert hopf_outer_normal_derivative(b, 1.0) == pytest.approx(expect)
    assert hopf_outer_normal_derivative(b, 0.37) < 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_one_ring_plan_serves_radial_and_hopf_rings(dim):
    p2 = profiles.make_power(2.0)
    for b, outer in (
        (radial(p2, dim), 1.1),
        (barriers.make_hopf_barrier((0.0,) * dim, 1.0, 1.0, dim, p2.a0), 1.0),
    ):
        pts = barriers.ring_sampling_plan(b, 7)
        rho = b.rho(pts)
        assert rho.min() == pytest.approx(0.5) and rho.max() <= outer * (1.0 + 1e-12)
        assert rho.max() == pytest.approx(outer)


def test_hopf_fd_cross_check():
    prof = profiles.make_power(3.0)
    b = barriers.make_hopf_barrier((0.0, 0.0), 1.0, 1.6, 2, prof.a0)
    x = np.array([0.8, 0.1])
    scale = 0.37
    closed = barriers.radial_a_laplacian(b, prof, x, scale)

    def gradv(y):
        rho2 = float(np.sum(y**2))
        return -2.0 * b.alpha * math.exp(-b.alpha * rho2) * y

    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        total = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            total += (
                profiles.flux(prof, scale * gradv(x + e))[i]
                - profiles.flux(prof, scale * gradv(x - e))[i]
            ) / (2.0 * h)
        errs.append(abs(total - closed))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8


# ---------------------------------------------------------------------------
# exterior-sphere boundary barrier

GEOM = dict(sphere_radius=0.2, m_ceiling=1.0, h_upper=1.0, diameter=math.sqrt(2.0), dim=2)


def boundary(prof):
    return barriers.make_boundary_barrier(
        prof, (0.5, -GEOM["sphere_radius"]), GEOM["sphere_radius"], GEOM["m_ceiling"],
        GEOM["h_upper"], GEOM["diameter"], GEOM["dim"],
    )


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
def test_boundary_profile_endpoints(prof):
    bb = boundary(prof)
    assert barriers.boundary_profile_value(bb, prof, 0.0) == 0.0
    assert barriers.boundary_profile_value(bb, prof, GEOM["sphere_radius"]) >= GEOM["m_ceiling"]
    slope_end = float(barriers.boundary_profile_slope(bb, prof, GEOM["diameter"]))
    assert slope_end == pytest.approx(GEOM["m_ceiling"] / GEOM["sphere_radius"], rel=1e-8)


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
def test_boundary_profile_monotone_with_slope_window(prof):
    bb = boundary(prof)
    ts = np.linspace(0.0, GEOM["diameter"], 50)
    vals = [barriers.boundary_profile_value(bb, prof, float(t)) for t in ts]
    assert np.all(np.diff(vals) > 0.0)
    slopes = barriers.boundary_profile_slope(bb, prof, ts)
    lo = GEOM["m_ceiling"] / GEOM["sphere_radius"]
    hi = float(barriers.boundary_profile_slope(bb, prof, 0.0))
    assert np.all(slopes >= lo - 1e-9) and np.all(slopes <= hi + 1e-9)


@pytest.mark.parametrize("prof", PROFILE_SET, ids=_IDS)
def test_boundary_profile_ode_residual(prof):
    bb = boundary(prof)
    ts = np.linspace(1e-6, GEOM["diameter"] - 1e-6, 1000)
    res = barriers.boundary_profile_ode_residual(bb, prof, ts)
    assert np.max(np.abs(res)) <= 1e-8 * GEOM["h_upper"]


def test_boundary_profile_ode_residual_scales_with_drift_bound():
    # doubling h scales the certified bound with it
    prof = profiles.make_power(3.0)
    for h_upper in (1.0, 2.0):
        bb = barriers.make_boundary_barrier(
            prof, (0.5, -0.2), 0.2, 1.0, h_upper, math.sqrt(2.0), 2
        )
        ts = np.linspace(1e-6, math.sqrt(2.0) - 1e-6, 200)
        res = barriers.boundary_profile_ode_residual(bb, prof, ts)
        assert np.max(np.abs(res)) <= 1e-8 * h_upper


def test_printed_ode_form_is_inconsistent():
    # replacing a'(theta') by a(theta') in the first term leaves a large
    # defect: evidence the derivative form is the correct one
    prof = profiles.make_power(3.0)
    bb = boundary(prof)
    c, exp_arg, slope = barriers._theta(bb, prof)
    rate = 1.0 / GEOM["sphere_radius"]
    ts = np.linspace(0.1, 1.0, 50)
    sl = slope(ts)
    second = -rate * (exp_arg(ts) + c) / prof.da(sl)
    printed = prof.a(sl) * second + rate * prof.a(sl) + GEOM["h_upper"]
    assert np.min(np.abs(printed)) > 1.0


def test_boundary_profile_quadrature_oracle():
    prof = profiles.make_logpower(1.0, 1.0, 1.0)
    bb = boundary(prof)
    for t in (0.13, 0.7, 1.2):
        ref, _ = quad(
            lambda s: float(barriers.boundary_profile_slope(bb, prof, s)), 0.0, t,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert barriers.boundary_profile_value(bb, prof, t) == pytest.approx(ref, abs=1e-9)


def test_boundary_supersolution_constant_field():
    prof = profiles.make_power(2.0)
    bb = boundary(prof)
    f = fields.make_constant_field([0.0, GEOM["h_upper"]])
    rng = np.random.default_rng(3)
    d = rng.uniform(1e-3, GEOM["diameter"] * 0.999, 300)
    ang = rng.uniform(0.0, math.pi, 300)
    pts = np.stack(
        [0.5 + (0.2 + d) * np.cos(ang), -0.2 + (0.2 + d) * np.sin(ang)], axis=-1
    )
    rep = barriers.certify_boundary_supersolution(bb, prof, f, pts)
    assert rep.passed


def test_boundary_supersolution_margin_tightens_at_sphere():
    # with div H = h_upper the defect at the sphere surface goes to zero
    prof = profiles.make_power(2.0)
    bb = boundary(prof)
    dom = geometry.box_domain([-1, -1], [1, 1], [], geometry.BoundaryData("zero"), 1.0)
    coeff = 0.5 * GEOM["h_upper"] * np.eye(2)
    f = fields.make_affine_field(coeff, np.array([0.0, 1.0]), dom)
    assert f.divergence(np.zeros(2)) == pytest.approx(GEOM["h_upper"])
    vals = []
    for d in (1e-9, 1e-2, 0.3):
        x = np.array([0.5, -0.2 + 0.2 + d])
        vals.append(float(barriers.boundary_a_laplacian(bb, prof, x) + f.divergence(x)))
    # the defect vanishes linearly in the sphere distance, at slope
    # (n-1) a(theta'(0)) / R0^2
    slope = float(prof.a(barriers.boundary_profile_slope(bb, prof, 0.0))) / GEOM["sphere_radius"] ** 2
    assert vals[0] == pytest.approx(-slope * 1e-9, rel=1e-2)
    assert abs(vals[0]) < 1e-3
    assert vals[0] > vals[1] > vals[2]


def test_boundary_slope_at_zero_is_the_growth_constant():
    prof = profiles.make_power(2.0)
    bb = boundary(prof)
    c = GEOM["h_upper"] * GEOM["sphere_radius"] / 1.0
    expect = float(
        prof.a_inv(
            (prof.a(GEOM["m_ceiling"] / GEOM["sphere_radius"]) + c)
            * math.exp(GEOM["diameter"] / GEOM["sphere_radius"])
            - c
        )
    )
    assert float(barriers.boundary_profile_slope(bb, prof, 0.0)) == pytest.approx(expect)
