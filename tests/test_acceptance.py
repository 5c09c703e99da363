"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy coupled solves are shared through a module-scoped cache.
"""

import math
import os

import numpy as np
import pytest

from alap import barriers, cli, fields, free_boundary as fb, geometry, harness
from alap import orbits, profiles, solver

SEED = 20_240_817

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


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def dam_domain(level=0.6):
    return geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("hydrostatic", (level,)), level
    )


AFFINE_FB = (-1.0 + math.sqrt(1.24)) / 0.2  # flux balance root of y + 0.1 y^2 = 0.6


def affine_exact(x):
    y = np.asarray(x)[..., -1]
    return np.where(y < AFFINE_FB, (AFFINE_FB - y) + 0.1 * (AFFINE_FB**2 - y**2), 0.0)


def affine_domain():
    g = geometry.BoundaryData("custom", fn=affine_exact)
    m = float(affine_exact(np.array([0.0, 0.0])))
    return geometry.box_domain([0, 0], [1, 1], ["ymax"], g, m)


@pytest.fixture(scope="module")
def solves():
    """Cache of (key) -> (domain, grid, fieldh, profile, pair, report)."""
    cache = {}

    dom = dam_domain()
    for p in (2.0, 3.0):
        prof = profiles.make_power(p)
        f = fields.make_constant_field([0.0, float(prof.a(1.0))])
        for res in (65, 129, 257):
            grid = geometry.build_grid(dom, (res, res))
            pair, report = solver.solve_problem(grid, prof, f, dom)
            cache[f"dam_p{p:g}_{res}"] = (dom, grid, f, prof, pair, report)

    adom = affine_domain()
    aprof = profiles.make_power(2.0)
    afield = fields.make_affine_field(
        np.array([[0.0, 0.0], [0.0, 0.2]]), np.array([0.0, 1.0]), adom
    )
    agrid = geometry.build_grid(adom, (129, 129))
    apair, arep = solver.solve_problem(agrid, aprof, afield, adom)
    cache["affine_129"] = (adom, agrid, afield, aprof, apair, arep)

    tdom = geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("two_level", (0.7, 0.3)), 0.7
    )
    tfield = fields.make_constant_field([0.0, 1.0])
    for res in (65, 129):
        tgrid = geometry.build_grid(tdom, (res, res))
        tpair, trep = solver.solve_problem(tgrid, aprof, tfield, tdom)
        cache[f"two_level_{res}"] = (tdom, tgrid, tfield, aprof, tpair, trep)
    return cache


def test_criterion_01_ellipticity():
    samples = np.logspace(-6, 6, 200)
    worst = []
    ok = True
    for prof in PROFILE_SET:
        rep = profiles.certify_ellipticity(prof, samples)
        ok = ok and rep.passed
        worst.append(f"{prof.family}{prof.params}:[{rep.min_ratio:.3f},{rep.max_ratio:.3f}]")
    _report(1, ok, "; ".join(worst))


def test_criterion_02_monotonicity_gap():
    rng = np.random.default_rng(SEED)
    failures = 0
    min_gap = math.inf
    for prof in PROFILE_SET:
        xi = rng.normal(size=(10_000, 2))
        zeta = rng.normal(size=(10_000, 2))
        gaps = profiles.monotonicity_gap(prof, xi, zeta)
        failures += int(np.sum(gaps <= 0.0))
        min_gap = min(min_gap, float(np.min(gaps)))
    _report(2, failures == 0, f"10^4 pairs x {len(PROFILE_SET)} profiles, min gap {min_gap:.3e}")


def _fd_divflux(prof, barrier, x, h):
    center = np.asarray(barrier.center)

    def gradv(y):
        rho2 = float(np.sum((y - center) ** 2))
        return (
            -2.0 * barrier.alpha * barrier.amplitude * math.exp(-barrier.alpha * rho2) * (y - center)
        )

    total = 0.0
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        total += (
            profiles.flux(prof, gradv(x + e))[i] - profiles.flux(prof, gradv(x - e))[i]
        ) / (2.0 * h)
    return total


def test_criterion_03_radial_barrier():
    ok = True
    min_margin = math.inf
    min_slope = math.inf
    witnesses = 0
    for prof in PROFILE_SET:
        for dim in (2, 3):
            b = barriers.make_radial_barrier((0.0,) * dim, 1.0, 0.1, 1.0, dim, prof.a0)
            rep = barriers.certify_radial_inequality(b, prof, seed=SEED)
            ok = ok and rep.passed and rep.min_margin >= -1e-10
            min_margin = min(min_margin, rep.min_margin)
            wit = barriers.make_radial_barrier(
                (0.0,) * dim, 1.0, 0.1, 1.0, dim, prof.a0, kappa=b.kappa / 4.0
            )
            witnesses += int(not barriers.certify_radial_inequality(wit, prof, seed=SEED).passed)
        b2 = barriers.make_radial_barrier((0.0, 0.0), 1.0, 0.1, 1.0, 2, prof.a0)
        x = np.array([0.8, 0.1])
        closed = barriers.radial_a_laplacian(b2, prof, x)
        errs = [abs(_fd_divflux(prof, b2, x, h) - closed) for h in (1e-2, 5e-3, 2.5e-3)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        min_slope = min(min_slope, min(slopes))
    ok = ok and min_slope >= 1.8 and witnesses == 2 * len(PROFILE_SET)
    _report(
        3,
        ok,
        f"min margin {min_margin:.2e}, min FD slope {min_slope:.2f}, "
        f"{witnesses}/{2*len(PROFILE_SET)} quarter-decay witnesses failed as required",
    )


def test_criterion_04_hopf_barrier():
    ok = True
    lines = []
    empty_combos = []
    for prof in PROFILE_SET:
        for dim in (2, 3):
            lo, hi = barriers.hopf_kappa_range(dim, prof.a0)
            threshold = 0.5 * (1.0 + dim / prof.a0)
            if threshold >= hi:
                # printed range admits no pointwise-valid decay rate; every
                # sampled kappa must be caught failing
                all_fail = all(
                    not barriers.certify_hopf_inequality(
                        barriers.make_hopf_barrier((0.0,) * dim, 1.0, float(k), dim, prof.a0),
                        prof, 1.0, seed=SEED,
                    ).passed
                    for k in np.linspace(lo + 1e-3, hi - 1e-3, 5)
                )
                ok = ok and all_fail
                empty_combos.append(f"{prof.family}{prof.params}/n{dim}")
                continue
            for kap in np.linspace(threshold, hi - 1e-3 * (hi - lo), 5):
                b = barriers.make_hopf_barrier((0.0,) * dim, 1.0, float(kap), dim, prof.a0)
                for scale in (0.1, 1.0):
                    rep = barriers.certify_hopf_inequality(b, prof, scale, seed=SEED)
                    ok = ok and rep.passed
            # defect witness inside the printed range but below threshold
            low = barriers.make_hopf_barrier((0.0,) * dim, 1.0, 0.51, dim, prof.a0)
            ok = ok and not barriers.certify_hopf_inequality(low, prof, 1.0, seed=SEED).passed
    detail = "5 kappa x {0.1,1} scales in the valid subrange pass; kappa=0.51 fails everywhere"
    if empty_combos:
        detail += f"; empty valid range documented for {', '.join(empty_combos)}"
    _report(4, ok, detail)


def test_criterion_05_boundary_barrier():
    m_ceiling, r0, h_upper, diameter = 1.0, 0.2, 1.0, math.sqrt(2.0)
    f = fields.make_constant_field([0.0, h_upper])
    rng = np.random.default_rng(SEED)
    ok = True
    worst_res = 0.0
    for prof in PROFILE_SET:
        bb = barriers.make_boundary_barrier(
            prof, (0.5, -r0), r0, m_ceiling, h_upper, diameter, 2
        )
        ok = ok and barriers.boundary_profile_value(bb, prof, 0.0) == 0.0
        ok = ok and barriers.boundary_profile_value(bb, prof, r0) >= m_ceiling
        slope_end = float(barriers.boundary_profile_slope(bb, prof, diameter))
        ok = ok and abs(slope_end - m_ceiling / r0) <= 1e-8 * (m_ceiling / r0)
        ts = rng.uniform(1e-6, diameter - 1e-6, 1000)
        res = barriers.boundary_profile_ode_residual(bb, prof, ts)
        worst_res = max(worst_res, float(np.max(np.abs(res))))
        ok = ok and worst_res <= 1e-8 * h_upper
        d = rng.uniform(1e-3, diameter * 0.999, 200)
        ang = rng.uniform(0.0, math.pi, 200)
        pts = np.stack([0.5 + (r0 + d) * np.cos(ang), -r0 + (r0 + d) * np.sin(ang)], axis=-1)
        rep = barriers.certify_boundary_supersolution(bb, prof, f, pts)
        ok = ok and rep.passed
    _report(5, ok, f"all profiles; max ODE residual {worst_res:.2e} <= 1e-8 h")


def test_criterion_06_jacobian_oracles():
    dom = dam_domain()
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    violations = 0
    cases = 0
    while cases < 100:
        if cases % 2 == 0:
            c = np.array([rng.uniform(-0.8, 0.8), rng.uniform(0.5, 1.5)])
            f = fields.make_constant_field(c)
        else:
            diag = rng.uniform(0.0, 0.3, size=2)
            off = rng.uniform(-0.1, 0.1)
            coeff = np.array([[diag[0], off], [0.0, diag[1]]])
            offset = np.array([rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.2)])
            try:
                f = fields.make_affine_field(coeff, offset, dom)
            except ValueError:
                continue
        om, lv = rng.uniform(0.15, 0.85, 2)
        orbit = orbits.integrate_orbit(f, [om], lv, dom)
        t = rng.uniform(orbit.t_minus * 0.9, orbit.t_plus * 0.9)
        ya = orbits.jacobian_analytic(f, orbit, float(t))
        yn = orbits.jacobian_numeric(f, [om], lv, float(t), dom)
        worst_rel = max(worst_rel, abs(ya - yn) / abs(ya))
        rep = orbits.certify_jacobian_bounds(f, [orbit], times_per_orbit=12)
        violations += int(not rep.passed)
        cases += 1
    ok = worst_rel <= 1e-6 and violations == 0
    _report(6, ok, f"100 cases, max rel diff {worst_rel:.2e}, forward bound violations {violations}")


def test_criterion_07_manufactured_convergence(solves):
    ok = True
    details = []
    for p in (2.0, 3.0):
        errs, hs = [], []
        for res in (65, 129, 257):
            dom, grid, f, prof, pair, report = solves[f"dam_p{p:g}_{res}"]
            ys = grid.nodes()[..., 1]
            errs.append(float(np.max(np.abs(pair.u - np.maximum(0.6 - ys, 0.0)))))
            hs.append(float(grid.spacing[1]))
            cfg = solver.SolverConfig().resolved(grid, prof, f)
            comp = report.constraints.max_cell_complementarity
            ok = ok and comp <= cfg.eps
            ok = ok and report.constraints.u_min >= 0.0
            ok = ok and report.constraints.u_max <= dom.m_ceiling
            ok = ok and 0.0 <= report.constraints.chi_min
            ok = ok and report.constraints.chi_max <= 1.0
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        ok = ok and slope >= 0.9 and errs[0] > errs[2]
        details.append(f"p={p:g}: errors {['%.2e' % e for e in errs]}, fitted order {slope:.2f}")
    _report(7, ok, "; ".join(details))


def _vertical_omegas(count):
    return np.array([(j + 0.5) / count for j in range(count)])


def test_criterion_08_chi_monotonicity(solves):
    ok = True
    details = []
    for key in ("dam_p2_129", "dam_p3_129", "affine_129"):
        dom, grid, f, prof, pair, _ = solves[key]
        cfg = solver.SolverConfig().resolved(grid, prof, f)
        tol = fb.default_chi_monotone_tol(cfg.eps, pair.eps_u, dom.m_ceiling)
        family = orbits.OrbitFamily(f, dom, 0.2)
        orbs = [family.orbit((float(w),)) for w in _vertical_omegas(17)]
        rep = fb.certify_chi_monotone(pair, grid, orbs, tol)
        ok = ok and rep.passed
        details.append(f"{key}: uptick {rep.max_uptick:.1e} <= tol {tol:.2f}")
        # adversarial re-saturation must trip the same detector
        chi_bad = pair.chi.copy()
        cells_y = grid.cell_centers()[..., 1]
        chi_bad[(cells_y > 0.8) & (cells_y < 0.9)] = 1.0
        bad = geometry.SolutionPair(u=pair.u, chi=chi_bad, eps_u=pair.eps_u)
        ok = ok and not fb.certify_chi_monotone(bad, grid, orbs, tol).passed
    _report(8, ok, "; ".join(details) + "; adversarial step detected")


def test_criterion_09_free_boundary_graph(solves):
    dom, grid, f, prof, pair, _ = solves["dam_p2_129"]
    ok = True
    worst = 0.0
    for level in (0.1, 0.2, 0.3):
        omegas = _vertical_omegas(33)
        graph = fb.extract_graph(pair, grid, f, level, omegas, dom)
        err = float(np.max(np.abs(graph.values - (0.6 - level))))
        worst = max(worst, err)
        ok = ok and err <= 2.0 * float(grid.spacing[1])
        ok = ok and bool(np.all(graph.identity_ok))
        grads = geometry.gradient_at_faces(grid, pair.u)
        gmax = max(float(np.max(np.sqrt(np.sum(g * g, axis=-1)))) for g in grads)
        tol = fb.default_lsc_tol(
            dom.delta / orbits.STEP_DIVISOR, float(np.max(grid.spacing)), gmax, f.h_lower
        )
        ok = ok and fb.certify_lower_semicontinuity(graph, tol).passed
        family = orbits.OrbitFamily(f, dom, level)
        orbs = [family.orbit((float(w),)) for w in omegas]
        ok = ok and fb.certify_no_rewetting(pair, grid, f, orbs).passed
    _report(9, ok, f"max |phi - (0.6-h)| = {worst:.2e} <= 2h = {2*float(grid.spacing[1]):.2e}; "
                   "interval identity, lsc, and no-rewetting all hold")


def test_criterion_10_growth_reports(solves):
    ok = True
    details = []
    for base in ("dam_p2", "two_level"):
        ratios = []
        for res in (65, 129):
            dom, grid, f, prof, pair, _ = solves[f"{base}_{res}"]
            balls = harness.find_touching_balls(pair, grid, 5)
            rep = harness.growth_report(pair, grid, balls, prof, f)
            ok = ok and rep.passed and len(rep.rows) > 0
            ratios.append(rep.rows[0].ratio)
        drift = abs(ratios[1] - ratios[0]) / abs(ratios[0])
        ok = ok and drift <= 0.2
        details.append(f"{base}: lead ratio {ratios[0]:.3f}->{ratios[1]:.3f} ({100*drift:.1f}%)")
    dom, grid, f, prof, pair, _ = solves["dam_p2_129"]
    brep = harness.boundary_growth_report(
        pair, grid, dom, "ymax", [0.3], [0.7], sphere_radius=0.09,
        profile=prof, fieldh=f, tube_width=0.55,
        interp_slack=float(grid.spacing[1]),
    )
    ok = ok and brep.passed and brep.max_ratio > 0.0
    details.append(f"boundary ratio {brep.max_ratio:.3f} <= {brep.bound:.3e}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_determinism(tmp_path, monkeypatch):
    cfg_text = (
        "schema_version = 1\nseed = 7\n"
        "domain.lower = 0 0\ndomain.upper = 1 1\ndomain.t_faces = ymax\n"
        "domain.m = 0.6\ndomain.g.kind = hydrostatic\ndomain.g.level = 0.6\n"
        "grid.resolution = 33 33\nprofile.family = power\nprofile.p = 2\n"
        "field.kind = constant\nfield.c = 0 1\nfb.levels = 0.2\nfb.omega_count = 9\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    blobs = {"u.csv": [], "chi.csv": [], "ellipticity.csv": [], "free_boundary.csv": []}
    for tag in ("one", "two"):
        out = str(tmp_path / tag)
        monkeypatch.setattr(cli, "_last_solve", None)  # each rerun solves afresh
        assert cli.main(["solve", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["check-profile", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["extract-fb", "--config", str(cfg_path), "--out", out]) == 0
        for name in blobs:
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name].append(fh.read())
    ok = all(pair[0] == pair[1] for pair in blobs.values())
    _report(11, ok, f"byte-identical outputs across reruns: {sorted(blobs)}")
