import numpy as np
import pytest

from alap import fields, free_boundary as fb, geometry, orbits


def dam_setup(res=65, level=0.6):
    dom = geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("hydrostatic", (level,)), level
    )
    grid = geometry.build_grid(dom, (res, res))
    ys = grid.nodes()[..., 1]
    u = np.maximum(level - ys, 0.0)
    chi = (grid.cell_centers()[..., 1] < level).astype(float)
    pair = geometry.SolutionPair(u=u, chi=chi, eps_u=grid.positivity_threshold())
    return dom, grid, pair


def vertical_field():
    return fields.make_constant_field([0.0, 1.0])


def test_sample_constant_head():
    dom, grid, pair = dam_setup()
    full = geometry.SolutionPair(
        u=np.full(grid.counts, 0.6), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.2, dom)
    u_vals, chi_vals = fb.sample_along_orbit(full, grid, orb)
    assert np.allclose(u_vals, 0.6)
    assert np.all((chi_vals >= 0.0) & (chi_vals <= 1.0))


def test_sample_dam_profile():
    dom, grid, pair = dam_setup()
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.2, dom)
    u_vals, chi_vals = fb.sample_along_orbit(pair, grid, orb)
    ys = orb.points[:, 1]
    exact = np.maximum(0.6 - ys, 0.0)
    errs = np.abs(u_vals - exact)
    # interpolation is exact away from the kink cell and <= h/4 inside it
    h = float(grid.spacing[1])
    away = np.abs(ys - 0.6) > h
    assert np.max(errs[away]) < 1e-10
    assert np.max(errs) <= h / 3.0
    assert np.all((chi_vals >= 0.0) & (chi_vals <= 1.0))


def test_chi_monotone_on_dam():
    dom, grid, pair = dam_setup()
    orbs = [
        orbits.integrate_orbit(vertical_field(), [w], 0.2, dom) for w in (0.26, 0.51, 0.76)
    ]
    rep = fb.certify_chi_monotone(pair, grid, orbs, tol=1e-9)
    assert rep.passed
    assert rep.max_uptick == 0.0


def test_chi_monotone_detects_upward_step():
    dom, grid, pair = dam_setup()
    chi_bad = pair.chi.copy()
    # re-saturated band above the free boundary
    cells_y = grid.cell_centers()[..., 1]
    chi_bad[(cells_y > 0.7) & (cells_y < 0.8)] = 1.0
    bad = geometry.SolutionPair(u=pair.u, chi=chi_bad, eps_u=pair.eps_u)
    orb = orbits.integrate_orbit(vertical_field(), [0.51], 0.2, dom)
    rep = fb.certify_chi_monotone(bad, grid, [orb], tol=0.5)
    assert not rep.passed
    assert rep.max_uptick == pytest.approx(1.0)


def test_chi_monotone_vacuous_on_saturated_state():
    dom, grid, pair = dam_setup()
    full = geometry.SolutionPair(
        u=np.full(grid.counts, 0.6), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.2, dom)
    rep = fb.certify_chi_monotone(full, grid, [orb], tol=1e-12)
    assert rep.passed and rep.max_uptick == 0.0


def test_default_chi_tol_separates_noise_from_step():
    tol = fb.default_chi_monotone_tol(eps=0.003, eps_u=0.00075, m_ceiling=0.6)
    assert 0.0 < tol < 1.0


def test_wet_time_sup_saturated_and_dry():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    orb = orbits.integrate_orbit(f, [0.5], 0.2, dom)
    full = geometry.SolutionPair(
        u=np.full(grid.counts, 0.6), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    assert fb.wet_interval_sup(full, grid, f, orb) == orb.t_plus
    dry = geometry.SolutionPair(
        u=np.zeros(grid.counts), chi=np.zeros(grid.cell_counts), eps_u=pair.eps_u
    )
    assert fb.wet_interval_sup(dry, grid, f, orb) == orb.t_minus


def test_wet_time_sup_matches_closed_form():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    orb = orbits.integrate_orbit(f, [0.5], 0.2, dom)
    phi = fb.wet_interval_sup(pair, grid, f, orb)
    # the threshold crossing resolves within one cell of the interface
    assert phi == pytest.approx(0.4, abs=float(grid.spacing[1]))


def test_extract_graph_flat_with_identity():
    dom, grid, pair = dam_setup()
    omegas = np.array([(j + 0.5) / 17 for j in range(17)])
    graph = fb.extract_graph(pair, grid, vertical_field(), 0.2, omegas, dom)
    assert np.max(np.abs(graph.values - 0.4)) < 2.0 * float(grid.spacing[1])
    assert graph.identity_ok.all()
    assert not graph.set_empty.any()
    assert not graph.boundary_touching.any()


def test_extract_graph_takes_given_orbits_and_rejects_mismatched_ones():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    omegas = np.array([0.3, 0.5, 0.7])
    given = orbits.integrate_orbits(f, omegas, 0.2, dom)
    own = fb.extract_graph(pair, grid, f, 0.2, omegas, dom)
    shared = fb.extract_graph(pair, grid, f, 0.2, omegas, dom, orbits=given)
    assert np.array_equal(own.values, shared.values)
    for bad_omegas, bad_level in ((omegas[::-1], 0.2), (omegas[:2], 0.2), (omegas, 0.3)):
        with pytest.raises(ValueError, match="do not start"):
            fb.extract_graph(pair, grid, f, bad_level, bad_omegas, dom, orbits=given)


def test_extract_graph_dry_solution_flags_empty():
    dom, grid, pair = dam_setup()
    dry = geometry.SolutionPair(
        u=np.zeros(grid.counts), chi=np.zeros(grid.cell_counts), eps_u=pair.eps_u
    )
    omegas = np.array([0.3, 0.5, 0.7])
    graph = fb.extract_graph(dry, grid, vertical_field(), 0.2, omegas, dom)
    assert graph.set_empty.all()
    assert np.allclose(graph.values, graph.t_minus)


def test_extract_graph_tilted_field_keeps_flat_parameterization():
    # composing the hydrostatic pair with a tilted drift: the graph in
    # orbit time stays flat because orbits cross the interface at the same
    # height after the same vertical travel
    dom, grid, pair = dam_setup(129)
    f = fields.make_affine_field(
        np.array([[0.0, 0.0], [0.0, 0.2]]), np.array([0.0, 1.0]), dom
    )
    omegas = np.array([(j + 0.5) / 9 for j in range(9)])
    graph = fb.extract_graph(pair, grid, f, 0.2, omegas, dom)
    assert graph.identity_ok.all()
    spread = np.max(graph.values) - np.min(graph.values)
    assert spread < 1e-3


def test_lsc_flat_graph_passes():
    dom, grid, pair = dam_setup()
    omegas = np.array([(j + 0.5) / 17 for j in range(17)])
    graph = fb.extract_graph(pair, grid, vertical_field(), 0.2, omegas, dom)
    tol = fb.default_lsc_tol(dom.delta / orbits.STEP_DIVISOR, float(grid.spacing[1]), 1.0, 1.0)
    rep = fb.certify_lower_semicontinuity(graph, tol)
    assert rep.passed
    assert rep.checked == 15


def _graph_from_values(values):
    n = len(values)
    return fb.FreeBoundaryGraph(
        level=0.2,
        omegas=np.linspace(0.1, 0.9, n),
        values=np.asarray(values, dtype=float),
        t_minus=np.full(n, -1.0),
        t_plus=np.full(n, 1.0),
        set_empty=np.zeros(n, dtype=bool),
        boundary_touching=np.zeros(n, dtype=bool),
        identity_ok=np.ones(n, dtype=bool),
        lsc_ok=np.ones(n, dtype=bool),
    )


def test_lsc_jump_value_conventions():
    # three-sample graphs place the jump at the only interior point: the
    # value at the lower limit is admissible, the upper limit is not
    lower = _graph_from_values([1.0, 0.2, 0.2])
    upper = _graph_from_values([1.0, 1.0, 0.2])
    assert fb.certify_lower_semicontinuity(lower, tol=1e-6).passed
    assert not fb.certify_lower_semicontinuity(upper, tol=1e-6).passed


def test_lsc_modulus_budgets_resolved_variation():
    ramp = _graph_from_values([0.0, 0.2, 0.1, 0.3, 0.4])
    assert not fb.certify_lower_semicontinuity(ramp, tol=1e-6, modulus=0.0).passed
    assert fb.certify_lower_semicontinuity(ramp, tol=1e-6, modulus=0.25).passed


def test_no_rewetting_on_dam():
    dom, grid, pair = dam_setup()
    orbs = [orbits.integrate_orbit(vertical_field(), [w], 0.2, dom) for w in (0.3, 0.6)]
    rep = fb.certify_no_rewetting(pair, grid, vertical_field(), orbs)
    assert rep.passed


def test_no_rewetting_vacuous_when_saturated():
    dom, grid, pair = dam_setup()
    full = geometry.SolutionPair(
        u=np.full(grid.counts, 0.6), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.2, dom)
    rep = fb.certify_no_rewetting(full, grid, vertical_field(), [orb])
    assert rep.passed and rep.orbits_checked == 1


def test_no_rewetting_detects_bump():
    dom, grid, pair = dam_setup()
    u_bad = pair.u.copy()
    ys = grid.nodes()[..., 1]
    bump = (ys > 0.75) & (ys < 0.85)
    u_bad[bump] = 0.05
    bad = geometry.SolutionPair(u=u_bad, chi=pair.chi, eps_u=pair.eps_u)
    orb = orbits.integrate_orbit(vertical_field(), [0.5], 0.2, dom)
    rep = fb.certify_no_rewetting(bad, grid, vertical_field(), [orb])
    assert not rep.passed
    graph = fb.extract_graph(bad, grid, vertical_field(), 0.2, np.array([0.5]), dom)
    assert not graph.identity_ok.all()


def test_interior_minima_of_wet_components():
    dom, grid, pair = dam_setup()
    comps = fb.component_interior_minima(pair, grid)
    assert len(comps) == 1
    label, minimum = comps[0]
    assert minimum is not None and minimum > pair.eps_u


def test_wet_time_sup_stride_invariance():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    orb = orbits.integrate_orbit(f, [0.37], 0.2, dom)
    phi1 = fb.wet_interval_sup(pair, grid, f, orb)
    phi2 = fb.wet_interval_sup(pair, grid, f, orb, stride=2)
    assert phi1 == pytest.approx(phi2, abs=1e-8 * dom.delta)


def test_given_samples_reproduce_the_self_sampled_certificates():
    dom, grid, pair = dam_setup()
    xs, ys = grid.nodes()[..., 0], grid.nodes()[..., 1]
    u_bad = pair.u.copy()
    u_bad[(ys > 0.75) & (ys < 0.85) & (xs < 0.4)] = 0.05  # only the first orbit re-wets
    centers = grid.cell_centers()
    chi_bad = pair.chi.copy()
    chi_bad[(centers[..., 1] > 0.75) & (centers[..., 1] < 0.85) & (centers[..., 0] > 0.6)] = 0.5
    bad = geometry.SolutionPair(u=u_bad, chi=chi_bad, eps_u=pair.eps_u)
    f = vertical_field()
    omegas = np.array([0.3, 0.5, 0.7])
    orbs = orbits.integrate_orbits(f, omegas, 0.2, dom)
    for sol in (pair, bad):
        samples = [fb.sample_along_orbit(sol, grid, o) for o in orbs]
        assert fb.certify_chi_monotone(sol, grid, orbs, 1e-9, samples=samples) == (
            fb.certify_chi_monotone(sol, grid, orbs, 1e-9)
        )
        assert fb.certify_no_rewetting(sol, grid, f, orbs, samples=samples) == (
            fb.certify_no_rewetting(sol, grid, f, orbs)
        )
        given = fb.extract_graph(sol, grid, f, 0.2, omegas, dom, orbits=orbs, samples=samples)
        own = fb.extract_graph(sol, grid, f, 0.2, omegas, dom, orbits=orbs)
        assert np.array_equal(given.values, own.values)
        assert np.array_equal(given.identity_ok, own.identity_ok)
        phi = fb.wet_interval_sup(sol, grid, f, orbs[1], u_vals=samples[1][0])
        assert phi == fb.wet_interval_sup(sol, grid, f, orbs[1])
    rewet = fb.certify_no_rewetting(bad, grid, f, orbs, samples=samples)
    assert [v[0] for v in rewet.violations] == [0]
    upticks = fb.certify_chi_monotone(bad, grid, orbs, 1e-9, samples=samples).per_orbit
    assert upticks[0] == 0.0 and upticks[2] > 0.0
    with pytest.raises(ValueError, match="sample sets"):
        fb.certify_chi_monotone(pair, grid, orbs, 1e-9, samples=samples[:2])
