import dataclasses

import numpy as np
import pytest
from scipy import ndimage

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
    u_full = fb.sample_along_orbit(full, grid, orb)[0]
    assert fb.wet_interval_sup(full, grid, f, [orb], [u_full]) == [orb.t_plus]
    dry = geometry.SolutionPair(
        u=np.zeros(grid.counts), chi=np.zeros(grid.cell_counts), eps_u=pair.eps_u
    )
    u_dry = fb.sample_along_orbit(dry, grid, orb)[0]
    assert fb.wet_interval_sup(dry, grid, f, [orb], [u_dry]) == [orb.t_minus]


def test_wet_time_sup_matches_closed_form():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    orb = orbits.integrate_orbit(f, [0.5], 0.2, dom)
    (phi,) = fb.wet_interval_sup(pair, grid, f, [orb], [fb.sample_along_orbit(pair, grid, orb)[0]])
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
    assert not fb.certify_lower_semicontinuity(ramp, tol=1e-6).passed
    assert fb.certify_lower_semicontinuity(ramp, tol=0.25 + 1e-6).passed


def test_lsc_passes_sloped_graphs_and_flags_jumps_on_them():
    # a straight graph meets its one-sided limits at any slope, up to its
    # end samples; a value above a jump or a spike on it is flagged
    line = 0.5 - 0.4 * np.linspace(0.0, 1.0, 33)
    for values in (line, line[::-1], np.full(33, 0.3)):
        assert fb.certify_lower_semicontinuity(_graph_from_values(values), tol=1e-9).passed
    spike = line.copy()
    spike[12] += 0.01
    rep = fb.certify_lower_semicontinuity(_graph_from_values(spike), tol=1e-3)
    # samples up to two away may read their slope through the spike
    flagged = [i for i, _ in rep.violations]
    assert 12 in flagged and all(abs(i - 12) <= 2 for i in flagged)
    jump = line.copy()
    jump[20:] -= 0.05
    jump[20] += 0.05  # the value at the jump is the upper one
    rep = fb.certify_lower_semicontinuity(_graph_from_values(jump), tol=1e-3)
    assert [i for i, _ in rep.violations] == [20]
    # the last interior sample has one sample on its right and reads the
    # slope of its left side
    end = line.copy()
    end[-2] += 0.01
    rep = fb.certify_lower_semicontinuity(_graph_from_values(end), tol=1e-3)
    flagged = [i for i, _ in rep.violations]
    assert 31 in flagged and all(i >= 29 for i in flagged)


def test_lsc_on_a_tensor_omega_grid():
    a, b = np.meshgrid(np.linspace(0.1, 0.9, 6), np.linspace(0.2, 0.8, 5), indexing="ij")
    plane = 0.6 - 0.3 * a + 0.2 * b
    graph = dataclasses.replace(
        _graph_from_values(plane.ravel()), omegas=np.stack([a.ravel(), b.ravel()], axis=1)
    )
    rep = fb.certify_lower_semicontinuity(graph, tol=1e-9)
    assert rep.passed and rep.checked == 4 * 3
    spiked = plane.copy()
    spiked[3, 1] += 0.01
    rep = fb.certify_lower_semicontinuity(
        dataclasses.replace(graph, values=spiked.ravel()), tol=1e-3
    )
    flagged = [ij for ij, _ in rep.violations]
    assert (3, 1) in flagged
    assert all((i == 3 and abs(j - 1) <= 2) or (j == 1 and abs(i - 3) <= 2) for i, j in flagged)


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


def component_interior_minima(solution):
    """Strong-maximum-principle diagnostic on the discrete wet set.

    Returns, per connected component of {u > eps_u} (face connectivity),
    the minimum of u over the component's interior nodes (those whose
    neighbors all lie in the component); an interior zero inside a wet
    component would contradict the strong maximum principle.
    """
    wet = solution.wet_nodes()
    structure = ndimage.generate_binary_structure(wet.ndim, 1)
    labels, count = ndimage.label(wet, structure=structure)
    interior = ndimage.binary_erosion(wet, structure=structure)
    out = []
    for comp in range(1, count + 1):
        mask = (labels == comp) & interior
        if not np.any(mask):
            out.append((comp, None))
        else:
            out.append((comp, float(np.min(solution.u[mask]))))
    return out


def test_interior_minima_of_wet_components():
    dom, grid, pair = dam_setup()
    comps = component_interior_minima(pair)
    assert len(comps) == 1
    label, minimum = comps[0]
    assert minimum is not None and minimum > pair.eps_u


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
    rewet = fb.certify_no_rewetting(bad, grid, f, orbs, samples=samples)
    assert [v[0] for v in rewet.violations] == [0]
    upticks = fb.certify_chi_monotone(bad, grid, orbs, 1e-9, samples=samples).per_orbit
    assert upticks[0] == 0.0 and upticks[2] > 0.0
    with pytest.raises(ValueError, match="sample sets"):
        fb.certify_chi_monotone(pair, grid, orbs, 1e-9, samples=samples[:2])


# --- batched bisection against the lone-orbit reference ---------------------


def ref_wet_interval_sup(solution, grid, fieldh, orbit, refine_tol=1e-9, u_vals=None):
    """One orbit's scan and scalar bisection, one ``orbit_point`` per halving."""
    if u_vals is None:
        u_vals, _ = fb.sample_along_orbit(solution, grid, orbit)
    wet = u_vals > solution.eps_u
    if not np.any(wet):
        return orbit.t_minus
    last_wet = int(np.max(np.nonzero(wet)[0]))
    if last_wet == len(u_vals) - 1:
        return orbit.t_plus
    lo, hi = float(orbit.times[last_wet]), float(orbit.times[last_wet + 1])
    tol_t = refine_tol * grid.domain.delta / max(fieldh.h_upper, 1e-300)
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        x = orbits.orbit_point(fieldh, orbit, mid)
        if geometry.interpolate_nodes(grid, solution.u, x) > solution.eps_u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_extract_graph(solution, grid, fieldh, level, omegas, domain, refine_tol=1e-9,
                      orbits=None, samples=None):
    """``extract_graph`` as a loop over orbits, each bisected on its own."""
    from alap.orbits import OrbitFamily, orbit_point

    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim == 1 and domain.dim == 2:
        om_list = [(float(w),) for w in omegas]
    else:
        om_list = [tuple(map(float, w)) for w in np.atleast_2d(omegas)]
    if orbits is None:
        orbits = OrbitFamily(fieldh, domain, level, tol=refine_tol).orbits(om_list)
    if samples is None:
        samples = [fb.sample_along_orbit(solution, grid, orbit) for orbit in orbits]
    values, tmin, tmax = [], [], []
    set_empty, touching, identity = [], [], []
    for orbit, (u_vals, _) in zip(orbits, samples):
        phi = ref_wet_interval_sup(solution, grid, fieldh, orbit, refine_tol, u_vals=u_vals)
        wet = u_vals > solution.eps_u
        below = orbit.times < phi - orbit.step
        above = orbit.times > phi + orbit.step
        ok = bool(np.all(wet[below])) and bool(np.all(~wet[above]))
        empty = not bool(np.any(wet))
        graph_point = orbit_point(fieldh, orbit, phi)
        dist_to_boundary = np.minimum(
            np.min(graph_point - domain.lower), np.min(domain.upper - graph_point)
        )
        near = bool(
            dist_to_boundary <= 4.0 * refine_tol * domain.delta
            or phi >= orbit.t_plus - 2.0 * orbit.step
            or phi <= orbit.t_minus + 2.0 * orbit.step
        )
        values.append(phi)
        tmin.append(orbit.t_minus)
        tmax.append(orbit.t_plus)
        set_empty.append(empty)
        touching.append(near or empty)
        identity.append(ok)
    return fb.FreeBoundaryGraph(
        level=float(level),
        omegas=omegas,
        values=np.asarray(values),
        t_minus=np.asarray(tmin),
        t_plus=np.asarray(tmax),
        set_empty=np.asarray(set_empty, dtype=bool),
        boundary_touching=np.asarray(touching, dtype=bool),
        identity_ok=np.asarray(identity, dtype=bool),
    )


def banded_pair(grid, eps_u):
    """Always wet for x < 0.25, the dam profile for 0.25 <= x < 0.6, never
    wet beyond."""
    xs, ys = grid.nodes()[..., 0], grid.nodes()[..., 1]
    u = np.where(xs < 0.25, 0.6, np.where(xs < 0.6, np.maximum(0.6 - ys, 0.0), 0.0))
    chi = (grid.cell_centers()[..., 1] < 0.6).astype(float)
    return geometry.SolutionPair(u=u, chi=chi, eps_u=eps_u)


BISECTION_FIELDS = {
    "constant": lambda dom: fields.make_constant_field([0.05, 1.0]),
    "affine": lambda dom: fields.make_affine_field(
        np.diag([0.1, 0.2]), np.array([0.0, 1.0]), dom
    ),
}


@pytest.mark.parametrize("field", sorted(BISECTION_FIELDS))
def test_batched_wet_interval_sup_equals_lone_bisection(field):
    dom, grid, pair = dam_setup()
    f = BISECTION_FIELDS[field](dom)
    omegas = np.linspace(0.03, 0.97, 15)
    orbs = orbits.integrate_orbits(f, omegas, 0.2, dom)
    for sol in (pair, banded_pair(grid, pair.eps_u)):
        u_list = [fb.sample_along_orbit(sol, grid, o)[0] for o in orbs]
        batch = fb.wet_interval_sup(sol, grid, f, orbs, u_list)
        ref = [ref_wet_interval_sup(sol, grid, f, o) for o in orbs]
        assert np.array_equal(batch, ref)
        for orbit, u_vals, phi in zip(orbs, u_list, batch):
            assert fb.wet_interval_sup(sol, grid, f, [orbit], [u_vals]) == [phi]
    # the banded head has orbits that are always wet and orbits never wet
    banded = batch  # the loop's last head is the banded one
    exits = [(o.t_minus, o.t_plus) for o in orbs]
    assert any(phi == t_plus for phi, (_, t_plus) in zip(banded, exits))
    assert any(phi == t_minus for phi, (t_minus, _) in zip(banded, exits))
    assert any(t_minus < phi < t_plus for phi, (t_minus, t_plus) in zip(banded, exits))


def test_batched_wet_interval_sup_edge_cases():
    dom, grid, pair = dam_setup()
    f = vertical_field()
    orbs = orbits.integrate_orbits(f, [0.2, 0.5], 0.2, dom)
    assert fb.wet_interval_sup(pair, grid, f, [], []).shape == (0,)
    with pytest.raises(ValueError, match="1 head arrays for 2 orbits"):
        fb.wet_interval_sup(pair, grid, f, orbs, [np.ones(3)])


@pytest.mark.parametrize("field", sorted(BISECTION_FIELDS))
def test_extract_graph_equals_the_lone_loop(field):
    dom, grid, pair = dam_setup()
    f = BISECTION_FIELDS[field](dom)
    omegas = np.linspace(0.03, 0.97, 15)
    for sol in (pair, banded_pair(grid, pair.eps_u)):
        for level in (0.1, 0.4):
            got = fb.extract_graph(sol, grid, f, level, omegas, dom)
            ref = ref_extract_graph(sol, grid, f, level, omegas, dom)
            for name in ("values", "t_minus", "t_plus", "set_empty", "boundary_touching",
                         "identity_ok"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_default_chi_tol_fails_a_planted_uptick_of_a_hundredth():
    # the default width of a 65x65 grid; the old tolerance, 0.5 there, let
    # any uptick below one half pass
    dom, grid, pair = dam_setup()
    eps = 4.0 * pair.eps_u
    tol = fb.default_chi_monotone_tol(eps, pair.eps_u, dom.m_ceiling)
    assert tol == pytest.approx(2e-7, rel=1e-4)
    orb = orbits.integrate_orbit(vertical_field(), [0.51], 0.2, dom)
    assert fb.certify_chi_monotone(pair, grid, [orb], tol).passed
    chi_bad = pair.chi.copy()
    cells = grid.cell_centers()
    column = np.argmin(np.abs(cells[:, 0, 0] - 0.51))
    row = np.argmin(np.abs(cells[0, :, 1] - 0.75))  # a dry cell above the front
    assert chi_bad[column, row] == 0.0
    chi_bad[column, row] = 1e-2
    bad = geometry.SolutionPair(u=pair.u, chi=chi_bad, eps_u=pair.eps_u)
    rep = fb.certify_chi_monotone(bad, grid, [orb], tol)
    assert rep.max_uptick == pytest.approx(1e-2) and not rep.passed
    assert fb.certify_chi_monotone(bad, grid, [orb], 0.5).passed
