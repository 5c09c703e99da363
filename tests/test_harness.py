import numpy as np
import pytest

from alap import fields, geometry, harness, profiles, solver


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


def test_touching_balls_on_dam():
    dom, grid, pair = dam_setup()
    balls = harness.find_touching_balls(pair, grid, 6)
    assert balls
    top = balls[0]
    # the deepest admissible center sits mid-height under the interface
    assert top.radius == pytest.approx(0.3, abs=2 * grid.spacing[1])
    for b in balls:
        mask = np.sum((grid.nodes() - np.asarray(b.center)) ** 2, axis=-1) < (b.radius - 1e-12) ** 2
        assert np.all(pair.u[mask] > pair.eps_u)


def test_touching_balls_empty_cases():
    dom, grid, pair = dam_setup()
    full = geometry.SolutionPair(
        u=np.full(grid.counts, 0.6), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    assert harness.find_touching_balls(full, grid, 3) == []
    dry = geometry.SolutionPair(
        u=np.zeros(grid.counts), chi=np.zeros(grid.cell_counts), eps_u=pair.eps_u
    )
    assert harness.find_touching_balls(dry, grid, 3) == []


def test_growth_report_dam_closed_form():
    dom, grid, pair = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    ball = harness.TouchingBall(center=(0.5, 0.3), center_index=(32, 19), radius=0.3, touches_free_boundary=True)
    rep = harness.growth_report(pair, grid, [ball], prof, f, slack=1.0)
    row = rep.rows[0]
    # sup over the half ball of the linear profile: u(0.5, 0.15) = 0.45
    assert row.sup_half_ball == pytest.approx(0.45, abs=grid.spacing[1])
    assert row.ratio == pytest.approx(1.5, abs=0.1)
    assert rep.theory_constant > row.ratio
    assert rep.passed


def test_harnack_constant_scales():
    dom, grid, pair = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    ball = harness.TouchingBall(center=(0.5, 0.3), center_index=(32, 19), radius=0.2, touches_free_boundary=False)
    rep = harness.harnack_check(pair, grid, [ball], prof, f)
    row = rep.rows[0]
    assert row.sup == pytest.approx(0.4, abs=grid.spacing[1])
    assert row.inf == pytest.approx(0.2, abs=grid.spacing[1])
    assert 0.5 < rep.max_constant < 1.2


def test_harnack_near_constant_head():
    dom, grid, pair = dam_setup()
    const = geometry.SolutionPair(
        u=np.full(grid.counts, 0.55), chi=np.ones(grid.cell_counts), eps_u=pair.eps_u
    )
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    ball = harness.TouchingBall(center=(0.5, 0.5), center_index=(32, 32), radius=0.1, touches_free_boundary=False)
    rep = harness.harnack_check(const, grid, [ball], prof, f)
    assert rep.max_constant == pytest.approx(0.55 / (0.55 + 0.1 * np.sqrt(2.0)))
    assert rep.max_constant < 1.0


def test_harnack_rejects_free_boundary_ball():
    dom, grid, pair = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    touching = harness.TouchingBall(center=(0.5, 0.3), center_index=(32, 19), radius=0.31, touches_free_boundary=True)
    with pytest.raises(ValueError):
        harness.harnack_check(pair, grid, [touching], prof, f)


def test_boundary_growth_closed_form_bottom_face():
    # hand-built pair with the zero-head face at the bottom: u = (y - 0.4)+
    dom = geometry.box_domain(
        [0, 0], [1, 1], ["ymin"], geometry.BoundaryData("zero"), 0.6
    )
    grid = geometry.build_grid(dom, (65, 65))
    ys = grid.nodes()[..., 1]
    u = np.maximum(ys - 0.4, 0.0)
    pair = geometry.SolutionPair(
        u=u, chi=(grid.cell_centers()[..., 1] > 0.4).astype(float),
        eps_u=grid.positivity_threshold(),
    )
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    rep = harness.boundary_growth_report(
        pair, grid, dom, "ymin", [0.3], [0.7], sphere_radius=0.09,
        profile=prof, fieldh=f, tube_width=0.9,
    )
    assert rep.max_ratio <= 1.0 + 1e-12
    assert rep.barrier_slope >= 1.0
    assert rep.passed


def test_boundary_growth_ratio_converges_to_normal_slope():
    # fully wet ramp u = 0.6 y: the ratio equals the normal derivative
    dom = geometry.box_domain([0, 0], [1, 1], ["ymin"], geometry.BoundaryData("zero"), 0.6)
    grid = geometry.build_grid(dom, (65, 65))
    u = 0.6 * grid.nodes()[..., 1]
    pair = geometry.SolutionPair(
        u=u, chi=np.ones(grid.cell_counts), eps_u=grid.positivity_threshold()
    )
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    for width in (0.5, 0.1, 0.05):
        rep = harness.boundary_growth_report(
            pair, grid, dom, "ymin", [0.3], [0.7], 0.09, prof, f, tube_width=width
        )
        assert rep.max_ratio == pytest.approx(0.6, rel=1e-9)


@pytest.mark.parametrize("lo, hi, width", [([0.3], [0.7], 1e-9), ([0.7], [0.3], 0.2)])
def test_boundary_growth_rejects_an_empty_tube(lo, hi, width):
    dom, grid, pair = dam_setup(res=33)
    tube, _ = harness.boundary_tube(grid, dom, "ymin", lo, hi, width)
    assert not np.any(tube)
    with pytest.raises(ValueError, match="tube holds no grid node"):
        harness.boundary_growth_report(
            pair, grid, dom, "ymin", lo, hi, 0.09, profiles.make_power(2.0),
            fields.make_constant_field([0.0, 1.0]), tube_width=width,
        )


@pytest.mark.parametrize("radius, prof", [
    (0.001, profiles.make_power(2.0)),  # E(0) overflows: a bound of inf
    (0.09, profiles.make_logpower(0.01, 1000.0, 1.0)),  # a_inv(E(0)) is nan
], ids=["small_sphere", "logpower"])
def test_boundary_growth_rejects_a_slope_that_is_not_finite(radius, prof):
    dom, grid, pair = dam_setup(res=33)
    f = fields.make_constant_field([0.0, 1.0])
    with pytest.raises(ValueError, match="slope at 0 is (inf|nan), not finite"):
        harness.boundary_growth_report(
            pair, grid, dom, "ymax", [0.3], [0.7], radius, prof, f, tube_width=0.2,
        )


def test_rescale_check_on_solved_dam():
    dom, grid, _ = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    pair, _ = solver.solve_problem(grid, prof, f, dom)
    rep = harness.rescale_check(pair, grid, [0.5, 0.25], 0.2, prof, f)
    assert rep.passed
    assert rep.max_equation_mismatch <= 1e-6
    assert rep.max_gradient_half_ball == pytest.approx(1.0, abs=0.05)


def test_rescale_check_rejects_ball_near_free_boundary():
    dom, grid, pair = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    with pytest.raises(ValueError):
        harness.rescale_check(pair, grid, [0.5, 0.5], 0.2, prof, f)


@pytest.mark.parametrize("center, radius", [([5.0, 5.0], 0.2), ([0.5, 0.25], 0.01)])
def test_rescale_check_rejects_a_ball_without_interior_nodes(center, radius):
    # a ball off the box, or narrower than a cell, leaves no equation to check
    dom, grid, pair = dam_setup()
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    assert not np.any(harness.ball_interior(grid, center, radius))
    with pytest.raises(ValueError, match="no interior grid node"):
        harness.rescale_check(pair, grid, center, radius, prof, f)


def test_growth_ratios_stable_under_refinement():
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    ratios = []
    for res in (65, 129):
        dom, grid, pair = dam_setup(res)
        balls = harness.find_touching_balls(pair, grid, 3)
        rep = harness.growth_report(pair, grid, balls, prof, f, slack=2.0)
        ratios.append(rep.rows[0].ratio)
    assert abs(ratios[1] - ratios[0]) <= 0.2 * abs(ratios[0])


# --- vectorized selection and numpy distance transform against the loop ----


def ref_find_touching_balls(solution, grid, count):
    """Greedy per-node loop over the candidates, with scipy's transform."""
    from scipy import ndimage

    wet = solution.wet_nodes()
    if not np.any(wet) or np.all(wet):
        return []
    dist_dry = ndimage.distance_transform_edt(wet, sampling=grid.spacing)
    nodes = grid.nodes()
    dist_boundary = np.minimum(
        np.min(nodes - grid.domain.lower, axis=-1),
        np.min(grid.domain.upper - nodes, axis=-1),
    )
    admissible = np.where(wet, np.minimum(dist_dry, dist_boundary), 0.0)
    flat = admissible.ravel()
    order = np.argsort(flat, kind="stable")[::-1]
    balls = []
    taken = []
    for flat_idx in order:
        r = float(flat[flat_idx])
        if r <= 0.0 or len(balls) >= count:
            break
        idx = np.unravel_index(flat_idx, admissible.shape)
        center = nodes[idx]
        if any(np.linalg.norm(center - np.asarray(c)) < r_prev for c, r_prev in taken):
            continue
        balls.append(
            harness.TouchingBall(
                center=tuple(map(float, center)),
                center_index=tuple(map(int, idx)),
                radius=r,
                touches_free_boundary=bool(dist_dry[idx] <= dist_boundary[idx]),
            )
        )
        taken.append((tuple(center), r))
    return balls


def random_mask(rng, shape):
    """A wet set of a few random boxes and balls with scattered dry nodes."""
    idx = np.indices(shape)
    wet = np.zeros(shape, dtype=bool)
    for _ in range(rng.integers(1, 5)):
        lo = [rng.integers(0, n - 1) for n in shape]
        hi = [rng.integers(a + 1, n + 1) for a, n in zip(lo, shape)]
        wet[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        c = [rng.uniform(0, n) for n in shape]
        rad = rng.uniform(1.0, max(shape) / 2.0)
        wet |= sum((i - ci) ** 2 for i, ci in zip(idx, c)) < rad**2
    wet &= rng.random(shape) > rng.choice([0.0, 0.01, 0.05])
    return wet


def mask_grid(rng, dim):
    """A box with non-dyadic, anisotropic spacing."""
    upper = rng.uniform(0.6, 1.7, dim)
    lower = rng.uniform(-0.3, 0.2, dim)
    counts = rng.integers(9, 40 if dim == 2 else 14, dim)
    faces = ["ymax"] if dim == 2 else ["zmax"]
    dom = geometry.box_domain(lower, upper, faces, geometry.BoundaryData("zero"), 1.0)
    return geometry.build_grid(dom, tuple(counts))


def mask_pair(grid, wet):
    u = np.where(wet, 1.0, 0.0)
    return geometry.SolutionPair(u=u, chi=np.ones(grid.cell_counts), eps_u=0.5)


@pytest.mark.parametrize("seed", range(40))
def test_distance_transform_equals_scipy(seed):
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    grid = mask_grid(rng, 2 if seed % 2 else 3)
    wet = random_mask(rng, grid.counts)
    if seed % 5 == 0:
        # a whole row and a whole column without a dry node
        wet[rng.integers(grid.counts[0])] = True
        wet[:, rng.integers(grid.counts[1])] = True
    if np.all(wet):
        wet.flat[rng.integers(wet.size)] = False
    got = harness._distance_to_dry(wet, grid.spacing)
    assert np.array_equal(got, ndimage.distance_transform_edt(wet, sampling=grid.spacing))


def test_distance_transform_single_dry_node_and_all_dry():
    from scipy import ndimage

    spacing = np.array([0.1, 0.07, 0.13])
    wet = np.ones((7, 5, 6), dtype=bool)
    wet[6, 0, 2] = False
    expect = ndimage.distance_transform_edt(wet, sampling=spacing)
    assert np.array_equal(harness._distance_to_dry(wet, spacing), expect)
    dry = np.zeros((4, 3), dtype=bool)
    assert np.array_equal(harness._distance_to_dry(dry, spacing[:2]), np.zeros((4, 3)))


@pytest.mark.parametrize("seed", range(48))
def test_ball_selection_equals_the_greedy_loop(seed):
    # about one mask in 45 has a candidate within roundoff of an accepted
    # sphere, where a plain sum of squares and np.linalg.norm disagree
    rng = np.random.default_rng(seed)
    grid = mask_grid(rng, 2 if seed % 3 else 3)
    pair = mask_pair(grid, random_mask(rng, grid.counts))
    for count in range(1, 9):
        assert harness.find_touching_balls(pair, grid, count) == ref_find_touching_balls(
            pair, grid, count
        )


@pytest.mark.parametrize("res", [(17, 17), (21, 13), (9, 9, 9)])
def test_ball_selection_with_tied_radii_equals_the_greedy_loop(res):
    # a wet slab across the box: whole rows of nodes share each radius
    dim = len(res)
    faces = ["ymax"] if dim == 2 else ["zmax"]
    dom = geometry.box_domain([0.0] * dim, [1.0] * dim, faces, geometry.BoundaryData("zero"), 1.0)
    grid = geometry.build_grid(dom, res)
    height = grid.nodes()[..., -1]
    pair = mask_pair(grid, (height > 0.2) & (height < 0.8))
    radii = [b.radius for b in harness.find_touching_balls(pair, grid, 8)]
    assert len(set(radii)) < len(radii)
    for count in range(1, 9):
        assert harness.find_touching_balls(pair, grid, count) == ref_find_touching_balls(
            pair, grid, count
        )
