import numpy as np
import pytest

from alap import geometry


def dam_domain(level=0.6):
    return geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("hydrostatic", (level,)), level
    )


def test_build_grid_spacing():
    dom = dam_domain()
    g3 = geometry.build_grid(dom, (3, 3))
    assert np.allclose(g3.spacing, [0.5, 0.5])
    g129 = geometry.build_grid(dom, (129, 129))
    assert np.allclose(g129.spacing, [1.0 / 128.0, 1.0 / 128.0])


def test_build_grid_rejects_degenerate_counts():
    with pytest.raises(ValueError):
        geometry.build_grid(dam_domain(), (2, 5))


def test_grid_refinement_nests_nodes():
    dom = dam_domain()
    coarse = geometry.build_grid(dom, (9, 9))
    fine = geometry.build_grid(dom, (17, 17))
    assert np.allclose(fine.axes[0][::2], coarse.axes[0])


def test_domain_validation():
    with pytest.raises(ValueError):
        geometry.box_domain([0, 0], [0, 1], [], geometry.BoundaryData("zero"), 1.0)
    with pytest.raises(ValueError):
        geometry.box_domain([0, 0], [1, 1], [], geometry.BoundaryData("zero"), -1.0)


def test_marked_boundary_and_dirichlet_values():
    dom = dam_domain()
    pts = np.array([[0.5, 1.0], [0.5, 0.0], [0.0, 0.3], [0.5, 0.5]])
    marked = dom.on_marked_boundary(pts)
    assert list(marked) == [True, False, False, False]
    vals = dom.dirichlet_value(pts)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(0.6)
    assert vals[2] == pytest.approx(0.3)


def test_t_region_subrectangle():
    region = geometry.TRegion("ymax", lo=(0.25,), hi=(0.75,))
    dom = geometry.Domain(
        np.array([0.0, 0.0]), np.array([1.0, 1.0]), (region,),
        geometry.BoundaryData("zero"), 1.0,
    )
    pts = np.array([[0.5, 1.0], [0.1, 1.0]])
    assert list(dom.on_marked_boundary(pts)) == [True, False]


def test_face_name_validation():
    with pytest.raises(ValueError):
        geometry.face_axis_side("top")
    assert geometry.face_axis_side("zmin") == (2, "min")


def test_gradient_exact_for_affine():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 33))
    nodes = grid.nodes()
    u = 2.0 * nodes[..., 0] - 3.0 * nodes[..., 1] + 1.0
    for g in geometry.gradient_at_faces(grid, u):
        assert np.allclose(g[..., 0], 2.0, atol=1e-12)
        assert np.allclose(g[..., 1], -3.0, atol=1e-12)


def test_gradient_of_constant_vanishes():
    grid = geometry.build_grid(dam_domain(), (9, 9))
    u = np.full(grid.counts, 5.0)
    for g in geometry.gradient_at_faces(grid, u):
        assert np.allclose(g, 0.0)


def test_gradient_quadratic_exact_at_face_midpoints():
    # central difference of x^2 across a face equals 2x at the face midpoint
    grid = geometry.build_grid(dam_domain(), (9, 9))
    nodes = grid.nodes()
    u = nodes[..., 0] ** 2
    gx = geometry.gradient_at_faces(grid, u)[0]
    mid = grid.axes[0][:-1] + 0.5 * grid.spacing[0]
    assert np.allclose(gx[..., 0], 2.0 * mid[:, None])


def test_cell_average_of_affine_is_center_value():
    grid = geometry.build_grid(dam_domain(), (9, 9))
    nodes = grid.nodes()
    u = 1.5 * nodes[..., 0] + 0.25 * nodes[..., 1]
    centers = grid.cell_centers()
    assert np.allclose(
        geometry.cell_average(u), 1.5 * centers[..., 0] + 0.25 * centers[..., 1]
    )


def test_interpolation_matches_affine():
    grid = geometry.build_grid(dam_domain(), (17, 17))
    nodes = grid.nodes()
    u = 0.7 * nodes[..., 0] - 0.2 * nodes[..., 1] + 0.1
    pts = np.array([[0.33, 0.41], [0.031, 0.97], [1.0, 1.0]])
    vals = geometry.interpolate_nodes(grid, u, pts)
    assert np.allclose(vals, 0.7 * pts[:, 0] - 0.2 * pts[:, 1] + 0.1)


def test_cell_values_at_containing_cell():
    grid = geometry.build_grid(dam_domain(), (5, 5))
    chi = np.zeros(grid.cell_counts)
    chi[1, 2] = 1.0
    val = geometry.cell_values_at(grid, chi, np.array([0.3, 0.6]))
    assert val == 1.0


def test_positivity_threshold_scale():
    grid = geometry.build_grid(dam_domain(), (65, 65))
    h = float(np.max(grid.spacing))
    expected = 10.0 * h * h * 0.6 / 2.0
    assert grid.positivity_threshold() == pytest.approx(expected)


def test_solution_pair_validation():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    ys = grid.nodes()[..., 1]
    u = np.maximum(0.6 - ys, 0.0)
    chi = (grid.cell_centers()[..., 1] < 0.6).astype(float)
    pair = geometry.SolutionPair(u=u, chi=chi, eps_u=grid.positivity_threshold())
    rep = pair.validate(0.6, comp_bound=0.05)
    assert rep.passed
    assert rep.u_min >= 0.0 and rep.u_max <= 0.6
    bad = geometry.SolutionPair(u=u + 1.0, chi=chi, eps_u=pair.eps_u)
    assert not bad.validate(0.6).passed


def test_boundary_data_kinds():
    dom = dam_domain()
    two = geometry.BoundaryData("two_level", (0.7, 0.3))
    val = two.value(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]), dom)
    assert val[0] == pytest.approx(0.7)
    assert val[1] == pytest.approx(0.3)
    assert val[2] == 0.0
    with pytest.raises(ValueError):
        geometry.BoundaryData("nope").value(np.zeros((1, 2)), dom)


def _stacked_face_gradient(grid, u):
    # the stacked formula the face kernel was built on, kept as the reference
    dim = grid.dim
    nodal = [np.gradient(u, grid.spacing[j], axis=j, edge_order=2) for j in range(dim)]
    out = []
    for k in range(dim):
        sl0 = [slice(None)] * dim
        sl1 = [slice(None)] * dim
        sl0[k] = slice(None, -1)
        sl1[k] = slice(1, None)
        comps = []
        for j in range(dim):
            if j == k:
                comps.append(np.diff(u, axis=k) / grid.spacing[k])
            else:
                comps.append(0.5 * (nodal[j][tuple(sl0)] + nodal[j][tuple(sl1)]))
        out.append(np.stack(comps, axis=-1))
    return out


def _rough_head(grid, seed):
    rng = np.random.default_rng(seed)
    nodes = grid.nodes()
    u = np.sin(3.0 * nodes[..., 0]) * np.exp(nodes[..., -1]) + 1e-3 * rng.standard_normal(grid.counts)
    u[tuple(slice(1, 6) for _ in range(grid.dim))] = 0.25
    return u


@pytest.mark.parametrize("counts", [(17, 13), (7, 6, 5)])
def test_face_components_stack_to_the_reference_gradient(counts):
    lower = [0.0] * len(counts)
    dom = geometry.box_domain(lower, [1.0] * len(counts), [], geometry.BoundaryData("zero"), 1.0)
    grid = geometry.build_grid(dom, counts)
    u = _rough_head(grid, 3)
    faces = geometry.face_gradient_components(grid, u)
    stacked = geometry.gradient_at_faces(grid, u)
    for k, (comps, g, ref) in enumerate(zip(faces, stacked, _stacked_face_gradient(grid, u))):
        assert len(comps) == grid.dim
        assert np.array_equal(np.stack(comps, axis=-1), ref)
        assert np.array_equal(g, ref)
        # sums over the components in order are the trailing-axis sums
        assert np.array_equal(geometry.component_dot(comps, comps), np.sum(ref * ref, axis=-1))


@pytest.mark.parametrize("n", [2, 3])
def test_component_dot_is_the_trailing_axis_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    shape = (41, 37, n)
    # magnitudes over 16 decades make any change of summation order show
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    b = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    a_comps = np.moveaxis(a, -1, 0)
    b_comps = [b[..., j].copy() for j in range(n)]
    assert np.array_equal(geometry.component_dot(a_comps, a_comps), np.sum(a * a, axis=-1))
    assert np.array_equal(geometry.component_dot(a_comps, b_comps), np.sum(a * b, axis=-1))
    assert np.array_equal(geometry.component_dot(b_comps, a_comps), np.sum(b * a, axis=-1))
