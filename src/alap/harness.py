"""Growth measurements connecting solved pairs to the regularity theory.

The measurements work on a frozen SolutionPair:

* touching balls: largest balls inside the discrete wet set whose sphere
  meets the free boundary, from a distance transform;
* interior growth: sup of the head over half-balls against the two
  closed-form growth constants, with the measured Harnack factor as the
  allowed slack (the sup-bound constant is the min-bound constant times an
  unquantified Harnack constant, so the artifact measures the two factors
  separately and asserts only their product);
* boundary growth: head-to-distance ratios near the zero-data boundary
  portion against the boundary barrier slope at 0;
* rescale check: the blown-up head v(y) = u(x0 + R y)/R on the unit ball
  satisfies the same equation with source -R div H, verified discretely
  on the pulled-back grid (node-exact, so no interpolation error enters).
"""

import math
from dataclasses import dataclass

import numpy as np

from alap import barriers, geometry, solver
from alap.errors import DryBallError


@dataclass(frozen=True)
class TouchingBall:
    center: tuple
    center_index: tuple
    radius: float
    touches_free_boundary: bool


def _distance_to_dry(wet, spacing):
    """Euclidean distance from every node to the nearest dry node.

    Exact and separable (Felzenszwalb & Huttenlocher, ToC 2012): squared
    distances start at 0 on dry nodes and inf on wet ones, and each axis in
    turn takes the minimum over copies shifted by s nodes plus (s h_k)^2,
    stopping once (s h_k)^2 reaches the largest value left. Lines along the
    axis with no finite value stay inf and are skipped. The squares are
    summed axis by axis, in the order ``scipy.ndimage.distance_transform_edt``
    sums them, so the two agree bit for bit.
    """
    sq = np.where(wet, np.inf, 0.0)
    for axis, h in enumerate(spacing):
        view = np.moveaxis(sq, axis, 0)
        lines = np.isfinite(view).any(axis=0)
        src = view[:, lines]
        out = src.copy()
        for s in range(1, len(src)):
            length = s * float(h)
            added = length * length
            if added >= np.max(out):
                break
            np.minimum(out[s:], src[:-s] + added, out=out[s:])
            np.minimum(out[:-s], src[s:] + added, out=out[:-s])
        view[:, lines] = out
    return np.sqrt(sq)


def _strictly_inside(points, center, radius):
    """Rows of ``points`` with ``np.linalg.norm(point - center) < radius``.

    The vectorized distance settles every row clear of the sphere; rows
    within roundoff of it are measured again by ``np.linalg.norm``, whose
    dot product may round the sum of squares differently.
    """
    diff = points - center
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    inside = dist < radius
    for i in np.nonzero(np.abs(dist - radius) <= 1e-12 * radius)[0]:
        inside[i] = np.linalg.norm(diff[i]) < radius
    return inside


def find_touching_balls(solution, grid, count):
    """Largest inscribed balls of the discrete wet set, by distance transform.

    For every wet node the admissible radius is the smaller of the distance
    to the dry set and the distance to the domain boundary; the ``count``
    largest are returned (possibly fewer). Candidates go in stably sorted
    descending order, and a candidate strictly inside an accepted ball is
    skipped, which keeps the selection spread out. An empty free boundary
    yields an empty list.
    """
    wet = solution.wet_nodes()
    if not np.any(wet) or np.all(wet):
        return []
    dist_dry = _distance_to_dry(wet, grid.spacing)
    nodes = grid.nodes()
    dist_boundary = grid.domain.distance_to_boundary(nodes)
    admissible = np.where(wet, np.minimum(dist_dry, dist_boundary), 0.0)
    flat = admissible.ravel()
    order = np.argsort(flat, kind="stable")[::-1]
    order = order[flat[order] > 0.0]
    points = nodes.reshape(-1, grid.dim)
    alive = np.ones(flat.size, dtype=bool)
    balls = []
    while len(balls) < count:
        order = order[alive[order]]
        if not order.size:
            break
        flat_idx = order[0]
        r = float(flat[flat_idx])
        idx = np.unravel_index(flat_idx, admissible.shape)
        center = tuple(map(float, nodes[idx]))
        balls.append(
            TouchingBall(
                center=center,
                center_index=tuple(map(int, idx)),
                radius=r,
                touches_free_boundary=bool(dist_dry[idx] <= dist_boundary[idx]),
            )
        )
        alive &= ~_strictly_inside(points, np.asarray(center), r)
    return balls


def _ball_mask(grid, center, radius):
    """Grid nodes within ``radius`` of ``center`` (up to 1e-15 in the square).

    The squared offsets along each grid axis broadcast to the node array
    and add axis by axis, the order in which ``np.sum`` over the node
    coordinates adds them, so no node array is built.
    """
    sq = 0.0
    for k, (coord, c) in enumerate(zip(grid.axes, np.asarray(center, dtype=float))):
        sq = sq + ((coord - c) ** 2).reshape([-1 if j == k else 1 for j in range(grid.dim)])
    return sq <= radius**2 + 1e-15


def ball_interior(grid, center, radius):
    """Interior grid nodes of the ball whose face neighbours all lie in it.

    These are the nodes where ``rescale_check`` compares the equation; the
    mask is empty for a ball that misses the box or spans less than a cell.
    """
    ball = _ball_mask(grid, center, radius)
    interior = ball.copy()
    for k in range(grid.dim):
        interior &= np.roll(ball, 1, axis=k) & np.roll(ball, -1, axis=k)
    return interior & ~grid.boundary_mask()


@dataclass(frozen=True)
class GrowthRow:
    center: tuple
    radius: float
    sup_half_ball: float
    ratio: float
    bound: float


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple
    theory_constant: float
    slack: float
    passed: bool


def growth_report(solution, grid, balls, profile, fieldh, slack=None):
    """sup over half-balls of the head divided by the ball radius.

    The comparison constant is the larger of the two closed-form growth
    constants; ``slack`` multiplies it and defaults to the measured Harnack
    factor of the same balls.
    """
    dom = grid.domain
    c1 = barriers.lipschitz_constant_nonpositive_margin(
        profile, dom.dim, fieldh.h_upper, dom.delta
    )
    c2 = barriers.lipschitz_constant_positive_margin(profile, dom.dim, fieldh.h_upper)
    theory = max(c1, c2)
    if slack is None:
        harnack = harnack_check(solution, grid, _shrunk(balls), profile, fieldh)
        slack = max(1.0, harnack.max_constant)
    rows = []
    ok = True
    for ball in balls:
        mask = _ball_mask(grid, ball.center, ball.radius / 2.0)
        sup = float(np.max(solution.u[mask]))
        ratio = sup / ball.radius
        rows.append(GrowthRow(ball.center, ball.radius, sup, ratio, theory * slack))
        ok = ok and ratio <= theory * slack
    return GrowthReport(rows=tuple(rows), theory_constant=theory, slack=slack, passed=ok)


def _shrunk(balls, factor=0.75):
    return [
        TouchingBall(b.center, b.center_index, b.radius * factor, False) for b in balls
    ]


@dataclass(frozen=True)
class HarnackRow:
    center: tuple
    radius: float
    sup: float
    inf: float
    data_term: float
    constant: float


@dataclass(frozen=True)
class HarnackReport:
    rows: tuple
    max_constant: float


def harnack_check(solution, grid, balls, profile, fieldh):
    """Measured constants sup u / (inf u + r a_inv(h delta)) over half-balls.

    The balls must lie strictly inside the wet set (an inf at the threshold
    means the ball touches the free boundary and is rejected).
    """
    dom = grid.domain
    data_scale = float(profile.a_inv(fieldh.h_upper * dom.delta))
    rows = []
    worst = 0.0
    for ball in balls:
        mask = _ball_mask(grid, ball.center, ball.radius / 2.0)
        if not np.all(solution.u[_ball_mask(grid, ball.center, ball.radius)] > solution.eps_u):
            raise ValueError(f"ball at {ball.center} is not strictly inside the wet set")
        sup = float(np.max(solution.u[mask]))
        inf = float(np.min(solution.u[mask]))
        data_term = ball.radius * data_scale
        const = sup / (inf + data_term)
        rows.append(HarnackRow(ball.center, ball.radius, sup, inf, data_term, const))
        worst = max(worst, const)
    return HarnackReport(rows=tuple(rows), max_constant=worst)


@dataclass(frozen=True)
class BoundaryGrowthRow:
    point: tuple
    anchor: tuple
    head: float
    distance: float
    ratio: float


@dataclass(frozen=True)
class BoundaryGrowthReport:
    rows: tuple
    max_ratio: float
    barrier_slope: float
    bound: float
    passed: bool


def boundary_tube(grid, domain, face, anchor_lo, anchor_hi, tube_width):
    """The tube of ``boundary_growth_report``, the nodes over the patch
    [anchor_lo, anchor_hi] at a distance in (0, tube_width] from the face,
    and every node's distance to the face, both built from the grid axes
    (the distance as a read-only broadcast view). The tube is empty for a
    width below one cell or a patch with anchor_lo > anchor_hi."""
    axis, plane = domain.face(face)
    patch = zip(np.atleast_1d(anchor_lo), np.atleast_1d(anchor_hi))
    tube = np.ones(grid.counts, dtype=bool)
    for k, coord in enumerate(grid.axes):
        coord = coord.reshape([-1 if j == k else 1 for j in range(grid.dim)])
        if k == axis:
            distance = np.abs(coord - plane)
            tube &= (distance <= tube_width) & (distance > 0.0)
        else:
            lo_k, hi_k = next(patch)
            tube &= (coord >= lo_k) & (coord <= hi_k)
    return tube, np.broadcast_to(distance, grid.counts)


def boundary_barrier_slope(domain, sphere_radius, profile, fieldh):
    """theta'(0) of the boundary barrier on an exterior sphere of radius
    ``sphere_radius``. Raises ValueError when it is not finite: a bound
    of inf would pass, and one of nan fail, with nothing measured."""
    bb = barriers.make_boundary_barrier(
        profile, (0.0,) * domain.dim, sphere_radius, domain.m_ceiling, fieldh.h_upper,
        domain.delta, domain.dim,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        slope0 = float(barriers.boundary_profile_slope(bb, profile, 0.0))
    if not math.isfinite(slope0):
        raise ValueError(f"the boundary barrier slope at 0 is {slope0}, not finite")
    return slope0


def boundary_growth_report(solution, grid, domain, face, anchor_lo, anchor_hi,
                           sphere_radius, profile, fieldh, tube_width,
                           interp_slack=0.0):
    """Head-to-distance ratios in a tube around a zero-head boundary patch.

    ``face`` names the boundary face carrying the patch; the patch spans
    [anchor_lo, anchor_hi] in the face coordinates. Ratios u(x)/d(x, patch)
    over the ``boundary_tube`` are compared against the boundary barrier
    slope at 0 for the exterior sphere of radius ``sphere_radius``. An
    empty tube raises ValueError: it would pass with nothing measured; so
    does a slope that is not finite (``boundary_barrier_slope``).
    """
    tube, distance = boundary_tube(grid, domain, face, anchor_lo, anchor_hi, tube_width)
    if not np.any(tube):
        raise ValueError("the boundary tube holds no grid node")
    axis, plane = domain.face(face)
    slope0 = boundary_barrier_slope(domain, sphere_radius, profile, fieldh)
    ratios = np.where(tube, solution.u / np.where(distance > 0, distance, 1.0), 0.0)
    rows = []
    flat_idx = np.argsort(ratios.ravel())[::-1][:16]
    for fi in flat_idx:
        idx = np.unravel_index(fi, ratios.shape)
        if not tube[idx]:
            continue
        x = np.array([ax[i] for ax, i in zip(grid.axes, idx)])
        # a tube node lies over the patch, so its anchor is its foot on the face
        anchor = x.copy()
        anchor[axis] = plane
        rows.append(
            BoundaryGrowthRow(
                point=tuple(map(float, x)),
                anchor=tuple(map(float, anchor)),
                head=float(solution.u[idx]),
                distance=float(distance[idx]),
                ratio=float(ratios[idx]),
            )
        )
    max_ratio = float(np.max(ratios))
    bound = slope0 * 1.01 + interp_slack
    return BoundaryGrowthReport(
        rows=tuple(rows),
        max_ratio=max_ratio,
        barrier_slope=slope0,
        bound=bound,
        passed=bool(max_ratio <= bound),
    )


@dataclass(frozen=True)
class RescaleReport:
    radius: float
    center: tuple
    max_equation_mismatch: float
    tol: float
    max_gradient_half_ball: float
    passed: bool


def rescale_check(solution, grid, x0, radius, profile, fieldh, tol=1e-6):
    """Check the blow-up identity on the pulled-back node grid.

    v(y) = u(x0 + R y)/R on the unit ball samples exactly the stored nodes
    (y-nodes are x-nodes mapped back), so discrete gradients of v coincide
    with those of u and the interior equation transforms into
    Delta_A v = -R div(chi H); inside the wet set chi = 1 and the mismatch
    against -R div H measures nothing but the solver residual and the
    divergence discretization, exact for every (affine) field.
    """
    x0 = np.asarray(x0, dtype=float)
    interior = ball_interior(grid, x0, radius)
    if not np.any(interior):
        raise ValueError("rescale ball holds no interior grid node")
    ball = _ball_mask(grid, x0, radius)
    if not np.all(solution.u[ball] > solution.eps_u):
        raise DryBallError("rescale ball must lie inside the wet set")
    res = solver.residual(grid, profile, fieldh, solution.u, solution.chi)
    vol = grid.cell_volume
    # residual carries the dual volume; divide it out for the divergence form
    mism = np.abs(res[interior]) / vol * radius
    faces = geometry.face_gradient_components(grid, solution.u)
    half = _ball_mask(grid, x0, radius / 2.0)
    gmax = 0.0
    for k in range(grid.dim):
        lo, hi = geometry.shifted(grid.dim, k)
        face_in_half = half[lo] & half[hi]
        if np.any(face_in_half):
            comps = [c[face_in_half] for c in faces[k]]
            mags = np.sqrt(geometry.component_dot(comps, comps))
            gmax = max(gmax, float(np.max(mags)))
    return RescaleReport(
        radius=float(radius),
        center=tuple(map(float, x0)),
        max_equation_mismatch=float(np.max(mism)),
        tol=tol,
        max_gradient_half_ball=gmax,
        passed=bool(np.max(mism) <= tol),
    )
