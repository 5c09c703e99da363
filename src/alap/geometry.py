"""Box domains, structured grids, and discrete solution pairs.

The head u lives on grid nodes, the saturation indicator chi on cells;
fluxes are assembled on faces, where the normal difference of u and the
average of the two (2D) or four (3D) adjacent cell values of chi meet.
This placement keeps the discrete divergence of the combined flux dual to
nodal hat test functions.

Boundary data: the marked portion T of the boundary (a union of faces or
sub-rectangles of faces) carries u = 0; the rest carries Dirichlet values
g with 0 <= g <= M.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_AXIS_LETTERS = "xyz"

#: coefficient in the default positivity threshold for the discrete wet set
EPS_U_FACTOR = 10.0


def face_axis_side(name):
    """Decode a face name like 'ymin' into (axis, side)."""
    if len(name) != 4 or name[0] not in _AXIS_LETTERS or name[1:] not in ("min", "max"):
        raise ValueError(f"bad face name {name!r}; expected e.g. 'xmin', 'ymax', 'zmin'")
    return _AXIS_LETTERS.index(name[0]), name[1:]


@dataclass(frozen=True)
class TRegion:
    """A face, or an axis-aligned sub-rectangle of a face, where u = 0."""

    face: str
    lo: Optional[tuple] = None  # bounds in the face's free coordinates
    hi: Optional[tuple] = None

    def contains(self, x, domain, tol):
        """Boolean mask of points of ``x`` (..., n) lying on this region."""
        axis, plane = domain.face(self.face)
        mask = np.abs(x[..., axis] - plane) <= tol
        free_axes = [k for k in range(domain.dim) if k != axis]
        if self.lo is not None:
            for k, lo_k in zip(free_axes, self.lo):
                mask &= x[..., k] >= lo_k - tol
        if self.hi is not None:
            for k, hi_k in zip(free_axes, self.hi):
                mask &= x[..., k] <= hi_k + tol
        return mask


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data family on the non-marked boundary.

    Kinds: "zero"; "constant" (value); "hydrostatic" (level: the head is
    (level - x_n)+); "two_level" (left, right water levels interpolated
    linearly along the first axis); "custom" (arbitrary callable).
    """

    kind: str
    params: tuple = ()
    fn: Callable = field(default=None, repr=False)

    def value(self, x, domain):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros(x.shape[:-1])
        if self.kind == "constant":
            return np.full(x.shape[:-1], float(self.params[0]))
        if self.kind == "hydrostatic":
            level = float(self.params[0])
            return np.maximum(level - x[..., -1], 0.0)
        if self.kind == "two_level":
            left, right = map(float, self.params)
            frac = (x[..., 0] - domain.lower[0]) / (domain.upper[0] - domain.lower[0])
            return np.maximum(left + (right - left) * frac - x[..., -1], 0.0)
        if self.kind == "custom":
            return np.asarray(self.fn(x), dtype=float)
        raise ValueError(f"unknown boundary data kind {self.kind!r}")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box with a marked zero-head boundary portion.

    Attributes:
        lower, upper: box corners (lower < upper componentwise).
        t_regions: where u = 0 on the boundary.
        g: Dirichlet data on the rest of the boundary, 0 <= g <= M.
        m_ceiling: the solution ceiling M.
    """

    lower: np.ndarray
    upper: np.ndarray
    t_regions: tuple
    g: BoundaryData
    m_ceiling: float

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if not np.all(self.lower < self.upper):
            raise ValueError("domain needs lower < upper componentwise")
        if self.m_ceiling <= 0.0:
            raise ValueError("solution ceiling M must be positive")
        if self.dim not in (2, 3):
            raise ValueError(f"only dimensions 2 and 3 are supported, got {self.dim}")
        for region in self.t_regions:
            self.face(region.face)

    @property
    def dim(self):
        return self.lower.shape[0]

    @property
    def delta(self):
        """Diameter of the box."""
        return float(np.linalg.norm(self.upper - self.lower))

    def face(self, name):
        """(axis, plane) of the face ``name``, like 'ymin'; ValueError for a
        face this box does not have."""
        axis, side = face_axis_side(name)
        if axis >= self.dim:
            raise ValueError(f"{name} is not a face of a {self.dim}D domain")
        return axis, (self.lower if side == "min" else self.upper)[axis]

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return np.all(x >= self.lower - tol, axis=-1) & np.all(x <= self.upper + tol, axis=-1)

    def distance_to_boundary(self, x):
        """Distance from each point of ``x`` (..., n) in the box to its boundary."""
        return np.minimum(np.min(x - self.lower, axis=-1), np.min(self.upper - x, axis=-1))

    def on_marked_boundary(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape[:-1], dtype=bool)
        scaled_tol = tol * self.delta
        for region in self.t_regions:
            mask |= region.contains(x, self, scaled_tol)
        return mask

    def dirichlet_value(self, x):
        """Boundary head: 0 on the marked portion, g elsewhere."""
        x = np.asarray(x, dtype=float)
        vals = self.g.value(x, self)
        vals = np.where(self.on_marked_boundary(x), 0.0, vals)
        return vals

    def validate_boundary_data(self, samples):
        vals = self.g.value(samples, self)
        if np.any(vals < -1e-12) or np.any(vals > self.m_ceiling + 1e-12):
            raise ValueError("boundary data leaves [0, M]")


def box_domain(lower, upper, t_faces, g, m_ceiling):
    """Convenience constructor; ``t_faces`` is an iterable of face names."""
    regions = tuple(TRegion(f) if isinstance(f, str) else f for f in t_faces)
    return Domain(np.asarray(lower, float), np.asarray(upper, float), regions, g, m_ceiling)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid covering a domain exactly."""

    domain: Domain
    counts: tuple
    spacing: np.ndarray
    axes: tuple  # 1D node coordinate arrays

    @property
    def dim(self):
        return len(self.counts)

    @property
    def cell_counts(self):
        return tuple(c - 1 for c in self.counts)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def cell_axes(self):
        """1D cell-center coordinate arrays."""
        return tuple(ax[:-1] + 0.5 * h for ax, h in zip(self.axes, self.spacing))

    def nodes(self):
        """Node coordinates, shape (*counts, dim)."""
        return mesh(self.axes)

    def cell_centers(self):
        return mesh(self.cell_axes)

    def boundary_mask(self):
        mask = np.ones(self.counts, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return mask

    def dirichlet_array(self):
        """Node array holding boundary head values, zero at interior nodes."""
        nodes = self.nodes()
        mask = self.boundary_mask()
        out = np.zeros(self.counts)
        out[mask] = self.domain.dirichlet_value(nodes[mask])
        return out

    def positivity_threshold(self):
        """Default threshold separating the discrete wet set from noise.

        Scales like the discretization error: EPS_U_FACTOR * h^2 * M / delta^2.
        """
        h = float(np.max(self.spacing))
        return EPS_U_FACTOR * h * h * self.domain.m_ceiling / self.domain.delta**2


def build_grid(domain, resolution):
    """Uniform grid with ``resolution`` nodes per axis (>= 3 each)."""
    counts = tuple(int(c) for c in np.atleast_1d(resolution))
    if len(counts) == 1:
        counts = counts * domain.dim
    if len(counts) != domain.dim:
        raise ValueError(f"resolution has {len(counts)} entries for a {domain.dim}D domain")
    if any(c < 3 for c in counts):
        raise ValueError(f"need at least 3 nodes per axis, got {counts}")
    axes = tuple(
        np.linspace(domain.lower[k], domain.upper[k], counts[k]) for k in range(domain.dim)
    )
    spacing = (domain.upper - domain.lower) / (np.asarray(counts) - 1.0)
    return Grid(domain=domain, counts=counts, spacing=spacing, axes=axes)


def mesh(axes):
    """Tensor points of the 1D coordinate arrays ``axes``, shape
    (*lengths, len(axes))."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def shifted(ndim, k, across=slice(None)):
    """(lo, hi) index tuples of the neighbour pairs along axis k of an
    ``ndim`` array: lo drops the last index along k, hi the first, and
    every other axis takes ``across``."""
    lo = tuple(slice(None, -1) if j == k else across for j in range(ndim))
    hi = tuple(slice(1, None) if j == k else across for j in range(ndim))
    return lo, hi


def midpoints(a, k):
    """Means 0.5 * (a[lo] + a[hi]) of the neighbour pairs along axis k."""
    lo, hi = shifted(a.ndim, k)
    return 0.5 * (a[lo] + a[hi])


def face_normal_differences(grid, u):
    """Exact difference of u across the axis-k faces over h_k, per axis k:
    entries [k][k] of ``face_gradient_components``, bit for bit."""
    return [np.diff(u, axis=k) / grid.spacing[k] for k in range(grid.dim)]


def face_gradient_components(grid, u, normals=None):
    """Full gradient at face midpoints as per-axis component arrays.

    Entry k lists the ``dim`` components of the gradient on the axis-k
    faces; each has the node shape reduced by one along k. The normal
    component (entry k of that list) is the exact face difference;
    transverse components average the nodal central differences of the two
    face endpoints (one-sided at the boundary). Exact for affine u.
    ``normals`` holds the normal components, as from
    ``face_normal_differences``; they are built here when None.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.counts:
        raise ValueError(f"u has shape {u.shape}, grid expects {grid.counts}")
    if normals is None:
        normals = face_normal_differences(grid, u)
    nodal = [np.gradient(u, grid.spacing[j], axis=j, edge_order=2) for j in range(grid.dim)]
    # a transverse component averages the two end nodes of each axis-k face
    return [[normal if j == k else midpoints(g, k) for j, g in enumerate(nodal)]
            for k, normal in enumerate(normals)]


def gradient_at_faces(grid, u):
    """Full gradient vectors at face midpoints, one array per axis.

    For axis k the returned array has the node shape reduced by one along
    k and a trailing component axis: the components of
    ``face_gradient_components`` stacked.
    """
    return [np.stack(comps, axis=-1) for comps in face_gradient_components(grid, u)]


def component_dot(a, b):
    """Sum of a[j] * b[j] over the components j, added in axis order.

    ``a`` and ``b`` are sequences of equally shaped component arrays (an
    array iterates over its first axis). This is the same sum, bit for bit,
    as ``np.sum(A * B, axis=-1)`` over the stacked vectors, without
    stacking them or reducing over a short trailing axis.
    """
    out = a[0] * b[0]
    for aj, bj in zip(a[1:], b[1:]):
        out += aj * bj
    return out


def cell_average(values):
    """Average a node array onto cells (mean of the 2^dim corners)."""
    out = np.asarray(values, dtype=float)
    for k in range(out.ndim):
        out = midpoints(out, k)
    return out


def _cells(grid, points):
    """The cell holding each point, clipped to the grid: per axis, the
    index of its lower node and the point's offset from that node in units
    of the spacing. A lone point (shape (dim,)) is taken as one row."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx, offsets = [], []
    for k in range(grid.dim):
        s = (pts[..., k] - grid.domain.lower[k]) / grid.spacing[k]
        idx.append(np.clip(np.floor(s).astype(int), 0, grid.counts[k] - 2))
        offsets.append(s - idx[-1])
    return idx, offsets


def interpolate_nodes(grid, u, points):
    """Multilinear interpolation of a node array at arbitrary points."""
    u = np.asarray(u, dtype=float)
    idx, offsets = _cells(grid, points)
    vals = np.zeros(idx[0].shape)
    for corner in range(1 << grid.dim):
        weight = np.ones(idx[0].shape)
        gather = []
        for k in range(grid.dim):
            bit = (corner >> k) & 1
            gather.append(idx[k] + bit)
            weight = weight * (offsets[k] if bit else (1.0 - offsets[k]))
        vals += weight * u[tuple(gather)]
    return float(vals[0]) if np.ndim(points) == 1 else vals


def cell_values_at(grid, chi, points):
    """Value of a cell array in the cell containing each point (no blending)."""
    vals = np.asarray(chi, dtype=float)[tuple(_cells(grid, points)[0])]
    return float(vals[0]) if np.ndim(points) == 1 else vals


@dataclass(frozen=True)
class ComplementarityReport:
    """Constraint metrics of a discrete solution pair."""

    u_min: float
    u_max: float
    chi_min: float
    chi_max: float
    max_cell_complementarity: float
    wet_cells_low_chi: int
    passed: bool


@dataclass(frozen=True)
class SolutionPair:
    """Discrete (u, chi) with the positivity threshold that defines wetness.

    ``u`` is node-shaped, ``chi`` cell-shaped with values in [0, 1];
    ``eps_u`` is the head level below which "u > 0" is considered noise.
    """

    u: np.ndarray
    chi: np.ndarray
    eps_u: float

    def wet_nodes(self):
        return self.u > self.eps_u

    def validate(self, m_ceiling, comp_bound=None):
        """Check bounds and discrete complementarity u_cell (1 - chi) <= bound.

        ``comp_bound`` defaults to eps_u, the value attained by the exact
        penalized fixed point. The count of wet cells (some adjacent node
        above eps_u) whose chi falls below 1 - 1e-6 is reported as a
        metric; straddling cells at the free boundary legitimately land
        there, so it does not affect the pass flag.
        """
        bound = self.eps_u if comp_bound is None else comp_bound
        u_cell = cell_average(self.u)
        comp = u_cell * (1.0 - self.chi)
        max_adjacent = self.u
        for k in range(self.u.ndim):
            lo, hi = shifted(self.u.ndim, k)
            max_adjacent = np.maximum(max_adjacent[lo], max_adjacent[hi])
        wet_low = int(np.sum((max_adjacent > self.eps_u) & (self.chi < 1.0 - 1e-6)))
        ok = (
            float(np.min(self.u)) >= -1e-12
            and float(np.max(self.u)) <= m_ceiling + 1e-12
            and float(np.min(self.chi)) >= 0.0
            and float(np.max(self.chi)) <= 1.0
            and float(np.max(comp)) <= bound * (1.0 + 1e-9) + 1e-300
        )
        return ComplementarityReport(
            u_min=float(np.min(self.u)),
            u_max=float(np.max(self.u)),
            chi_min=float(np.min(self.chi)),
            chi_max=float(np.max(self.chi)),
            max_cell_complementarity=float(np.max(comp)),
            wet_cells_low_chi=wet_low,
            passed=bool(ok),
        )
