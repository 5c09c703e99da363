"""Penalized fixed-point solver for the coupled (u, chi) problem.

Discretization: the head u sits on nodes, the indicator chi on cells.
The combined face flux

    F = a(|G|) G/|G| . n  +  chi_face * H(face midpoint) . n

uses the full face gradient G (exact normal difference plus averaged
transverse central differences) and the cell-averaged chi. The residual at
an interior node is the discrete divergence of F weighted by the dual cell
volume, i.e. the weak-form residual against nodal hat functions; it
vanishes on boundary nodes, which carry Dirichlet data.

Inner solve (chi frozen): damped inexact Newton on the full residual, so
flux is conserved at every interior node, dry or wet. The Newton operator
is the symmetric positive-definite face-conductance approximation obtained
by differentiating each face flux in its normal difference only, with the
gradient magnitude regularized by sqrt(|G|^2 + mu^2) (the residual itself
stays unregularized). For the linear flux law a(t) = t that operator is the
constant-coefficient Laplacian, and each Newton direction is one exact
discrete-sine-transform (DST) solve. For every other law the linear steps
are matrix-free conjugate gradients at a loose inexact-Newton forcing,
preconditioned by the DST Laplacian inverse scaled on both sides by the
square root of the ratio of the Laplacian's diagonal to the operator's
(Concus & Golub 1973), whose transforms run in float32. The DST is one
product with the orthonormal sine matrix per axis. The strict polish sets
each step's forcing from its residual's observed contraction (after
Eisenstat & Walker 1996).

Outer loop: chi is tied to u through the cut-off min(u/eps, 1) evaluated
at cell centers, under-relaxed to damp free-boundary oscillation and
accelerated by type-II Anderson mixing of depth 5 (Walker & Ni 2011),
whose history restarts whenever the residual's 2-norm grows (after Zhang,
O'Donoghue & Boyd 2020), with the penalization width continued down a
geometric schedule, each wide stage handing off once its front's
remaining travel is a fraction of the next width, until the fixed-point
residual max |chi - min(u/eps, 1)| at the final width is at most
outer_tol. Each outer sweep takes a single damped Newton step on the
head, since the next chi update moves its target again; the final pair
is then polished strictly to inner_tol at the converged chi. The Newton
CG runs on interior-node arrays, with the operator's face weights built
once per Newton step. The wide stages run by nested iteration (Brandt
1977): the nested grids halve every axis's cell count while all counts
stay even, and each stage runs on the coarsest of them whose largest
spacing is at most its width, so the layer of a unit-slope head spans at
least one cell; the final width runs on the solve's own grid.
At each change of grid u is prolonged by exact multilinear interpolation
of the nested nodes, with the finer grid's Dirichlet data on its
boundary, and chi is injected into the 2^dim child cells. The published
pair is projected into [0, M]; mid-iteration heads may transiently leave
the bounds, and the converged head re-enters them on its own up to a
sub-cell tail at the interface.
"""

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from alap import geometry, profiles
from alap.errors import NonConvergenceError, SingularJacobianError


#: inner_tol, when left as None, is this multiple of the flux scale
#: (a(M/delta) + h_upper) * V / h_min
INNER_TOL_FACTOR = 1e-9

#: a Newton line search that backtracks below this step length stalls
DAMPING_MIN = 1e-6

#: relative residual at which the Newton CG stops, and its iteration budget
CG_FORCING = 1e-2
CG_MAXITER = 20000

#: CG forcing of a polish's first Newton step, and the cap of its later
#: ones, which follow the residual's contraction (see ``_Head.newton``)
POLISH_FORCING = 0.1
POLISH_FORCING_MAX = 0.5

#: gradient regularization mu of the Newton operator, in units of M/delta
MU_FACTOR = 1e-8

#: floor of each Newton operator conductance, relative to the largest
COND_FLOOR = 1e-6

#: largest Newton step per node, in units of M
STEP_CLAMP = 0.25

#: steps and residual changes an Anderson history holds
ANDERSON_DEPTH = 5

#: a wide stage hands off once its front's remaining travel is at most this
#: fraction of the next stage's width (see ``solve_problem``)
HANDOFF_TRAVEL = 0.4


@dataclass(frozen=True)
class SolverConfig:
    """The knobs of the coupled solve, one per ``solver.*`` config key.

    ``eps`` (penalization) and ``inner_tol`` (absolute residual max-norm)
    resolve to grid-dependent defaults when left as None: eps = 4 * eps_u
    and inner_tol = INNER_TOL_FACTOR * (a(M/delta) + h_upper) * V / h_min.
    The final stage stops once the fixed-point residual, the largest
    |chi - min(u/eps, 1)| over the cells, is at most ``outer_tol``.
    """

    eps: Optional[float] = None
    inner_tol: Optional[float] = None
    outer_tol: float = 1e-7
    max_inner: int = 60
    max_outer: int = 1000
    relax: float = 0.5

    def resolved(self, grid, profile, fieldh):
        eps = self.eps
        if eps is None:
            eps = 4.0 * grid.positivity_threshold()
        inner = self.inner_tol
        if inner is None:
            dom = grid.domain
            flux_scale = float(profile.a(dom.m_ceiling / dom.delta)) + fieldh.h_upper
            inner = INNER_TOL_FACTOR * flux_scale * grid.cell_volume / float(
                np.min(grid.spacing)
            )
        return replace(self, eps=eps, inner_tol=inner)


@dataclass
class SolveReport:
    """Convergence record of one coupled solve."""

    outer_iterations: int = 0
    inner_iterations: int = 0
    final_residual: float = np.inf
    final_chi_change: float = np.inf
    # max |chi - target(u)|: of the published pair once converged, else at
    # the last stop test
    fixed_point_residual: float = np.inf
    energy: float = np.nan  # of the published pair (``energy``)
    stalled_sweeps: int = 0  # sweeps whose Newton line search stalled
    grid_sweeps: dict = field(default_factory=dict)  # node counts -> sweeps run there
    stage_sweeps: dict = field(default_factory=dict)  # width eps_k -> sweeps, in order
    constraints: Optional[geometry.ComplementarityReport] = None
    converged: bool = False
    wall_time: float = 0.0

    def summary_lines(self):
        """The lines of ``solve_report.txt``. The sweeps per grid give each
        grid's node counts and the outer sweeps run on it, coarsest first;
        the sweeps per stage give each penalization width and the sweeps
        run at it, widest first; the last line gives the energy of the
        published pair."""
        per_grid = " ".join(f"{'x'.join(map(str, c))}:{n}" for c, n in self.grid_sweeps.items())
        per_stage = " ".join(f"{eps:.3e}:{n}" for eps, n in self.stage_sweeps.items())
        lines = [
            f"converged: {self.converged}",
            f"outer iterations: {self.outer_iterations}",
            f"sweeps per grid: {per_grid}",
            f"sweeps per stage: {per_stage}",
            f"stalled sweeps: {self.stalled_sweeps}",
            f"inner Newton steps: {self.inner_iterations}",
            f"final residual (max norm): {self.final_residual:.6e}",
            f"final chi change (L1): {self.final_chi_change:.6e}",
            f"fixed-point residual (max norm): {self.fixed_point_residual:.6e}",
            f"wall time (s): {self.wall_time:.3f}",
        ]
        if self.constraints is not None:
            c = self.constraints
            lines += [
                f"u range: [{c.u_min:.6e}, {c.u_max:.6e}]",
                f"chi range: [{c.chi_min:.6e}, {c.chi_max:.6e}]",
                f"max cell complementarity u(1-chi): {c.max_cell_complementarity:.6e}",
                f"wet cells with chi < 1-1e-6: {c.wet_cells_low_chi}",
            ]
        lines.append(f"energy of the published pair: {self.energy:.12e}")
        return lines


def _face_point_axes(grid, k):
    """1D coordinate arrays of the axis-k face midpoints."""
    return [grid.cell_axes[j] if j == k else grid.axes[j] for j in range(grid.dim)]


def _face_field_values(grid, fieldh):
    """Normal drift H_k at the axis-k face midpoints, one array per axis.

    H is fixed for a whole solve, so a solve evaluates it here once per
    grid; each axis keeps a copy of its own component only, not a view
    that would hold every component alive.
    """
    return [fieldh(geometry.mesh(_face_point_axes(grid, k)))[..., k].copy()
            for k in range(grid.dim)]


def _face_chi(grid, chi, k):
    """Average cell chi onto axis-k faces.

    An inner face averages the cells on its two sides along each transverse
    axis; a face on the box edge takes its edge cell's value, which is that
    cell averaged with a copy of itself, exactly.
    """
    out = np.asarray(chi, dtype=float)
    for j in range(grid.dim):
        if j == k:
            continue
        shape = list(out.shape)
        shape[j] += 1
        face = np.empty(shape)
        # views with axis j first; writing through f fills face
        c, f = np.moveaxis(out, j, 0), np.moveaxis(face, j, 0)
        np.add(c[:-1], c[1:], out=f[1:-1])
        f[1:-1] *= 0.5
        f[0], f[-1] = c[0], c[-1]
        out = face
    return out


def _drift_fluxes(grid, chi, hface):
    """Normal drift fluxes chi_face * H_k on the faces of every axis."""
    return [_face_chi(grid, chi, k) * hface[k] for k in range(grid.dim)]


def _diffusive_fluxes(grid, profile, faces):
    """Diffusive face fluxes a(|G|) G_k/|G| on the axis-k faces, per axis.

    ``faces`` holds the face gradient components of u (as from
    ``geometry.face_gradient_components``). The flux is 0 where G
    vanishes; every built-in a is finite and 0 at 0.
    """
    fluxes = []
    for k in range(grid.dim):
        comps = faces[k]
        mag = np.sqrt(geometry.component_dot(comps, comps))
        scale = np.divide(profile.a(mag), mag, out=np.zeros_like(mag), where=mag > 0.0)
        scale *= comps[k]
        fluxes.append(scale)
    return fluxes


def _is_linear(profile):
    """Whether the flux law is a(t) = t (power p = 2, a0 = a1 = 1)."""
    return profile.family == "power" and profile.params == (2.0,)


def residual(grid, profile, fieldh, u, chi, drift=None, diffusive=None):
    """Weak-form residual of div(flux(grad u) + chi H) at interior nodes.

    Zero on boundary nodes. The returned values carry the dual cell volume,
    so they match integration of the flux against nodal hat functions.
    ``drift`` holds the face drift fluxes of this chi and field (as from
    ``_drift_fluxes``) and ``diffusive`` the diffusive face fluxes of u (as
    from ``_diffusive_fluxes``); each is evaluated here when None.
    """
    if drift is None:
        drift = _drift_fluxes(grid, chi, _face_field_values(grid, fieldh))
    if diffusive is None:
        diffusive = _diffusive_fluxes(grid, profile, geometry.face_gradient_components(grid, u))
    out = np.zeros(grid.counts)
    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    vol = grid.cell_volume
    for k in range(grid.dim):
        # the axis-k faces that bound interior nodes' dual cells
        cut = tuple(slice(None) if j == k else slice(1, -1) for j in range(grid.dim))
        flux = diffusive[k][cut] + drift[k][cut]
        out[interior] += np.diff(flux, axis=k) / grid.spacing[k] * vol
    return out


def _conductances(grid, profile, faces, mu, rel_floor):
    """Regularized SPD face conductances d(flux_n)/d(normal difference).

    The gradient magnitude is smoothed by mu; on top of that a floor
    relative to the largest conductance bounds the condition number where
    the operator degenerates (a0 > 1, vanishing gradients). Both touch the
    Newton operator only, never the residual.
    """
    cond = []
    cmax = 0.0
    for k in range(grid.dim):
        comps = faces[k]
        m = np.sqrt(geometry.component_dot(comps, comps) + mu * mu)
        dn2 = (comps[k] / m) ** 2
        c = profile.da(m) * dn2 + profile.a(m) / m * (1.0 - dn2)
        if not np.all(np.isfinite(c)):
            raise SingularJacobianError("non-finite face conductance in Newton operator")
        cmax = max(cmax, float(np.max(c)))
        cond.append(c)
    return [np.maximum(c, rel_floor * cmax) for c in cond]


def _face_weights(grid, cond):
    """Face weights cond_k vol / h_k^2 of the Newton operator on the axis-k
    faces of interior-node rows: every face along axis k, the interior
    rows across the others. Built once per Newton step."""
    out = []
    for k in range(grid.dim):
        cut = tuple(slice(None) if j == k else slice(1, -1) for j in range(grid.dim))
        out.append(cond[k][cut] * (grid.cell_volume / grid.spacing[k] ** 2))
    return out


def _neg_jacobian_apply(weights, v, padded):
    """The SPD operator applied to an interior-node array ``v``.

    ``weights`` are the face weights from ``_face_weights``. ``padded`` is a
    node array whose boundary nodes hold 0; ``v`` is written into its
    interior, so the boundary faces see homogeneous Dirichlet data and the
    buffer serves every apply of a solve.
    """
    dim = v.ndim
    padded[(slice(1, -1),) * dim] = v
    out = None
    for k, w in enumerate(weights):
        # the nodes below and above each face, across the interior rows
        below, above = geometry.shifted(dim, k, slice(1, -1))
        flux = padded[above] - padded[below]
        flux *= w
        # each interior node's lower and upper face along axis k
        lower, upper = geometry.shifted(dim, k)
        if out is None:
            out = flux[lower] - flux[upper]
        else:
            out += flux[lower]
            out -= flux[upper]
    return out


def _diagonal_scaling(grid, weights):
    """Interior-node scaling S = (d_ref / diag)^(1/2) of the operator.

    ``diag`` is the diagonal of the face-conductance operator with face
    weights ``weights`` (as from ``_face_weights``), ``d_ref = vol * sum_k
    2 / h_k^2`` the diagonal of the unit-coefficient Laplacian that the
    preconditioner inverts. A reference coefficient c_ref would cancel
    between the two factors of S and the inverse, so none is taken.
    """
    diag = 0.0
    d_ref = 0.0
    for k, w in enumerate(weights):
        lo, hi = geometry.shifted(w.ndim, k)
        diag = diag + (w[lo] + w[hi])
        d_ref += 2.0 * (grid.cell_volume / grid.spacing[k] ** 2)
    if not np.all(diag > 0.0):
        raise SingularJacobianError("vanishing diagonal in Newton operator")
    return np.sqrt(d_ref / diag)


def _laplacian_eigenvalues(grid):
    """Eigenvalues of -Laplace_h on the interior nodes with homogeneous
    Dirichlet data, on the grid of DST-I frequencies."""
    lam = []
    for k, count in enumerate(grid.counts):
        m = count - 2
        i = np.arange(1, m + 1)
        lam.append(4.0 * np.sin(0.5 * np.pi * i / (m + 1)) ** 2 / grid.spacing[k] ** 2)
    return sum(np.meshgrid(*lam, indexing="ij"))


@functools.lru_cache(maxsize=None)
def _sine_matrix(n, dtype):
    """The orthonormal DST-I matrix of length n in ``dtype``, read-only;
    it is symmetric."""
    i = np.arange(1, n + 1)
    # reducing the angle exactly in integers keeps sin accurate for large n
    s = np.sqrt(2.0 / (n + 1)) * np.sin((np.outer(i, i) % (2 * n + 2)) * (np.pi / (n + 1)))
    s = s.astype(dtype)
    s.flags.writeable = False
    return s


def dstn(x):
    """Orthonormal DST-I over every axis, ``scipy.fft.dstn(x, type=1,
    norm="ortho")`` up to roundoff: one product per axis with the cached
    ``_sine_matrix``. A float32 input stays float32; any other is taken
    in float64."""
    y = np.asarray(x)
    if y.dtype != np.float32:
        y = y.astype(float, copy=False)
    for axis in range(y.ndim - 1):
        # the product runs over the second-to-last axis; in 2-D it is axis 0
        s = _sine_matrix(y.shape[axis], y.dtype)
        y = (s @ y.swapaxes(axis, -2)).swapaxes(axis, -2)
    # the last pass, over the last axis, leaves a C-ordered result
    return y @ _sine_matrix(y.shape[-1], y.dtype)


#: S is symmetric and orthogonal, so the transform is its own inverse
idstn = dstn


class _SpectralPreconditioner:
    """Exact inverse of the constant-coefficient surrogate operator.

    Solves c_ref * vol * (-Laplace_h) v = r for an interior-node array r
    with homogeneous Dirichlet data by fast diagonalization (Lynch, Rice &
    Thomas 1964; Buzbee, Golub & Nielson 1970): one ``dstn``, a division by
    the eigenvalues and one ``idstn``. For a linear flux law this is the
    exact Newton operator, applied in float64. With ``scale`` S (as from
    ``_diagonal_scaling``) it applies S L^-1 S instead, whose inverse
    shares the diagonal of the degenerate laws' operator; CG then needs
    fewer iterations than under L^-1 alone. That inverse only steers CG,
    so its transforms and division run in float32: S r is cast down, and
    the result, scaled by S, is a new float64 array. Its owner may replace
    ``scale`` between applies; the float32 symbol stays. Never assembles
    the operator; deterministic. ``laplacian`` holds the eigenvalues from
    ``_laplacian_eigenvalues``.
    """

    def __init__(self, grid, c_ref, laplacian, scale=None):
        symbol = c_ref * grid.cell_volume * laplacian
        self.symbol = symbol if scale is None else symbol.astype(np.float32)
        self.scale = scale

    def apply(self, r):
        if self.scale is None:
            return idstn(dstn(r) / self.symbol)
        v = idstn(dstn((r * self.scale).astype(np.float32)) / self.symbol)
        # a new float64 array: CG's search direction is built from it
        return v * self.scale


def _pcg(apply_op, precond, rhs, rtol, maxiter):
    """Preconditioned conjugate gradients on interior-node arrays.

    Returns the iterate once |residual|_2 <= rtol |rhs|_2 or the budget
    runs out.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    target = rtol * float(np.linalg.norm(r))
    if target == 0.0:
        return x
    p = precond(r)
    rz = float(np.vdot(r, p))
    for _ in range(maxiter):
        ap = apply_op(p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        if float(np.linalg.norm(r)) <= target:
            break
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x


class _Head:
    """The head iterate of one solve, with what its residual is built from.

    A solve fixes H, the exact inverse of the linear law's Newton operator
    and the float32 symbol of the other laws' preconditioner, so they are
    built here once (the symbol at the first CG step), with the
    zero-bordered node buffer of every operator apply; Newton directions
    are solved on the interior nodes only. The
    head keeps its face gradient and diffusive face fluxes: each iterate's
    face gradient is built once, and the next Newton loop (the next sweep,
    at a new chi) starts from the accepted head's flux, adding the new
    drift to it exactly as a residual built from u would. A new iterate replaces the
    arrays of the last one as soon as it is accepted. Iterates of a(t) = t
    build only their normal differences, that law's fluxes bit for bit.
    """

    def __init__(self, grid, fieldh, cfg, u):
        self.grid, self.fieldh, self.cfg = grid, fieldh, cfg
        self.hface = _face_field_values(grid, fieldh)
        self.inner = (slice(1, -1),) * grid.dim
        self.padded = np.zeros(grid.counts)
        # the linear law's conductances are all 1 up to roundoff, so its
        # Newton operator is the surrogate at coefficient 1 (floored at
        # COND_FLOOR, as a reference coefficient always was)
        self.linear_inverse = _SpectralPreconditioner(
            grid, max(1.0, COND_FLOOR), _laplacian_eigenvalues(grid)
        )
        self.scaled_inverse = None  # the other laws' CG preconditioner
        self.u = np.asarray(u, dtype=float).copy()
        self.normals = geometry.face_normal_differences(grid, self.u)
        self._faces = None
        self.diffusive = None
        self.flux_profile = None  # the profile ``diffusive`` was built with
        self.stalled = False  # whether the last loop's line search stalled

    @property
    def faces(self):
        """Full face gradient of u, built here for a linear-law iterate."""
        if self._faces is None:
            self._faces = geometry.face_gradient_components(self.grid, self.u, self.normals)
        return self._faces

    def newton(self, profile, chi, max_steps):
        """Damped Newton on the full residual; returns (u, steps, rmax, ok).

        With chi frozen the drift fluxes are fixed for the whole loop. The
        head equation holds at every interior node, dry or wet: flux is
        conserved, never absorbed, so the iterates may transiently leave
        [0, M] while the coupled loop still drives them back (the converged
        penalized pair is nonnegative on its own). Globalization: Armijo
        backtracking on the residual 2-norm plus a per-node step clamp. A
        line search that backtracks below ``DAMPING_MIN`` stops the loop
        with ok False and sets ``stalled``.

        A law that is not linear solves each Newton system by CG to a
        relative residual, the forcing. A sweep (``max_steps`` 1) uses
        ``CG_FORCING``. A longer loop, the strict polish, starts at
        ``POLISH_FORCING`` and then uses min(``POLISH_FORCING_MAX``,
        max(``CG_FORCING``, |r_k|_2 / |r_{k-1}|_2)), after Eisenstat &
        Walker (1996): on the p = 3 dam its residual falls only 2-10x per
        step, held up in dry rows where the conductance degenerates, so a
        tighter system solve buys no faster descent.
        """
        grid, cfg = self.grid, self.cfg
        m_top = grid.domain.m_ceiling
        chi = np.asarray(chi, dtype=float)
        self.stalled = False
        steps_used = 0
        linear = _is_linear(profile)

        drift = _drift_fluxes(grid, chi, self.hface)
        if self.flux_profile is not profile:
            self.diffusive = self.normals if linear else _diffusive_fluxes(grid, profile, self.faces)
            self.flux_profile = profile
        res = residual(grid, profile, self.fieldh, self.u, chi, drift, diffusive=self.diffusive)
        forcing = CG_FORCING if max_steps == 1 else POLISH_FORCING
        rnorm = None
        for _ in range(max_steps):
            rmax = float(np.max(np.abs(res)))
            if rmax <= cfg.inner_tol:
                return self.u, steps_used, rmax, True
            rnorm_last, rnorm = rnorm, float(np.linalg.norm(res))
            if rnorm_last is not None:
                forcing = min(POLISH_FORCING_MAX, max(CG_FORCING, rnorm / rnorm_last))
            d = np.zeros(grid.counts)
            if linear:
                d[self.inner] = self.linear_inverse.apply(res[self.inner])
            else:
                d[self.inner] = self._cg_direction(profile, res[self.inner], forcing)
            if not np.all(np.isfinite(d)):
                raise SingularJacobianError("non-finite Newton direction")
            # trust-region style clamp: degenerate zones can request huge moves
            step_max = STEP_CLAMP * m_top
            np.clip(d, -step_max, step_max, out=d)
            lam = 1.0
            accepted = False
            while lam >= DAMPING_MIN:
                u_trial = self.u + lam * d
                normals = geometry.face_normal_differences(grid, u_trial)
                faces = None if linear else geometry.face_gradient_components(grid, u_trial, normals)
                diffusive = normals if linear else _diffusive_fluxes(grid, profile, faces)
                res_trial = residual(
                    grid, profile, self.fieldh, u_trial, chi, drift, diffusive=diffusive
                )
                if float(np.linalg.norm(res_trial)) <= (1.0 - 1e-4 * lam) * rnorm:
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                self.stalled = True
                return self.u, steps_used, rmax, False
            self.u, self._faces, self.normals, self.diffusive = u_trial, faces, normals, diffusive
            res = res_trial
            steps_used += 1
        rmax = float(np.max(np.abs(res)))
        return self.u, steps_used, rmax, rmax <= cfg.inner_tol

    def _cg_direction(self, profile, res, forcing):
        """Interior-node Newton direction of a law that is not linear: CG
        to relative residual ``forcing`` on the face conductances of the
        head, preconditioned by the diagonally scaled DST inverse."""
        grid = self.grid
        dom = grid.domain
        mu = MU_FACTOR * dom.m_ceiling / dom.delta
        weights = _face_weights(grid, _conductances(grid, profile, self.faces, mu, COND_FLOOR))
        scale = _diagonal_scaling(grid, weights)
        if self.scaled_inverse is None:
            # built at the head's first CG step, so a linear-law head holds
            # no float32 symbol; later steps only rescale it
            self.scaled_inverse = _SpectralPreconditioner(
                grid, 1.0, _laplacian_eigenvalues(grid), scale
            )
        self.scaled_inverse.scale = scale

        def apply_op(v):
            return _neg_jacobian_apply(weights, v, self.padded)

        return _pcg(apply_op, self.scaled_inverse.apply, res, forcing, CG_MAXITER)


def _converged(result):
    """(u, steps, rmax) of a Newton loop result that reached inner_tol;
    raises NonConvergenceError otherwise."""
    u, steps, rmax, converged = result
    if not converged:
        raise NonConvergenceError(
            f"inner Newton did not reach tolerance; residual {rmax:.3e}"
        )
    return u, steps, rmax


def energy(grid, profile, fieldh, u, chi):
    """Diagnostic functional sum_cells [A(|grad u|) + chi H . grad u] vol.

    Gradients are taken at cell centers; stationarity in u at frozen chi
    reproduces the head equation up to quadrature placement.
    """
    normals = geometry.face_normal_differences(grid, np.asarray(u, dtype=float))
    comps = []
    for k, g in enumerate(normals):
        for j in range(grid.dim):  # onto cell centers along the other axes
            if j != k:
                g = geometry.midpoints(g, j)
        comps.append(g)
    mag = np.sqrt(geometry.component_dot(comps, comps))
    hcells = fieldh(grid.cell_centers())
    h_dot_grad = geometry.component_dot(np.moveaxis(hcells, -1, 0), comps)
    dens = profile.big_a(mag) + np.asarray(chi) * h_dot_grad
    return float(np.sum(dens) * grid.cell_volume)


def _chi_target(grid, u, eps):
    # transient heads may dip below 0; the cut-off sees the projected head,
    # which also pins cell complementarity of the published pair at eps/4
    clipped = np.clip(u, 0.0, grid.domain.m_ceiling)
    return np.clip(geometry.cell_average(clipped) / eps, 0.0, 1.0)


class _Anderson:
    """Type-II Anderson mixing of the relaxed chi update (Walker & Ni 2011).

    With f = target - chi the residual of the fixed point chi = target(u),
    a plain sweep steps by ``relax * f``. Mixing subtracts the combination
    gamma of the last ``depth`` chi steps dX and residual changes dF that
    best cancels f, gamma = argmin |f - dF gamma|_2:

        step = relax * f - (dX + relax * dF) gamma,

    and clips chi + step to [0, 1]. The history restarts (after Zhang,
    O'Donoghue & Boyd 2020) whenever |f|_2 grows, and whenever its owner
    calls ``clear`` (at each new stage), so that step is a
    plain relaxed one. dX and dF are held in float32: they only steer the
    step, while f itself is always the float64 residual. The slot of the
    newest step holds -f until the next f completes its dF, so no copy of
    the last chi or f is kept.
    """

    def __init__(self, depth, shape):
        # slot i holds the pair (dX_i, dF_i), so the rows in use are one block
        self.pairs = np.empty((depth, 2) + tuple(shape), dtype=np.float32)
        self.slot = None  # the newest pair, whose dF holds -f of the last step
        self.clear()

    def clear(self):
        self.rows = 0  # complete (dX, dF) pairs in the history
        self.pending = False  # whether the newest pair waits for its next f
        self.norm = np.inf

    def reverses(self, f):
        """Whether the residual f points against the last step's residual."""
        if self.slot is None:
            return False
        return float(np.vdot(self.pairs[self.slot, 1], f.astype(np.float32))) > 0.0

    def step(self, chi, f, relax):
        """chi's next iterate, from chi and its residual f."""
        flat = f.astype(np.float32).ravel()
        norm = float(np.linalg.norm(f))
        if norm > self.norm:
            self.clear()
        self.norm = norm
        depth = len(self.pairs)
        if self.pending:
            self.pairs[self.slot, 1] += f
            self.rows = min(self.rows + 1, depth)
        chi_new = relax * f
        if self.rows:
            pairs = self.pairs[: self.rows].reshape(2 * self.rows, -1)
            df = pairs[1::2]
            gram = (df @ df.T).astype(float)
            gamma = np.linalg.lstsq(gram, (df @ flat).astype(float), rcond=1e-6)[0]
            # (dX + relax dF) gamma in one pass over the interleaved pairs
            weights = np.column_stack((gamma, relax * gamma)).astype(np.float32).ravel()
            chi_new -= (weights @ pairs).reshape(f.shape)
        chi_new += chi
        np.clip(chi_new, 0.0, 1.0, out=chi_new)
        self.slot = self.rows if self.rows < depth else (self.slot + 1) % depth
        np.subtract(chi_new, chi, out=self.pairs[self.slot, 0], casting="same_kind")
        np.negative(f, out=self.pairs[self.slot, 1], casting="same_kind")
        self.pending = True
        return chi_new


def _penalization_stages(eps_final, m_ceiling):
    """Geometric continuation schedule from a coarse width down to eps.

    The under-relaxed fixed point moves the drying front only O(eps) per
    sweep; warm-started stages with halving widths cover the travel in
    O(log) sweeps while the converged pair still satisfies the cut-off
    coupling at the final eps.
    """
    stages = [eps_final]
    cap = m_ceiling / 16.0
    while stages[-1] < cap:
        stages.append(stages[-1] * 2.0)
    return stages[::-1]


def _nested_grids(grid):
    """``grid`` and its nested coarsenings, finest first: each halves every
    axis's cell count, while every count is even and at least 4."""
    grids = [grid]
    cells = grid.cell_counts
    while all(c % 2 == 0 and c >= 4 for c in cells):
        cells = tuple(c // 2 for c in cells)
        grids.append(geometry.build_grid(grid.domain, tuple(c + 1 for c in cells)))
    return grids


def _stage_grids(grid, stages):
    """The grid each penalization stage of ``stages`` runs on.

    A stage runs on the coarsest nested grid whose largest spacing is at
    most its width, so the layer of a unit-slope head spans at least one
    cell; the widths shrink, so a stage never runs coarser than the one
    before. The final width runs on ``grid`` itself.
    """
    nested = _nested_grids(grid)
    out = []
    for eps_k in stages[:-1]:
        fits = [g for g in nested if float(np.max(g.spacing)) <= eps_k]
        out.append(fits[-1] if fits else grid)
    return out + [grid]


def _prolong_nodes(u):
    """Exact multilinear interpolation of a node array onto the nested grid
    with every axis's cell count doubled: a shared node keeps its value, a
    new one takes the mean of its two neighbours along each axis in turn."""
    out = np.asarray(u, dtype=float)
    for k in range(out.ndim):
        c = np.moveaxis(out, k, 0)
        f = np.empty((2 * c.shape[0] - 1,) + c.shape[1:])
        f[0::2] = c
        np.add(c[:-1], c[1:], out=f[1::2])
        f[1::2] *= 0.5
        out = np.moveaxis(f, 0, k)
    return out


def _inject_cells(chi):
    """A cell array on the nested grid with every axis's cell count doubled:
    each cell's value on its 2^dim children, which keeps its integral."""
    out = np.asarray(chi, dtype=float)
    for k in range(out.ndim):
        out = np.repeat(out, 2, axis=k)
    return out


def _refine(u, chi, grid):
    """(u, chi) of a nested coarser grid carried to ``grid``, with u reset
    to ``grid``'s Dirichlet data on the boundary nodes."""
    while u.shape != grid.counts:
        u, chi = _prolong_nodes(u), _inject_cells(chi)
    boundary = grid.boundary_mask()
    u[boundary] = grid.dirichlet_array()[boundary]
    return u, chi


def solve_problem(grid, profile, fieldh, domain, config=None):
    """Coupled solve of the constrained problem on ``grid``.

    Returns (SolutionPair, SolveReport). The head is initialized by one
    linear (power p = 2) solve of the boundary data with chi = 0, chi by
    the cut-off of that head; each outer step moves chi toward the target
    min(u/eps, 1) by an Anderson-mixed relaxed step (``_Anderson``) and
    takes one damped Newton step on the head, with eps continued down a
    geometric schedule to its configured value. Each stage runs on the
    grid ``_stage_grids`` assigns it; the warm-up solve and the first
    sweep run on the first stage's grid, and each change of grid carries
    the pair over by ``_refine`` and builds a new head, so H is evaluated
    on the faces once per grid. The final stage stops when the fixed-point
    residual max |chi - target(u)| is at most ``outer_tol``, then solves
    the head strictly at that chi; the report gives the residual and the
    ``energy`` of the published pair, the one evaluation of H at cell
    centers. Raises NonConvergenceError naming the stop reason otherwise:
    the max_outer budget, or a plateau at the final width (the L1 residual
    fell by less than 15% over 8 sweeps while reversing its direction in at
    least 4 of them). Newton directions use numpy sine-matrix products,
    never scipy; a sweep solves its CG to ``CG_FORCING``, the polish to a
    forcing set by its residual's contraction (see ``_Head.newton``).

    Hand-off. A wide stage of width eps_k only places the front for the
    next stage, of width eps_{k+1} = eps_k / 2. With f = target - chi,
    sum |f| vol is the volume chi still has to move; divided by the box's
    cross-section it is the distance the front still has to travel. The
    stage hands off once that travel is at most ``HANDOFF_TRAVEL`` = 0.4
    times eps_{k+1}: the front then lies inside the next layer, whose own
    sweeps move it anyway, so placing it more finely is work the next stage
    redoes. Measured on the dam (p = 2 and 3), affine and two_level configs
    at 33^2 to 257^2, the constants 0.2, 0.4 and 0.8 each give a chi
    within 5e-7 of the tight reference (``outer_tol`` = 1e-13) on all
    sixteen; against placing the front to 0.08 eps_{k+1}, 0.4 cuts the
    sweeps of the 129^2 configs from 48 / 108 / 76 to 27 / 65 / 54. The
    landscape is not monotone: at 0.28 the 257^2 dam fills one row cell by
    cell through 186 final-stage sweeps onto another fixed point (chi off
    by 1), and at 2.0 the 129^2 dam lands on another one too; 0.4 sits
    between the two, with margin on both sides.
    """
    if domain is not grid.domain:
        raise ValueError("domain must be the grid's domain")
    if config is None:
        config = SolverConfig()
    cfg = config.resolved(grid, profile, fieldh)
    t0 = time.perf_counter()
    report = SolveReport()

    stages = _penalization_stages(cfg.eps, domain.m_ceiling)
    stage_grids = _stage_grids(grid, stages)
    cross_area = grid.cell_volume / float(np.min(grid.spacing)) * max(grid.counts)
    # H is fixed for the whole solve: the head of each grid evaluates it on
    # that grid's faces, and the energy of the published pair on its cells
    g = stage_grids[0]
    head = _Head(g, fieldh, cfg, g.dirichlet_array())
    laplace = profiles.make_power(2.0)
    chi0 = np.zeros(g.cell_counts)
    u, inner_used, _ = _converged(head.newton(laplace, chi0, cfg.max_inner))
    report.inner_iterations += inner_used

    # the first sweep goes straight to the first stage's target, unmixed
    chi = _chi_target(g, u, stages[0])
    u, inner_used, rmax, _ = head.newton(profile, chi, 1)
    report.inner_iterations += inner_used
    report.stalled_sweeps += head.stalled
    report.outer_iterations = 1
    report.grid_sweeps[g.counts] = 1
    report.stage_sweeps[stages[0]] = 1
    report.final_residual = rmax

    # each sweep takes one damped Newton step: the chi update moves the
    # target again right after, so the head only has to track the moving
    # front (inexact Newton); the converged pair is polished strictly below
    converged = False
    plateau = False
    mixer = _Anderson(ANDERSON_DEPTH, g.cell_counts)
    for eps_k, eps_next, stage_grid in zip(stages, stages[1:] + [None], stage_grids):
        if stage_grid is not g:
            g = stage_grid
            # the coarser grid's arrays go before the finer grid's are built
            head = mixer = None
            u, chi = _refine(u, chi, g)
            head = _Head(g, fieldh, cfg, u)
            mixer = _Anderson(ANDERSON_DEPTH, g.cell_counts)
        final_stage = eps_next is None
        report.stage_sweeps.setdefault(eps_k, 0)
        history, turns = [], []
        mixer.clear()
        target = _chi_target(g, u, eps_k)
        while True:
            f = target - chi
            gap = np.abs(f)
            report.fixed_point_residual = float(np.max(gap))
            spread = float(np.sum(gap) * g.cell_volume)
            gap = None
            if final_stage and report.fixed_point_residual <= cfg.outer_tol:
                converged = True
                break
            if not final_stage and spread <= HANDOFF_TRAVEL * eps_next * cross_area:
                break
            history.append(spread)
            turns.append(mixer.reverses(f))
            if len(history) >= 8 and spread >= 0.85 * history[-8]:
                if not final_stage:
                    # warmup stages only position the front; a bounded
                    # oscillation around the smeared fixed point is an
                    # acceptable hand-off state
                    break
                # a final-stage plateau whose residual keeps reversing is an
                # oscillation the mixing does not damp; a front that fills
                # cell by cell keeps the sign of its residual and only needs
                # the sweeps
                if sum(turns[-8:]) >= 4:
                    plateau = True
                    break
            if report.outer_iterations >= cfg.max_outer:
                break
            chi_new = mixer.step(chi, f, cfg.relax)
            report.final_chi_change = float(np.sum(np.abs(chi_new - chi)) * g.cell_volume)
            chi = chi_new
            f = target = None  # not held through the Newton step
            u, inner_used, rmax, _ = head.newton(profile, chi, 1)
            report.inner_iterations += inner_used
            report.stalled_sweeps += head.stalled
            report.outer_iterations += 1
            report.grid_sweeps[g.counts] = report.grid_sweeps.get(g.counts, 0) + 1
            report.stage_sweeps[eps_k] += 1
            report.final_residual = rmax
            target = _chi_target(g, u, eps_k)
        if converged or plateau or report.outer_iterations >= cfg.max_outer:
            break
    mixer = None  # the history is not held through the polish
    if converged:
        try:
            u, inner_used, rmax = _converged(head.newton(profile, chi, cfg.max_inner))
            report.inner_iterations += inner_used
            report.final_residual = rmax
            # the residual of the published pair, whose head is polished
            report.fixed_point_residual = float(np.max(np.abs(_chi_target(g, u, cfg.eps) - chi)))
        except NonConvergenceError as exc:
            report.wall_time = time.perf_counter() - t0
            raise NonConvergenceError(str(exc), report=report) from exc
    head = None  # the head's arrays are not held with the published pair's
    if g is not grid:  # the budget ran out on a coarser grid
        u, chi = _refine(u, chi, grid)
    report.converged = converged
    # the converged head is nonnegative up to an exponentially small tail;
    # the projection finalizes the bound constraints of the published pair
    pair = geometry.SolutionPair(
        u=np.clip(u, 0.0, domain.m_ceiling), chi=chi, eps_u=grid.positivity_threshold()
    )
    report.constraints = pair.validate(domain.m_ceiling, comp_bound=cfg.eps)
    report.energy = energy(grid, profile, fieldh, pair.u, pair.chi)
    report.wall_time = time.perf_counter() - t0
    if not converged:
        if plateau:
            reason = (
                "outer loop plateaued at the final penalization width"
                f" after {report.outer_iterations} sweeps"
            )
        else:
            reason = f"outer loop exhausted {cfg.max_outer} iterations"
        raise NonConvergenceError(
            f"{reason}; fixed-point residual {report.fixed_point_residual:.3e}, "
            f"chi change {report.final_chi_change:.3e}",
            report=report,
        )
    return pair, report
