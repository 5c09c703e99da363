import dataclasses
import os

import numpy as np
import pytest

from alap import cli, config, fields, geometry, profiles, solver
from alap.errors import NonConvergenceError


def dam_domain(level=0.6):
    return geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("hydrostatic", (level,)), level
    )


def dam_exact(grid, level=0.6):
    ys = grid.nodes()[..., -1]
    return np.maximum(level - ys, 0.0)


def test_residual_vanishes_for_zero_state():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    res = solver.residual(grid, profiles.make_power(2.0), f, np.zeros(grid.counts), np.zeros(grid.cell_counts))
    assert np.all(res == 0.0)


def test_residual_vanishes_for_affine_head_constant_field():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.2, 1.0])
    nodes = grid.nodes()
    u = 0.1 * nodes[..., 0] + 0.3 * nodes[..., 1]
    chi = np.ones(grid.cell_counts)
    res = solver.residual(grid, profiles.make_power(3.0), f, u, chi)
    assert np.max(np.abs(res)) < 1e-14


def test_residual_concentrates_at_free_boundary():
    # hand-computed hydrostatic pair: fluxes cancel except across the kink
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    u = dam_exact(grid)
    chi = (grid.cell_centers()[..., 1] < 0.6).astype(float)
    res = solver.residual(grid, prof, f, u, chi)
    ys = grid.nodes()[..., 1]
    far = np.abs(ys - 0.6) > 2.5 * grid.spacing[1]
    assert np.max(np.abs(res[far])) == 0.0
    near_max = np.max(np.abs(res))
    assert 0.0 < near_max <= grid.spacing[1]


def _newton_loop(grid, profile, fieldh, chi, cfg, u_init, max_steps):
    """Damped Newton from ``u_init`` at frozen chi, as a solve's head runs
    it; returns (u, steps, rmax, ok)."""
    return solver._Head(grid, fieldh, cfg, u_init).newton(profile, chi, max_steps)


def solve_u_given_chi(grid, profile, fieldh, chi, config, u_init):
    """Head solve with frozen chi to inner_tol; raises NonConvergenceError
    when the step budget runs out or the line search stalls."""
    cfg = config.resolved(grid, profile, fieldh)
    return solver._converged(_newton_loop(grid, profile, fieldh, chi, cfg, u_init, cfg.max_inner))


def test_solve_u_zero_data_gives_zero():
    dom = geometry.box_domain(
        [0, 0], [1, 1], ["xmin", "xmax", "ymin", "ymax"], geometry.BoundaryData("zero"), 1.0
    )
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    cfg = solver.SolverConfig().resolved(grid, profiles.make_power(2.0), f)
    u, _, rmax = solve_u_given_chi(
        grid, profiles.make_power(2.0), f, np.zeros(grid.cell_counts), cfg, grid.dirichlet_array()
    )
    assert np.max(np.abs(u)) < 1e-12
    assert rmax <= cfg.inner_tol


def test_solve_u_constant_ceiling_data():
    # constant data M with chi = 1 and divergence-free drift: u stays M
    dom = geometry.box_domain(
        [0, 0], [1, 1], [], geometry.BoundaryData("constant", (0.8,)), 0.8
    )
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    prof = profiles.make_logpower(1.0, 1.0, 1.0)
    cfg = solver.SolverConfig().resolved(grid, prof, f)
    u0 = grid.dirichlet_array()
    u0[~grid.boundary_mask()] = 0.8
    u, _, _ = solve_u_given_chi(grid, prof, f, np.ones(grid.cell_counts), cfg, u0)
    assert np.max(np.abs(u - 0.8)) < 1e-10


def test_inner_nonconvergence_raises():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    cfg = solver.SolverConfig(max_inner=0, inner_tol=1e-30)
    with pytest.raises(NonConvergenceError):
        solve_u_given_chi(
            grid, profiles.make_power(2.0), f, np.ones(grid.cell_counts), cfg, grid.dirichlet_array()
        )


def test_energy_values():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    prof = profiles.make_power(2.0)
    assert solver.energy(grid, prof, f, np.zeros(grid.counts), np.zeros(grid.cell_counts)) == 0.0
    u = grid.nodes()[..., 0]  # slope-1 head, A(1) = 1/2 on the unit square
    val = solver.energy(grid, prof, f, u, np.zeros(grid.cell_counts))
    assert val == pytest.approx(0.5, rel=1e-12)


def test_energy_decreases_along_inner_newton():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (33, 33))
    prof = profiles.make_power(3.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    chi = (grid.cell_centers()[..., 1] < 0.6).astype(float)
    cfg = solver.SolverConfig().resolved(grid, prof, f)
    u = grid.dirichlet_array()
    u, _, _, _ = _newton_loop(grid, profiles.make_power(2.0), f, np.zeros(grid.cell_counts), cfg, u, 30)
    energies = [solver.energy(grid, prof, f, u, chi)]
    for _ in range(12):
        u, steps, rmax, done = _newton_loop(grid, prof, f, chi, cfg, u, 1)
        energies.append(solver.energy(grid, prof, f, u, chi))
        if done:
            break
    drops = np.diff(np.array(energies))
    # strict decrease until the face/cell quadrature-placement floor
    assert np.all(drops <= 1e-10)
    assert drops[0] < -1e-3


def test_manufactured_dam_error_scale():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    pair, report = solver.solve_problem(grid, prof, f, dom)
    err = np.max(np.abs(pair.u - dam_exact(grid)))
    assert err <= grid.spacing[1]
    assert report.converged
    assert report.final_residual <= solver.SolverConfig().resolved(grid, prof, f).inner_tol
    c = report.constraints
    assert c.passed
    assert c.u_min >= 0.0 and c.u_max <= 0.6
    assert c.chi_min >= 0.0 and c.chi_max <= 1.0


def test_solution_head_within_ceiling():
    # data at the ceiling on the wet part of the boundary; head stays in [0, M]
    dom = geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("constant", (0.5,)), 0.5
    )
    grid = geometry.build_grid(dom, (33, 33))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    pair, _ = solver.solve_problem(grid, prof, f, dom)
    assert pair.u.min() >= 0.0 and pair.u.max() <= 0.5 + 1e-12


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_frozen_chi_comparison_principle(p):
    dom1 = dam_domain(0.5)
    dom2 = dam_domain(0.6)
    prof = profiles.make_power(p)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    chi = np.ones((32, 32))
    us = []
    for dom in (dom1, dom2):
        grid = geometry.build_grid(dom, (33, 33))
        cfg = solver.SolverConfig().resolved(grid, prof, f)
        u, _, _ = solve_u_given_chi(grid, prof, f, chi, cfg, grid.dirichlet_array())
        us.append(u)
    assert np.all(us[0] <= us[1] + 1e-8)


def test_solve_deterministic():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (33, 33))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    pair1, rep1 = solver.solve_problem(grid, prof, f, dom)
    pair2, rep2 = solver.solve_problem(grid, prof, f, dom)
    assert np.array_equal(pair1.u, pair2.u)
    assert np.array_equal(pair1.chi, pair2.chi)
    assert rep1.energy == rep2.energy


def test_solve_3d_small():
    dom = geometry.box_domain(
        [0, 0, 0], [1, 1, 1], ["zmax"], geometry.BoundaryData("hydrostatic", (0.6,)), 0.6
    )
    grid = geometry.build_grid(dom, (9, 9, 9))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 0.0, 1.0])
    pair, rep = solver.solve_problem(grid, prof, f, dom)
    zs = grid.nodes()[..., 2]
    err = np.max(np.abs(pair.u - np.maximum(0.6 - zs, 0.0)))
    assert rep.converged
    assert err <= 2.5 * grid.spacing[2]


def test_solve_problem_domain_mismatch():
    dom = dam_domain()
    other = dam_domain(0.5)
    grid = geometry.build_grid(dom, (9, 9))
    with pytest.raises(ValueError):
        solver.solve_problem(grid, profiles.make_power(2.0), fields.make_constant_field([0.0, 1.0]), other)


def test_final_stage_plateau_names_the_stop_reason(monkeypatch):
    # a chi target that flips every sweep is a limit cycle no damping cures
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    calls = []

    def flipping_target(grid, u, eps):
        calls.append(eps)
        return np.full(grid.cell_counts, float(len(calls) % 2))

    monkeypatch.setattr(solver, "_chi_target", flipping_target)
    with pytest.raises(NonConvergenceError) as info:
        solver.solve_problem(grid, prof, f, dom)
    report = info.value.report
    message = str(info.value)
    assert "plateau" in message and "exhausted" not in message
    assert report.outer_iterations < solver.SolverConfig().max_outer
    assert f"after {report.outer_iterations} sweeps" in message
    assert f"chi change {report.final_chi_change:.3e}" in message
    assert not report.converged


def test_p3_dam_sweeps_take_one_newton_step_each(monkeypatch):
    # sweeps track the moving front with one damped step; only the warm-up
    # p=2 solve and the strict final polish take several
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    prof = profiles.make_power(3.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    sweep_steps = []
    real_newton = solver._Head.newton

    def recording_newton(head, profile, chi, max_steps):
        result = real_newton(head, profile, chi, max_steps)
        if max_steps == 1:
            sweep_steps.append(result[1])
        return result

    monkeypatch.setattr(solver._Head, "newton", recording_newton)
    pair, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    # every sweep is counted, the first one at the first stage's target too
    assert len(sweep_steps) == report.outer_iterations
    assert sweep_steps == [1] * len(sweep_steps)
    assert report.final_residual <= solver.SolverConfig().resolved(grid, prof, f).inner_tol
    assert np.max(np.abs(pair.u - dam_exact(grid))) <= grid.spacing[1]


def _p3_dam_solve_with_forcings(monkeypatch, counts):
    """The p=3 dam solve at ``counts`` nodes, with the (max_steps, rtol) of
    every CG solve it runs."""
    dom = dam_domain()
    grid = geometry.build_grid(dom, counts)
    prof = profiles.make_power(3.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    loops, forcings = [], []
    real_newton, real_pcg = solver._Head.newton, solver._pcg

    def recording_newton(head, profile, chi, max_steps):
        loops.append(max_steps)
        return real_newton(head, profile, chi, max_steps)

    def recording_pcg(apply_op, precond, rhs, rtol, maxiter):
        forcings.append((loops[-1], rtol))
        return real_pcg(apply_op, precond, rhs, rtol, maxiter)

    monkeypatch.setattr(solver._Head, "newton", recording_newton)
    monkeypatch.setattr(solver, "_pcg", recording_pcg)
    pair, report = solver.solve_problem(grid, prof, f, dom)
    inner_tol = solver.SolverConfig().resolved(grid, prof, f).inner_tol
    return pair, report, inner_tol, forcings


def test_polish_forcing_follows_the_residual_contraction(monkeypatch):
    # sweeps solve each Newton system to CG_FORCING; the strict polish
    # starts at POLISH_FORCING and then solves no tighter than its residual
    # contracts, which moves its head by less than the tolerance it meets
    pair, report, inner_tol, forcings = _p3_dam_solve_with_forcings(monkeypatch, (33, 33))
    sweeps = [rtol for steps, rtol in forcings if steps == 1]
    polish = [rtol for steps, rtol in forcings if steps > 1]
    assert report.converged and sweeps and polish
    assert all(rtol == solver.CG_FORCING for rtol in sweeps)
    assert polish[0] == solver.POLISH_FORCING
    assert all(solver.CG_FORCING <= rtol <= solver.POLISH_FORCING_MAX == 0.5 for rtol in polish)
    assert report.final_residual <= inner_tol

    monkeypatch.setattr(solver, "POLISH_FORCING", solver.CG_FORCING)
    monkeypatch.setattr(solver, "POLISH_FORCING_MAX", solver.CG_FORCING)
    pinned, pinned_report, _, pinned_forcings = _p3_dam_solve_with_forcings(monkeypatch, (33, 33))
    assert all(rtol == solver.CG_FORCING for _, rtol in pinned_forcings)
    assert pinned_report.final_residual <= inner_tol
    # the polish runs at the converged chi and never moves it
    assert np.array_equal(pinned.chi, pair.chi)
    assert np.max(np.abs(pinned.u - pair.u)) <= 1e-9


def test_p3_dam_preconditioner_applies_stay_bounded(monkeypatch):
    # a deterministic work guard: preconditioner applies, counted as calls
    # of solver.dstn as the benchmark's tracer counts them, on the 65^2 p=3
    # dam. On a 2-core box with one BLAS thread the solve takes 205, and
    # took 243 with every Newton system solved to CG_FORCING in float64;
    # roundoff moves borderline CG stops by a few
    applies = []
    real = solver.dstn
    monkeypatch.setattr(solver, "dstn", lambda x: applies.append(1) or real(x))
    _, report, inner_tol, forcings = _p3_dam_solve_with_forcings(monkeypatch, (65, 65))
    assert report.converged and report.final_residual <= inner_tol
    assert len(applies) <= 215
    # this polish takes several steps, and the later ones solve looser
    # than CG_FORCING as its residual contracts slowly
    polish = [rtol for steps, rtol in forcings if steps > 1]
    assert len(polish) > 1 and max(polish[1:]) > solver.CG_FORCING


def _count_field_calls(monkeypatch):
    """The shapes of every later call of FieldH.__call__, as a list."""
    calls, plain_call = [], fields.FieldH.__call__

    def counting_call(self, x):
        calls.append(x.shape)
        return plain_call(self, x)

    monkeypatch.setattr(fields.FieldH, "__call__", counting_call)
    return calls


def test_solve_evaluates_the_field_once(monkeypatch):
    # H is fixed for a solve: once on each axis's faces and once on cells,
    # however many sweeps, Newton steps and residuals the solve takes
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])
    plain_pair, plain_report = solver.solve_problem(grid, profiles.make_power(2.0), f, dom)
    calls = _count_field_calls(monkeypatch)
    pair, report = solver.solve_problem(grid, profiles.make_power(2.0), f, dom)
    assert report.outer_iterations > 1
    assert len(calls) == grid.dim + 1
    assert np.array_equal(pair.u, plain_pair.u) and np.array_equal(pair.chi, plain_pair.chi)
    assert report.energy == plain_report.energy


def test_solver_config_has_one_field_per_solver_key():
    # every knob of the solve is a config key; the rest are module constants
    keys = {name[len("solver."):] for name in config.SCHEMA if name.startswith("solver.")}
    assert {fld.name for fld in dataclasses.fields(solver.SolverConfig)} == keys
    assert len(keys) == 6


def test_solve_report_ends_with_the_energy_of_the_published_pair(tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    cfg = config.load(path)
    grid = cfg.grid(cfg.resolution)
    # the CSVs hold each float in repr, so they read back to the published pair
    u = np.loadtxt(os.path.join(out, "u.csv"), delimiter=",", skiprows=1)[:, -1]
    chi = np.loadtxt(os.path.join(out, "chi.csv"), delimiter=",", skiprows=1)[:, -1]
    value = solver.energy(
        grid, cfg.profile, cfg.fieldh, u.reshape(grid.counts), chi.reshape(grid.cell_counts)
    )
    with open(os.path.join(out, "solve_report.txt"), encoding="utf-8") as fh:
        last = fh.read().splitlines()[-1]
    assert last == f"energy of the published pair: {value:.12e}"


# --- nested iteration: wide stages on coarser nested grids --------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_prolongation_reproduces_multilinear_node_fields(dim):
    lower, upper = [0.0] * dim, [1.0] * dim
    dom = geometry.box_domain(lower, upper, [], geometry.BoundaryData("zero"), 1.0)
    coarse = geometry.build_grid(dom, (5, 9, 3)[:dim])
    fine = geometry.build_grid(dom, (9, 17, 5)[:dim])

    def multilinear(x):
        # every product of distinct coordinates, each with its own weight
        out = 0.25 + 0.0 * x[..., 0]
        for mask in range(1, 2**dim):
            term = 1.0 + mask / 8.0
            for k in range(dim):
                if mask >> k & 1:
                    term = term * (x[..., k] - 0.375 * k)
            out = out + term
        return out

    prolonged = solver._prolong_nodes(multilinear(coarse.nodes()))
    assert prolonged.shape == fine.counts
    assert np.max(np.abs(prolonged - multilinear(fine.nodes()))) <= 1e-14


def test_injection_keeps_the_cell_integral_of_chi():
    dom = dam_domain()
    coarse = geometry.build_grid(dom, (9, 17))
    fine = geometry.build_grid(dom, (17, 33))
    chi = np.random.default_rng(5).uniform(0.0, 1.0, coarse.cell_counts)
    injected = solver._inject_cells(chi)
    assert injected.shape == fine.cell_counts
    assert injected[1::2, 0::2][3, 5] == chi[3, 5]
    integral = np.sum(chi) * coarse.cell_volume
    assert abs(np.sum(injected) * fine.cell_volume - integral) <= 1e-14 * integral


def test_fine_dam_runs_each_stage_on_the_grid_its_width_admits():
    # the coarsest nested grid whose spacing is at most the stage width,
    # and the fine grid for the final width
    dom = dam_domain()
    grid = geometry.build_grid(dom, (257, 257))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    cfg = solver.SolverConfig().resolved(grid, prof, f)
    stages = solver._penalization_stages(cfg.eps, dom.m_ceiling)
    nested = (257, 129, 65, 33, 17, 9, 5, 3)
    predicted = [min((n for n in nested if 1.0 / (n - 1) <= eps), default=257)
                 for eps in stages[:-1]] + [257]
    assert predicted[:4] == [33, 65, 129, 257]
    assigned = [g.counts for g in solver._stage_grids(grid, stages)]
    assert assigned == [(n, n) for n in predicted]
    assert all(a[0] <= b[0] for a, b in zip(assigned, assigned[1:]))
    pair, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    assert list(report.grid_sweeps) == [(n, n) for n in dict.fromkeys(predicted)]
    assert sum(report.grid_sweeps.values()) == report.outer_iterations
    per_grid = " ".join(f"{n}x{n}:{report.grid_sweeps[(n, n)]}" for n in dict.fromkeys(predicted))
    assert f"sweeps per grid: {per_grid}" in report.summary_lines()
    assert "stalled sweeps: 0" in report.summary_lines()
    assert pair.u.shape == grid.counts and pair.chi.shape == grid.cell_counts
    assert np.max(np.abs(pair.u - dam_exact(grid))) <= grid.spacing[1]


def test_each_grid_of_a_solve_evaluates_the_field_once(monkeypatch):
    # H is fixed for a solve: once on each axis's faces of every grid the
    # solve runs on, and once on the final grid's cells for the energy of the
    # published pair, however many sweeps, Newton steps and residuals it takes
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    f = fields.make_constant_field([0.0, 1.0])
    plain_pair, plain_report = solver.solve_problem(grid, profiles.make_power(2.0), f, dom)
    calls = _count_field_calls(monkeypatch)
    pair, report = solver.solve_problem(grid, profiles.make_power(2.0), f, dom)
    assert report.converged and list(report.grid_sweeps) == [(33, 33), (65, 65)]
    assert all(n > 1 for n in report.grid_sweeps.values())
    faces = [(32, 33, 2), (33, 32, 2), (64, 65, 2), (65, 64, 2)]
    assert calls == faces + [(64, 64, 2)]
    assert np.array_equal(pair.u, plain_pair.u) and np.array_equal(pair.chi, plain_pair.chi)
    assert report.energy == plain_report.energy


def test_odd_cell_count_never_coarsens():
    # 96 cells along y would halve, 97 along x cannot: the solve runs on its
    # own grid only, although its wide stages would admit a coarser one
    dom = dam_domain()
    grid = geometry.build_grid(dom, (98, 97))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    assert solver._nested_grids(grid) == [grid]
    cfg = solver.SolverConfig().resolved(grid, prof, f)
    assert solver._penalization_stages(cfg.eps, dom.m_ceiling)[0] >= 2.0 * np.max(grid.spacing)
    _, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    assert report.grid_sweeps == {grid.counts: report.outer_iterations}
    assert f"sweeps per grid: 98x97:{report.outer_iterations}" in report.summary_lines()


def test_budget_spent_on_a_coarse_grid_names_the_stop_reason():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    cfg = solver.SolverConfig(max_outer=3)
    with pytest.raises(NonConvergenceError, match="exhausted 3 iterations") as info:
        solver.solve_problem(grid, profiles.make_power(2.0), fields.make_constant_field([0.0, 1.0]), dom, cfg)
    report = info.value.report
    assert report.grid_sweeps == {(33, 33): 3} and not report.converged


# --- face kernel against the stacked formulas it replaced --------------------
# The references below are the solver's earlier formulas, which stack each
# face gradient and reduce over its trailing component axis. The kernel must
# reproduce them bit for bit.


def _normal_fluxes(grid, profile, faces, drift):
    """Face fluxes a(|G|) G_k/|G| + drift_k on the axis-k faces, per axis."""
    return [f + d for f, d in zip(solver._diffusive_fluxes(grid, profile, faces), drift)]


def _stacked_normal_fluxes(grid, profile, u, drift):
    grads = geometry.gradient_at_faces(grid, u)
    fluxes = []
    for k in range(grid.dim):
        g = grads[k]
        mag = np.sqrt(np.sum(g * g, axis=-1))
        scale = np.zeros_like(mag)
        pos = mag > 0.0
        scale[pos] = profile.a(mag[pos]) / mag[pos]
        f = scale * g[..., k]
        f += drift[k]
        fluxes.append(f)
    return fluxes


def _stacked_residual(grid, profile, fieldh, u, chi):
    drift = solver._drift_fluxes(grid, chi, solver._face_field_values(grid, fieldh))
    fluxes = _stacked_normal_fluxes(grid, profile, u, drift)
    out = np.zeros(grid.counts)
    vol = grid.cell_volume
    for k in range(grid.dim):
        inner = [slice(None)] * grid.dim
        inner[k] = slice(1, -1)
        out[tuple(inner)] += np.diff(fluxes[k], axis=k) / grid.spacing[k] * vol
    out[grid.boundary_mask()] = 0.0
    return out


def _stacked_conductances(grid, profile, grads, mu, rel_floor):
    cond = []
    cmax = 0.0
    for k in range(grid.dim):
        g = grads[k]
        mag2 = np.sum(g * g, axis=-1)
        m = np.sqrt(mag2 + mu * mu)
        dn2 = (g[..., k] / m) ** 2
        c = profile.da(m) * dn2 + profile.a(m) / m * (1.0 - dn2)
        cmax = max(cmax, float(np.max(c)))
        cond.append(c)
    return [np.maximum(c, rel_floor * cmax) for c in cond]


def _stacked_energy(grid, profile, fieldh, u, chi):
    dim = grid.dim
    comps = []
    for k in range(dim):
        g = np.diff(u, axis=k) / grid.spacing[k]
        for j in range(dim):
            if j == k:
                continue
            sl0 = [slice(None)] * dim
            sl1 = [slice(None)] * dim
            sl0[j] = slice(None, -1)
            sl1[j] = slice(1, None)
            g = 0.5 * (g[tuple(sl0)] + g[tuple(sl1)])
        comps.append(g)
    grad = np.stack(comps, axis=-1)
    mag = np.sqrt(np.sum(grad * grad, axis=-1))
    hcells = fieldh(grid.cell_centers())
    dens = profile.big_a(mag) + chi * np.sum(hcells * grad, axis=-1)
    return float(np.sum(dens) * grid.cell_volume)


_KERNEL_PROFILES = {
    "power2": lambda: profiles.make_power(2.0),
    "power3": lambda: profiles.make_power(3.0),
    "piecewise": lambda: profiles.make_piecewise(0.5, 2.0, 0.7),
    "logpower": lambda: profiles.make_logpower(1.0, 2.0, 1.0),
}


def _kernel_case(dim):
    lower, upper = [0.0] * dim, [1.0] * dim
    dom = geometry.box_domain(
        lower, upper, ["xmax"], geometry.BoundaryData("hydrostatic", (0.6,)), 0.6
    )
    grid = geometry.build_grid(dom, (17, 13) if dim == 2 else (9, 8, 7))
    rng = np.random.default_rng(dim)
    nodes = grid.nodes()
    u = 0.6 - 0.5 * nodes[..., -1] + 0.1 * np.sin(4.0 * nodes[..., 0])
    u += 1e-3 * rng.standard_normal(grid.counts)
    # a constant patch leaves whole faces with a zero gradient
    u[tuple(slice(1, 6) for _ in range(dim))] = 0.3
    chi = rng.uniform(0.0, 1.0, grid.cell_counts)
    coeff = 0.1 * np.eye(dim) + 0.03 * rng.uniform(-1.0, 1.0, (dim, dim))
    fieldh = fields.make_affine_field(coeff, [0.0] * (dim - 1) + [1.0], dom)
    return grid, fieldh, u, chi


@pytest.mark.parametrize("name", sorted(_KERNEL_PROFILES))
@pytest.mark.parametrize("dim", [2, 3])
def test_face_kernel_matches_the_stacked_formulas_bit_for_bit(dim, name):
    prof = _KERNEL_PROFILES[name]()
    grid, fieldh, u, chi = _kernel_case(dim)
    mu, floor = 1e-8, 1e-6
    ref_res = _stacked_residual(grid, prof, fieldh, u, chi)
    ref_cond = _stacked_conductances(grid, prof, geometry.gradient_at_faces(grid, u), mu, floor)
    ref_energy = _stacked_energy(grid, prof, fieldh, u, chi)
    zero_drift = [np.zeros(c.shape) for c in ref_cond]
    with np.errstate(all="raise"):
        faces = geometry.face_gradient_components(grid, u)
        res = solver.residual(grid, prof, fieldh, u, chi)
        res_given = solver.residual(
            grid, prof, fieldh, u, chi, diffusive=solver._diffusive_fluxes(grid, prof, faces)
        )
        cond = solver._conductances(grid, prof, faces, mu, floor)
        val = solver.energy(grid, prof, fieldh, u, chi)
        fluxes = _normal_fluxes(grid, prof, faces, zero_drift)
    assert np.array_equal(res, ref_res)
    assert np.array_equal(res_given, ref_res)
    assert all(np.array_equal(c, r) for c, r in zip(cond, ref_cond))
    assert val == ref_energy
    zero_faces = 0
    for comps, flux in zip(faces, fluxes):
        flat = np.all([c == 0.0 for c in comps], axis=0)
        zero_faces += int(np.sum(flat))
        assert np.all(flux[flat] == 0.0)
    assert zero_faces > 0


def test_newton_steps_build_one_face_gradient_per_residual(monkeypatch):
    # the accepted trial's face gradient serves the next Newton operator
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    prof = profiles.make_power(3.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    builds, residuals = [], []
    real_build, real_residual = geometry.face_gradient_components, solver.residual

    def counting_build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    def counting_residual(*args, **kwargs):
        residuals.append(1)
        return real_residual(*args, **kwargs)

    monkeypatch.setattr(geometry, "face_gradient_components", counting_build)
    monkeypatch.setattr(solver, "residual", counting_residual)
    pair, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    assert report.inner_iterations > 0
    assert 0 < len(builds) <= len(residuals)


# --- the head carried across sweeps -------------------------------------------
# A sweep starts from the face gradient and diffusive flux of the head the
# last sweep accepted, and a solve builds its invariants once. The padded
# average below is the chi face average the pad-free one replaced.


def _padded_face_chi(grid, chi, k):
    out = np.asarray(chi, dtype=float)
    for j in range(grid.dim):
        if j == k:
            continue
        pad = [(0, 0)] * out.ndim
        pad[j] = (1, 1)
        padded = np.pad(out, pad, mode="edge")
        sl0 = [slice(None)] * out.ndim
        sl1 = [slice(None)] * out.ndim
        sl0[j] = slice(None, -1)
        sl1[j] = slice(1, None)
        out = 0.5 * (padded[tuple(sl0)] + padded[tuple(sl1)])
    return out


@pytest.mark.parametrize("name", sorted(_KERNEL_PROFILES))
@pytest.mark.parametrize("dim", [2, 3])
def test_carried_head_matches_a_head_built_from_u_bit_for_bit(dim, name):
    prof = _KERNEL_PROFILES[name]()
    grid, fieldh, u, chi = _kernel_case(dim)
    new_chi = np.random.default_rng(7 + dim).uniform(0.0, 1.0, grid.cell_counts)
    with np.errstate(all="raise"):
        hface = solver._face_field_values(grid, fieldh)
        face_chi = [solver._face_chi(grid, new_chi, k) for k in range(dim)]
        faces = geometry.face_gradient_components(grid, u)
        diffusive = solver._diffusive_fluxes(grid, prof, faces)
        carried = solver.residual(
            grid, prof, fieldh, u, new_chi, solver._drift_fluxes(grid, new_chi, hface),
            diffusive=diffusive,
        )
        built = solver.residual(grid, prof, fieldh, u, new_chi)
    assert all(
        np.array_equal(c, _padded_face_chi(grid, new_chi, k)) for k, c in enumerate(face_chi)
    )
    assert np.array_equal(carried, built)
    assert np.array_equal(built, _stacked_residual(grid, prof, fieldh, u, new_chi))


def _count_head_builds(monkeypatch, prof):
    """Solve the 17^2 dam under ``prof``, counting the face normal
    difference builds, the full face gradient builds and the distinct
    heads the residual sees."""
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    normal_builds, full_builds, heads = [], [], set()
    real_normals = geometry.face_normal_differences
    real_build, real_residual = geometry.face_gradient_components, solver.residual

    def counting_normals(*args, **kwargs):
        normal_builds.append(1)
        return real_normals(*args, **kwargs)

    def counting_build(*args, **kwargs):
        full_builds.append(1)
        return real_build(*args, **kwargs)

    def recording_residual(grid, profile, fieldh, u, *args, **kwargs):
        heads.add(np.asarray(u).tobytes())
        return real_residual(grid, profile, fieldh, u, *args, **kwargs)

    monkeypatch.setattr(geometry, "face_normal_differences", counting_normals)
    monkeypatch.setattr(geometry, "face_gradient_components", counting_build)
    monkeypatch.setattr(solver, "residual", recording_residual)
    pair, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged and report.outer_iterations > 1
    return len(normal_builds), len(full_builds), len(heads)


def test_solve_builds_one_face_gradient_per_head_iterate(monkeypatch):
    # a sweep's first residual reuses the accepted head's face gradient, so
    # only a new head value (the boundary data, then each trial) builds its
    # normal differences; the p=3 law adds the transverse components of each
    # of its trials, and of the last head of the linear warm-up. The energy
    # of the published pair builds one more set of normal differences.
    normal_builds, full_builds, heads = _count_head_builds(monkeypatch, profiles.make_power(3.0))
    assert normal_builds == heads + 1
    assert 0 < full_builds < heads


def test_linear_law_solve_builds_only_normal_differences(monkeypatch):
    normal_builds, full_builds, heads = _count_head_builds(monkeypatch, profiles.make_power(2.0))
    assert full_builds == 0
    assert normal_builds == heads + 1  # one for the published pair's energy


def test_stalled_sweep_is_counted(monkeypatch):
    # a planted stall: while one sweep runs, every trial head's face
    # gradient is inflated, so no damping passes the Armijo test
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    _, plain = solver.solve_problem(grid, prof, f, dom)
    assert plain.stalled_sweeps == 0
    sweeps = []
    real_target, real_build = solver._chi_target, geometry.face_normal_differences

    def counting_target(*args):
        sweeps.append(1)
        return real_target(*args)

    def inflated_build(grid, u):
        normals = real_build(grid, u)
        if len(sweeps) == 4:
            normals = [1e3 * d for d in normals]
        return normals

    monkeypatch.setattr(solver, "_chi_target", counting_target)
    # the linear law's trial heads build only their normal differences
    monkeypatch.setattr(geometry, "face_normal_differences", inflated_build)
    _, report = solver.solve_problem(grid, prof, f, dom)
    assert report.stalled_sweeps == 1


# --- DST-I by cached sine matrices --------------------------------------------
# scipy's transform is the reference; the package itself imports no scipy.

DST_SHAPES = [(1,), (2, 3), (95, 95), (96, 127), (255, 255), (7, 8, 9)]


@pytest.mark.parametrize("shape", DST_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_dstn_matches_scipy_and_inverts_itself(shape):
    from scipy import fft

    x = np.random.default_rng(len(shape) + sum(shape)).standard_normal(shape)
    y = solver.dstn(x)
    ref = fft.dstn(x, type=1, norm="ortho")
    assert y.shape == shape
    assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(solver.idstn(y) - x)) <= 1e-13 * np.max(np.abs(x))


def test_preconditioner_apply_calls_each_transform_once(monkeypatch):
    # perfbench's tracer counts preconditioner applies as calls of
    # solver.dstn, looked up through the module globals
    grid = geometry.build_grid(dam_domain(), (17, 21))
    calls = []
    for name in ("dstn", "idstn"):
        real = getattr(solver, name)
        monkeypatch.setattr(
            solver, name, lambda x, name=name, real=real: calls.append(name) or real(x)
        )
    precond = solver._SpectralPreconditioner(grid, 1.0, solver._laplacian_eigenvalues(grid))
    r = np.random.default_rng(2).standard_normal(tuple(n - 2 for n in grid.counts))
    precond.apply(r)
    assert calls == ["dstn", "idstn"]


@pytest.mark.parametrize("shape", DST_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_dstn_keeps_float32_in_float32(shape):
    from scipy import fft

    x = np.random.default_rng(len(shape) + sum(shape)).standard_normal(shape).astype(np.float32)
    y = solver.dstn(x)
    ref = fft.dstn(x.astype(float), type=1, norm="ortho")
    assert y.dtype == np.float32 and y.shape == shape
    # float32 roundoff, which grows slowly with the transform's length
    assert np.max(np.abs(y - ref)) <= 2e-6 * np.max(np.abs(ref))


def test_scaled_preconditioner_returns_float64_near_the_float64_inverse():
    from scipy import fft

    grid = geometry.build_grid(dam_domain(), (65, 49))
    lap = solver._laplacian_eigenvalues(grid)
    # conductances spanning four decades, as across a degenerate zone
    rng = np.random.default_rng(4)
    cond = [10.0 ** rng.uniform(-2.0, 2.0, grid.counts[:k] + (grid.counts[k] - 1,) + grid.counts[k + 1:])
            for k in range(grid.dim)]
    scale = solver._diagonal_scaling(grid, solver._face_weights(grid, cond))
    r = rng.standard_normal(lap.shape)
    v = solver._SpectralPreconditioner(grid, 1.0, lap, scale).apply(r)
    ref = scale * fft.idstn(
        fft.dstn(scale * r, type=1, norm="ortho") / (grid.cell_volume * lap), type=1, norm="ortho"
    )
    assert v.dtype == np.float64
    assert np.max(np.abs(v - ref)) <= 1e-5 * np.max(np.abs(ref))


# --- the Newton linear solve by flux law --------------------------------------
# For a(t) = t the Newton operator is the constant-coefficient Laplacian, so
# its direction is one exact DST solve; every other law runs CG under the
# diagonally scaled DST inverse.


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_law_flux_is_the_normal_gradient_bit_for_bit(dim):
    prof = profiles.make_power(2.0)
    grid, _, u, _ = _kernel_case(dim)
    with np.errstate(all="raise"):
        faces = geometry.face_gradient_components(grid, u)
        linear = geometry.face_normal_differences(grid, u)
        general = solver._diffusive_fluxes(grid, prof, faces)
    assert solver._is_linear(prof)
    assert all(np.array_equal(a, b) for a, b in zip(linear, general))
    assert all(np.array_equal(a, comps[k]) for k, (a, comps) in enumerate(zip(linear, faces)))
    zero_faces = sum(
        int(np.sum(np.all([c == 0.0 for c in comps], axis=0))) for comps in faces
    )
    assert zero_faces > 0


@pytest.mark.parametrize("name", sorted(_KERNEL_PROFILES))
def test_only_the_linear_law_is_linear(name):
    assert solver._is_linear(_KERNEL_PROFILES[name]()) == (name == "power2")


def test_linear_law_solve_skips_cg_and_conductances(monkeypatch):
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    f = fields.make_constant_field([0.0, 1.0])

    def refuse(*args, **kwargs):
        raise AssertionError("the linear law took the CG path")

    monkeypatch.setattr(solver, "_pcg", refuse)
    monkeypatch.setattr(solver, "_conductances", refuse)
    pair, report = solver.solve_problem(grid, profiles.make_power(2.0), f, dom)
    assert report.converged and report.inner_iterations > report.outer_iterations


def test_degenerate_law_solve_runs_cg_on_the_conductances(monkeypatch):
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))
    prof = profiles.make_power(3.0)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    calls = []
    real_pcg, real_cond = solver._pcg, solver._conductances

    def counting_pcg(*args, **kwargs):
        calls.append("pcg")
        return real_pcg(*args, **kwargs)

    def counting_cond(*args, **kwargs):
        calls.append("cond")
        return real_cond(*args, **kwargs)

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    monkeypatch.setattr(solver, "_conductances", counting_cond)
    pair, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    # the warm-up solve is linear; every later Newton step runs CG
    assert 0 < calls.count("pcg") == calls.count("cond") < report.inner_iterations


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_linear_direction_matches_the_cg_direction(dim):
    # the CG path on the linear law: conductances, their median as the
    # preconditioner coefficient, CG at the default forcing
    prof = profiles.make_power(2.0)
    grid, fieldh, u, _ = _kernel_case(dim)
    cfg = solver.SolverConfig().resolved(grid, prof, fieldh)
    head = solver._Head(grid, fieldh, cfg, u)
    res = np.random.default_rng(11 + dim).standard_normal(grid.counts)
    boundary = grid.boundary_mask()
    res[boundary] = 0.0
    mu = solver.MU_FACTOR * grid.domain.m_ceiling / grid.domain.delta
    cond = solver._conductances(grid, prof, head.faces, mu, solver.COND_FLOOR)
    c_ref = float(np.median(np.concatenate([c.ravel() for c in cond])))
    weights = solver._face_weights(grid, cond)
    precond = solver._SpectralPreconditioner(
        grid, max(c_ref, solver.COND_FLOOR), solver._laplacian_eigenvalues(grid)
    )
    applies = []

    def apply_op(v):
        applies.append(1)
        return solver._neg_jacobian_apply(weights, v, head.padded)

    cg = solver._pcg(apply_op, precond.apply, res[head.inner], solver.CG_FORCING, solver.CG_MAXITER)
    exact = np.zeros(grid.counts)
    exact[head.inner] = head.linear_inverse.apply(res[head.inner])
    assert len(applies) == 1
    assert np.max(np.abs(exact[head.inner] - cg)) <= 1e-12 * np.max(np.abs(cg))
    assert np.all(exact[boundary] == 0.0)
    assert np.all(head.padded[boundary] == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_diagonal_scaling_reads_the_operator_diagonal(dim):
    grid, _, _, _ = _kernel_case(dim)
    rng = np.random.default_rng(5 + dim)
    cond = [rng.uniform(1e-3, 1e2, grid.counts[:k] + (grid.counts[k] - 1,) + grid.counts[k + 1:])
            for k in range(dim)]
    inner = tuple(slice(1, -1) for _ in range(dim))
    weights = solver._face_weights(grid, cond)
    padded = np.zeros(grid.counts)
    diag = np.zeros(tuple(n - 2 for n in grid.counts))
    for idx in np.ndindex(diag.shape):
        e = np.zeros(diag.shape)
        e[idx] = 1.0
        diag[idx] = solver._neg_jacobian_apply(weights, e, padded)[idx]
    d_ref = sum(2.0 * grid.cell_volume / h**2 for h in grid.spacing)
    scale = solver._diagonal_scaling(grid, weights)
    assert scale.shape == grid.boundary_mask()[inner].shape
    assert np.allclose(scale, np.sqrt(d_ref / diag), rtol=1e-13, atol=0.0)


def _cg_iterations(grid, weights, precond, rhs, rtol):
    applies = []
    padded = np.zeros(grid.counts)

    def apply_op(v):
        applies.append(1)
        return solver._neg_jacobian_apply(weights, v, padded)

    x = solver._pcg(apply_op, precond.apply, rhs, rtol, 5000)
    r = rhs - solver._neg_jacobian_apply(weights, x, padded)
    return len(applies), float(np.linalg.norm(r)) / float(np.linalg.norm(rhs))


def test_scaled_dst_needs_fewer_cg_iterations_on_varying_conductances():
    dom = dam_domain()
    grid = geometry.build_grid(dom, (65, 65))
    lap = solver._laplacian_eigenvalues(grid)
    unit = [np.ones(grid.counts[:k] + (grid.counts[k] - 1,) + grid.counts[k + 1:])
            for k in range(grid.dim)]
    assert np.all(solver._diagonal_scaling(grid, solver._face_weights(grid, unit)) == 1.0)
    # conductances spanning four decades, as across a degenerate zone
    cond = []
    for k in range(grid.dim):
        axes = solver._face_point_axes(grid, k)
        x, y = np.meshgrid(*axes, indexing="ij")
        cond.append(10.0 ** (2.0 * np.sin(3.0 * x) * np.cos(2.0 * y) + 2.0 * y))
    weights = solver._face_weights(grid, cond)
    rhs = np.random.default_rng(3).standard_normal(grid.counts)[1:-1, 1:-1]
    rtol = 1e-8
    plain = solver._SpectralPreconditioner(grid, 1.0, lap)
    scaled = solver._SpectralPreconditioner(grid, 1.0, lap, solver._diagonal_scaling(grid, weights))
    plain_its, plain_rel = _cg_iterations(grid, weights, plain, rhs, rtol)
    scaled_its, scaled_rel = _cg_iterations(grid, weights, scaled, rhs, rtol)
    assert plain_rel <= 10 * rtol and scaled_rel <= 10 * rtol
    assert scaled_its < plain_its


# --- Anderson-mixed chi sweeps and the fixed-point stop -------------------------
# The final stage stops on max |chi - target(u)| <= outer_tol; a relaxed L1
# step below outer_tol is no evidence of convergence.


def _linear_contraction(n, seed):
    """T(x) = x* + Q diag(lam) Q^T (x - x*): a contraction with eigenvalues
    up to 0.97 and its fixed point x* inside (0, 1)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(0.0, 0.97, n)
    fixed = rng.uniform(0.3, 0.7, n)
    return (lambda x: fixed + q @ (lam * (q.T @ (x - fixed)))), fixed


def _mixed_steps(target, x, relax, tol, mixer=None):
    for sweep in range(2000):
        f = target(x) - x
        if np.max(np.abs(f)) <= tol:
            return sweep, x
        x = mixer.step(x, f, relax) if mixer is not None else np.clip(x + relax * f, 0.0, 1.0)
    return None, x


def test_anderson_mixing_beats_relaxation_on_a_linear_contraction():
    target, fixed = _linear_contraction(40, 3)
    start = np.full(40, 0.5)
    plain, _ = _mixed_steps(target, start, 0.5, 1e-10)
    mixer = solver._Anderson(solver.ANDERSON_DEPTH, (40,))
    mixed, x = _mixed_steps(target, start, 0.5, 1e-10, mixer)
    assert mixer.pairs.dtype == np.float32 and mixer.pairs.shape == (5, 2, 40)
    assert plain is not None and mixed is not None
    assert 3 * mixed < plain
    # a residual r bounds the error by r / (1 - 0.97) on this contraction
    assert np.max(np.abs(x - fixed)) <= 1e-10 / 0.03


def test_anderson_restarts_when_the_residual_grows_and_clips_to_the_unit_interval():
    rng = np.random.default_rng(4)
    mixer = solver._Anderson(3, (6,))
    chi = rng.uniform(0.2, 0.8, 6)
    for scale in (1e-1, 1e-2, 1e-3, 1e-4):
        chi = mixer.step(chi, scale * rng.uniform(-1.0, 1.0, 6), 0.5)
    assert mixer.rows == 3
    grown = np.array([5.0, -5.0, 1.0, -1.0, 0.5, 0.0])
    stepped = mixer.step(chi, grown, 0.5)
    # the history is gone, so the step is the plain relaxed one, clipped
    assert mixer.rows == 0
    assert np.array_equal(stepped, np.clip(chi + 0.5 * grown, 0.0, 1.0))
    assert stepped[0] == 1.0 and stepped[1] == 0.0
    assert mixer.reverses(-grown) and not mixer.reverses(grown)


def test_tiny_relaxation_is_not_reported_converged():
    # a planted slow sweep: each relaxed chi step is far below outer_tol in
    # L1, which the old stop rule took for convergence, while chi is still
    # far from the fixed point
    dom = dam_domain()
    grid = geometry.build_grid(dom, (17, 17))  # a single stage, on this grid
    prof, f = profiles.make_power(2.0), fields.make_constant_field([0.0, 1.0])
    for budget in (1, 2, 30):
        cfg = solver.SolverConfig(relax=1e-7, max_outer=budget)
        with pytest.raises(NonConvergenceError, match=f"exhausted {budget} iterations") as info:
            solver.solve_problem(grid, prof, f, dom, cfg)
        report = info.value.report
        assert not report.converged
        if budget == 2:
            # the second sweep is the first relaxed step: the old rule stopped here
            assert report.final_chi_change <= cfg.outer_tol
        assert report.fixed_point_residual > 1e3 * cfg.outer_tol
        assert f"fixed-point residual {report.fixed_point_residual:.3e}" in str(info.value)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_published_pair_meets_the_fixed_point_stop(p):
    dom = dam_domain()
    grid = geometry.build_grid(dom, (33, 33))
    prof = profiles.make_power(p)
    f = fields.make_constant_field([0.0, float(prof.a(1.0))])
    pair, report = solver.solve_problem(grid, prof, f, dom)
    cfg = solver.SolverConfig().resolved(grid, prof, f)
    residual = np.max(np.abs(pair.chi - solver._chi_target(grid, pair.u, cfg.eps)))
    assert report.converged
    assert report.fixed_point_residual == residual <= cfg.outer_tol
    assert f"fixed-point residual (max norm): {residual:.6e}" in report.summary_lines()


# --- wide-stage hand-off: a stage ends once its front is placed ----------------


def test_dam_chi_is_within_five_outer_tol_of_its_tight_reference(monkeypatch):
    # the reference places each wide stage's front to a fifth of the
    # hand-off's travel (0.08 of the next width) and stops at outer_tol 1e-13
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "dam.cfg")
    cfg = config.load(path)
    grid = cfg.grid(cfg.resolution)
    pair, _ = solver.solve_problem(grid, cfg.profile, cfg.fieldh, cfg.domain, cfg.solver_config)
    monkeypatch.setattr(solver, "HANDOFF_TRAVEL", 0.08)
    tight_cfg = dataclasses.replace(cfg.solver_config, outer_tol=1e-13)
    tight, _ = solver.solve_problem(grid, cfg.profile, cfg.fieldh, cfg.domain, tight_cfg)
    assert np.max(np.abs(pair.chi - tight.chi)) <= 5 * cfg.solver_config.outer_tol
    # the head's error against (0.6 - y)+ is the reference's, up to roundoff
    tight_err = np.max(np.abs(tight.u - dam_exact(grid)))
    assert np.max(np.abs(pair.u - dam_exact(grid))) <= 1.001 * tight_err


def test_fine_dam_hands_off_each_wide_stage_once_its_front_is_placed():
    # fine-grid sweeps at 257x257: 13 with the hand-off, 36 when each wide
    # stage places its front to 0.08 of the next width
    dom = dam_domain()
    grid = geometry.build_grid(dom, (257, 257))
    prof = profiles.make_power(2.0)
    f = fields.make_constant_field([0.0, 1.0])
    eps = solver.SolverConfig().resolved(grid, prof, f).eps
    stages = solver._penalization_stages(eps, dom.m_ceiling)
    _, report = solver.solve_problem(grid, prof, f, dom)
    assert report.converged
    assert report.grid_sweeps[grid.counts] <= 18
    assert list(report.stage_sweeps) == stages
    assert sum(report.stage_sweeps.values()) == report.outer_iterations
    lines = report.summary_lines()
    per_stage = " ".join(f"{e:.3e}:{n}" for e, n in report.stage_sweeps.items())
    at = lines.index(f"sweeps per stage: {per_stage}")
    assert lines[at - 1].startswith("sweeps per grid: ")
