"""Command-line front end.

Every subcommand reads one config file, writes CSV files plus a plain-text
summary into the output directory, and exits with: 0 on success, 2 on
solver non-convergence, 3 on certification failure, 4 on config and
usage errors.

The certificate modules (barriers, free_boundary, harness, orbits) are
imported inside the commands that use them, so a solve loads none of them.
"""

import argparse
import functools
import os
import random
import sys

import numpy as np

from alap import config, csvio, fields, geometry
from alap import profiles as profiles_mod
from alap import solver as solver_mod
from alap.errors import ConfigError, DryBallError, NonConvergenceError

EXIT_OK = 0
EXIT_NONCONVERGENCE = 2
EXIT_CERTIFICATION = 3
EXIT_CONFIG = 4


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path!r}: {exc}") from exc


def _load(args):
    # --out is made first, so that a config error leaves it in place and empty
    if args.out is not None:
        _make_dir(args.out)
    cfg = config.load(args.config)
    if args.seed is not None:
        cfg.seed = config.parse("seed", [str(args.seed)], source="--seed")
    if args.out is not None:
        cfg.out_dir = args.out
    _make_dir(cfg.out_dir)
    return cfg


def _write_summary(cfg, name, lines):
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(cfg, name, header, columns):
    csvio.write_csv(os.path.join(cfg.out_dir, name), header, columns)


def _require(cfg, *attrs):
    for attr in attrs:
        if getattr(cfg, attr) is None:
            raise ConfigError(f"config is missing its {attr} section")


#: the config sections of the solved pair, which every command that solves reads
_PAIR_SECTIONS = ("domain", "resolution", "profile", "fieldh")

#: config sections that ``solver.solve_problem`` reads, through the grid,
#: profile, field, domain and solver config built from them
_SOLVE_SECTIONS = ("domain", "grid", "profile", "field", "solver")

#: the last solve of this process, ``(key, (grid, pair, report))``
_last_solve = None


def _solved(cfg, resolution=None):
    """(grid, pair, report) of the solve of ``cfg`` at ``resolution``
    (default: the config's).

    Commands run in one process on the same config and resolution share one
    solve: a single-slot memo keyed by the resolution and the raw entries of
    the sections the solve reads. Seed, output directory and certificate
    knobs do not enter the key. The key also holds the solve function
    itself, so a pair is reused only while the function that made it is
    still the one bound (a wrapped or patched solver solves afresh). The
    stored pair is read-only, so no command can change the pair the next
    one certifies.
    """
    global _last_solve
    solve = solver_mod.solve_problem
    res = tuple(resolution if resolution is not None else cfg.resolution)
    key = (solve, res, tuple(sorted(
        (name, tuple(values)) for name, values in cfg.raw.items()
        if name.split(".", 1)[0] in _SOLVE_SECTIONS
    )))
    if _last_solve is not None and _last_solve[0] == key:
        return _last_solve[1]
    grid = cfg.grid(res)
    pair, report = solve(grid, cfg.profile, cfg.fieldh, cfg.domain, cfg.solver_config)
    pair.u.flags.writeable = False
    pair.chi.flags.writeable = False
    _last_solve = (key, (grid, pair, report))
    return grid, pair, report


def cmd_solve(cfg, args):
    # the stdlib generator: no command imports numpy.random
    rng = random.Random(cfg.seed)
    unit = np.array([rng.random() for _ in range(128 * cfg.domain.dim)]).reshape(128, -1)
    samples = cfg.domain.lower + unit * (cfg.domain.upper - cfg.domain.lower)
    field_rep = fields.certify_field(cfg.fieldh, cfg.domain, samples)
    _write_csv(
        cfg, "field_certification.csv",
        [f"x{k+1}" for k in range(cfg.domain.dim)]
        + [f"H{k+1}" for k in range(cfg.domain.dim)]
        + ["divH", "divH_fd", "pass"],
        [*field_rep.points.T, *field_rep.values.T, field_rep.divergence,
         field_rep.fd_divergence, field_rep.ok.astype(int)],
    )
    try:
        grid, pair, report = _solved(cfg)
    except NonConvergenceError as exc:
        if exc.report is not None:  # the counts of the solve that stalled
            _write_summary(cfg, "solve_report.txt", exc.report.summary_lines())
        raise
    coords = [f"x{k+1}" for k in range(grid.dim)]
    _write_csv(cfg, "u.csv", coords + ["u"],
               [*grid.nodes().reshape(-1, grid.dim).T, pair.u.ravel()])
    _write_csv(cfg, "chi.csv", coords + ["chi"],
               [*grid.cell_centers().reshape(-1, grid.dim).T, pair.chi.ravel()])
    _write_summary(cfg, "solve_report.txt", report.summary_lines())
    return report.constraints.passed and field_rep.passed


def cmd_check_profile(cfg, args):
    samples = np.logspace(-6, 6, 200)
    report = profiles_mod.certify_ellipticity(cfg.profile, samples)
    _write_csv(cfg, "ellipticity.csv", ["t", "ratio", "pass"],
               [report.samples, report.ratios, report.ok.astype(int)])
    _write_summary(cfg, "profile_report.txt", [
        f"family: {cfg.profile.family} {cfg.profile.params}",
        f"a0={cfg.profile.a0} a1={cfg.profile.a1}",
        f"ratio range: [{report.min_ratio:.12f}, {report.max_ratio:.12f}]",
        f"pass: {report.passed}",
    ])
    return report.passed


def cmd_check_barriers(cfg, args):
    from alap import barriers

    prof, dom = cfg.profile, cfg.domain
    radius = cfg["barriers.radius"]
    margin_frac = cfg["barriers.margin"]
    floor = cfg["barriers.floor"]
    kappa_count = cfg["barriers.kappa_count"]
    scales = cfg["barriers.hopf_scales"]
    center = tuple(0.5 * (dom.lower + dom.upper))

    try:
        b = barriers.make_radial_barrier(center, radius, margin_frac * radius, floor, dom.dim, prof.a0)
    except OverflowError as exc:
        raise ConfigError(f"barriers.radius = {radius} overflows the ring: {exc}") from exc
    plan = barriers.ring_sampling_plan(b, cfg.seed)
    results = [barriers.certify_radial_inequality(b, prof, samples=plan)]

    lo, hi = barriers.hopf_kappa_range(dom.dim, prof.a0)
    valid_lo = max(lo, 0.5 * (1.0 + dom.dim / prof.a0))
    if valid_lo < hi:
        kappas = np.linspace(valid_lo + 1e-6 * (hi - valid_lo), hi - 1e-2 * (hi - valid_lo), kappa_count)
        hopf = [barriers.make_hopf_barrier(center, radius, float(k), dom.dim, prof.a0) for k in kappas]
        # every Hopf ring has this centre and radius and no collar, so one plan
        plan = barriers.ring_sampling_plan(hopf[0], cfg.seed)
        for b in hopf:
            for s in scales:
                results.append(barriers.certify_hopf_inequality(b, prof, s, samples=plan))

    # exterior sphere tangent to the bottom face, centered below it
    sphere_r = 0.2 * dom.delta
    mid = 0.5 * (dom.lower + dom.upper)
    x1 = np.array(list(mid[:-1]) + [float(dom.lower[-1]) - sphere_r])
    bb = barriers.make_boundary_barrier(
        prof, tuple(x1), sphere_r, dom.m_ceiling, cfg.fieldh.h_upper, dom.delta, dom.dim
    )
    pts = _exterior_sphere_points(dom, x1, sphere_r, cfg.seed)
    results.append(barriers.certify_boundary_supersolution(bb, prof, cfg.fieldh, pts))

    labels, *numbers = zip(*(rep.columns() for rep in results))
    _write_csv(
        cfg, "barriers.csv",
        ["barrier"] + [f"x{k+1}" for k in range(dom.dim)] + ["lhs", "rhs", "margin", "pass"],
        [[label for part in labels for label in part]] + [np.concatenate(c) for c in numbers],
    )
    _write_summary(cfg, "barriers_report.txt", [_barrier_line(rep) for rep in results])
    return all(rep.passed for rep in results)


def _barrier_line(rep):
    """A barrier's report line; margins that are not finite (a ring that
    over- or underflows float64) are counted against its points."""
    line = f"{rep.label}: pass={rep.passed} min_margin={rep.min_margin:.3e}"
    bad = int(np.sum(~np.isfinite(rep.margins)))
    return line + f" ({bad} of {len(rep.margins)} margins not finite)" if bad else line


def _exterior_sphere_points(dom, x1, sphere_r, seed):
    """The first 200 points in the box, in order, of up to 20000 draws at
    distances 1e-3 delta .. 0.999 delta from the sphere of centre ``x1``
    and radius ``sphere_r``, where the boundary barrier's inequality is
    claimed.

    Each draw takes a uniform distance, then n Gaussians for a direction
    whose last component is made non-negative (the domain side), from the
    stdlib ``random.Random(seed)``. The draws come in blocks of 1000, each
    tested with one ``Domain.contains`` call, and keep the points that
    drawing and testing one at a time keeps, bit for bit. ConfigError when
    fewer than 200 of the 20000 lie in the box.
    """
    rng = random.Random(seed)
    dist_lo, dist_hi = 1e-3 * dom.delta, 0.999 * dom.delta
    kept, count = [], 0
    for _ in range(20):
        block = np.array([[rng.uniform(dist_lo, dist_hi)]
                          + [rng.gauss(0.0, 1.0) for _ in range(dom.dim)] for _ in range(1000)])
        dist, raw = block[:, 0], block[:, 1:]
        raw[:, -1] = np.abs(raw[:, -1])  # keep samples on the domain side
        # each row's dot product with itself, as ``np.linalg.norm`` takes it
        norm = np.sqrt(raw[:, None, :] @ raw[:, :, None])[:, 0]
        pts = x1 + (sphere_r + dist)[:, None] * raw / norm
        kept.append(pts[dom.contains(pts)])
        count += len(kept[-1])
        if count >= 200:
            return np.concatenate(kept)[:200]
    raise ConfigError(f"only {count} of 20000 exterior-sphere samples lie in the domain")


def _orbit_levels(cfg, args, key):
    """Orbit levels, as a list, from --h or the config key; each must lie
    strictly inside the domain's last-coordinate range, or no orbit can start,
    and its orbits must cross the box within the time a march can follow."""
    from alap import orbits

    source, levels = ("--h", args.level) if args.level is not None else (key, cfg[key])
    levels = levels if isinstance(levels, list) else [levels]
    lo, hi = float(cfg.domain.lower[-1]), float(cfg.domain.upper[-1])
    h_lower, capacity = cfg.fieldh.h_lower, orbits.march_capacity(cfg.domain)
    for level in levels:
        if not lo < level < hi:
            raise ConfigError(f"{source} = {level} must lie strictly between {lo} and {hi}")
        if (crossing := max(hi - level, level - lo) / h_lower) >= capacity:
            raise ConfigError(
                f"{source} = {level}: h_lower = {h_lower} lets an orbit take up to "
                f"{crossing:.6g} to cross the box; a march follows it below {capacity:.6g}")
    return levels


def cmd_trace(cfg, args):
    from alap import orbits

    (level,) = _orbit_levels(cfg, args, "trace.level")
    count = cfg["trace.omega_count"]
    if args.omega_count is not None:
        count = config.parse("trace.omega_count", [str(args.omega_count)], source="--omega-count")
    dom, fieldh = cfg.domain, cfg.fieldh
    span = dom.upper - dom.lower
    omegas = np.array([dom.lower[:-1] + span[:-1] * (j + 0.5) / count for j in range(count)])
    orbit_list = orbits.integrate_orbits(fieldh, omegas, level, dom)
    times = np.array([np.linspace(orbit.t_minus, orbit.t_plus, 32) for orbit in orbit_list])
    numeric = orbits.jacobian_numeric_batch(fieldh, omegas, level, times)
    pairs = list(zip(orbit_list, times))
    points = np.concatenate([orbits.orbit_point(fieldh, o, ts) for o, ts in pairs])
    analytic = np.concatenate([orbits.jacobian_analytic(fieldh, o, ts) for o, ts in pairs])
    _write_csv(
        cfg, "trace.csv",
        [f"omega{k+1}" for k in range(dom.dim - 1)]
        + ["t"]
        + [f"x{k+1}" for k in range(dom.dim)]
        + ["jacobian_analytic", "jacobian_numeric"],
        [*np.repeat(omegas, times.shape[1], axis=0).T, times.ravel(), *points.T, analytic,
         numeric.ravel()],
    )
    gap = float(np.max(np.abs(analytic - numeric.ravel()) / np.abs(analytic)))
    gap_tol = orbits.jacobian_gap_tol(fieldh, dom, float(np.max(np.abs(times))))
    bounds = orbits.certify_jacobian_bounds(fieldh, orbit_list)
    _write_summary(cfg, "trace.txt", [
        f"level {level}: {count} orbits, {times.shape[1]} times each",
        f"jacobian gap: pass={gap <= gap_tol} max relative gap {gap:.3e} (tol {gap_tol:.3e})",
        f"jacobian bounds: pass={bounds.passed} "
        f"min -Y_h forward {bounds.min_neg_jacobian_forward:.6e} (h_lower {bounds.h_lower:.6e}), "
        f"min -Y_h {bounds.min_neg_jacobian_full:.6e}, max -Y_h {bounds.max_neg_jacobian:.6e} "
        f"({bounds.measured_upper_constant:.6e} h_upper)",
    ])
    return gap <= gap_tol and bounds.passed


def _fb_setup(cfg, args):
    """Validated fb levels and the omega grid, read before any solve: the
    cell midpoints of ``fb.omega_count`` cells along each free axis, one
    omega per entry in 2D and the tensor grid of rows, the first
    coordinate slowest, in 3D."""
    levels = _orbit_levels(cfg, args, "fb.levels")
    count = cfg["fb.omega_count"]
    dom = cfg.domain
    span = dom.upper - dom.lower
    axes = [[dom.lower[k] + span[k] * (j + 0.5) / count for j in range(count)]
            for k in range(dom.dim - 1)]
    if dom.dim == 2:
        return levels, np.array(axes[0])
    return levels, geometry.mesh(axes).reshape(-1, dom.dim - 1)


def _fb_level(cfg, grid, pair, level, omegas, lsc_tol):
    """One level of the free-boundary pass: one batch of orbits, each sampled
    once, the graph over them and its lsc certificate."""
    from alap import free_boundary, orbits

    orbit_list = orbits.OrbitFamily(cfg.fieldh, cfg.domain, level).orbits(omegas)
    samples = [free_boundary.sample_along_orbit(pair, grid, o) for o in orbit_list]
    graph = free_boundary.extract_graph(
        pair, grid, cfg.fieldh, level, omegas, cfg.domain, orbits=orbit_list, samples=samples
    )
    return orbit_list, samples, graph, free_boundary.certify_lower_semicontinuity(graph, lsc_tol)


def cmd_extract_fb(cfg, args):
    levels, omegas = _fb_setup(cfg, args)
    grid, pair, _ = _solved(cfg)
    lsc_tol = _lsc_tol(cfg, grid, pair.u)
    names = ["omega"] if omegas.ndim == 1 else [f"omega{k+1}" for k in range(omegas.shape[1])]
    parts, ok = [], True
    for level in levels:
        _, _, graph, lsc = _fb_level(cfg, grid, pair, level, omegas, lsc_tol)
        ok = ok and lsc.passed
        flags = (graph.set_empty, graph.boundary_touching, graph.identity_ok,
                 np.repeat(lsc.passed, len(omegas)))
        parts.append([np.repeat(float(level), len(omegas)), *omegas.reshape(len(omegas), -1).T,
                      graph.values]
                     + [flag.astype(int) for flag in flags])
    _write_csv(
        cfg, "free_boundary.csv",
        ["level", *names, "phi", "set_empty", "boundary_touching", "identity_ok", "lsc_pass"],
        [np.concatenate(column) for column in zip(*parts)],
    )
    return ok


def _lsc_tol(cfg, grid, u):
    """The lsc time tolerance of the solved head, the same at every level: it
    reads the largest face gradient, the root of the largest squared one."""
    from alap import free_boundary, orbits

    faces = geometry.face_gradient_components(grid, u)
    grad_max = float(np.sqrt(max(np.max(geometry.component_dot(c, c)) for c in faces)))
    return free_boundary.default_lsc_tol(
        cfg.domain.delta / orbits.STEP_DIVISOR, float(np.max(grid.spacing)), grad_max,
        cfg.fieldh.h_lower,
    )


def cmd_verify_fb(cfg, args):
    from alap import free_boundary

    levels, omegas = _fb_setup(cfg, args)
    grid, pair, report = _solved(cfg)
    rcfg = cfg.solver_config.resolved(grid, cfg.profile, cfg.fieldh)
    tol_chi = free_boundary.default_chi_monotone_tol(
        rcfg.eps, pair.eps_u, cfg.domain.m_ceiling, rcfg.outer_tol
    )
    lsc_tol = _lsc_tol(cfg, grid, pair.u)
    summary, ok = [], True
    for level in levels:
        orbit_list, samples, graph, lsc = _fb_level(cfg, grid, pair, level, omegas, lsc_tol)
        mono = free_boundary.certify_chi_monotone(pair, grid, orbit_list, tol_chi, samples=samples)
        rewet = free_boundary.certify_no_rewetting(
            pair, grid, cfg.fieldh, orbit_list, samples=samples
        )
        identity_violations = int(np.sum(~(graph.identity_ok | graph.set_empty)))
        mono_violations = int(sum(1 for up in mono.per_orbit if up > tol_chi))
        level_ok = mono.passed and rewet.passed and lsc.passed and identity_violations == 0
        ok = ok and level_ok
        summary.append(
            f"level {level}: chi_monotone={mono.passed} "
            f"(violations {mono_violations}, max uptick {mono.max_uptick:.3e}, tol {tol_chi:.3e}); "
            f"no_rewetting={rewet.passed} (violations {len(rewet.violations)}); "
            f"lsc={lsc.passed} (violations {len(lsc.violations)}); "
            f"interval_identity violations {identity_violations}"
        )
    _write_summary(cfg, "verify_fb.txt", summary)
    return ok


def _row_columns(rows, dim, points, scalars):
    """CSV columns of harness report rows: one per coordinate of each point
    field named in ``points`` (``dim`` of them, so that no rows still give
    every column), then one per field named in ``scalars``."""
    return [[getattr(row, name)[k] for row in rows] for name in points for k in range(dim)] + [
        [getattr(row, name) for row in rows] for name in scalars
    ]


def cmd_growth(cfg, args):
    from alap import harness

    dim = cfg.domain.dim
    raw_res = cfg["growth.resolutions"]
    if len(raw_res) % dim != 0:
        raise ConfigError("growth.resolutions must hold groups of one resolution per axis")
    res_list = [tuple(raw_res[i : i + dim]) for i in range(0, len(raw_res), dim)] or [cfg.resolution]
    count = cfg["growth.ball_count"]

    reports = []
    for res in res_list:
        grid, pair, _ = _solved(cfg, res)
        balls = harness.find_touching_balls(pair, grid, count)
        reports.append(harness.growth_report(pair, grid, balls, cfg.profile, cfg.fieldh))
    rows = [row for rep in reports for row in rep.rows]
    _write_csv(
        cfg, "growth.csv",
        ["resolution"] + [f"x{k+1}" for k in range(dim)] + ["r", "sup_half_ball", "ratio", "bound"],
        [[res[0] for res, rep in zip(res_list, reports) for _ in rep.rows]]
        + _row_columns(rows, dim, ("center",), ("radius", "sup_half_ball", "ratio", "bound")),
    )
    return all(rep.passed for rep in reports)


def cmd_boundary_growth(cfg, args):
    from alap import harness

    dom = cfg.domain
    face = cfg["boundary_growth.face"]
    try:
        dom.face(face)
    except ValueError as exc:
        raise ConfigError(f"boundary_growth.face = {exc}") from exc
    # the patch spans the face's dim - 1 free coordinates
    lo, hi = cfg["boundary_growth.anchor_lo"], cfg["boundary_growth.anchor_hi"]
    sphere_r, tube = cfg["boundary_growth.sphere_radius"], cfg["boundary_growth.tube_width"]
    if not np.any(harness.boundary_tube(cfg.grid(), dom, face, lo, hi, tube)[0]):
        raise ConfigError(f"boundary_growth.tube_width = {tube}, anchor_lo = {lo}, anchor_hi = "
                          f"{hi}: the tube over this patch of face {face} holds no grid node")
    try:
        harness.boundary_barrier_slope(dom, sphere_r, cfg.profile, cfg.fieldh)
    except ValueError as exc:
        raise ConfigError(f"boundary_growth.sphere_radius = {sphere_r}: {exc}") from exc
    grid, pair, _ = _solved(cfg)
    rep = harness.boundary_growth_report(
        pair, grid, dom, face, lo, hi, sphere_r, cfg.profile, cfg.fieldh, tube
    )
    _write_csv(
        cfg, "boundary_growth.csv",
        [f"x{k+1}" for k in range(dom.dim)] + [f"anchor{k+1}" for k in range(dom.dim)] + ["u", "distance", "ratio"],
        _row_columns(rep.rows, dom.dim, ("point", "anchor"), ("head", "distance", "ratio")),
    )
    _write_summary(cfg, "boundary_growth.txt", [
        f"max ratio: {rep.max_ratio!r}",
        f"barrier slope at 0: {rep.barrier_slope!r}",
        f"bound: {rep.bound!r}",
        f"pass: {rep.passed}",
    ])
    return rep.passed


def cmd_harnack(cfg, args):
    from alap import harness

    count = cfg["growth.ball_count"]
    grid, pair, _ = _solved(cfg)
    balls = harness.find_touching_balls(pair, grid, count)
    shrunk = harness._shrunk(balls)
    rep = harness.harnack_check(pair, grid, shrunk, cfg.profile, cfg.fieldh)
    _write_csv(
        cfg, "harnack.csv",
        [f"x{k+1}" for k in range(cfg.domain.dim)] + ["r", "sup", "inf", "data_term", "constant"],
        _row_columns(rep.rows, cfg.domain.dim, ("center",),
                     ("radius", "sup", "inf", "data_term", "constant")),
    )
    _write_summary(cfg, "harnack.txt", [f"max measured constant: {rep.max_constant!r}"])
    return True  # the measured constant has no bound to pass


def cmd_rescale(cfg, args):
    from alap import harness

    center, radius = cfg["rescale.center"], cfg["rescale.radius"]
    if not np.any(harness.ball_interior(cfg.grid(), center, radius)):
        raise ConfigError(
            f"rescale.center = {center}, rescale.radius = {radius}: the ball holds no "
            "interior grid node, so there is no equation to check"
        )
    grid, pair, _ = _solved(cfg)
    try:
        rep = harness.rescale_check(pair, grid, center, radius, cfg.profile, cfg.fieldh)
    except DryBallError as exc:
        raise ConfigError(f"rescale.center = {center}, rescale.radius = {radius}: {exc}") from exc
    _write_summary(cfg, "rescale.txt", [
        f"radius: {rep.radius!r}",
        f"max equation mismatch: {rep.max_equation_mismatch!r}",
        f"tolerance: {rep.tol!r}",
        f"max |grad v| half ball: {rep.max_gradient_half_ball!r}",
        f"pass: {rep.passed}",
    ])
    return rep.passed


#: each command and the config sections it reads, checked in this order
_COMMANDS = {
    "solve": (cmd_solve, _PAIR_SECTIONS),
    "check-profile": (cmd_check_profile, ("profile",)),
    "check-barriers": (cmd_check_barriers, ("profile", "domain", "fieldh")),
    "trace": (cmd_trace, ("domain", "fieldh")),
    "extract-fb": (cmd_extract_fb, _PAIR_SECTIONS),
    "verify-fb": (cmd_verify_fb, _PAIR_SECTIONS),
    "growth": (cmd_growth, _PAIR_SECTIONS),
    "boundary-growth": (cmd_boundary_growth, _PAIR_SECTIONS),
    "harnack": (cmd_harnack, _PAIR_SECTIONS),
    "rescale": (cmd_rescale, _PAIR_SECTIONS),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG: argparse's own 2 means non-convergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and every parse fills a fresh namespace."""
    parser = _Parser(
        prog="alap",
        description="Solve and certify the saturated/dry free boundary problem on box domains.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (overrides config)")
        if name in ("trace", "extract-fb", "verify-fb"):
            p.add_argument("--h", dest="level", type=float, default=None, help="orbit level")
        if name == "trace":
            p.add_argument("--omega-count", type=int, default=None)
    return parser


def main(argv=None):
    """Run one command: load its config, check the sections it reads, and
    map its verdict, True or False, to EXIT_OK or EXIT_CERTIFICATION."""
    args = _parser().parse_args(argv)
    command, sections = _COMMANDS[args.command]
    try:
        cfg = _load(args)
        _require(cfg, *sections)
        return EXIT_OK if command(cfg, args) else EXIT_CERTIFICATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
