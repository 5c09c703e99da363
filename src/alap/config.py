"""Run configuration: flat dotted-key text files, strictly validated.

Format: one ``key = value`` pair per line; ``#`` starts a comment; values
are whitespace-separated scalars (numbers or bare words). Unknown keys are
errors, not warnings, so a typo cannot silently change an experiment.
See the README for the full schema.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from alap import fields, geometry, profiles, solver
from alap.errors import ConfigError

SCHEMA_VERSION = 1

_KNOWN_KEYS = {
    "schema_version",
    "seed",
    "out_dir",
    "domain.lower",
    "domain.upper",
    "domain.t_faces",
    "domain.m",
    "domain.g.kind",
    "domain.g.level",
    "domain.g.left",
    "domain.g.right",
    "domain.g.value",
    "grid.resolution",
    "profile.family",
    "profile.p",
    "profile.alpha",
    "profile.beta",
    "profile.gamma",
    "profile.t0",
    "field.kind",
    "field.c",
    "field.coeff",
    "field.offset",
    "solver.eps",
    "solver.inner_tol",
    "solver.outer_tol",
    "solver.max_inner",
    "solver.max_outer",
    "solver.relax",
    "trace.level",
    "trace.omega_count",
    "fb.levels",
    "fb.omega_count",
    "growth.ball_count",
    "growth.resolutions",
    "boundary_growth.face",
    "boundary_growth.anchor_lo",
    "boundary_growth.anchor_hi",
    "boundary_growth.sphere_radius",
    "boundary_growth.tube_width",
    "rescale.center",
    "rescale.radius",
    "barriers.radius",
    "barriers.margin",
    "barriers.floor",
    "barriers.kappa_count",
    "barriers.hopf_scales",
}


def parse_text(text):
    """Parse dotted-key lines into {key: [tokens]}, validating key names."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.split()
    if "schema_version" not in out:
        raise ConfigError("missing schema_version")
    version = _one_int(out, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; expected {SCHEMA_VERSION}")
    return out


def _one(raw, key, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r}")
    vals = raw[key]
    if len(vals) != 1:
        raise ConfigError(f"key {key!r} expects one value, got {len(vals)}")
    return vals[0]


def _one_float(raw, key, default=None):
    val = _one(raw, key, default)
    try:
        return float(val)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {val!r}") from exc


def _one_int(raw, key, default=None):
    val = _one(raw, key, default)
    try:
        return int(val)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {val!r}") from exc


def _floats(raw, key, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r}")
    try:
        return [float(v) for v in raw[key]]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected numbers") from exc


@dataclass
class RunConfig:
    """Validated, constructible run description."""

    raw: dict
    seed: int
    out_dir: str
    domain: Optional[geometry.Domain] = None
    resolution: Optional[tuple] = None
    profile: Optional[profiles.Profile] = None
    fieldh: Optional[fields.FieldH] = None
    solver_config: solver.SolverConfig = field(default_factory=solver.SolverConfig)

    def grid(self, resolution=None):
        res = resolution if resolution is not None else self.resolution
        if self.domain is None or res is None:
            raise ConfigError("config lacks a domain/grid section")
        return geometry.build_grid(self.domain, res)


def _build_domain(raw):
    if "domain.lower" not in raw:
        return None
    lower = _floats(raw, "domain.lower")
    upper = _floats(raw, "domain.upper")
    if len(lower) != len(upper):
        raise ConfigError("domain.lower and domain.upper must have equal length")
    t_faces = raw.get("domain.t_faces", [])
    for f in t_faces:
        geometry.face_axis_side(f)  # validates the names
    m = _one_float(raw, "domain.m")
    kind = _one(raw, "domain.g.kind", "zero")
    if kind == "zero":
        g = geometry.BoundaryData("zero")
    elif kind == "constant":
        g = geometry.BoundaryData("constant", (_one_float(raw, "domain.g.value"),))
    elif kind == "hydrostatic":
        g = geometry.BoundaryData("hydrostatic", (_one_float(raw, "domain.g.level"),))
    elif kind == "two_level":
        g = geometry.BoundaryData(
            "two_level", (_one_float(raw, "domain.g.left"), _one_float(raw, "domain.g.right"))
        )
    else:
        raise ConfigError(f"unknown boundary data kind {kind!r}")
    try:
        return geometry.box_domain(lower, upper, t_faces, g, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_profile(raw):
    if "profile.family" not in raw:
        return None
    family = _one(raw, "profile.family")
    try:
        if family == "power":
            return profiles.make_power(_one_float(raw, "profile.p"))
        if family == "piecewise":
            return profiles.make_piecewise(
                _one_float(raw, "profile.alpha"),
                _one_float(raw, "profile.beta"),
                _one_float(raw, "profile.t0"),
            )
        if family == "logpower":
            return profiles.make_logpower(
                _one_float(raw, "profile.alpha"),
                _one_float(raw, "profile.beta"),
                _one_float(raw, "profile.gamma"),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown profile family {family!r}")


def _build_field(raw, domain):
    if "field.kind" not in raw:
        return None
    kind = _one(raw, "field.kind")
    try:
        if kind == "constant":
            return fields.make_constant_field(_floats(raw, "field.c"))
        if kind == "affine":
            if domain is None:
                raise ConfigError("affine fields need a domain for certification")
            offset = _floats(raw, "field.offset")
            n = len(offset)
            coeff = np.asarray(_floats(raw, "field.coeff")).reshape(n, n)
            return fields.make_affine_field(coeff, offset, domain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown field kind {kind!r}")


def _build_solver(raw):
    kwargs = {}
    if "solver.eps" in raw:
        kwargs["eps"] = _one_float(raw, "solver.eps")
        # the continuation schedule doubles eps up to M/16: it must start positive
        if not (np.isfinite(kwargs["eps"]) and kwargs["eps"] > 0.0):
            raise ConfigError(f"solver.eps must be a finite number > 0, got {kwargs['eps']}")
    # a tolerance of inf passes any sweep, one of nan or <= 0 none; a
    # budget below one never steps
    for name in ("inner_tol", "outer_tol"):
        key = f"solver.{name}"
        if key in raw:
            kwargs[name] = _one_float(raw, key)
            if not (np.isfinite(kwargs[name]) and kwargs[name] > 0.0):
                raise ConfigError(f"{key} must be a finite number > 0, got {kwargs[name]}")
    for name in ("max_inner", "max_outer"):
        key = f"solver.{name}"
        if key in raw:
            kwargs[name] = _one_int(raw, key)
            if kwargs[name] < 1:
                raise ConfigError(f"{key} must be an integer >= 1, got {kwargs[name]}")
    if "solver.relax" in raw:
        kwargs["relax"] = _one_float(raw, "solver.relax")
        # relax = 0 never moves chi, so the first sweep would read as converged
        if not 0.0 < kwargs["relax"] <= 1.0:
            raise ConfigError(f"solver.relax must lie in (0, 1], got {kwargs['relax']}")
    return solver.SolverConfig(**kwargs)


def _check_grid(domain, resolution):
    """The grid must fit the domain, and the data g must lie in [0, M] on
    its boundary nodes off the marked portion T."""
    try:
        grid = geometry.build_grid(domain, resolution)
    except ValueError as exc:
        raise ConfigError(f"grid.resolution: {exc}") from exc
    nodes = grid.nodes()[grid.boundary_mask()]
    try:
        domain.validate_boundary_data(nodes[~domain.on_marked_boundary(nodes)])
    except ValueError as exc:
        raise ConfigError(
            f"domain.g: {exc} on the grid's boundary nodes (M = domain.m = {domain.m_ceiling})"
        ) from exc


def load(path=None, text=None):
    """Load and validate a config file (or literal text)."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    raw = parse_text(text)
    domain = _build_domain(raw)
    resolution = None
    if "grid.resolution" in raw:
        try:
            resolution = tuple(int(v) for v in raw["grid.resolution"])
        except ValueError as exc:
            raise ConfigError("key 'grid.resolution': expected integers") from exc
        if any(c < 3 for c in resolution):
            raise ConfigError("grid.resolution entries must be >= 3")
    if domain is not None and resolution is not None:
        _check_grid(domain, resolution)
    cfg = RunConfig(
        raw=raw,
        seed=_one_int(raw, "seed", "0"),
        out_dir=_one(raw, "out_dir", "out"),
        domain=domain,
        resolution=resolution,
        profile=_build_profile(raw),
        fieldh=_build_field(raw, domain),
        solver_config=_build_solver(raw),
    )
    return cfg
