"""Run configuration: flat dotted-key text files, strictly validated.

Format: one ``key = value`` pair per line; ``#`` starts a comment; values
are whitespace-separated scalars (numbers or bare words). Unknown keys are
errors, not warnings, so a typo cannot silently change an experiment.
``SCHEMA`` declares each key once: its kind, how many values it takes, its
default and its bound. ``load`` checks every entry against it, so a bad
value fails at load, whichever command reads it. The README lists the
schema.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from alap import fields, geometry, profiles, solver
from alap.errors import ConfigError

SCHEMA_VERSION = 1


class Key(NamedTuple):
    """One config key. ``kind`` names its parser in ``_KINDS``; ``count`` is
    1, "any", "1+" (at least one), "dim" or "dim-1" (the domain's dimension,
    or one less); the ``default`` is config text, None where the key has
    none; ``bound`` names a check in ``_BOUNDS`` that every value must pass."""

    kind: str
    count: object
    default: Optional[str] = None
    bound: Optional[str] = None


def _face(token):
    geometry.face_axis_side(token)  # raises ValueError on a bad name
    return token


def _finite(token):
    # a key without a bound would pass nan and inf on, and "> 0" passes inf
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(token)
    return value


_KINDS = {"float": _finite, "int": int, "word": str, "face": _face}

#: each bound's name is its rule, as the messages and the README state it
_BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 3": lambda v: v >= 3,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
}

SCHEMA = {
    "schema_version": Key("int", 1),
    "seed": Key("int", 1, "0", ">= 0"),
    "out_dir": Key("word", 1, "out"),
    "domain.lower": Key("float", "any"),
    "domain.upper": Key("float", "dim"),
    "domain.t_faces": Key("face", "any", ""),
    "domain.m": Key("float", 1),
    "domain.g.kind": Key("word", 1, "zero"),
    "domain.g.level": Key("float", 1),
    "domain.g.left": Key("float", 1),
    "domain.g.right": Key("float", 1),
    "domain.g.value": Key("float", 1),
    "grid.resolution": Key("int", "dim", None, ">= 3"),
    "profile.family": Key("word", 1),
    "profile.p": Key("float", 1),
    "profile.alpha": Key("float", 1),
    "profile.beta": Key("float", 1),
    "profile.gamma": Key("float", 1),
    "profile.t0": Key("float", 1),
    "field.kind": Key("word", 1),
    "field.c": Key("float", "dim"),
    "field.coeff": Key("float", "any"),
    "field.offset": Key("float", "dim"),
    # absent solver keys take solver.SolverConfig's defaults
    "solver.eps": Key("float", 1, None, "> 0"),
    "solver.inner_tol": Key("float", 1, None, "> 0"),
    "solver.outer_tol": Key("float", 1, None, "> 0"),
    "solver.max_inner": Key("int", 1, None, ">= 1"),
    "solver.max_outer": Key("int", 1, None, ">= 1"),
    "solver.relax": Key("float", 1, None, "in (0, 1]"),
    "trace.level": Key("float", 1, "0.5"),
    "trace.omega_count": Key("int", 1, "9", ">= 1"),
    "fb.levels": Key("float", "1+", "0.2"),
    "fb.omega_count": Key("int", 1, "33", ">= 1"),
    "growth.ball_count": Key("int", 1, "5", ">= 1"),
    "growth.resolutions": Key("int", "any", "", ">= 3"),
    "boundary_growth.face": Key("face", 1, "ymax"),
    "boundary_growth.anchor_lo": Key("float", "dim-1", "0.3"),
    "boundary_growth.anchor_hi": Key("float", "dim-1", "0.7"),
    "boundary_growth.sphere_radius": Key("float", 1, "0.09", "> 0"),
    "boundary_growth.tube_width": Key("float", 1, "0.2", "> 0"),
    "rescale.center": Key("float", "dim", "0.5 0.25"),
    "rescale.radius": Key("float", 1, "0.2", "> 0"),
    "barriers.radius": Key("float", 1, "0.25", "> 0"),
    "barriers.margin": Key("float", 1, "0.4", "in (0, 1)"),
    "barriers.floor": Key("float", 1, "1.0", ">= 0"),
    "barriers.kappa_count": Key("int", 1, "5", ">= 1"),
    "barriers.hopf_scales": Key("float", "1+", "0.1 1.0", "> 0"),
}


def parse(key, tokens, dim=None, source=None):
    """Typed value of ``key`` from its tokens, checked against its schema row:
    the value itself for a count of 1, else a list. A count that depends on
    the domain is checked only when ``dim`` is given. Messages name
    ``source`` (default: the key)."""
    row, source = SCHEMA[key], source or key
    values = []
    for token in tokens:
        try:
            values.append(_KINDS[row.kind](token))
        except ValueError:
            kind = "finite float" if row.kind == "float" else row.kind
            raise ConfigError(f"{source}: {token!r} is not a valid {kind}") from None
    want = {1: 1, "dim": dim, "dim-1": None if dim is None else dim - 1}.get(row.count)
    if want is not None and len(values) != want:
        raise ConfigError(f"{source} takes {want} value(s), got {len(values)}")
    if row.count == "1+" and not values:
        raise ConfigError(f"{source} takes at least one value")
    for value in values:
        if row.bound is not None and not _BOUNDS[row.bound](value):
            raise ConfigError(f"{source} = {value} must be {row.bound}")
    return values[0] if row.count == 1 else values


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
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.split()
    if "schema_version" not in out:
        raise ConfigError("missing schema_version")
    version = parse("schema_version", out["schema_version"])
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; expected {SCHEMA_VERSION}")
    return out


@dataclass
class RunConfig:
    """Validated, constructible run description; ``cfg[key]`` is the typed
    value of any schema key."""

    raw: dict
    seed: Optional[int] = None
    out_dir: Optional[str] = None
    domain: Optional[geometry.Domain] = None
    resolution: Optional[tuple] = None
    profile: Optional[profiles.Profile] = None
    fieldh: Optional[fields.FieldH] = None
    solver_config: Optional[solver.SolverConfig] = None

    @property
    def dim(self):
        """The domain's dimension, the length of ``domain.lower``."""
        lower = self.raw.get("domain.lower")
        return None if lower is None else len(lower)

    def __getitem__(self, key):
        """The entry of ``key``, else its schema default, typed and checked."""
        if key in self.raw:
            tokens = self.raw[key]
        elif SCHEMA[key].default is not None:
            tokens = SCHEMA[key].default.split()
        else:
            raise ConfigError(f"missing key {key!r}")
        return parse(key, tokens, self.dim)

    def grid(self, resolution=None):
        res = resolution if resolution is not None else self.resolution
        if self.domain is None or res is None:
            raise ConfigError("config lacks a domain/grid section")
        return geometry.build_grid(self.domain, res)


#: boundary data kinds and the ``domain.g.*`` keys that hold their parameters
_G_PARAMS = {"zero": (), "constant": ("value",), "hydrostatic": ("level",),
             "two_level": ("left", "right")}


def _build_domain(cfg):
    if "domain.lower" not in cfg.raw:
        return None
    kind = cfg["domain.g.kind"]
    if kind not in _G_PARAMS:
        raise ConfigError(f"unknown boundary data kind {kind!r}")
    g = geometry.BoundaryData(kind, tuple(cfg[f"domain.g.{name}"] for name in _G_PARAMS[kind]))
    try:
        return geometry.box_domain(
            cfg["domain.lower"], cfg["domain.upper"], cfg["domain.t_faces"], g, cfg["domain.m"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_profile(cfg):
    if "profile.family" not in cfg.raw:
        return None
    params = {
        key.split(".", 1)[1]: cfg[key]
        for key in cfg.raw if key.startswith("profile.") and key != "profile.family"
    }
    try:
        return profiles.make_from_family(cfg["profile.family"], **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_field(cfg):
    if "field.kind" not in cfg.raw:
        return None
    kind = cfg["field.kind"]
    try:
        if kind == "constant":
            return fields.make_constant_field(cfg["field.c"])
        if kind == "affine":
            if cfg.domain is None:
                raise ConfigError("affine fields need a domain for certification")
            offset = cfg["field.offset"]
            coeff = np.asarray(cfg["field.coeff"]).reshape(len(offset), len(offset))
            return fields.make_affine_field(coeff, offset, cfg.domain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown field kind {kind!r}")


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
    """Load and validate a config file (or literal text): every entry is
    checked against ``SCHEMA`` before any section is built."""
    if text is None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    cfg = RunConfig(parse_text(text))
    for key in cfg.raw:  # every entry, whichever command reads it
        cfg[key]
    cfg.seed, cfg.out_dir = cfg["seed"], cfg["out_dir"]
    cfg.domain = _build_domain(cfg)
    if "grid.resolution" in cfg.raw:
        cfg.resolution = tuple(cfg["grid.resolution"])
        if cfg.domain is not None:
            _check_grid(cfg.domain, cfg.resolution)
    cfg.profile = _build_profile(cfg)
    cfg.fieldh = _build_field(cfg)
    cfg.solver_config = solver.SolverConfig(
        **{key[len("solver."):]: cfg[key] for key in cfg.raw if key.startswith("solver.")}
    )
    return cfg
