"""Sectioned key=value configuration for studies and the CLI.

INI-style text with the fixed sections [domain] [material] [immersion]
[force] [solver] [study] [output].  Unknown sections or keys are errors, as
are invalid values; every error names the offending section and key.  The
catalogs geometry._CATALOG and energy._LOADS declare the immersion and load
kinds and keys; [immersion] and [force] are checked by building them.
"""

from __future__ import annotations

import hashlib
import math
from configparser import ConfigParser, Error as ParserError
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .elasticity import Material
from .energy import _LOADS, ForceDensity
from .geometry import Immersion
from .grid import Grid
from .solver import SolverConfig

SECTIONS = ("domain", "material", "immersion", "force", "solver", "study", "output")

_DOMAIN_KEYS = {"l1": 1.0, "l2": 1.0, "n1": 17, "n2": 17}
# The [domain] sides and [material] coefficients lie in this window (lambda
# down to 0), where the entries of the plate Hessian at u = 0, scaling as
# eps^3 (lambda + 2 mu) h1 h2 / h^4 and eps (lambda + 2 mu) h1 h2 / h^2, are
# normal floats on grids up to 10^6 nodes a side: the solver's H0 factors.
_SCALES = (1e-30, 1e30)
_DEFAULT_T_LIST = (0.2, 0.1, 0.05, 0.025, 0.0)

DEFAULT_CONFIG = """\
[material]
lambda = 1.0
mu = 1.0
eps = 0.1
"""


class ConfigError(Exception):
    """Configuration file rejected; the message names section and key."""


@dataclass
class StudyConfig:
    """Everything one study run needs, resolved and validated."""

    L1: float
    L2: float
    n1: int
    n2: int
    material: Material
    immersion_kind: str
    immersion_params: dict
    force_kind: str
    force_params: dict
    force_csv: str | None
    solver: SolverConfig
    t_list: list[float]
    out_dir: str
    prefix: str

    def solution_path(self, t: float) -> Path:
        return Path(self.out_dir) / f"{self.prefix}_solution_t{t:g}.csv"

    def make_grid(self) -> Grid:
        return Grid(self.L1, self.L2, self.n1, self.n2)

    def make_immersion(self) -> Immersion:
        return Immersion(self.immersion_kind, L1=self.L1, L2=self.L2,
                         params=self.immersion_params)

    def make_force(self, grid: Grid) -> ForceDensity:
        """The load on grid; a config error names the key of the first component
        at which the running sum of w p^2 (the load norm's square) is not finite."""
        with np.errstate(all="ignore"):
            if self.force_kind == "csv":
                from .io import read_displacement_csv

                try:
                    force = ForceDensity(*read_displacement_csv(self.force_csv, grid))
                except ValueError as exc:
                    raise ConfigError(f"[force] path: {exc}") from None
            else:
                force = ForceDensity.from_catalog(grid, self.force_kind, self.force_params)
            sums = np.cumsum([np.sum(grid.weights * p * p) for p in force.components()])
        if not np.isfinite(sums[-1]):
            keys = ["path"] * 3 if self.force_csv else list(_LOADS[self.force_kind])
            raise ConfigError(f"[force] {keys[np.argmin(np.isfinite(sums))]}: load norm "
                              f"not finite on the {grid.n1}x{grid.n2} grid")
        return force

    def with_overrides(self, seed=None, grid=None, out_dir=None) -> "StudyConfig":
        cfg = self
        if seed is not None:
            try:
                cfg = replace(cfg, solver=replace(cfg.solver, seed=int(seed)))
            except ValueError as exc:  # SolverConfig's range check: "seed: ..."
                raise ConfigError(f"--{exc}") from None
        if grid is not None:
            n1, n2 = int(grid[0]), int(grid[1])
            _require_nodes(min(n1, n2), f"--grid {n1}x{n2}")
            cfg = replace(cfg, n1=n1, n2=n2)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=str(out_dir))
        return cfg

    def canonical(self) -> str:
        """Deterministic rendering of the inputs that determine the numbers.

        Covers domain, material, immersion, force, solver and t_list.  A CSV
        force enters by the SHA-256 of the file's bytes, not by its location,
        and the output directory and prefix are left out: where results are
        written changes none of them.
        """
        lines = [
            f"domain.l1={self.L1!r}",
            f"domain.l2={self.L2!r}",
            f"domain.n1={self.n1}",
            f"domain.n2={self.n2}",
            f"material.lambda={self.material.lam!r}",
            f"material.mu={self.material.mu!r}",
            f"material.eps={self.material.eps!r}",
            f"immersion.kind={self.immersion_kind}",
        ]
        for k in sorted(self.immersion_params):
            lines.append(f"immersion.{k}={self.immersion_params[k]!r}")
        lines.append(f"force.kind={self.force_kind}")
        for k in sorted(self.force_params):
            lines.append(f"force.{k}={self.force_params[k]!r}")
        if self.force_csv:
            digest = hashlib.sha256(Path(self.force_csv).read_bytes()).hexdigest()
            lines.append(f"force.csv_sha256={digest}")
        for f in fields(SolverConfig):
            value = getattr(self.solver, f.name)
            lines.append(f"solver.{f.name}={value if _is_int(f) else repr(value)}")
        lines.append("study.t_list=" + ",".join(repr(t) for t in self.t_list))
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _is_int(f) -> bool:
    """Whether a dataclass field is declared int (a string under postponed
    annotations)."""
    return f.type in (int, "int")


def _fail(section: str, key: str, why: str):
    raise ConfigError(f"[{section}] {key}: {why}")


def _require_nodes(n: int, where: str):
    """The node count check shared by [domain] n1/n2 and the --grid override."""
    if n < 5:
        raise ConfigError(f"{where}: grids need at least 5 nodes per side")


def _take_real(sec: dict, section: str, key: str, default=None, many: bool = False):
    """Pop a finite real, or with many=True a tuple of them from a comma list."""
    if key not in sec:
        if default is None:
            _fail(section, key, "required key is missing")
        return default
    raw = sec.pop(key)
    try:
        values = tuple(float(p) for p in (raw.split(",") if many else (raw,)))
    except ValueError:
        what = "comma list of reals" if many else "real number"
        _fail(section, key, f"not a {what}: {raw!r}")
    if not all(math.isfinite(v) for v in values):
        _fail(section, key, f"not finite: {raw!r}")
    return values if many else values[0]


def _take_int(sec: dict, section: str, key: str, default=None) -> int:
    if key not in sec:
        if default is None:
            _fail(section, key, "required key is missing")
        return default
    raw = sec.pop(key)
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"not an integer: {raw!r}")


def _require_scale(section: str, key: str, value: float, lo: float = _SCALES[0]):
    if not lo <= value <= _SCALES[1]:
        _fail(section, key, f"must lie in [{lo:g}, {_SCALES[1]:g}]: {value!r}")


def _reject_unknown(sec: dict, section: str, why: str = "unknown key"):
    if sec:
        _fail(section, sorted(sec)[0], why)


def parse_config_text(text: str, base_dir: str | Path = ".") -> StudyConfig:
    parser = ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except ParserError as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    unknown_sections = set(parser.sections()) - set(SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown section [{sorted(unknown_sections)[0]}]")

    def section(name) -> dict:
        return dict(parser[name]) if parser.has_section(name) else {}

    dom = section("domain")
    L1 = _take_real(dom, "domain", "l1", _DOMAIN_KEYS["l1"])
    L2 = _take_real(dom, "domain", "l2", _DOMAIN_KEYS["l2"])
    n1 = _take_int(dom, "domain", "n1", _DOMAIN_KEYS["n1"])
    n2 = _take_int(dom, "domain", "n2", _DOMAIN_KEYS["n2"])
    _reject_unknown(dom, "domain")
    for key, n in (("n1", n1), ("n2", n2)):
        _require_nodes(n, f"[domain] {key}")
    for key, L in (("l1", L1), ("l2", L2)):
        if L <= 0:
            _fail("domain", key, "side lengths must be positive")
        _require_scale("domain", key, L)

    matsec = section("material")
    lam = _take_real(matsec, "material", "lambda")
    mu = _take_real(matsec, "material", "mu")
    eps = _take_real(matsec, "material", "eps")
    _reject_unknown(matsec, "material")
    try:
        material = Material(lam=lam, mu=mu, eps=eps)
    except ValueError as exc:
        raise ConfigError(f"[material] {exc}") from None
    _require_scale("material", "lambda", lam, lo=0.0)
    for key, value in (("mu", mu), ("eps", eps)):
        _require_scale("material", key, value)

    imm = section("immersion")
    kind = imm.pop("kind", "paraboloid")
    params = {key: _take_real(imm, "immersion", key) for key in list(imm)}
    try:
        Immersion(kind, L1=L1, L2=L2, params=params)
    except ValueError as exc:
        raise ConfigError(f"[immersion] {exc}") from None

    frc = section("force")
    force_kind = frc.pop("kind", "constant")
    force_csv = None
    force_params: dict = {}
    if force_kind == "csv":
        path = frc.pop("path", None)
        _reject_unknown(frc, "force", "unknown key for kind 'csv'")
        if path is None:
            _fail("force", "path", "required key is missing")
        force_csv = str((Path(base_dir) / path).resolve())
        if not Path(force_csv).is_file():
            _fail("force", "path", f"file does not exist: {force_csv}")
    else:
        force_params = {
            key: _take_real(frc, "force", key, many=key.endswith("_coeffs"))
            for key in list(frc)
        }
        if force_kind == "constant" and not force_params:
            force_params = {"p1": 0.5, "p2": -0.3, "p3": 1.0}
        try:  # the load checks its kind and keys; make_force its norm on the run grid
            with np.errstate(all="ignore"):
                ForceDensity.from_catalog(Grid(L1, L2, 5, 5), force_kind, force_params)
        except ValueError as exc:
            raise ConfigError(f"[force] {exc}") from None

    sol = section("solver")
    defaults = SolverConfig()
    try:
        # every SolverConfig field is a key, read as an integer or a real by its type
        solver = SolverConfig(**{
            f.name: (_take_int if _is_int(f) else _take_real)(
                sol, "solver", f.name, getattr(defaults, f.name))
            for f in fields(SolverConfig)
        })
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from None
    _reject_unknown(sol, "solver")

    stu = section("study")
    t_list = list(_take_real(stu, "study", "t_list", _DEFAULT_T_LIST, many=True))
    _reject_unknown(stu, "study")
    if not t_list or t_list[-1] != 0.0:
        _fail("study", "t_list", "must end at 0")
    if any(a <= b for a, b in zip(t_list, t_list[1:])):
        _fail("study", "t_list", "must be strictly decreasing")
    if any(t < 0 for t in t_list):
        _fail("study", "t_list", "entries must be nonnegative")

    out = section("output")
    out_dir = out.pop("directory", "out")
    prefix = out.pop("prefix", "study")
    _reject_unknown(out, "output")
    if Path(prefix).name != prefix:
        _fail("output", "prefix", f"must be a file name, not a path: {prefix!r}")

    cfg = StudyConfig(
        L1=L1, L2=L2, n1=n1, n2=n2,
        material=material,
        immersion_kind=kind, immersion_params=params,
        force_kind=force_kind, force_params=force_params, force_csv=force_csv,
        solver=solver, t_list=t_list,
        out_dir=out_dir, prefix=prefix,
    )
    named = {}  # one solution file per t: its name prints t with "g"
    for t in t_list:
        name = cfg.solution_path(t).name
        if name in named:
            _fail("study", "t_list", f"t={named[name]!r} and t={t!r} share the file name {name}")
        named[name] = t
    return cfg


def parse_config(path: str | Path) -> StudyConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), base_dir=path.parent)


def default_config() -> StudyConfig:
    return parse_config_text(DEFAULT_CONFIG)
