"""Command-line interface: study, verify, solve, rigidity, geometry.

`rigidity` checks the two exact identities that prove the flat membrane
rigid on the grid (see `verification.rigidity_residuals`).  Every command
takes the common flags, but a flag that the command does not read (`verify`:
--out, --seed, --grid, --config; `rigidity`: --out, --seed) is a configuration
error.  A config file given to `verify` is still parsed first, so a bad one is
reported as such.
Exit codes: 0 success, 2 configuration error, 3 solver nonconvergence,
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, StudyConfig, default_config, parse_config
from .energy import make_assembly
from .geometry import ImmersionError, geometry_field
from .grid import Displacement, v_norm
from .io import meta_line, write_displacement_csv, write_geometry_csv
from .solver import LineSearchStallError, NonconvergenceError, minimize
from .study import run_convergence_study
from .verification import IDENTITY_TOL, rigidity_residuals, run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_VERIFICATION = 4

# Common flags that a command does not read; giving one is a config error.
UNREAD_FLAGS = {"verify": ("out", "seed", "grid", "config"), "rigidity": ("out", "seed")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowshell",
        description="Nonlinear shallow-shell energy minimization and "
        "shell-to-plate convergence studies on clamped rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="solver seed override")
        p.add_argument(
            "--grid", type=str, default=None, metavar="N1xN2",
            help="grid override, e.g. 33x33",
        )

    p_study = sub.add_parser("study", help="run the shell-to-plate convergence study")
    common(p_study)

    p_verify = sub.add_parser("verify", help="run the cross-module invariant suite")
    common(p_verify)

    p_solve = sub.add_parser("solve", help="minimize the energy for one immersion")
    common(p_solve)
    p_solve.add_argument("--t", type=float, default=None,
                         help="flattening parameter override for the immersion")

    p_rig = sub.add_parser(
        "rigidity", help="check the exact Korn and trace identities behind membrane rigidity"
    )
    common(p_rig)

    p_geo = sub.add_parser("geometry", help="export the nodal geometry field as CSV")
    common(p_geo)
    return parser


def _load_config(args) -> StudyConfig:
    cfg = parse_config(args.config) if args.config else default_config()
    grid_override = None
    if args.grid:
        try:
            n1, n2 = (int(p) for p in args.grid.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--grid expects N1xN2, got {args.grid!r}") from None
        grid_override = (n1, n2)
    cfg = cfg.with_overrides(seed=args.seed, grid=grid_override, out_dir=args.out)
    # checked after validation, so a bad value is named as such first
    for flag in UNREAD_FLAGS.get(args.command, ()):
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag}: {args.command} does not read it")
    if "out" not in UNREAD_FLAGS.get(args.command, ()):
        # the commands that read --out write there after their work: refuse
        # now, creating nothing, a directory that mkdir could not make
        out = Path(cfg.out_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            where = "--out" if args.out is not None else "[output] directory"
            raise ConfigError(f"{where}: not a directory: {existing}")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "study":
            return _cmd_study(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        if args.command == "solve":
            return _cmd_solve(cfg, args.t)
        if args.command == "rigidity":
            return _cmd_rigidity(cfg)
        if args.command == "geometry":
            return _cmd_geometry(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonconvergenceError, LineSearchStallError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    raise AssertionError("unreachable")


def _cmd_study(cfg: StudyConfig) -> int:
    report = run_convergence_study(cfg)
    print(f"study written to {report.csv_path(cfg)}")
    print("t, c2_distance, v_norm_err, iterations:")
    for r in report.rows:
        print(f"  {r.t:g}\t{r.c2_distance:.6g}\t{r.v_norm_err:.6g}\t{r.iterations}")
    print(f"largest v_norm over the rows: {report.boundedness:.6g}")
    return EXIT_OK


def _cmd_verify(cfg: StudyConfig) -> int:
    results = run_verification(cfg)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFICATION


def _cmd_solve(cfg: StudyConfig, t: float | None) -> int:
    imm = cfg.make_immersion()
    if t is not None:
        if not math.isfinite(t):
            raise ConfigError(f"--t: not finite: {t!r}")
        try:
            imm = imm.with_scale(t)
        except ValueError as exc:
            raise ConfigError(f"--t: {exc}") from None
    grid = cfg.make_grid()
    try:
        asm = make_assembly(grid, imm, cfg.material, cfg.make_force(grid))
    except ImmersionError as exc:
        raise ConfigError(f"{'--t:' if t is not None else '[immersion]'} {exc}") from None
    u, diag = minimize(asm, Displacement.zeros(grid), cfg.solver)
    print(
        f"energy={diag.final_energy:.9g} residual={diag.final_residual:.3g} "
        f"iterations={diag.iterations} v_norm={v_norm(grid, u):.6g} "
        f"converged={diag.converged}"
    )
    if not diag.converged:  # a failed solve writes nothing, as a failed study
        return EXIT_NONCONVERGED
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.prefix}_solve.csv"
    write_displacement_csv(path, grid, u, meta_line(cfg.config_hash(), cfg.solver.seed))
    print(f"solution written to {path}")
    return EXIT_OK


def _cmd_rigidity(cfg: StudyConfig) -> int:
    grid = cfg.make_grid()
    korn, trace = rigidity_residuals(grid)
    print(f"flat membrane rigidity on {grid.n1}x{grid.n2} nodes, "
          f"L = {grid.L1:g}x{grid.L2:g}, seeded clamped fields:")
    print("  (K) ||e(u')||^2 = 1/2 ||grad_c u'||^2 + 1/2 ||div_c u'||^2: "
          f"relative residual {korn:.3e}")
    print(f"  (T) sum |cell| tr E(u) = 1/2 ||grad_c u3||^2: relative residual {trace:.3e}")
    print("Korn constant 1/2 (exact)")
    print("bound: 1/2 ||grad_c u3||^2 <= sqrt(2|Omega|) ||E(u)|| = "
          f"{(2.0 * grid.L1 * grid.L2) ** 0.5:.6g} ||E(u)||")
    if max(korn, trace) > IDENTITY_TOL:
        print(f"identity residual above {IDENTITY_TOL:g}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_geometry(cfg: StudyConfig) -> int:
    grid = cfg.make_grid()
    try:
        geom = geometry_field(cfg.make_immersion(), grid)
    except ImmersionError as exc:
        raise ConfigError(f"[immersion] {exc}") from None
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.prefix}_geometry.csv"
    write_geometry_csv(path, geom, meta_line(cfg.config_hash(), cfg.solver.seed))
    print(f"geometry field written to {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
