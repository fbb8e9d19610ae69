"""Convergence study: flatten a shell family onto the plate and record it.

One row per homotopy parameter: geometric distance to the plate, final
energy, displacement norm, distance to the plate minimizer, solver residual,
iteration count, and the coercivity gap of the elasticity tensor.  The plate
row comes last and anchors the error column at exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError, StudyConfig
from .elasticity import positivity_gap
from .grid import v_norm
from .io import meta_line, write_displacement_csv, write_study_csv
from .solver import (  # NonconvergenceError is re-exported for callers
    HomotopyStep,
    NonconvergenceError,
    homotopy_solve,
)


@dataclass
class StudyRow:
    t: float
    c2_distance: float
    final_energy: float
    v_norm: float
    v_norm_err: float
    residual: float
    iterations: int
    positivity_gap: float


@dataclass
class StudyReport:
    rows: list[StudyRow]
    boundedness: float  # the largest v_norm over the rows
    meta: str
    steps: list[HomotopyStep]

    def csv_path(self, cfg: StudyConfig) -> Path:
        return Path(cfg.out_dir) / f"{cfg.prefix}.csv"


def run_convergence_study(cfg: StudyConfig, write: bool = True) -> StudyReport:
    """Run the warm-started homotopy over cfg.t_list and report per-step rows.

    Raises ValueError before any solve when cfg.t_list lacks the plate t=0,
    and ConfigError when the immersion is the plate and cfg.t_list holds a
    t > 0: the plate has no family to flatten.
    Raises NonconvergenceError at the first solve that exhausts its
    iteration budget, tagged with that solve's t.  Solve order is the plate
    t=0 first, then t_list from largest to smallest, so a failing plate solve
    is reported as t=0 even though its row comes last.  Writes the report CSV
    and per-step solutions under cfg.out_dir unless write=False.
    """
    if 0.0 not in cfg.t_list:
        raise ValueError("study parameter list must contain the plate t=0")
    if cfg.immersion_kind == "plate" and any(cfg.t_list):
        raise ConfigError("[study] t_list: the plate has no scale parameter; "
                          "its study takes t_list = 0")
    grid = cfg.make_grid()
    material = cfg.material
    force = cfg.make_force(grid)
    immersion = cfg.make_immersion()

    steps = homotopy_solve(immersion, cfg.t_list, grid, material, force, cfg.solver)
    u_plate = next(s.u for s in steps if s.t == 0.0)

    rows = []
    for step in steps:
        rows.append(
            StudyRow(
                t=step.t,
                c2_distance=step.c2_dist,
                final_energy=step.diagnostics.final_energy,
                v_norm=v_norm(grid, step.u),
                v_norm_err=v_norm(grid, step.u - u_plate),
                residual=step.diagnostics.final_residual,
                iterations=step.diagnostics.iterations,
                positivity_gap=positivity_gap(step.assembly.geometry, material),
            )
        )

    meta = meta_line(cfg.config_hash(), cfg.solver.seed)
    report = StudyReport(
        rows=rows,
        boundedness=max(r.v_norm for r in rows),
        meta=meta,
        steps=steps,
    )
    if write:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_study_csv(report.csv_path(cfg), rows, meta)
        for step in steps:
            write_displacement_csv(
                out / f"{cfg.prefix}_solution_t{step.t:g}.csv", grid, step.u, meta
            )
    return report
