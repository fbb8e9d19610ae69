"""CSV export and import of fields, geometry, and study reports.

All floats are printed with 17 significant digits (lossless for float64),
rows end with plain newlines, and every file starts with one comment line
carrying the tool version plus the configuration hash and seed of the run.
The hash (StudyConfig.config_hash) covers only the inputs that determine the
numbers: domain, material, immersion, force (a CSV load by its bytes),
solver and t_list.  The output directory and prefix are not hashed, so the
same run written to two places gives byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .geometry import SurfaceGeometry
from .grid import Displacement, Grid


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def meta_line(config_hash: str = "none", seed: int = 0) -> str:
    from . import __version__

    return f"# shallowshell={__version__} config_sha256={config_hash} seed={seed}"


def _node_rows(grid: Grid):
    for i in range(grid.n1):
        for j in range(grid.n2):
            yield i, j


def write_field_csv(path, grid: Grid, values: np.ndarray, meta: str | None = None) -> None:
    lines = [meta or meta_line(), "i,j,y1,y2,value"]
    for i, j in _node_rows(grid):
        lines.append(
            f"{i},{j},{fmt(grid.y1[i, j])},{fmt(grid.y2[i, j])},{fmt(values[i, j])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_displacement_csv(path, grid: Grid, u: Displacement, meta: str | None = None) -> None:
    lines = [meta or meta_line(), "i,j,y1,y2,u1,u2,u3"]
    for i, j in _node_rows(grid):
        lines.append(
            f"{i},{j},{fmt(grid.y1[i, j])},{fmt(grid.y2[i, j])},"
            f"{fmt(u.u1[i, j])},{fmt(u.u2[i, j])},{fmt(u.u3[i, j])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_displacement_csv(path, grid: Grid):
    """Read three nodal fields from the displacement export format.

    Returns (u1, u2, u3) arrays; also the import path for CSV force
    densities, which share the format.  Every node must appear exactly once
    with finite values.  Where the y1/y2 columns hold numbers, each row must
    lie at the grid's own coordinates (to 1e-9 of the larger side length),
    so a file written for another domain is rejected.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0]
    if header != "i,j,y1,y2,u1,u2,u3":
        raise ValueError(f"unexpected displacement CSV header: {header!r}")
    rows = lines[1:]
    if len(rows) != grid.num_nodes:
        # checked first: a file for another grid size is named as such
        raise ValueError(f"displacement CSV holds {len(rows)} rows, expected {grid.num_nodes}")
    fields = tuple(np.zeros(grid.shape) for _ in range(3))
    filled = np.zeros(grid.shape, dtype=bool)
    # The first row decides whether the coordinate columns are compared:
    # they were never parsed before, and the benchmark's fields257 load
    # writes numpy reprs such as `np.float64(0.5)` there (ROADMAP item 5).
    compare = _holds_numbers(rows[0])
    y1s, y2s = grid.y1[:, 0].tolist(), grid.y2[0, :].tolist()
    tol = 1e-9 * max(grid.L1, grid.L2)
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"malformed displacement CSV row: {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < grid.n1 and 0 <= j < grid.n2):
            raise ValueError(f"node ({i},{j}) outside grid {grid.n1}x{grid.n2}")
        if filled[i, j]:
            raise ValueError(f"duplicate node ({i},{j}) in displacement CSV row: {ln!r}")
        if compare and not (abs(float(parts[2]) - y1s[i]) <= tol
                            and abs(float(parts[3]) - y2s[j]) <= tol):
            raise ValueError(
                f"coordinates off the grid in displacement CSV row: {ln!r} "
                f"(node ({i},{j}) lies at ({fmt(y1s[i])}, {fmt(y2s[j])}))"
            )
        values = [float(p) for p in parts[4:]]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in displacement CSV row: {ln!r}")
        for k in range(3):
            fields[k][i, j] = values[k]
        filled[i, j] = True
    return fields


def _holds_numbers(row: str) -> bool:
    """Whether the y1 column of a data row holds a number."""
    try:
        float(row.split(",")[2])
    except (IndexError, ValueError):
        return False
    return True


def write_geometry_csv(path, geom: SurfaceGeometry, meta: str | None = None) -> None:
    grid = geom.grid
    lines = [meta or meta_line(), "i,j,y1,y2,a11,a12,a22,b11,b12,b22,sqrt_a,K"]
    for i, j in _node_rows(grid):
        vals = (
            grid.y1[i, j], grid.y2[i, j],
            geom.a[i, j, 0, 0], geom.a[i, j, 0, 1], geom.a[i, j, 1, 1],
            geom.b[i, j, 0, 0], geom.b[i, j, 0, 1], geom.b[i, j, 1, 1],
            geom.sqrt_a[i, j], geom.K[i, j],
        )
        lines.append(f"{i},{j}," + ",".join(fmt(v) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


STUDY_COLUMNS = (
    "t,c2_distance,final_energy,v_norm,v_norm_err,residual,iterations,positivity_gap"
)


def write_study_csv(path, rows, meta: str | None = None) -> None:
    lines = [meta or meta_line(), STUDY_COLUMNS]
    for r in rows:
        lines.append(
            f"{fmt(r.t)},{fmt(r.c2_distance)},{fmt(r.final_energy)},"
            f"{fmt(r.v_norm)},{fmt(r.v_norm_err)},{fmt(r.residual)},"
            f"{r.iterations},{fmt(r.positivity_gap)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
