"""CSV export and import of fields, geometry, and study reports.

All floats are printed with 17 significant digits (lossless for float64),
rows end with plain newlines, and every file starts with one comment line
carrying the tool version plus the configuration hash and seed of the run.
The hash (StudyConfig.config_hash) covers only the inputs that determine the
numbers: domain, material, immersion, force (a CSV load by its bytes),
solver and t_list.  The output directory and prefix are not hashed, so the
same run written to two places gives byte-identical files.

Node files are streamed to the open file one grid line (fixed i) at a time,
so no copy of the whole table is ever held in memory.  Reads are vectorized:
one np.loadtxt parses the data rows, every row check is a mask over all
rows, and the first faulting row in file order is the one reported.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import SurfaceGeometry
from .grid import Displacement, Grid


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def meta_line(config_hash: str = "none", seed: int = 0) -> str:
    from . import __version__

    return f"# shallowshell={__version__} config_sha256={config_hash} seed={seed}"


def _write_table(path, grid: Grid, header: str, columns, meta: str | None) -> None:
    """One row i,j,y1,y2,<columns> per node, (i, j) in row-major order.

    Each grid line is formatted from one .tolist() block and written
    straight to the file; "%.17g" % x gives the bytes of fmt(x).
    """
    y1 = [fmt(x) for x in grid.y1[:, 0].tolist()]
    y2 = [fmt(x) for x in grid.y2[0, :].tolist()]
    row = "%d,%d,%s,%s" + ",%.17g" * len(columns) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{meta or meta_line()}\n{header}\n")
        for i in range(grid.n1):
            line = zip(*(c[i].tolist() for c in columns))
            fh.writelines(row % (i, j, y1[i], y2[j], *v) for j, v in enumerate(line))


def write_field_csv(path, grid: Grid, values: np.ndarray, meta: str | None = None) -> None:
    _write_table(path, grid, "i,j,y1,y2,value", (values,), meta)


def write_displacement_csv(path, grid: Grid, u: Displacement, meta: str | None = None) -> None:
    _write_table(path, grid, "i,j,y1,y2,u1,u2,u3", u.components(), meta)


def read_displacement_csv(path, grid: Grid):
    """Read three nodal fields from the displacement export format.

    Returns (u1, u2, u3) arrays; also the import path for CSV force
    densities, which share the format.  Every node must appear exactly once
    with finite values.  Where the y1/y2 columns hold numbers, each row must
    lie at the grid's own coordinates (to 1e-9 of the larger side length),
    so a file written for another domain is rejected.  Of several faulty
    rows the first in file order is reported.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0]
    if header != "i,j,y1,y2,u1,u2,u3":
        raise ValueError(f"unexpected displacement CSV header: {header!r}")
    rows = lines[1:]
    if len(rows) != grid.num_nodes:
        # checked first: a file for another grid size is named as such
        raise ValueError(f"displacement CSV holds {len(rows)} rows, expected {grid.num_nodes}")
    malformed = next((r for r, ln in enumerate(rows) if ln.count(",") != 6), len(rows))
    # the rows before the first malformed one are checked first: a fault
    # among them comes earlier in file order
    fields = _parse_rows(rows[:malformed], grid) if malformed else None
    if malformed < len(rows):
        raise ValueError(f"malformed displacement CSV row: {rows[malformed]!r}")
    return fields


def _parse_rows(rows: list[str], grid: Grid):
    """(u1, u2, u3) from well-formed data rows; raises on the first faulting row."""
    # The first row decides whether the coordinate columns are compared:
    # the benchmark's fields257 load writes numpy reprs such as
    # `np.float64(0.5)` there (ROADMAP item 5).
    compare = _holds_numbers(rows[0])
    data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                      usecols=range(7) if compare else (0, 1, 4, 5, 6))
    index, values = data[:, :2], data[:, -3:]
    integral = (np.isfinite(index) & (index == np.rint(index))).all(axis=1)
    in_range = integral & (index >= 0).all(axis=1) & (index < grid.shape).all(axis=1)
    i, j = np.where(in_range[:, None], index, 0).astype(np.intp).T
    # rows whose node is unknown get distinct negative keys
    key = np.where(in_range, i * grid.n2 + j, -1 - np.arange(len(rows)))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    duplicate = first[inverse] != np.arange(len(rows))
    y1s, y2s = grid.y1[:, 0], grid.y2[0, :]
    tol = 1e-9 * max(grid.L1, grid.L2)
    off_grid = (
        ~((np.abs(data[:, 2] - y1s[i]) <= tol) & (np.abs(data[:, 3] - y2s[j]) <= tol))
        if compare else np.zeros(len(rows), dtype=bool)
    )
    finite = np.isfinite(values).all(axis=1)
    fault = ~in_range | duplicate | off_grid | ~finite
    if fault.any():
        r = int(fault.argmax())
        ln = rows[r]
        if not integral[r]:
            raise ValueError(f"node index not an integer in displacement CSV row: {ln!r}")
        ni, nj = (int(x) for x in index[r])
        if not in_range[r]:
            raise ValueError(f"node ({ni},{nj}) outside grid {grid.n1}x{grid.n2}")
        if duplicate[r]:
            raise ValueError(f"duplicate node ({ni},{nj}) in displacement CSV row: {ln!r}")
        if off_grid[r]:
            raise ValueError(
                f"coordinates off the grid in displacement CSV row: {ln!r} "
                f"(node ({ni},{nj}) lies at ({fmt(y1s[ni])}, {fmt(y2s[nj])}))"
            )
        raise ValueError(f"non-finite value in displacement CSV row: {ln!r}")
    fields = tuple(np.zeros(grid.shape) for _ in range(3))
    for k in range(3):
        fields[k][i, j] = values[:, k]
    return fields


def _holds_numbers(row: str) -> bool:
    """Whether the y1 column of a data row holds a number."""
    try:
        float(row.split(",")[2])
    except (IndexError, ValueError):
        return False
    return True


def write_geometry_csv(path, geom: SurfaceGeometry, meta: str | None = None) -> None:
    a, b = geom.a, geom.b
    columns = (a[..., 0, 0], a[..., 0, 1], a[..., 1, 1],
               b[..., 0, 0], b[..., 0, 1], b[..., 1, 1], geom.sqrt_a, geom.K)
    _write_table(path, geom.grid, "i,j,y1,y2,a11,a12,a22,b11,b12,b22,sqrt_a,K", columns, meta)


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
