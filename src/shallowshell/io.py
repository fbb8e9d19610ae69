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
one np.loadtxt parses the data lines of the open file, every row check is a
mask over all rows, and the first faulting row in file order is the one
reported (its text is read again to quote it).  A study report's header
is its row dataclass's field names, so a new column is one new field.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, fields
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


def write_displacement_csv(path, grid: Grid, u: Displacement, meta: str | None = None) -> None:
    _write_table(path, grid, "i,j,y1,y2,u1,u2,u3", u.components(), meta)


def _data_lines(fh):
    """The lines of an open export file that are neither empty nor comments."""
    for ln in fh:
        ln = ln.rstrip("\n")
        if ln and not ln.startswith("#"):
            yield ln


def _data_row(path, r: int) -> str:
    """Data row r of an export file, read again to quote it in an error."""
    with open(path) as fh:
        return next(itertools.islice(_data_lines(fh), r + 1, None))


def read_displacement_csv(path, grid: Grid):
    """Read three nodal fields from the displacement export format.

    Returns (u1, u2, u3) arrays; also the import path for CSV force
    densities, which share the format.  Every node must appear exactly once
    with finite values.  Where the y1/y2 columns hold numbers, each row must
    lie at the grid's own coordinates (to 1e-9 of the larger side length),
    so a file written for another domain is rejected.  Of several faulty
    rows the first in file order is reported.  Empty and comment lines are
    skipped anywhere.  A well-formed file is parsed by one np.loadtxt call
    on the open file past its header; its commas are then counted, since
    loadtxt with usecols lets a row with extra fields pass.  Otherwise one
    pass over the lines finds the header and the rows, and np.loadtxt
    parses the data lines up to the first row that does not hold seven
    fields.  No copy of the text is kept.
    """
    with open(path) as fh:
        lines = _data_lines(iter(fh.readline, ""))  # readline keeps fh.tell() usable
        header = next(lines, None)
        start = fh.tell()
        first = next(lines, None)
        if header == "i,j,y1,y2,u1,u2,u3" and first is not None:
            compare = _holds_numbers(first)
            fh.seek(start)
            try:
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  usecols=range(7) if compare else (0, 1, 4, 5, 6))
            except ValueError:  # a malformed line: the pass below names it
                data = None
            if data is not None and len(data) == grid.num_nodes:
                fh.seek(start)
                chunks = iter(lambda: fh.read(1 << 16), "")
                if sum(chunk.count(",") for chunk in chunks) == 6 * len(data):
                    return _check_rows(data, compare, grid, path)
    with open(path) as fh:
        lines = _data_lines(fh)
        header = next(lines, None)
        commas = np.fromiter((ln.count(",") for ln in lines), np.int32)
    if header != "i,j,y1,y2,u1,u2,u3":
        raise ValueError(f"unexpected displacement CSV header: {header!r}")
    if len(commas) != grid.num_nodes:
        # checked first: a file for another grid size is named as such
        raise ValueError(f"displacement CSV holds {len(commas)} rows, expected {grid.num_nodes}")
    malformed = int(next(iter(np.flatnonzero(commas != 6)), len(commas)))
    # the rows before the first malformed one are checked first: a fault
    # among them comes earlier in file order
    fields = None
    if malformed:
        # The first row decides whether the coordinate columns are compared:
        # the benchmark's fields257 load writes numpy reprs such as
        # `np.float64(0.5)` there (ROADMAP item 4).
        compare = _holds_numbers(_data_row(path, 0))
        with open(path) as fh:
            lines = _data_lines(fh)
            next(lines)  # the header
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=malformed,
                              usecols=range(7) if compare else (0, 1, 4, 5, 6))
        fields = _check_rows(data, compare, grid, path)
    if malformed < len(commas):
        raise ValueError(f"malformed displacement CSV row: {_data_row(path, malformed)!r}")
    return fields


def _check_rows(data: np.ndarray, compare: bool, grid: Grid, path):
    """(u1, u2, u3) from the parsed data rows; raises on the first faulting row."""
    n = len(data)
    index, values = data[:, :2], data[:, -3:]
    integral = (np.isfinite(index) & (index == np.rint(index))).all(axis=1)
    in_range = integral & (index >= 0).all(axis=1) & (index < grid.shape).all(axis=1)
    i, j = (np.where(in_range, col, 0).astype(np.intp) for col in index.T)
    y1s, y2s = grid.y1[:, 0], grid.y2[0, :]
    tol = 1e-9 * max(grid.L1, grid.L2)
    off_grid = (
        ~((np.abs(data[:, 2] - y1s[i]) <= tol) & (np.abs(data[:, 3] - y2s[j]) <= tol))
        if compare else np.zeros(n, dtype=bool)
    )
    key = i * grid.n2 + j
    del i, j  # freed early: a read peaks below twice its parsed columns
    # a node belongs to the first row that names it, in file order
    owner = np.full(grid.num_nodes, n)
    np.minimum.at(owner, key[in_range], np.flatnonzero(in_range))
    duplicate = in_range & (owner[key] != np.arange(n))
    del owner
    finite = np.isfinite(values).all(axis=1)
    fault = ~in_range | duplicate | off_grid | ~finite
    if fault.any():
        r = int(fault.argmax())
        ln = _data_row(path, r)
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
        fields[k].ravel()[key] = values[:, k]
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


def write_study_csv(path, rows, meta: str | None = None) -> None:
    """The fields of each row in declaration order: floats by fmt, integers as is."""
    lines = [meta or meta_line(), ",".join(f.name for f in fields(rows[0]))]
    for r in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else fmt(v) for v in astuple(r)))
    Path(path).write_text("\n".join(lines) + "\n")
