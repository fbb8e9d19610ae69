"""CSV export and import of fields, geometry, and study reports.

All floats are printed with 17 significant digits (lossless for float64),
rows end with plain newlines, and every file starts with one comment line
carrying the tool version plus the configuration hash and seed of the run.
The hash (StudyConfig.config_hash) covers only the inputs that determine the
numbers: domain, material, immersion, force (a CSV load by its bytes),
solver and t_list.  The output directory and prefix are not hashed, so the
same run written to two places gives byte-identical files.

Node files are written in bounded blocks of grid lines (about 1/32 of the
grid each), so no copy of the whole table is ever held in memory.  Each
block's text is built by numpy from fixed-width byte slots and is
byte-for-byte what format(x, ".17g") gives for every float; values whose
vectorized digits could be off are printed by "%.17g" itself.

Reads are vectorized: one np.loadtxt parses the data lines of the open
file, every row check is a mask over all rows, and the first faulting row
in file order is the one reported (its text is read again to quote it).  A
study report's header is its row dataclass's field names, so a new column
is one new field.
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


_X0 = 300  # the tables by decimal exponent x are indexed by x + _X0
_TABLES: list = []  # built on first use


def _tables() -> list:
    if _TABLES:
        return _TABLES

    def word(text: str, at: int = 0) -> int:  # text's bytes from byte `at` of a word
        return int.from_bytes(bytes(at) + text.encode(), "little")

    # group[g]: the four ASCII digits of g at bytes 0, 2, 4, 6; last[q][g]:
    # the last nonzero digit among digits 1-16 when word q + 1 holds g (0:
    # none).  Both are outer products of two-digit tables, so building them
    # allocates little beyond the tables themselves.
    pair = np.array([word("\0".join(f"{p:02d}")) for p in range(100)], np.uint64)
    group = (pair[:, None] | pair << np.uint64(32)).ravel()
    upto = np.array([[len(f"{p:02d}".rstrip("0")) + 2 * i if p else 0 for p in range(100)]
                     for i in range(8)], np.int8)
    last = np.empty((4, 10000), np.int8)
    for q in range(4):
        np.maximum.outer(upto[2 * q], upto[2 * q + 1], out=last[q].reshape(100, 100))
    # keep[q][c] keeps digits 0..c-1 in word q, dot[q][c] puts the dot after
    # digit c-1 (c = 0: no dot)
    slots = [range(4 * q - 3, 4 * q + 1) for q in range(5)]  # the digits of word q
    keep = np.array([[sum(0xFF << 16 * s for s, d in enumerate(ds) if d < c) for c in range(18)]
                     for ds in slots], np.uint64)
    dot = np.array([[sum(word(".", 2 * s + 1) for s, d in enumerate(ds) if d == c - 1 >= 0)
                     for c in range(18)] for ds in slots], np.uint64)
    # by exponent: "0." and zeros before digit 0 (-4 <= x < 0), the digit
    # the dot follows (-1: none among the digits), the exponent (x < -4, x > 16)
    xs = range(-_X0, _X0)
    head = np.array([word("0." + "0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in xs], np.uint64)
    point = np.array([max(x, -1) if -4 <= x <= 16 else 0 for x in xs], np.int8)
    expo = np.array([0 if -4 <= x <= 16 else word(f"e{x:+03d}") for x in xs], np.uint64)
    first = np.array([word(s) | word(str(d), 6) for s in ("", "-") for d in range(10)], np.uint64)
    pow10 = np.full((3, 2 * _X0), np.nan)  # 10^(16 - x) as hi_hi + hi_lo + lo, filled on use
    _TABLES[:] = group, last, keep, dot, head, point, expo, first, pow10
    return _TABLES


def _digits(v: np.ndarray, pow10: np.ndarray):
    """(n, x + _X0, exact) per value: x = floor(log10|v|) and the 17 digits
    n = round(P), P = |v| 10^(16-x), from a double-double product whose
    error is below 1e-13.  They are exact unless P's fraction lies within
    1e-6 of 1/2, x is off by one (P outside [1e16, 1e17) before rounding),
    n rounds up to 1e17, or |v| lies outside (1e-280, 1e280), where the
    product's split could overflow.  Zeros are exact, with n = 0 and x = 0.
    """
    a = np.abs(v)
    exact = (a > 1e-280) & (a < 1e280)
    a[~exact] = 1.0
    ix = np.floor(np.log10(a)).astype(np.intp) + _X0
    for i in set(ix[np.isnan(pow10[0, ix])].tolist()):  # exponents not met before
        num, den = 10 ** max(16 + _X0 - i, 0), 10 ** max(i - 16 - _X0, 0)
        hi = num / den  # int / int is correctly rounded
        h, d = hi.as_integer_ratio()
        c = 134217729.0 * hi  # Veltkamp split
        pow10[:, i] = c - (c - hi), hi - (c - (c - hi)), (num * d - h * den) / (den * d)
    hh, hl, lo = pow10.take(ix, axis=1)
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    p = a * (hh + hl)
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo  # P = p + t
    floor = np.floor(t)
    m = p.astype(np.int64) + floor.astype(np.int64)  # floor(P)
    t -= floor
    n = m + (t > 0.5)
    exact &= (m >= 10 ** 16) & (n < 10 ** 17) & (np.abs(t - 0.5) > 1e-6)
    n[~exact] = 0
    exact |= v == 0
    return n, ix, exact


def _float_words(v: np.ndarray) -> np.ndarray:
    """(6, len(v)) uint64 words whose non-NUL bytes are format(v, ".17g").

    Word 0 holds the sign, "0." and up to three zeros (fixed notation below
    1), then digit 0; words 1-4 hold digits 1-16, four each; each digit is
    followed by a slot for the dot.  Word 5 holds "e", the exponent's sign
    and digits, and a slot for the separator.  Values whose digits are not
    exact are printed by "%.17g" itself.
    """
    group, last, keep, dot, head, point, expo, first, pow10 = _tables()
    n, ix, exact = _digits(v, pow10)
    d0, r = np.divmod(n, 10 ** 16)
    gs = [g for h in np.divmod(r, 10 ** 8) for g in np.divmod(h, 10 ** 4)]
    sig = np.maximum.reduce([last[q][g] for q, g in enumerate(gs)]) + 1
    pt = point[ix].astype(np.intp) + 1
    kept = np.maximum(sig, pt)  # trailing zeros go, integer digits stay
    pt[kept <= pt] = 0
    words = np.empty((6, len(v)), np.uint64)
    words[0] = head[ix] | first[d0 + 10 * np.signbit(v)] | dot[0][pt]
    for q, g in enumerate(gs, 1):
        words[q] = group[g] & keep[q][kept] | dot[q][pt]
    words[5] = expo[ix]
    slow = np.flatnonzero(~exact)
    if len(slow):
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], "S40")
        words[:5, slow] = text.view(np.uint64).reshape(-1, 5).T
        words[5, slow] = 0
    return words


def _write_table(path, grid: Grid, header: str, columns, meta: str | None) -> None:
    """One row i,j,y1,y2,<columns> per node, (i, j) in row-major order.

    A block of grid lines (1/32 of the grid, or at least ~1024 values) is
    laid out as fixed byte slots, NUL where unused: per node its "i,", "j,",
    "y1," and "y2," each NUL-padded to the widest, then 48 bytes per value
    from _float_words.  The block is written with one np.compress of its
    non-NUL bytes.
    """
    def slots(texts):  # one row of NUL-padded ASCII bytes per text
        return np.array(texts, "S").view(np.uint8).reshape(len(texts), -1)

    n1, n2 = grid.shape
    k = len(columns)
    lead = [slots([f"{i}," for i in range(n1)]), slots([f"{j}," for j in range(n2)]),
            slots([fmt(y) + "," for y in grid.y1[:, 0].tolist()]),
            slots([fmt(y) + "," for y in grid.y2[0, :].tolist()])]
    width = -(-sum(part.shape[1] for part in lead) // 8) * 8  # the words 8-byte aligned
    sep = np.array([ord(",")] * (k - 1) + [ord("\n")], np.uint64)[:, None] << np.uint64(40)
    lines = max(1, n1 // 32, 1024 // (n2 * k))
    rows = np.zeros((lines, n2, width + 48 * k), np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{meta or meta_line()}\n{header}\n".encode())
        for i in range(0, n1, lines):
            block = slice(i, min(i + lines, n1))
            out = rows[:block.stop - i]
            at = 0
            for q, part in enumerate(lead):  # i and y1 by line, j and y2 by column
                out[..., at:at + part.shape[1]] = part[block, None] if q % 2 == 0 else part
                at += part.shape[1]
            values = np.concatenate([c[block].ravel() for c in columns], dtype=float)
            words = _float_words(values).reshape(6, k, -1)
            words[5] |= sep
            dest = out.reshape(-1, out.shape[2])[:, width:].view(np.uint64)
            dest.reshape(-1, k, 6)[...] = words.transpose(2, 1, 0)
            out = out.ravel()
            fh.write(out.compress(out != 0))


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
