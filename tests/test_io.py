"""CSV layer: writers against a per-node reference, the reader's row checks,
its memory use, and a bitwise round trip."""

import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shallowshell
from shallowshell import Displacement, Grid, Immersion, geometry_field
from shallowshell.grid import random_clamped_displacement
from shallowshell.io import (
    meta_line,
    read_displacement_csv,
    write_displacement_csv,
    write_geometry_csv,
    write_study_csv,
)
from shallowshell.study import StudyRow

GRIDS = [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)]


def _reference(grid, header, columns, meta):
    """The export format written node by node with format(x, ".17g")."""
    lines = [meta, header]
    for i in range(grid.n1):
        for j in range(grid.n2):
            vals = [grid.y1[i, j], grid.y2[i, j]] + [c[i, j] for c in columns]
            lines.append(f"{i},{j}," + ",".join(format(float(v), ".17g") for v in vals))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("L1, L2, n1, n2", GRIDS)
def test_writers_match_per_node_reference(tmp_path, L1, L2, n1, n2):
    grid = Grid(L1, L2, n1, n2)
    rng = np.random.default_rng([n1, n2])
    # magnitudes from 1e-300 to 1e300 exercise every exponent width of %.17g
    u = Displacement(*(c * 10.0 ** rng.integers(-300, 300, grid.shape)
                       for c in random_clamped_displacement(grid, rng).components()))
    imm = Immersion("sinusoidal_bump", params={"t": 0.05, "m1": 1.0, "m2": 2.0}, L1=L1, L2=L2)
    geom = geometry_field(imm, grid)
    meta = meta_line("cafe", 3)
    path = tmp_path / "out.csv"

    write_displacement_csv(path, grid, u, meta)
    assert path.read_bytes() == _reference(grid, "i,j,y1,y2,u1,u2,u3", u.components(), meta)

    write_geometry_csv(path, geom, meta)
    a, b = geom.a, geom.b
    columns = [a[..., 0, 0], a[..., 0, 1], a[..., 1, 1], b[..., 0, 0], b[..., 0, 1],
               b[..., 1, 1], geom.sqrt_a, geom.K]
    header = "i,j,y1,y2,a11,a12,a22,b11,b12,b22,sqrt_a,K"
    assert path.read_bytes() == _reference(grid, header, columns, meta)


def test_geometry_writer_memory_stays_below_its_columns(tmp_path):
    # streamed one grid line at a time: no copy of the table is held
    grid = Grid(1.0, 1.0, 129, 129)
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.1}), grid)
    path = tmp_path / "g.csv"
    write_geometry_csv(path, geom)  # builds the grid's cached coordinates unmeasured
    tracemalloc.start()
    try:
        write_geometry_csv(path, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column_bytes = 8 * 8 * grid.num_nodes  # eight float64 geometry columns
    assert peak < 1.5 * column_bytes


def test_reader_peak_memory_below_twice_its_columns(tmp_path):
    # parsed straight from the open file: no copy of the text is held
    grid = Grid(1.0, 1.0, 129, 129)
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, random_clamped_displacement(grid, np.random.default_rng(5)))
    read_displacement_csv(path, grid)  # builds the grid's cached coordinates unmeasured
    tracemalloc.start()
    try:
        read_displacement_csv(path, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column_bytes = 7 * 8 * grid.num_nodes  # seven float64 columns
    assert peak < 2.0 * column_bytes


def _rows(tmp_path, grid):
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, Displacement.zeros(grid))
    return path, path.read_text().splitlines()


def _read_fails(path, lines, grid, message):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_displacement_csv(path, grid)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_reader_names_rows_with_wrong_field_count(tmp_path, change):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _rows(tmp_path, grid)
    parts = lines[2 + 7].split(",")
    row = ",".join(parts[:-1] if change == "drop" else parts + ["0"])
    lines[2 + 7] = row
    _read_fails(path, lines, grid, f"malformed displacement CSV row: {row!r}")


def test_reader_rejects_non_integral_index(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _rows(tmp_path, grid)
    row = "1.5" + lines[2 + 4][1:]
    lines[2 + 4] = row
    _read_fails(path, lines, grid, f"node index not an integer in displacement CSV row: {row!r}")


def test_reader_reports_the_earlier_of_two_faults(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _rows(tmp_path, grid)
    early = lines[2 + 3].rsplit(",", 1)[0] + ",inf"
    lines[2 + 3] = early
    lines[2 + 20] = lines[2 + 10]  # node (2,0) again, in place of (4,0)
    _read_fails(path, lines, grid, f"non-finite value in displacement CSV row: {early!r}")

    path, lines = _rows(tmp_path, grid)
    late = lines[2 + 20].rsplit(",", 1)[0] + ",nan"
    lines[2 + 20] = late
    dup = lines[2 + 10]
    lines[2 + 11] = dup  # node (2,0) again, in place of (2,1)
    _read_fails(path, lines, grid, f"duplicate node (2,0) in displacement CSV row: {dup!r}")


def test_reader_reports_a_fault_before_a_later_malformed_row(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _rows(tmp_path, grid)
    early = lines[2 + 6].rsplit(",", 1)[0] + ",nan"
    lines[2 + 6] = early
    lines[2 + 15] = lines[2 + 15] + ",0"
    _read_fails(path, lines, grid, f"non-finite value in displacement CSV row: {early!r}")


def test_reader_skips_comment_and_blank_lines_among_the_rows(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    u = random_clamped_displacement(grid, np.random.default_rng(3))
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, u)
    lines = path.read_text().splitlines()
    lines[2 + 7:2 + 7] = ["# a note", ""]
    lines[2 + 16:2 + 16] = ["", "#"]
    path.write_text("\n".join(lines) + "\n")
    for read, written in zip(read_displacement_csv(path, grid), u.components()):
        assert np.array_equal(read, written)

    # a faulting row after them is still the one quoted
    bad = lines[2 + 12].rsplit(",", 1)[0] + ",nan"
    lines[2 + 12] = bad
    _read_fails(path, lines, grid, f"non-finite value in displacement CSV row: {bad!r}")


_SPECIAL =[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
            1.7976931348623157e308, 0.1, 1.0 / 3.0]
_VALUES = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False))


@given(components=st.tuples(*(arrays(np.float64, (6, 5), elements=_VALUES)
                              for _ in range(3))))
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
def test_displacement_csv_round_trip_is_bitwise(tmp_path_factory, components):
    grid = Grid(1.5, 0.5, 6, 5)
    path = tmp_path_factory.mktemp("roundtrip") / "u.csv"
    write_displacement_csv(path, grid, Displacement(*components))
    for read, written in zip(read_displacement_csv(path, grid), components):
        assert np.array_equal(read.view(np.int64), written.view(np.int64))


def test_meta_line_version_is_the_project_version():
    """Every output file's meta line prints shallowshell.__version__, and
    pyproject.toml's [project] version must say the same.  The file is read
    by regex, since tomllib needs Python 3.11."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL)
    version = re.search(r'^version\s*=\s*"([^"]*)"', project.group(1), re.MULTILINE)
    assert version.group(1) == shallowshell.__version__
    assert meta_line("0" * 16, 0).startswith(f"# shallowshell={version.group(1)} ")


_ROW = dict(t=0.1, c2_distance=0.2, final_energy=-1.0 / 3.0, v_norm=2.5, v_norm_err=5e-324,
            residual=1e-10, iterations=17, positivity_gap=0.75)
_LINE = ("0.10000000000000001,0.20000000000000001,-0.33333333333333331,2.5,"
         "4.9406564584124654e-324,1e-10,17,0.75")


def test_study_csv_columns_are_the_row_fields(tmp_path):
    """The header is the row dataclass's field names; each field follows in
    declaration order, floats with 17 significant digits, integers as is.
    A row class with one more field gets one more column, and nothing else
    changes."""
    header = "t,c2_distance,final_energy,v_norm,v_norm_err,residual,iterations,positivity_gap"
    write_study_csv(tmp_path / "a.csv", [StudyRow(**_ROW)] * 2, "# meta")
    assert (tmp_path / "a.csv").read_text() == f"# meta\n{header}\n{_LINE}\n{_LINE}\n"

    @dataclass
    class WiderRow(StudyRow):
        restarts: int = 1

    write_study_csv(tmp_path / "b.csv", [WiderRow(**_ROW, restarts=3)], "# meta")
    assert (tmp_path / "b.csv").read_text() == f"# meta\n{header},restarts\n{_LINE},3\n"


def _ulp_neighbours(x, k):
    """x and the k floats on either side of it, for both signs."""
    bits = np.array([x]).view(np.int64)[0] + np.arange(-k, k + 1)
    near = bits[(bits >= 0) & (bits < 0x7FF0000000000000)].view(np.float64)
    return np.concatenate([near, -near])


def test_writer_digits_are_format_17g(tmp_path):
    """The writer's vectorized digits give the bytes of format(v, ".17g"):
    on random bit patterns (every exponent, subnormals included), signed
    zeros, infinities and nan, every power of ten with its neighbours within
    3 ulp, the points where the notation switches, and the edges of the
    range its double-double product covers, 1e-280 and 1e280."""
    rng = np.random.default_rng(24)
    values = np.concatenate(
        [rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64),
         [0.0, -0.0, np.inf, -np.inf, np.nan],
         *(_ulp_neighbours(float(f"1e{x}"), 3) for x in range(-323, 309)),
         *(_ulp_neighbours(x, 2000) for x in (1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280))])
    grid = Grid(1.0, 1.0, -(-len(values) // 303), 101)
    fill = np.resize(values, 3 * grid.num_nodes).reshape(3, *grid.shape)
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, Displacement(*fill), "# meta")
    assert path.read_bytes() == _reference(grid, "i,j,y1,y2,u1,u2,u3", fill, "# meta")
