import re
from dataclasses import fields

import numpy as np
import pytest

from shallowshell import Displacement, ForceDensity, Grid, Immersion, energy, geometry_field
from shallowshell import geometry as ss_geometry
from shallowshell import grid as ss_grid
from shallowshell.cli import main
from shallowshell.config import ConfigError, default_config, parse_config, parse_config_text
from shallowshell.grid import random_clamped_displacement
from shallowshell.io import (
    meta_line,
    read_displacement_csv,
    write_displacement_csv,
    write_geometry_csv,
)
from shallowshell.study import NonconvergenceError, run_convergence_study
from shallowshell.verification import (
    check_gradient,
    check_integration_by_parts,
    check_mixed_symmetry,
    check_plate_path,
    check_strain_symmetry,
    run_verification,
)

MINIMAL = """\
[material]
lambda = 1.0
mu = 1.0
eps = 0.1
"""

TINY_STUDY = """\
[domain]
n1 = 9
n2 = 9
[material]
lambda = 1.0
mu = 1.0
eps = 0.1
[immersion]
kind = paraboloid
t = 0.1
[force]
kind = constant
p1 = 0.1
p2 = -0.05
p3 = 0.5
[study]
t_list = 0.1, 0.05, 0
[output]
directory = {out}
prefix = tiny
"""


# -- config parsing ----------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert (cfg.L1, cfg.L2, cfg.n1, cfg.n2) == (1.0, 1.0, 17, 17)
    assert cfg.material.lam == 1.0 and cfg.material.eps == 0.1
    assert cfg.immersion_kind == "paraboloid"
    assert cfg.t_list == [0.2, 0.1, 0.05, 0.025, 0.0]
    assert cfg.solver.grad_tol == 1e-9 and cfg.solver.max_iter == 5000
    assert cfg.solver.memory == 10 and cfg.solver.ls_shrink == 0.5
    assert cfg.solver.ls_c1 == 1e-4 and cfg.solver.restarts == 1
    assert cfg.out_dir == "out" and cfg.prefix == "study"
    assert cfg.force_kind == "constant"
    assert cfg.force_params == {"p1": 0.5, "p2": -0.3, "p3": 1.0}


def test_missing_mu_error_names_key():
    text = "[material]\nlambda = 1.0\neps = 0.1\n"
    with pytest.raises(ConfigError, match=r"\[material\] mu"):
        parse_config_text(text)


def test_negative_lambda_rejected():
    text = "[material]\nlambda = -1.0\nmu = 1.0\neps = 0.1\n"
    with pytest.raises(ConfigError, match="lambda"):
        parse_config_text(text)


def test_unknown_section_and_keys_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        parse_config_text(MINIMAL + "[plotting]\nstyle = dark\n")
    with pytest.raises(ConfigError, match=r"\[domain\] n3"):
        parse_config_text(MINIMAL + "[domain]\nn3 = 4\n")
    with pytest.raises(ConfigError, match=r"\[solver\] turbo"):
        parse_config_text(MINIMAL + "[solver]\nturbo = yes\n")
    with pytest.raises(ConfigError, match=r"\[immersion\]"):
        parse_config_text(MINIMAL + "[immersion]\nkind = paraboloid\nwobble = 2\n")


def test_t_list_validation():
    with pytest.raises(ConfigError, match="end at 0"):
        parse_config_text(MINIMAL + "[study]\nt_list = 0.2, 0.1\n")
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config_text(MINIMAL + "[study]\nt_list = 0.1, 0.2, 0\n")


def test_bad_numbers_rejected():
    with pytest.raises(ConfigError, match=r"\[material\] mu"):
        parse_config_text("[material]\nlambda = 1\nmu = soft\neps = 0.1\n")
    with pytest.raises(ConfigError, match=r"\[domain\] n1"):
        parse_config_text(MINIMAL + "[domain]\nn1 = 8.5\n")


@pytest.mark.parametrize(
    "text, where",
    [
        ("[material]\nlambda = 1.0\nmu = nan\neps = 0.1\n", "[material] mu"),
        ("[material]\nlambda = inf\nmu = 1.0\neps = 0.1\n", "[material] lambda"),
        (MINIMAL + "[domain]\nl1 = inf\n", "[domain] l1"),
        (MINIMAL + "[immersion]\nkind = paraboloid\nt = nan\n", "[immersion] t"),
        (MINIMAL + "[force]\nkind = constant\np1 = nan\n", "[force] p1"),
        (MINIMAL + "[force]\nkind = polynomial\np3_coeffs = 1, -inf\n", "[force] p3_coeffs"),
        (MINIMAL + "[solver]\ngrad_tol = nan\n", "[solver] grad_tol"),
        (MINIMAL + "[study]\nt_list = 0.1, nan, 0\n", "[study] t_list"),
    ],
)
def test_non_finite_values_rejected(text, where):
    with pytest.raises(ConfigError, match=re.escape(where) + ": not finite"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n1", "3", "grids need at least 5 nodes per side"),
        ("n2", "3", "grids need at least 5 nodes per side"),
        ("l1", "-1", "side lengths must be positive"),
        ("l2", "-1", "side lengths must be positive"),
    ],
)
def test_domain_errors_name_the_offending_key(key, value, message):
    with pytest.raises(ConfigError, match=re.escape(f"[domain] {key}: {message}")):
        parse_config_text(MINIMAL + f"[domain]\n{key} = {value}\n")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grad_tol", "0", "must be positive"),
        ("grad_tol", "-1e-9", "must be positive"),
        ("max_iter", "-1", "must be >= 0"),
        ("memory", "0", "must be >= 1"),
        ("restarts", "0", "must be >= 1"),
        ("ls_shrink", "1.0", "must lie in (0, 1)"),
        ("ls_c1", "0.5", "must lie in (0, 0.5)"),
    ],
)
def test_solver_errors_name_the_offending_key(key, value, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(MINIMAL + f"[solver]\n{key} = {value}\n")
    assert str(exc.value) == f"[solver] {key}: {message}"


@pytest.mark.parametrize("sigma", ["0", "-0.0", "-1"])
def test_nonpositive_gaussian_width_is_a_config_error(tmp_path, capsys, sigma):
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL + f"[force]\nkind = gaussian_bump\namp3 = 1.0\nsigma = {sigma}\n")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: [force] sigma: gaussian bump width must be positive\n"
    assert not (tmp_path / "out").exists()


def test_force_csv_requires_existing_file(tmp_path):
    text = MINIMAL + "[force]\nkind = csv\npath = missing.csv\n"
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config_text(text, base_dir=tmp_path)


def test_force_csv_roundtrip(tmp_path):
    grid = Grid(1.0, 1.0, 9, 9)
    f = ForceDensity.constant(grid, 0.2, 0.0, 1.5)
    path = tmp_path / "force.csv"
    write_displacement_csv(path, grid, Displacement(f.p1, f.p2, f.p3))
    cfg = parse_config_text(
        MINIMAL + "[domain]\nn1 = 9\nn2 = 9\n[force]\nkind = csv\npath = force.csv\n",
        base_dir=tmp_path,
    )
    loaded = cfg.make_force(grid)
    assert np.array_equal(loaded.p1, f.p1)
    assert np.array_equal(loaded.p3, f.p3)


def test_config_hash_deterministic_and_sensitive():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL)
    assert a.config_hash() == b.config_hash()
    c = parse_config_text(MINIMAL.replace("eps = 0.1", "eps = 0.2"))
    assert a.config_hash() != c.config_hash()
    assert a.with_overrides(seed=99).config_hash() != a.config_hash()


def test_config_hash_ignores_output_location():
    a = parse_config_text(MINIMAL)
    assert a.with_overrides(out_dir="elsewhere").config_hash() == a.config_hash()
    b = parse_config_text(MINIMAL + "[output]\ndirectory = runs\nprefix = other\n")
    assert b.config_hash() == a.config_hash()


def test_config_hash_csv_force_by_content(tmp_path, grid9):
    text = MINIMAL + "[domain]\nn1 = 9\nn2 = 9\n[force]\nkind = csv\npath = force.csv\n"
    hashes = []
    for name, p3 in (("a", 1.5), ("b", 1.5), ("c", 2.0)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        f = ForceDensity.constant(grid9, 0.2, 0.0, p3)
        write_displacement_csv(run_dir / "force.csv", grid9, Displacement(f.p1, f.p2, f.p3))
        hashes.append(parse_config_text(text, base_dir=run_dir).config_hash())
    assert hashes[0] == hashes[1]
    assert hashes[0] != hashes[2]


def test_config_file_not_found(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")


# -- CSV I/O -----------------------------------------------------------------------


def test_displacement_csv_roundtrip_bitwise(tmp_path, grid9, rng):
    u = random_clamped_displacement(grid9, rng)
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid9, u, meta_line("deadbeef", 7))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "config_sha256=deadbeef" in lines[0]
    assert lines[1] == "i,j,y1,y2,u1,u2,u3"
    u1, u2, u3 = read_displacement_csv(path, grid9)
    assert np.array_equal(u1, u.u1)
    assert np.array_equal(u2, u.u2)
    assert np.array_equal(u3, u.u3)


def test_displacement_csv_zero_field(tmp_path, grid9):
    path = tmp_path / "zero.csv"
    write_displacement_csv(path, grid9, Displacement.zeros(grid9))
    body = [ln for ln in path.read_text().splitlines()[2:]]
    assert all(ln.endswith(",0,0,0") for ln in body)


def test_displacement_csv_rejects_bad_shape(tmp_path, grid9):
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid9, Displacement.zeros(grid9))
    with pytest.raises(ValueError, match="expected"):
        read_displacement_csv(path, Grid(1.0, 1.0, 17, 17))


def _csv_rows(tmp_path, grid):
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, Displacement.zeros(grid))
    return path, path.read_text().splitlines()


def test_displacement_csv_rejects_duplicate_node(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _csv_rows(tmp_path, grid)
    row = lines[2 + 6]  # node (1,1)
    lines[2 + 7] = row  # in place of node (1,2), so the row count still fits
    path.write_text("\n".join(lines) + "\n")
    message = f"duplicate node (1,1) in displacement CSV row: {row!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_displacement_csv(path, grid)


def test_displacement_csv_rejects_non_finite_value(tmp_path):
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _csv_rows(tmp_path, grid)
    row = lines[2 + 12].rsplit(",", 1)[0] + ",nan"
    lines[2 + 12] = row
    path.write_text("\n".join(lines) + "\n")
    message = f"non-finite value in displacement CSV row: {row!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_displacement_csv(path, grid)


def test_displacement_csv_rejects_other_domain(tmp_path):
    # a unit-square file read onto [0,3]x[0,9]: node (0,1) is the first row off
    path, lines = _csv_rows(tmp_path, Grid(1.0, 1.0, 5, 5))
    message = f"coordinates off the grid in displacement CSV row: {lines[3]!r} (node (0,1)"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_displacement_csv(path, Grid(3.0, 9.0, 5, 5))


@pytest.mark.parametrize("column", [2, 3])
def test_displacement_csv_rejects_one_moved_row(tmp_path, column):
    # node (2,3) moved to 7.5 along one axis; its indices still fit the grid
    grid = Grid(3.0, 9.0, 5, 5)
    path, lines = _csv_rows(tmp_path, grid)
    parts = lines[2 + 13].split(",")
    parts[column] = "7.5"
    row = ",".join(parts)
    lines[2 + 13] = row
    path.write_text("\n".join(lines) + "\n")
    message = f"coordinates off the grid in displacement CSV row: {row!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_displacement_csv(path, grid)


def test_displacement_csv_coordinates_compared_with_tolerance(tmp_path):
    grid = Grid(3.0, 9.0, 5, 5)
    path, lines = _csv_rows(tmp_path, grid)
    parts = lines[2 + 13].split(",")
    parts[3] = repr(float(parts[3]) * (1.0 + 1e-12))
    lines[2 + 13] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert all(np.array_equal(f, np.zeros(grid.shape)) for f in read_displacement_csv(path, grid))


def test_displacement_csv_text_coordinates_not_compared(tmp_path):
    # coordinate columns holding text, as numpy reprs do, are read by index
    grid = Grid(1.0, 1.0, 5, 5)
    path, lines = _csv_rows(tmp_path, grid)
    for k in range(2, len(lines)):
        parts = lines[k].split(",")
        parts[2:4] = [f"np.float64({x})" for x in parts[2:4]]
        parts[6] = "0.5"
        lines[k] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    u1, u2, u3 = read_displacement_csv(path, grid)
    assert np.array_equal(u3, np.full(grid.shape, 0.5))


def test_field_and_geometry_csv_headers(tmp_path, grid9):
    gpath = tmp_path / "g.csv"
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.1}), grid9)
    write_geometry_csv(gpath, geom)
    assert gpath.read_text().splitlines()[1] == (
        "i,j,y1,y2,a11,a12,a22,b11,b12,b22,sqrt_a,K"
    )


# -- study --------------------------------------------------------------------------


def test_tiny_study_report_invariants(tmp_path):
    cfg = parse_config_text(TINY_STUDY.format(out=tmp_path / "out"))
    report = run_convergence_study(cfg)
    assert [r.t for r in report.rows] == [0.1, 0.05, 0.0]
    last = report.rows[-1]
    assert last.t == 0.0 and last.v_norm_err == 0.0 and last.c2_distance == 0.0
    dists = [r.c2_distance for r in report.rows]
    assert dists[0] > dists[1] > dists[2]
    errs = [r.v_norm_err for r in report.rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r.positivity_gap > 0 for r in report.rows)
    assert report.boundedness == max(r.v_norm for r in report.rows)
    csv_path = report.csv_path(cfg)
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# shallowshell=")
    assert lines[1].startswith("t,c2_distance,final_energy,v_norm,v_norm_err,")
    assert len(lines) == 2 + len(report.rows)


def test_study_without_the_plate_fails_before_solving(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("homotopy_solve called")

    monkeypatch.setattr("shallowshell.study.homotopy_solve", no_solve)
    cfg = parse_config_text(TINY_STUDY.format(out=tmp_path / "out"))
    cfg.t_list = [0.1, 0.05]
    with pytest.raises(ValueError, match="must contain the plate t=0"):
        run_convergence_study(cfg)
    assert not (tmp_path / "out").exists()


def test_study_nonconvergence_tagged(tmp_path):
    text = TINY_STUDY.format(out=tmp_path / "out") + "[solver]\nmax_iter = 2\n"
    cfg = parse_config_text(text)
    with pytest.raises(NonconvergenceError) as err:
        run_convergence_study(cfg, write=False)
    assert err.value.t == 0.0  # the cold plate solve runs first


def test_default_study_computes_each_members_geometry_once(tmp_path, monkeypatch):
    """The default study at 9 x 9 has five members; the sweep assembles each
    once, so surface geometry is computed once at the nodes and once at the
    cells of each: 10 calls (a pre-pass that repeats the check makes 20)."""
    calls = []
    surface_quantities = ss_geometry.surface_quantities

    def counted(imm, y, *args):
        calls.append(imm.params.get("t", 0.0))
        return surface_quantities(imm, y, *args)

    monkeypatch.setattr(ss_geometry, "surface_quantities", counted)
    cfg = default_config().with_overrides(grid=(9, 9), out_dir=str(tmp_path / "out"))
    run_convergence_study(cfg, write=False)
    assert len(calls) == 10
    assert sorted(calls) == sorted(2 * cfg.t_list)


def test_study_records_hold_python_numbers(tmp_path):
    """Rows and the boundedness hold Python floats and ints, so their reprs
    show plain numbers."""
    report = run_convergence_study(parse_config_text(TINY_STUDY.format(out=tmp_path)),
                                   write=False)
    assert type(report.boundedness) is float
    for row in report.rows:
        for f in fields(row):
            value = getattr(row, f.name)
            assert type(value) is (int if f.name == "iterations" else float), f.name
        assert "np." not in repr(row)


# -- verification -------------------------------------------------------------------


def test_run_verification_all_pass():
    results = run_verification()
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


def test_corrupted_gradient_detected():
    check = check_gradient(corrupt_gradient=True)
    assert not check.passed
    assert check.observed > check.threshold


def test_plate_closed_form_catches_a_broken_twist_weight(monkeypatch):
    """A bending twist weight of 1 in place of 2 breaks the energy and its
    gradient alike, so the gradient check cannot see it; the closed form
    of the plate energy does."""
    monkeypatch.setattr(energy, "_SHEAR", np.array([1.0, 1.0, 1.0])[:, None])
    check = check_plate_path()
    assert not check.passed and check.observed > 1e-3
    assert check_gradient().passed


def test_mixed_symmetry_catches_a_broken_interior_d1_weight(monkeypatch):
    """An interior d1 weight of 0.6 / h in place of 0.5 / h on both axes,
    forward and adjoint alike, passes every other check (on one axis only,
    strain_symmetry sees it too); the twist-row identity sees a twist
    weight of 0.25 against 0.6 * 0.6 = 0.36, a residual of 11/36."""
    apply, adjoint = ss_grid._BendingStencil._apply, ss_grid._BendingStencil._adjoint

    def broken_apply(op, f):
        out = apply(op, f)
        if len(out) > 3:
            out[3:] *= 1.2
        return out

    def broken_adjoint(op, y):
        if len(y) > 3:
            y = y.copy()
            y[3:] *= 1.2
        return adjoint(op, y)

    monkeypatch.setattr(ss_grid._BendingStencil, "_apply", broken_apply)
    monkeypatch.setattr(ss_grid._BendingStencil, "_adjoint", broken_adjoint)
    check = check_mixed_symmetry()
    assert not check.passed and abs(check.observed - 11.0 / 36.0) < 1e-12
    failed = [r.name for r in run_verification() if not r.passed]
    assert failed == ["discrete.mixed_derivative_symmetry"]


def test_strain_symmetry_catches_a_broken_ghost_weight(monkeypatch):
    """A mirror-ghost weight of 2.2 / h1^2 in place of 2 / h1^2, on the two
    edges normal to axis 1 only, forward and adjoint alike, passes every
    other check; swapping the axes moves it onto the clamped d22 rows, so
    the reflected bending strains differ at the edges."""
    apply, adjoint = ss_grid._BendingStencil._apply, ss_grid._BendingStencil._adjoint

    def broken_apply(op, f):
        out = apply(op, f)
        out[0][op.edges[0]] *= 1.1
        return out

    def broken_adjoint(op, y):
        y = y.copy()
        y[0][op.edges[0]] *= 1.1
        return adjoint(op, y)

    monkeypatch.setattr(ss_grid._BendingStencil, "_apply", broken_apply)
    monkeypatch.setattr(ss_grid._BendingStencil, "_adjoint", broken_adjoint)
    check = check_strain_symmetry()
    assert not check.passed and check.observed > 1e-3
    failed = [r.name for r in run_verification() if not r.passed]
    assert failed == ["energy.strain_symmetry"]


def test_integration_by_parts_catches_a_broken_cell_average_weight(monkeypatch):
    """A cell average that weighs the (1, 1) corner 0.3 in place of 0.25,
    forward and adjoint alike, passes every other check; the cell product
    rule no longer telescopes."""
    apply, adjoint = ss_grid._CellStencil._apply, ss_grid._CellStencil._adjoint

    def broken_apply(op, f):
        out = apply(op, f)
        if len(out) > 2:
            out[2] += 0.05 * f[..., 1:, 1:]
        return out

    def broken_adjoint(op, y):
        extra = 0.05 * y[2] if len(y) > 2 else None
        x = adjoint(op, y)
        if extra is not None:
            x[..., 1:, 1:] += extra
        return x

    monkeypatch.setattr(ss_grid._CellStencil, "_apply", broken_apply)
    monkeypatch.setattr(ss_grid._CellStencil, "_adjoint", broken_adjoint)
    check = check_integration_by_parts()
    assert not check.passed and abs(check.observed - 0.139) < 1e-3
    failed = [r.name for r in run_verification() if not r.passed]
    assert failed == ["discrete.integration_by_parts"]


# -- CLI ----------------------------------------------------------------------------


def test_cli_geometry_and_verify(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + f"[output]\ndirectory = {tmp_path}\n")
    assert main(["geometry", "--config", str(cfgfile), "--grid", "9x9"]) == 0
    out = capsys.readouterr().out
    assert "geometry field written" in out
    assert (tmp_path / "study_geometry.csv").exists()

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[material]\nlambda = 1.0\neps = 0.1\n")
    assert main(["study", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["study", "--config", str(tmp_path / "missing.ini")]) == 2
    capsys.readouterr()
    assert main(["solve", "--config", str(bad)]) == 2


def test_cli_bad_grid_override(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    assert main(["verify", "--config", str(cfgfile), "--grid", "9by9"]) == 2


def test_cli_solve_and_study(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(
        TINY_STUDY.format(out=tmp_path / "runs") + "\n[solver]\nseed = 5\n"
    )
    assert main(["solve", "--config", str(cfgfile), "--t", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert (tmp_path / "runs" / "tiny_solve.csv").exists()

    assert main(["study", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "largest v_norm over the rows: " in out


def test_cli_nonconvergence_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(
        TINY_STUDY.format(out=tmp_path / "runs") + "\n[solver]\nmax_iter = 2\n"
    )
    assert main(["study", "--config", str(cfgfile)]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_rigidity(tmp_path, capsys):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "[domain]\nn1 = 9\nn2 = 9\n")
    assert main(["rigidity", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "Korn constant 1/2 (exact)" in out
    residuals = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines()
                 if "relative residual" in line]
    assert len(residuals) == 2 and max(residuals) <= 1e-12
    assert "<= sqrt(2|Omega|) ||E(u)|| = 1.41421 ||E(u)||" in out
    assert main(["rigidity", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == out
    with pytest.raises(SystemExit) as exc:
        main(["rigidity", "--config", str(cfgfile), "--starts", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, grid", [("solve", "3x3"), ("study", "0x9"), ("verify", "9x4")])
def test_cli_grid_override_below_five_nodes(tmp_path, capsys, command, grid):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    assert main([command, "--config", str(cfgfile), "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert f"config error: --grid {grid}: grids need at least 5 nodes per side" in err


def test_cli_study_deterministic_bytes(tmp_path):
    cfgfile = tmp_path / "c.ini"
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    cfgfile.write_text(TINY_STUDY.format(out="PLACEHOLDER"))
    cfg1 = TINY_STUDY.format(out=out1)
    cfg2 = TINY_STUDY.format(out=out2)
    (tmp_path / "c1.ini").write_text(cfg1)
    (tmp_path / "c2.ini").write_text(cfg2)
    assert main(["study", "--config", str(tmp_path / "c1.ini")]) == 0
    assert main(["study", "--config", str(tmp_path / "c2.ini")]) == 0
    b1 = (out1 / "tiny.csv").read_bytes()
    b2 = (out2 / "tiny.csv").read_bytes()
    assert b1 == b2


def test_default_config_usable():
    cfg = default_config()
    assert cfg.material.mu == 1.0
    assert cfg.make_grid().n1 == 17
