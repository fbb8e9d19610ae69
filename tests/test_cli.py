import numpy as np
import pytest

from shallowshell.cli import main
from shallowshell.config import parse_config_text
from shallowshell.energy import make_assembly
from shallowshell.grid import Displacement, Grid
from shallowshell.io import read_displacement_csv, write_displacement_csv
from shallowshell.solver import _weighted_residual

CONFIG = """\
[domain]
n1 = 9
n2 = 9
[material]
lambda = 1.0
mu = 1.0
eps = 0.1
"""


@pytest.mark.parametrize(
    "command, flag, value",
    [("verify", "--out", "DIR"), ("verify", "--seed", "5"), ("verify", "--grid", "9x9"),
     ("rigidity", "--out", "DIR"), ("rigidity", "--seed", "5")],
)
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, capsys, command, flag, value):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG)
    if value == "DIR":
        value = str(tmp_path / "out")
    assert main([command, "--config", str(cfgfile), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {flag}: {command} does not read it\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_verify_rejects_config_after_validating_it(tmp_path, capsys):
    """verify reads no config: a good file is refused like the other unread
    flags, and a bad one still fails with its own message."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG)
    assert main(["verify", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --config: verify does not read it\n"
    assert captured.out == ""
    bad = tmp_path / "bad.ini"
    bad.write_text("[material]\nlambda = 1.0\neps = 0.1\n")
    assert main(["verify", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "config error: [material] mu: required key is missing\n"


@pytest.mark.parametrize(
    "kind, t, message",
    [("plate", "0.1", "the plate has no scale parameter"),
     ("cylinder_patch", "-0.5", "cylinder_patch curvature t must be >= 0"),
     ("paraboloid", "nan", "not finite: nan")],
    ids=["plate", "cylinder_patch", "nan"],
)
def test_cli_solve_rejects_a_bad_t_before_any_assembly(tmp_path, capsys, monkeypatch,
                                                        kind, t, message):
    def no_assembly(*args, **kwargs):
        raise AssertionError("make_assembly called")

    monkeypatch.setattr("shallowshell.cli.make_assembly", no_assembly)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + f"[immersion]\nkind = {kind}\n")
    assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                 "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: --t: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["p1_coeffs", "p2_coeffs", "p3_coeffs"])
def test_cli_solve_rejects_a_polynomial_load_with_seven_coefficients(tmp_path, capsys, key):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + f"[force]\nkind = polynomial\n{key} = 1,2,3,4,5,6,7\n")
    assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: [force] {key}: at most 6 coefficients\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "study"])
def test_cli_rejects_a_bad_csv_load_as_a_config_error(tmp_path, capsys, command):
    """A CSV load with the wrong row count names [force] path and exits 2
    before anything is written."""
    (tmp_path / "load.csv").write_text("i,j,y1,y2,u1,u2,u3\n0,0,0,0,0,0,0\n")
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[force]\nkind = csv\npath = load.csv\n")
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: [force] path: "
                            "displacement CSV holds 1 rows, expected 81\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_plate_study_needs_t_list_zero(tmp_path, capsys, monkeypatch):
    """The plate has no scale parameter: a plate study with the default
    t_list is refused before any solve; with t_list = 0 it runs."""
    def no_solve(*args, **kwargs):
        raise AssertionError("homotopy_solve called")

    monkeypatch.setattr("shallowshell.study.homotopy_solve", no_solve)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[immersion]\nkind = plate\n")
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: [study] t_list: the plate has no scale "
                            "parameter; its study takes t_list = 0\n")
    assert not out.exists()
    monkeypatch.undo()
    cfgfile.write_text(CONFIG + "[immersion]\nkind = plate\n[study]\nt_list = 0\n")
    assert main(["study", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "study.csv").exists()


SINGULAR = "singular metric: det(a) not positive at node (8, 8)"


@pytest.mark.parametrize(
    "argv, extra, message",
    [(["solve"], "[solver]\nseed = -1\nrestarts = 2\n", "[solver] seed: must be >= 0"),
     (["study", "--seed", "-3"], "", "--seed: must be >= 0"),
     (["solve", "--t", "1e8"], "", f"--t: {SINGULAR}"),
     (["solve"], "[immersion]\nt = 1e8\n", f"[immersion] {SINGULAR}"),
     (["geometry"], "[immersion]\nt = 1e8\n", f"[immersion] {SINGULAR}"),
     (["study"], "[study]\nt_list = 1e8, 0\n", f"[study] t_list: t=1e+08: {SINGULAR}"),
     (["study"], "[output]\nprefix = sub/run\n",
      "[output] prefix: must be a file name, not a path: 'sub/run'"),
     (["study", "--out", "TAKEN"], "", "--out: not a directory: TAKEN"),
     (["solve", "--out", "TAKEN/sub"], "", "--out: not a directory: TAKEN"),
     (["study"], "[output]\ndirectory = TAKEN\n", "[output] directory: not a directory: TAKEN")],
    ids=["seed-key", "seed-flag", "t-flag", "immersion-solve", "immersion-geometry",
         "t_list", "prefix", "out-file", "out-below-file", "directory-file"],
)
def test_cli_refuses_bad_inputs_before_writing(tmp_path, capsys, argv, extra, message):
    """A negative seed, a family member that is no immersion and an output
    location that cannot be written are config errors naming their key:
    exit 2, one line on stderr, nothing written."""
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    argv = [a.replace("TAKEN", str(taken)) for a in argv]
    if "--out" not in argv and "directory" not in extra:
        argv += ["--out", str(tmp_path / "out")]
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + extra.replace("TAKEN", str(taken)))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv[:1] + ["--config", str(cfgfile)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message.replace('TAKEN', str(taken))}\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "a file, not a directory\n"


BUMP = "[immersion]\nkind = sinusoidal_bump\n"
NON_FINITE = "non-finite geometry at {} (0, 0)"


@pytest.mark.parametrize(
    "argv, extra, message",
    [(["geometry"], BUMP + "t = 1e300\n", "[immersion] " + NON_FINITE.format("node")),
     (["geometry"], "[immersion]\nkind = paraboloid\nt = 1e200\n",
      "[immersion] " + NON_FINITE.format("node")),
     (["solve"], BUMP + "t = 1e300\n", "[immersion] " + NON_FINITE.format("cell")),
     (["solve", "--t", "1e300"], BUMP, "--t: " + NON_FINITE.format("cell")),
     (["study"], BUMP + "[study]\nt_list = 1e300, 0\n",
      "[study] t_list: t=1e+300: " + NON_FINITE.format("cell"))],
    ids=["geometry-bump", "geometry-paraboloid", "solve", "solve-t", "study"],
)
def test_cli_rejects_a_member_whose_geometry_overflows(tmp_path, capsys, argv, extra, message):
    """Geometry that overflows to inf or nan is no immersion: exit 2, one
    config error line naming the key and the first bad point, nothing
    written and no numpy warning."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + extra)
    out = tmp_path / "out"
    assert main(argv[:1] + ["--config", str(cfgfile), "--out", str(out)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_an_overflowing_load_does_not_converge(tmp_path, capsys, monkeypatch):
    """p3 = 1e300 overflows the load norm.  It used to reach the solver and
    fail there (exit 3, numpy overflow warnings, a solve CSV of zeros); now
    the load is refused before any solve: exit 2, one line, nothing written."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called")

    monkeypatch.setattr("shallowshell.cli.minimize", no_solve)
    monkeypatch.setattr("shallowshell.study.homotopy_solve", no_solve)
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[force]\np3 = 1e300\n")
    for command in ("solve", "study"):
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: [force] p3: load norm not finite on the 9x9 grid\n"
        assert captured.out == ""
        assert not out.exists()


NON_FINITE_LOADS = {
    "constant": ("[force]\np3 = 1e300\n", "p3"),
    "polynomial": ("[force]\nkind = polynomial\np1_coeffs = 1e200, 1e200\n", "p1_coeffs"),
    "gaussian": ("[force]\nkind = gaussian_bump\namp2 = 1e300\nsigma = 1\n", "amp2"),
    "csv": ("[force]\nkind = csv\npath = load.csv\n", "path"),
}


@pytest.mark.parametrize("command", ["solve", "study"])
@pytest.mark.parametrize("extra, key", NON_FINITE_LOADS.values(), ids=NON_FINITE_LOADS.keys())
def test_cli_rejects_a_load_whose_norm_is_not_finite(tmp_path, capsys, command, extra, key):
    """A finite load whose weighted square sum overflows on the run's grid
    is a config error naming the component's key (the CSV's path): exit 2,
    one line, no numpy warning, nothing written."""
    p3 = np.zeros((9, 9))
    p3[4, 4] = 1e300
    write_displacement_csv(tmp_path / "load.csv", Grid(1.0, 1.0, 9, 9),
                           Displacement(np.zeros((9, 9)), np.zeros((9, 9)), p3))
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + extra)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: [force] {key}: load norm not finite on the 9x9 grid\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_solve_writes_nothing_when_it_does_not_converge(tmp_path, capsys):
    """A solve stopped at max_iter prints its diagnostics and exits 3
    without creating the output directory, as a failed study does."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[solver]\nmax_iter = 2\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "iterations=2 " in captured.out and "converged=False" in captured.out
    assert "written" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("lambda", "-1", "must be >= 0"), ("mu", "0", "must be > 0"),
    ("eps", "0", "half-thickness must be > 0")])
def test_cli_material_errors_name_their_key(tmp_path, capsys, key, value, message):
    cfgfile = tmp_path / "c.ini"
    values = {"lambda": "1.0", "mu": "1.0", "eps": "0.1", key: value}
    cfgfile.write_text("[material]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: [material] {key}: {message}\n"
    assert not (tmp_path / "out").exists()


EXTREME_SCALES = {
    "eps_underflows": ("", "eps = 1e-200", "[material] eps: must lie in [1e-30, 1e+30]: 1e-200"),
    "eps_overflows": ("", "eps = 1e200", "[material] eps: must lie in [1e-30, 1e+30]: 1e+200"),
    "step_underflows": ("l1 = 1e-200", "eps = 0.1",
                        "[domain] l1: must lie in [1e-30, 1e+30]: 1e-200"),
    "step_overflows": ("l1 = 1e200", "eps = 0.1",
                       "[domain] l1: must lie in [1e-30, 1e+30]: 1e+200"),
    "voigt_overflows": ("", "eps = 0.1\nlambda = 1e308\nmu = 1e308",
                        "[material] lambda: must lie in [0, 1e+30]: 1e+308"),
}


@pytest.mark.parametrize("command", ["solve", "study"])
@pytest.mark.parametrize("domain, material, message", EXTREME_SCALES.values(),
                         ids=EXTREME_SCALES.keys())
def test_cli_refuses_extreme_material_and_domain_values(tmp_path, capsys, command, domain,
                                                         material, message):
    """Values whose plate Hessian at u = 0 does not exist in floats (eps^3
    underflowing to a zero bending band, eps^3 or the grid step's 1/h^2
    overflowing, the Voigt coefficients overflowing) are config errors that
    name their key: exit 2, one line, nothing written."""
    values = dict(line.split(" = ") for line in material.split("\n"))
    values = {"lambda": "1", "mu": "1", **values}
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(f"[domain]\nn1 = 9\nn2 = 9\n{domain}\n[material]\n"
                       + "".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
def test_cli_extreme_gaussian_widths_solve(tmp_path, capsys, sigma):
    """sigma^2 overflowing to inf is the constant load amp3; sigma^2
    underflowing to 0 the spike amp3 at the centre node.  Both solve with
    no numpy warning (warnings are errors here)."""
    text = CONFIG + f"[force]\nkind = gaussian_bump\namp3 = 1\nsigma = {sigma}\n"
    p3 = parse_config_text(text).make_force(Grid(1.0, 1.0, 9, 9)).p3
    if sigma == "1e200":
        assert np.all(p3 == 1.0)
    else:
        assert p3[4, 4] == 1.0 and np.count_nonzero(p3) == 1
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_cli_study_refuses_two_t_that_share_a_solution_file(tmp_path, capsys):
    """Each t's solution file is named by t printed with "g"; two t that
    print alike would overwrite one file, so the t_list is a config error:
    exit 2, one line naming both t and the file, nothing written."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[immersion]\nkind = paraboloid\n"
                       "[study]\nt_list = 0.10000001, 0.1, 0\n")
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfgfile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: [study] t_list: t=0.10000001 and t=0.1 share "
                            "the file name study_solution_t0.1.csv\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("center1, sigma, p3", [("1e300", "1e200", 0.0), ("1e300", "1e155", 0.0),
                                                 ("0.5", "1e200", 1.0), ("0.5", "1e155", 1.0)])
def test_gaussian_bump_with_an_overflowing_width_is_finite(center1, sigma, p3):
    """With sigma^2 overflowing, (r/sigma)^2 is formed term by term: a centre
    whose r^2 overflows too gives the bump 0 (it was inf/inf = nan, refused
    as a load norm that is not finite), a centre inside the domain the
    bump 1, as before, with no numpy warning."""
    text = CONFIG + ("[force]\nkind = gaussian_bump\namp3 = 1\n"
                     f"center1 = {center1}\nsigma = {sigma}\n")
    force = parse_config_text(text).make_force(Grid(1.0, 1.0, 9, 9))
    assert np.all(force.p3 == p3) and not force.p1.any() and not force.p2.any()


def test_cli_solve_converges_under_the_strong_tangential_load_l3(tmp_path, capsys):
    """ROADMAP's load L3 on the plate at 17^2: the solve converges (it
    exhausted max_iter = 5000 with H0 fixed at u = 0), writes its solution,
    and the solution read back meets the residual tolerance."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + "[force]\nkind = polynomial\np1_coeffs = 10.8, -9.8, 1.4\n"
                       "p2_coeffs = -9.4, 10.8, 6.7\np3_coeffs = 0.6, -0.4, 0.3\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfgfile), "--out", str(out), "--t", "0",
                 "--grid", "17x17"]) == 0
    assert "converged=True" in capsys.readouterr().out
    cfg = parse_config_text(cfgfile.read_text()).with_overrides(grid=(17, 17))
    grid = cfg.make_grid()
    u = Displacement(*read_displacement_csv(out / "study_solve.csv", grid))
    asm = make_assembly(grid, cfg.make_immersion().with_scale(0.0), cfg.material,
                        cfg.make_force(grid))
    tol = cfg.solver.grad_tol * (1.0 + asm.load_norm())
    assert _weighted_residual(grid, asm.gradient(u)) <= tol


@pytest.mark.parametrize("force, warned", [
    ("[force]\nkind = polynomial\np1_coeffs = 4, -8\np2_coeffs = 4, 0, -8\n",
     "0.2, 0.1, 0.05, 0.025"),
    ("", None),
])
def test_cli_study_names_the_t_whose_h0_rebuild_was_refused(tmp_path, capsys, force, warned):
    """Under T_8 with p3 = 0 the rebuild of H0 at the plate minimizer is
    refused (K_33 is indefinite at that flat saddle), and every warm solve
    reports it: the study says so in one stderr line, its exit code and
    CSVs as usual.  The default study prints nothing there."""
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(CONFIG + force)
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfgfile), "--out", str(out), "--grid", "17x17"]) == 0
    err = capsys.readouterr().err
    if warned is None:
        assert err == ""
    else:
        assert err == (f"warning: t = {warned}: H0 rebuild refused, K_33 did not factor at "
                       "the plate minimizer, which may be a saddle (ROADMAP item 1)\n")
    assert (out / "study.csv").exists()
