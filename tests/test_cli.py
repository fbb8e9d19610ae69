import pytest

from shallowshell.cli import main

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
