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
