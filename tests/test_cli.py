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
