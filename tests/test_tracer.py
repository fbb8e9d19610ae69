"""The benchmark's tracer wraps program names that must keep existing.

The tracer (perfbench/tracing.py) replaces functions, methods, grid
properties and every verification check by name, outside the benchmark
run's error handling, so a renamed or deleted name would end a traced run.
"""

import sys
from pathlib import Path

import shallowshell.cli  # noqa: F401  (loads every module the tracer scans)
from shallowshell import verification
from shallowshell.config import StudyConfig
from shallowshell.energy import EnergyAssembly
from shallowshell.grid import Grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for name in tracing.VERIFICATION_CHECKS:
        assert callable(vars(verification).get(f"check_{name}")), name
    modules = [m for n, m in sys.modules.items()
               if n == "shallowshell" or n.startswith("shallowshell.")]
    owners = modules + [Grid, EnergyAssembly, StudyConfig]
    before = [(owner, dict(vars(owner))) for owner in owners]
    original = verification.check_plate_path
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verification.check_plate_path is not original
    finally:
        tracer.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
