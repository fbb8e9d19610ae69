"""Negative controls for the benchmark's checks, on small grids.

Each check must pass on the program's real output and reject the same
output with one defect put in.  Run with
`PYTHONPATH=src python -m pytest -q perfbench`.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import tracing
from shallowshell import Displacement, ForceDensity, Grid, Immersion, Material, make_assembly
from shallowshell.config import default_config
from shallowshell.geometry import geometry_field
from shallowshell.io import read_displacement_csv, write_displacement_csv, write_geometry_csv
from shallowshell.study import run_convergence_study
from shallowshell.verification import run_verification
from workloads import clamped_field

HERE = Path(__file__).resolve().parent
BUMP = {"t": 0.05, "m1": 1.0, "m2": 2.0}


def _field(grid, rng, amplitude=0.05):
    return Displacement(*(clamped_field(rng, grid.y1, grid.y2, amplitude) for _ in range(3)))


def test_gradient_check_rejects_scaled_gradient():
    grid = Grid(1.0, 1.0, 17, 17)
    asm = make_assembly(grid, Immersion("sinusoidal_bump", params=BUMP),
                        Material(1.0, 1.0, 0.1), ForceDensity.constant(grid, 0.5, -0.3, 1.0))
    rng = np.random.default_rng(5)
    tau = 1e-6
    gv, gv_scaled, fd = [], [], []
    for _ in range(4):
        u, v = _field(grid, rng), _field(grid, rng)
        g = asm.gradient(u)
        dot = sum(float(np.sum(a * b)) for a, b in zip(g.components(), v.components()))
        gv.append(dot)
        gv_scaled.append(sum(float(np.sum((1 + 1e-4) * a * b))
                             for a, b in zip(g.components(), v.components())))
        fd.append((asm.energy(u + tau * v) - asm.energy(u + (-tau) * v)) / (2 * tau))
    assert checks.gradient_matches_fd(gv, fd) == []
    assert checks.gradient_matches_fd(gv_scaled, fd)


def test_quartic_check_rejects_a_quintic():
    grid = Grid(1.0, 1.0, 17, 17)
    asm = make_assembly(grid, Immersion("sinusoidal_bump", params=BUMP),
                        Material(1.0, 1.0, 0.1), ForceDensity.constant(grid, 0.5, -0.3, 1.0))
    rng = np.random.default_rng(6)
    base, direction = _field(grid, rng), _field(grid, rng, 0.1)
    line = [asm.energy(base + (0.5 * k) * direction) for k in range(6)]
    assert checks.quartic_line(line) == []
    assert checks.quartic_line([e + 1e-9 * k**5 for k, e in enumerate(line)])


def test_plate_limit_rejects_swapped_order(tmp_path):
    cfg = default_config().with_overrides(grid=(9, 9), out_dir=str(tmp_path))
    rows = run_convergence_study(cfg, write=False).rows
    ts = [r.t for r in rows]
    errs = [r.v_norm_err for r in rows]
    assert checks.plate_limit(ts, errs) == []
    assert checks.c2_distances(ts, [r.c2_distance for r in rows]) == []
    swapped = list(errs)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert checks.plate_limit(ts, swapped)


def test_geometry_check_rejects_one_ulp(tmp_path):
    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("sinusoidal_bump", params=BUMP), grid)
    path = tmp_path / "geometry.csv"
    write_geometry_csv(path, geom)
    exported = checks.parse_geometry_csv(path, grid.shape)
    closed = checks.graph_geometry(grid.y1, grid.y2, BUMP["t"], np.pi, 2 * np.pi)
    assert checks.geometry_roundtrip(exported, checks.geometry_columns(geom)) == []
    assert checks.geometry_matches(exported, closed) == []
    exported["b12"][3, 4] = np.nextafter(exported["b12"][3, 4], np.inf)
    assert checks.geometry_roundtrip(exported, checks.geometry_columns(geom))


def test_csv_check_rejects_altered_row(tmp_path):
    grid = Grid(1.0, 1.0, 9, 9)
    u = _field(grid, np.random.default_rng(7))
    path = tmp_path / "u.csv"
    write_displacement_csv(path, grid, u)
    assert checks.bitwise_equal("csv", u.components(), read_displacement_csv(path, grid)) == []
    lines = path.read_text().splitlines()
    row = lines[2 + 4 * 9 + 4].split(",")  # node (4, 4)
    row[6] = repr(float(row[6]) + 1e-12)
    lines[2 + 4 * 9 + 4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert checks.bitwise_equal("csv", u.components(), read_displacement_csv(path, grid))


def test_verify_check_rejects_a_failed_gate():
    results = [(r.name, r.passed) for r in run_verification(corrupt_gradient=True)]
    assert checks.verification_passed(results) == ["energy.gradient_vs_fd failed"]


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    declared = {(m["name"], m["unit"]) for m in _benchmark()["per_layer"]}
    produced = {(k, unit) for k, (_, unit) in tracing.per_layer(tracing.Tracer(), 0.0, 1.0).items()}
    assert produced == declared


def test_result_line_carries_every_declared_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "study33", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert {(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]} == \
        {(k, v["unit"]) for k, v in result["metrics"].items()}
    assert result == {**result, "correct": True, "attempted": 1, "failed": 0}
