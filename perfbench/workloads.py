"""The benchmark's two workloads.

Each workload makes its inputs from the seed once per run, then repeats one
operation.  An operation is `setup()` followed by `work()`, both timed; the
workload's `check()` then judges the operation's outputs with the
independent checks of checks.py, outside the timed part.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
from tracing import GRID_OPERATORS
from shallowshell import Displacement
# Calls go through the modules, so that the tracer's wrappers, installed as
# module attributes, see them.
from shallowshell import config as ss_config
from shallowshell import energy as ss_energy
from shallowshell import io as ss_io
from shallowshell import study as ss_study
from shallowshell import verification as ss_verification


def _modes(rng, y1, y2, amplitude: float, wave, modes: int = 3) -> np.ndarray:
    """Seeded sum of low modes wave(m pi y1) wave(k pi y2) on the unit square."""
    f = np.zeros_like(y1)
    for m in range(1, modes + 1):
        for k in range(1, modes + 1):
            f += (amplitude / (m * k)) * rng.standard_normal() \
                * wave(m * np.pi * y1) * wave(k * np.pi * y2)
    return f


def clamped_field(rng, y1, y2, amplitude: float) -> np.ndarray:
    """Seeded smooth field, exactly zero on the boundary."""
    f = _modes(rng, y1, y2, amplitude, np.sin)
    f[0, :] = f[-1, :] = f[:, 0] = f[:, -1] = 0.0
    return f


def _same_as_first(workload, outputs) -> list[str]:
    """Every operation of a run must give bitwise the outputs of its first."""
    if workload.reference is None:
        workload.reference = outputs
    return [] if outputs == workload.reference else ["outputs differ from the run's first operation"]


class Study33:
    """The default shell-to-plate study at 33x33, then the 23-check gate.

    The study is the paraboloid family under the constant load
    (0.5, -0.3, 1.0), t = 0.2, 0.1, 0.05, 0.025, 0; the gate is
    `run_verification`, as `shallowshell verify` runs it.  The inputs do not
    depend on the seed, so the iteration count repeats exactly; the seed
    draws the perturbations of the minimum check.
    """

    name = "study33"
    n = 33
    perturbations = 4
    delta = 1e-3

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "study33"
        rng = np.random.default_rng([seed, 33])
        coords = np.linspace(0.0, 1.0, self.n)
        y1, y2 = np.meshgrid(coords, coords, indexing="ij")
        self.directions = [
            Displacement(*(clamped_field(rng, y1, y2, 1.0) for _ in range(3)))
            for _ in range(self.perturbations)
        ]
        self.reference = None

    def setup(self):
        return ss_config.default_config().with_overrides(grid=(self.n, self.n), out_dir=str(self.out))

    def work(self, cfg):
        return (cfg, ss_study.run_convergence_study(cfg),
                ss_verification.run_verification(cfg))

    def check(self, result) -> list[str]:
        cfg, report, gate = result
        rows, steps = report.rows, report.steps
        fails = checks.verification_passed([(r.name, r.passed) for r in gate])
        fails += checks.study_converged([s.diagnostics.converged for s in steps])
        fails += checks.plate_limit([r.t for r in rows], [r.v_norm_err for r in rows])
        fails += checks.c2_distances([r.t for r in rows], [r.c2_distance for r in rows])
        grid = steps[0].assembly.grid
        for step in steps:
            asm, u = step.assembly, step.u
            j_star, scale = asm.energy_and_scale(u)
            perturbed = [asm.energy(u + (sign * self.delta) * v)
                         for v in self.directions for sign in (1.0, -1.0)]
            fails += [f"t={step.t:g}: {m}" for m in checks.energy_minimum(j_star, perturbed, scale)]
            path = self.out / f"{cfg.prefix}_solution_t{step.t:g}.csv"
            fails += checks.bitwise_equal(f"solution CSV at t={step.t:g}", u.components(),
                                          ss_io.read_displacement_csv(path, grid))
        fails += _same_as_first(self, [(r.t, r.final_energy, r.v_norm_err, r.iterations)
                                       for r in rows])
        return fails


class Fields257:
    """A sinusoidal bump (t=0.05, m=(1,2)) at 257x257 under a seeded CSV load.

    Set-up reads the load through `[force] kind = csv` and builds every grid
    operator and the assembly; the work is a fixed set of energy and
    gradient evaluations at seeded clamped displacements, then the geometry
    and one displacement field written as CSV and the displacement read back.
    The solver is never called.
    """

    name = "fields257"
    n = 257
    t, m1, m2 = 0.05, 1.0, 2.0
    directions = 12
    tau = 1e-6
    line_step = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir / "fields257"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 257])
        coords = np.linspace(0.0, 1.0, self.n)
        self.y1, self.y2 = np.meshgrid(coords, coords, indexing="ij")
        y1, y2 = self.y1, self.y2
        # the default constant load plus seeded smooth modes in every component
        self.load = tuple(c + _modes(rng, y1, y2, 0.3, np.cos) for c in (0.5, -0.3, 1.0))
        self.load_path = self.dir / "load.csv"
        rows = ["# seeded load", "i,j,y1,y2,u1,u2,u3"]
        for i in range(self.n):
            for j in range(self.n):
                rows.append(f"{i},{j},{coords[i]!r},{coords[j]!r},"
                            + ",".join(repr(float(p[i, j])) for p in self.load))
        self.load_path.write_text("\n".join(rows) + "\n")
        self.config_path = self.dir / "fields257.ini"
        self.config_path.write_text(
            f"[domain]\nn1 = {self.n}\nn2 = {self.n}\n"
            "[material]\nlambda = 1.0\nmu = 1.0\neps = 0.1\n"
            f"[immersion]\nkind = sinusoidal_bump\nt = {self.t}\nm1 = {self.m1}\nm2 = {self.m2}\n"
            "[force]\nkind = csv\npath = load.csv\n"
        )

        def field(amplitude):
            return Displacement(*(clamped_field(rng, y1, y2, amplitude) for _ in range(3)))

        self.points = [field(0.05) for _ in range(self.directions)]
        self.dirs = [field(0.05) for _ in range(self.directions)]
        self.line = (field(0.05), field(0.1))
        self.reference = None

    def setup(self):
        cfg = ss_config.parse_config(self.config_path)
        config_hash = cfg.config_hash()
        grid = cfg.make_grid()
        for name in GRID_OPERATORS:
            getattr(grid, name)
        force = cfg.make_force(grid)
        asm = ss_energy.make_assembly(grid, cfg.make_immersion(), cfg.material, force)
        return cfg, config_hash, asm

    def work(self, state):
        cfg, config_hash, asm = state
        gv, fd = [], []
        for u, v in zip(self.points, self.dirs):
            _, _, g = asm.full_evaluation(u)
            gv.append(sum(float(np.sum(gc * vc)) for gc, vc in zip(g.components(), v.components())))
            fd.append((asm.energy(u + self.tau * v) - asm.energy(u + (-self.tau) * v))
                      / (2.0 * self.tau))
        base, direction = self.line
        line = [asm.energy(base + (k * self.line_step) * direction) for k in range(6)]
        meta = ss_io.meta_line(config_hash, cfg.solver.seed)
        geo_path = self.dir / "geometry.csv"
        ss_io.write_geometry_csv(geo_path, asm.geometry, meta)
        u_path = self.dir / "displacement.csv"
        ss_io.write_displacement_csv(u_path, asm.grid, self.points[0], meta)
        u_back = ss_io.read_displacement_csv(u_path, asm.grid)
        return state, gv, fd, line, geo_path, u_back

    def check(self, result) -> list[str]:
        (cfg, _, asm), gv, fd, line, geo_path, u_back = result
        fails = checks.gradient_matches_fd(gv, fd)
        fails += checks.quartic_line(line)
        exported = checks.parse_geometry_csv(geo_path, asm.grid.shape)
        k1 = self.m1 * np.pi / cfg.L1
        k2 = self.m2 * np.pi / cfg.L2
        fails += checks.geometry_matches(
            exported, checks.graph_geometry(self.y1, self.y2, self.t, k1, k2))
        fails += checks.geometry_roundtrip(exported, checks.geometry_columns(asm.geometry))
        fails += checks.bitwise_equal("CSV load", self.load, asm.force.components())
        fails += checks.bitwise_equal("displacement CSV", self.points[0].components(), u_back)
        fails += _same_as_first(self, (gv, fd, line))
        return fails


WORKLOADS = {w.name: w for w in (Study33, Fields257)}
