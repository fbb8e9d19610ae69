import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import shallowshell

from shallowshell import (
    Displacement,
    ForceDensity,
    Grid,
    Immersion,
    Material,
    SolverConfig,
    boundedness_certificate,
    homotopy_solve,
    linear_bending_solve,
    make_assembly,
    minimize,
    v_norm,
)
from shallowshell.config import default_config
from shallowshell.elasticity import flat_tensor
from shallowshell.grid import l2_norm, random_clamped_displacement
from shallowshell.solver import (
    NonconvergenceError,
    SolveDiagnostics,
    _bending_matrix,
    _membrane_matrix,
    _weighted_residual,
    pack,
    unpack,
)
from shallowshell.verification import IDENTITY_TOL, rigidity_residuals


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(ls_shrink=1.0)
    with pytest.raises(ValueError):
        SolverConfig(ls_c1=0.5)
    with pytest.raises(ValueError):
        SolverConfig(memory=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


def test_pack_unpack_roundtrip(grid9, rng):
    u = random_clamped_displacement(grid9, rng)
    x = pack(grid9, u)
    assert x.size == 3 * (grid9.n1 - 2) * (grid9.n2 - 2)
    v = unpack(grid9, x)
    for a, b in zip(u.components(), v.components()):
        assert np.array_equal(a, b)


def test_zero_load_returns_immediately(grid9, material):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    u, diag = minimize(asm, Displacement.zeros(grid9), SolverConfig())
    assert diag.iterations == 0 and diag.converged
    assert v_norm(grid9, u) == 0.0


def test_minimize_requires_clamped_start(grid9, material):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    u0 = Displacement.zeros(grid9)
    u0.u1[0, 3] = 1.0
    with pytest.raises(ValueError, match="boundary"):
        minimize(asm, u0, SolverConfig())


def test_residual_contract_and_monotone_energy(grid17, material, general_force):
    asm = make_assembly(grid17, Immersion("paraboloid", params={"t": 0.1}),
                        material, general_force(grid17))
    cfg = SolverConfig()
    u, diag = minimize(asm, Displacement.zeros(grid17), cfg)
    assert diag.converged
    assert diag.final_residual <= cfg.grad_tol * (1.0 + asm.load_norm())
    resid = _weighted_residual(grid17, asm.gradient(u))
    assert resid <= cfg.grad_tol * (1.0 + asm.load_norm()) * (1 + 1e-12)
    hist = np.asarray(diag.energy_history)
    assert hist[-1] < hist[0]
    # monotone up to the documented fp-noise allowance of the line search
    assert np.max(np.diff(hist)) <= diag.noise_floor


def test_minimize_deterministic_bitwise(grid9, material, general_force):
    asm = make_assembly(grid9, Immersion("paraboloid", params={"t": 0.1}),
                        material, general_force(grid9))
    cfg = SolverConfig(seed=3, restarts=2)
    u1, d1 = minimize(asm, Displacement.zeros(grid9), cfg)
    u2, d2 = minimize(asm, Displacement.zeros(grid9), cfg)
    for a, b in zip(u1.components(), u2.components()):
        assert np.array_equal(a, b)
    assert d1.final_energy == d2.final_energy
    assert d1.iterations == d2.iterations


def test_nonconverged_flagged(grid9, material, general_force):
    asm = make_assembly(grid9, Immersion("plate"), material, general_force(grid9))
    u, diag = minimize(asm, Displacement.zeros(grid9), SolverConfig(max_iter=3))
    assert not diag.converged
    assert diag.iterations == 3


def _default_plate_assembly(n):
    cfg = default_config().with_overrides(grid=(n, n))
    grid = cfg.make_grid()
    imm = cfg.make_immersion().with_scale(0.0)
    return make_assembly(grid, imm, cfg.material, cfg.make_force(grid)), cfg.solver


@pytest.mark.parametrize("n", [17, 33, 65])
def test_plate_iterations_do_not_grow_with_the_mesh(n):
    # the factorized plate Hessian as H0: ~40 iterations at every size
    # (the diagonal H0 it replaced needed 216 / 897 / 3954)
    asm, cfg = _default_plate_assembly(n)
    _, diag = minimize(asm, Displacement.zeros(asm.grid), cfg)
    assert diag.converged
    assert diag.iterations <= 60


_SOLVE_BYTES = """
import hashlib
from shallowshell import Displacement, make_assembly, minimize
from shallowshell.config import default_config
cfg = default_config().with_overrides(grid=(65, 65))
grid = cfg.make_grid()
imm = cfg.make_immersion().with_scale(0.0)
asm = make_assembly(grid, imm, cfg.material, cfg.make_force(grid))
u, diag = minimize(asm, Displacement.zeros(grid), cfg.solver)
data = b"".join(c.tobytes() for c in u.components())
print(diag.iterations, repr(diag.final_energy), hashlib.sha256(data).hexdigest())
"""


def test_plate_solve_bytes_do_not_depend_on_blas_threads():
    # the default 65^2 plate solve under one and two BLAS threads
    src = str(Path(shallowshell.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run([sys.executable, "-c", _SOLVE_BYTES], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "runs, picked, converged",
    [
        # an unconverged run with lower energy must not displace a converged one
        ([(-1.0, True), (-5.0, False), (-2.0, True)], 2, True),
        ([(-5.0, False), (-1.0, True)], 1, True),
        # none converged: the lowest-energy run, flagged as such
        ([(-1.0, False), (-3.0, False), (-2.0, False)], 1, False),
        # equal energies: the earliest run
        ([(-2.0, True), (-2.0, True)], 0, True),
    ],
)
def test_restarts_prefer_converged_runs(grid9, material, general_force, monkeypatch,
                                        runs, picked, converged):
    script = iter(runs)

    def scripted_descend(asm, x0, cfg, tol, dinv):
        energy, ok = next(script)
        return unpack(grid9, x0), SolveDiagnostics(1, energy, 0.0, 0, 0.0, ok)

    monkeypatch.setattr("shallowshell.solver._descend", scripted_descend)
    asm = make_assembly(grid9, Immersion("plate"), material, general_force(grid9))
    _, diag = minimize(asm, Displacement.zeros(grid9), SolverConfig(restarts=len(runs)))
    assert diag.final_energy == runs[picked][0]
    assert diag.converged is converged


def test_symmetric_load_gives_symmetric_solution(material):
    # constant transverse load on the unit square: the minimizer inherits
    # the y1 <-> 1-y1 reflection symmetry (u1 odd, u2/u3 even)
    grid = Grid(1.0, 1.0, 17, 17)
    asm = make_assembly(grid, Immersion("plate"), material,
                        ForceDensity.constant(grid, 0.0, 0.0, 1.0))
    u, diag = minimize(asm, Displacement.zeros(grid), SolverConfig())
    assert diag.converged
    refl = Displacement(-u.u1[::-1, :].copy(), u.u2[::-1, :].copy(), u.u3[::-1, :].copy())
    assert v_norm(grid, u - refl) <= 1e-8 * max(1.0, v_norm(grid, u))


def test_linear_regime_oracle_small():
    # thin plate, tiny transverse load: the nonlinear minimizer lands on the
    # direct linear bending solve (same stencils, independent route)
    grid = Grid(1.0, 1.0, 17, 17)
    mat = Material(1.0, 1.0, 0.02)
    force = ForceDensity.constant(grid, 0.0, 0.0, 1e-4)
    asm = make_assembly(grid, Immersion("plate"), mat, force)
    u, diag = minimize(asm, Displacement.zeros(grid), SolverConfig(memory=20))
    assert diag.converged
    u3_lin = linear_bending_solve(grid, mat, force.p3)
    rel = l2_norm(grid, u.u3 - u3_lin) / l2_norm(grid, u3_lin)
    assert rel <= 0.05


def test_linear_bending_solve_matches_clamped_plate_literature():
    # Timoshenko: clamped unit square under uniform load, w_max = alpha q/D
    # with alpha = 0.00126; the isotropic bending stiffness of this tensor
    # is D = (eps^3/3) A^{1111}
    grid = Grid(1.0, 1.0, 65, 65)
    mat = Material(1.0, 1.0, 0.1)
    u3 = linear_bending_solve(grid, mat, np.ones(grid.shape))
    D = (mat.eps**3 / 3.0) * (16.0 / 3.0)
    alpha = float(np.max(np.abs(u3)) * D)
    assert abs(alpha - 0.00126) <= 2e-5


# -- homotopy ------------------------------------------------------------------


def test_homotopy_single_plate_step(grid9, material, general_force):
    force = general_force(grid9)
    steps = homotopy_solve(
        Immersion("paraboloid", params={"t": 0.3}), [0.0], grid9, material, force,
        SolverConfig(),
    )
    assert len(steps) == 1 and steps[0].t == 0.0 and steps[0].c2_dist == 0.0
    asm = make_assembly(grid9, Immersion("plate"), material, force)
    u_direct, _ = minimize(asm, Displacement.zeros(grid9), SolverConfig())
    for a, b in zip(steps[0].u.components(), u_direct.components()):
        assert np.array_equal(a, b)


def test_homotopy_validates_parameters(grid9, material, general_force):
    imm = Immersion("paraboloid", params={"t": 0.2})
    force = general_force(grid9)
    with pytest.raises(ValueError, match="decreasing"):
        homotopy_solve(imm, [0.1, 0.2, 0.0], grid9, material, force, SolverConfig())
    with pytest.raises(ValueError, match="nonnegative"):
        homotopy_solve(imm, [0.1, -0.2], grid9, material, force, SolverConfig())


def test_homotopy_zero_force_all_zero(grid9, material):
    steps = homotopy_solve(
        Immersion("paraboloid", params={"t": 0.2}), [0.1, 0.0], grid9, material,
        ForceDensity.zero(grid9), SolverConfig(),
    )
    assert boundedness_certificate(steps) == 0.0


def test_homotopy_warm_start_not_worse_than_cold(material, general_force):
    grid = Grid(1.0, 1.0, 17, 17)
    force = general_force(grid)
    imm = Immersion("paraboloid", params={"t": 0.2})
    cfg = SolverConfig()
    steps = homotopy_solve(imm, [0.2, 0.1, 0.0], grid, material, force, cfg)
    for step in steps:
        if step.t == 0.0:
            continue
        asm = make_assembly(grid, imm.with_scale(step.t), material, force)
        _, cold = minimize(asm, Displacement.zeros(grid), cfg)
        assert step.diagnostics.final_energy <= cold.final_energy + 1e-10


def test_homotopy_stops_at_first_unconverged_solve(
    grid9, material, general_force, monkeypatch
):
    calls = []

    def counting_minimize(asm, u0, cfg):
        calls.append(asm)
        return minimize(asm, u0, cfg)

    monkeypatch.setattr("shallowshell.solver.minimize", counting_minimize)
    with pytest.raises(NonconvergenceError) as err:
        homotopy_solve(
            Immersion("paraboloid", params={"t": 0.1}), [0.1, 0.05, 0.0], grid9,
            material, general_force(grid9), SolverConfig(max_iter=2),
        )
    assert err.value.t == 0.0  # the cold plate solve runs first
    assert len(calls) == 1  # and nothing runs after it fails


def test_homotopy_records_c2_distance(grid9, material, general_force):
    steps = homotopy_solve(
        Immersion("paraboloid", params={"t": 0.2}), [0.2, 0.1, 0.0], grid9,
        material, general_force(grid9), SolverConfig(),
    )
    dists = [s.c2_dist for s in steps]
    assert dists[0] > dists[1] > dists[2] == 0.0


# -- membrane rigidity -------------------------------------------------------------

RIGIDITY_GRIDS = pytest.mark.parametrize(
    "grid",
    [Grid(1.0, 1.0, 9, 9), Grid(2.0, 1.0, 9, 5), Grid(1.3, 0.7, 17, 33)],
    ids=["9x9", "9x5", "17x33"],
)


@RIGIDITY_GRIDS
def test_korn_and_trace_identities_hold_to_roundoff(grid):
    korn, trace = rigidity_residuals(grid)
    assert korn <= IDENTITY_TOL
    assert trace <= IDENTITY_TOL


@RIGIDITY_GRIDS
def test_identities_fail_off_the_clamped_space(grid):
    rng = np.random.default_rng(7)
    loose = Displacement(*(0.1 * rng.standard_normal(grid.shape) for _ in range(3)))
    korn, trace = rigidity_residuals(grid, [loose])
    assert korn >= 1e-6
    assert trace >= 1e-6


@RIGIDITY_GRIDS
def test_rigidity_zero_set_trivial(grid):
    """Vanishing flat membrane strain forces zero displacement (discretely).

    The cell-difference kernel argument: zero cell strain propagates the
    boundary zeros through the whole lattice; so R > 0 on the sphere.
    """
    d1c, d2c = grid.cell_d1_ops
    rows = []
    for op in (d1c, d2c):
        rows.append(op.toarray())
    stacked = np.vstack(rows)
    cols = np.flatnonzero(grid.interior.ravel())
    sv = np.linalg.svd(stacked[:, cols], compute_uv=False)
    assert sv.min() > 1e-12


# -- the plate Hessian H0 is shared by a sweep ------------------------------------


def test_sweep_factorizes_the_plate_hessian_once(grid9, material, general_force,
                                                 monkeypatch):
    factored = []
    factor = shallowshell.solver._factor_plate_hessian

    def counting_factor(grid, mat):
        factored.append(mat)
        return factor(grid, mat)

    monkeypatch.setattr("shallowshell.solver._factor_plate_hessian", counting_factor)
    steps = homotopy_solve(
        Immersion("paraboloid", params={"t": 0.1}), [0.1, 0.05, 0.0], grid9,
        material, general_force(grid9), SolverConfig(),
    )
    assert factored == [material]
    # the shared factor gives the bytes of one built afresh on a new grid
    fresh = Grid(1.0, 1.0, 9, 9)
    asm = make_assembly(fresh, Immersion("plate"), material, general_force(fresh))
    u, _ = minimize(asm, Displacement.zeros(fresh), SolverConfig())
    assert all(np.array_equal(a, b) for a, b in zip(u.components(), steps[-1].u.components()))
    # another material on the same grid is factorized on its own
    stiffer = Material(lam=2.0, mu=1.0, eps=0.1)
    minimize(make_assembly(grid9, Immersion("plate"), stiffer, general_force(grid9)),
             Displacement.zeros(grid9), SolverConfig())
    assert factored == [material, material, stiffer]


# -- H0 = E^T (C (x) W) E against the 16-pair tensor sum ---------------------------


def _pair_stiffness(a0, ops, weight):
    """sum over a, b, s, t of a0[a, b, s, t] * ops[a, b]^T W ops[s, t]: the
    plate Hessian as it was assembled from the full plate tensor."""
    w = sp.diags(weight)
    K = None
    for (a, b), left in ops.items():
        for (s, t), right in ops.items():
            coef = a0[a, b, s, t]
            if coef == 0.0:
                continue
            term = coef * (left.T @ w @ right)
            K = term if K is None else K + term
    return K.tocsr()


@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_plate_hessian_blocks_match_the_tensor_sum(dims):
    grid = Grid(*dims)
    mat = Material(lam=1.3, mu=0.7, eps=0.1)
    a0 = flat_tensor(mat)
    idx = np.flatnonzero(grid.interior.ravel())
    ops = grid.clamped_d2_ops
    bend = {(a, b): ops[(a + 1, b + 1)][:, idx] for a in range(2) for b in range(2)}
    d = [op[:, idx] for op in grid.cell_d1_ops]
    comp = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    grad = {(a, b): sp.kron(d[a], comp[b], "csr") for a in range(2) for b in range(2)}
    memb = {(a, b): 0.5 * (grad[a, b] + grad[b, a]) for a in range(2) for b in range(2)}
    expected = (
        (_bending_matrix(grid, mat),
         _pair_stiffness(a0, bend, (mat.eps**3 / 3.0) * grid.weights.ravel())),
        (_membrane_matrix(grid, mat),
         _pair_stiffness(a0, memb, np.full(grid.num_cells, mat.eps * grid.cell_weight))),
    )
    for got, ref in expected:
        assert got.shape == ref.shape
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


def test_import_does_not_load_sparse_linalg():
    # scipy.sparse.linalg costs import time and ~2 MB of resident memory
    src = str(Path(shallowshell.__file__).parents[1])
    probe = "import sys, shallowshell; print('scipy.sparse.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "False"
