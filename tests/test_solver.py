import gc
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

import shallowshell
from shallowshell import lapack
from kron_reference import band_to_dense, dense, dense_to_band, kron, kron_ops, relative

from shallowshell import (
    Displacement,
    ForceDensity,
    Grid,
    Immersion,
    ImmersionError,
    LineSearchStallError,
    Material,
    SolverConfig,
    homotopy_solve,
    make_assembly,
    minimize,
    v_norm,
)
from shallowshell.config import _SCALES, default_config
from shallowshell.elasticity import flat_tensor, flat_voigt
from shallowshell.energy import EnergyAssembly
from shallowshell.grid import l2_norm, random_clamped_displacement
from shallowshell.solver import (
    NonconvergenceError,
    NotPositiveDefiniteError,
    SolveDiagnostics,
    _MEMBRANE_ROWS,
    _REFRESH,
    _PlateSolve,
    _banded_cholesky,
    _bending_band,
    _dot,
    _membrane_band,
    _plate_hessian_blocks,
    _weighted_residual,
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


def test_stall_diagnostics_carry_the_noise_floor(monkeypatch, grid17, material):
    """A stalled line search reports the search's fp-noise allowance as a
    finished run does: on the L3 plate with STALL_STEP = 0.9, the first
    backtrack of the second iteration stalls."""
    monkeypatch.setattr("shallowshell.solver.STALL_STEP", 0.9)
    force = ForceDensity.polynomial(grid17, L3)
    asm = make_assembly(grid17, Immersion("plate"), material, force)
    with pytest.raises(LineSearchStallError) as exc:
        minimize(asm, Displacement.zeros(grid17), SolverConfig())
    diag = exc.value.diagnostics
    assert diag.iterations == 1 and not diag.converged
    assert diag.noise_floor > 0.0


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

    def scripted_descend(asm, u0, cfg, tol, dinv):
        energy, ok = next(script)
        return u0, SolveDiagnostics(1, energy, 0.0, 0, 0.0, ok)

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


def linear_bending_solve(grid: Grid, mat: Material, p3: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve of the flat bending problem (no membrane terms).

    Assembles the quadratic bending form with the same clamped stencils and
    quadrature as the energy path and solves it for the interior transverse
    unknowns: the small-load oracle for the nonlinear minimizer.  It shares
    the bending matrix with the minimizer's H0, which sets only the
    minimizer's path, while the minimizer itself converges on the energy
    gradient.
    """
    idx = np.flatnonzero(grid.interior.ravel())
    rhs = (grid.weights * p3).ravel()[idx]
    u3 = np.zeros(grid.num_nodes)
    u3[idx] = _banded_cholesky(_bending_band(grid, mat))(rhs)
    return u3.reshape(grid.shape)


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
    assert max(v_norm(grid9, s.u) for s in steps) == 0.0


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

    def counting_minimize(asm, u0, cfg, **options):
        calls.append(asm)
        return minimize(asm, u0, cfg, **options)

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
    stacked = dense(grid.cell_d1_ops)[0]  # [cell d1; cell d2]
    cols = np.flatnonzero(grid.interior.ravel())
    sv = np.linalg.svd(stacked[:, cols], compute_uv=False)
    assert sv.min() > 1e-12


# -- one H0 per sweep, rebuilt in place ---------------------------------------------


def _default_sweep(n, ts):
    cfg = default_config().with_overrides(grid=(n, n))
    grid = cfg.make_grid()
    return homotopy_solve(cfg.make_immersion(), ts, grid, cfg.material, cfg.make_force(grid),
                          cfg.solver)


def test_sweep_factors_k_tt_once_and_k33_per_rebuild(monkeypatch):
    """A sweep makes one H0: the bending matrix, then K_tt, then one K_33 per
    rebuild, here the cold solve's (34 iterations at 17^2) and the plate
    minimizer's.  A minimize call without an H0 builds its own."""
    factored = []
    factor = shallowshell.solver._banded_cholesky

    def counting_factor(ab):
        factored.append(ab.shape[1])
        return factor(ab)

    monkeypatch.setattr("shallowshell.solver._banded_cholesky", counting_factor)
    steps = _default_sweep(17, [0.1, 0.05, 0.0])
    cold, warm = steps[-1].diagnostics, steps[-2].diagnostics
    assert (cold.iterations, cold.h0_rebuilds, warm.h0_rebuilds, warm.h0_refused) == (34, 1, 2, 0)
    n = 15 * 15
    assert factored == [n, 2 * n, n, n]
    # the sweep's cold solve gives the bytes of one with its own H0 on a new grid
    cfg = default_config().with_overrides(grid=(17, 17))
    fresh = cfg.make_grid()
    asm = make_assembly(fresh, Immersion("plate"), cfg.material, cfg.make_force(fresh))
    u, _ = minimize(asm, Displacement.zeros(fresh), cfg.solver)
    assert all(np.array_equal(a, b) for a, b in zip(u.components(), steps[-1].u.components()))
    assert factored == [n, 2 * n, n, n] + [n, 2 * n, n]
    # another material on the same grid is factorized on its own
    stiffer = Material(lam=2.0, mu=1.0, eps=0.1)
    _, diag = minimize(make_assembly(fresh, Immersion("plate"), stiffer, cfg.make_force(fresh)),
                       Displacement.zeros(fresh), cfg.solver)
    assert factored[7:] == [n, 2 * n] + [n] * diag.h0_rebuilds


def test_sweep_holds_one_k33_factor_at_a_time(monkeypatch):
    """H0 is rebuilt in place: whenever a K_33 block is factored, at the
    cold solve's rebuild and at the plate minimizer, no earlier K_33 factor
    is still referenced, and every solve of the sweep runs with exactly one."""
    n = 15 * 15
    k33s, at_factor, at_solve = [], [], []
    factor = shallowshell.solver._banded_cholesky

    def alive():
        gc.collect()
        return sum(ref() is not None for ref in k33s)

    def tracking_factor(ab):
        if ab.shape[1] != n:
            return factor(ab)
        at_factor.append(alive())
        solve = factor(ab)
        k33s.append(weakref.ref(solve))
        return solve

    def checking_minimize(asm, u0, cfg, h0_solve=None):
        at_solve.append(alive())
        return minimize(asm, u0, cfg, h0_solve=h0_solve)

    monkeypatch.setattr("shallowshell.solver._banded_cholesky", tracking_factor)
    monkeypatch.setattr("shallowshell.solver.minimize", checking_minimize)
    steps = _default_sweep(17, [0.2, 0.1, 0.0])
    assert steps[-1].diagnostics.h0_rebuilds == 1  # the cold solve rebuilds
    assert at_factor == [0, 0, 0]
    assert at_solve == [1, 1, 1]


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
    ref = kron_ops(grid)
    bend = {(a, b): ref["bend", (min(a, b) + 1, max(a, b) + 1)][:, idx]
            for a in range(2) for b in range(2)}
    d = [ref["cell_d1", axis][:, idx] for axis in (1, 2)]
    comp = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    grad = {(a, b): sp.kron(d[a], comp[b], "csr") for a in range(2) for b in range(2)}
    memb = {(a, b): 0.5 * (grad[a, b] + grad[b, a]) for a in range(2) for b in range(2)}
    expected = (
        (_bending_band(grid, mat),
         _pair_stiffness(a0, bend, (mat.eps**3 / 3.0) * grid.weights.ravel())),
        (_membrane_band(grid, mat),
         _pair_stiffness(a0, memb, np.full(grid.num_cells, mat.eps * grid.cell_weight))),
    )
    for got, ref in expected:
        ref = ref.toarray()
        assert got.shape[1] == ref.shape[0]
        assert np.abs(band_to_dense(got) - ref).max() <= 1e-14 * np.abs(ref).max()


def _strain_maps(grid):
    """The interior-column strain maps of H0, from column slices of the
    sp.kron-built stencils and a sparse sum."""
    idx = np.flatnonzero(grid.interior.ravel())
    ref = kron_ops(grid)
    bend = sp.vstack([ref["bend", key] for key in ((1, 1), (2, 2), (1, 2))], format="csr")[:, idx]
    memb = sum(kron(ref["cell_d1", axis][:, idx], b)
               for axis, b in zip((1, 2), _MEMBRANE_ROWS))
    return bend, memb


def _reference_bands(grid, mat):
    """Both H0 blocks E^T (C (x) W) E of the sp.kron strain maps, SpGEMM
    products in lower band storage, with their bandwidths."""
    bend, memb = _strain_maps(grid)
    shear = np.array([1.0, 1.0, 2.0])
    c = np.outer(shear, shear) * flat_voigt(mat)
    w_bend = sp.diags((mat.eps**3 / 3.0) * grid.weights.ravel())
    w_memb = sp.diags(np.full(grid.num_cells, mat.eps * grid.cell_weight))
    out = []
    for k in (bend.T @ sp.kron(c, w_bend) @ bend,
              memb.T @ sp.kron(w_memb, flat_voigt(mat)) @ memb):
        lower = sp.tril(k).tocoo()
        kd = int((lower.row - lower.col).max())
        out.append(dense_to_band(k.toarray(), kd))
    return out


@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_plate_hessian_bands_are_the_reference_products(dims):
    """Both H0 blocks, assembled cell by cell and node by node into band
    storage, are the SpGEMM products E^T (C (x) W) E of the sp.kron strain
    maps in band form: the same bandwidth, the same entries to roundoff
    (1e-14 of the largest)."""
    grid = Grid(*dims)
    mat = Material(lam=1.3, mu=0.7, eps=0.1)
    for got, ref in zip((_bending_band(grid, mat), _membrane_band(grid, mat)),
                        _reference_bands(grid, mat)):
        assert got.shape == ref.shape and got.flags.f_contiguous
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_plate_hessian_solves_are_those_of_cho_solve_banded(dims, rng):
    """The factor and the solves of numpy's OpenBLAS give the bytes of
    scipy's cholesky_banded and cho_solve_banded on the same band, for both
    blocks."""
    grid = Grid(*dims)
    mat = Material(lam=1.3, mu=0.7, eps=0.1)
    for ab in (_membrane_band(grid, mat), _bending_band(grid, mat)):
        factor = (cholesky_banded(ab, lower=True), True)
        solve = _banded_cholesky(ab)
        assert ab.tobytes() == factor[0].tobytes()
        for _ in range(3):
            b = rng.standard_normal(ab.shape[1])
            b[::9] = -0.0
            before = b.copy()
            got = solve(b)
            assert got.tobytes() == cho_solve_banded(factor, b, check_finite=False).tobytes()
            assert b.tobytes() == before.tobytes()


def test_dot_is_the_numpy_sum_bit_for_bit(rng):
    """_dot adds in np.sum's pairwise order, whatever the length (below,
    at and past the 8-wide unrolled blocks and the 128-element pairwise
    leaves), with signed zeros and mixed signs, and over the interiors of
    Displacements at 9^2, 33^2 and 129^2."""
    for n in (1, 7, 8, 9, 127, 128, 129, 2883, 3 * 127**2):
        a = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
        b = rng.standard_normal(n)
        a[::5], b[1::7] = -0.0, 0.0
        b[2::11] *= -1.0
        for x, y in ((a, b), (b, a), (a, a), (-a, b)):
            expected = float(np.sum(x * y))
            assert np.float64(_dot(x, y)).tobytes() == np.float64(expected).tobytes(), n
    # The solver passes Displacement interiors.  Their product is C-contiguous
    # in the order of the unknowns packed u1, u2, u3, each row by row, so _dot
    # is np.sum of the packed product; boundary zeros would regroup its sums.
    for n in (9, 33, 129):
        shape = (3, n, n)
        u, v = (Displacement(*(rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))))
                for _ in range(2))
        x, y = (np.concatenate([c[1:-1, 1:-1].ravel() for c in w.components()]) for w in (u, v))
        expected = float(np.sum(x * y))
        got = _dot(u.interior, v.interior)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), n


def test_sweep_iterates_keep_positive_boundary_zeros(monkeypatch):
    """The search direction carries -0.0 on the boundary, and u + alpha d
    turns it into +0.0 (IEEE: 0.0 + -0.0 = +0.0).  In the default sweep at
    17^2 no evaluated iterate and no step's u has a boundary entry with its
    sign bit set, which would print as -0 in a solution CSV; nor has a
    solve started from -0.0 everywhere."""
    signed = []
    evaluate = EnergyAssembly.full_evaluation

    def recorded(asm, u):
        signed.append(bool(np.signbit(u.block[:, ~asm.grid.interior]).any()))
        return evaluate(asm, u)

    monkeypatch.setattr(EnergyAssembly, "full_evaluation", recorded)
    steps = _default_sweep(17, _WARM_TS + [0.0])
    assert len(signed) == sum(step.diagnostics.evaluations for step in steps)
    assert not any(signed)
    for step in steps:
        assert not np.signbit(step.u.block[:, ~step.assembly.grid.interior]).any(), step.t
    # a start whose zeros are all -0.0: the run starts from +0.0 on the boundary
    plate = steps[-1].assembly
    u, diag = minimize(plate, -Displacement.zeros(plate.grid), SolverConfig())
    assert diag.converged and not any(signed[-diag.evaluations:])
    assert not np.signbit(u.block[:, ~plate.grid.interior]).any()


def test_import_does_not_load_sparse_linalg():
    # scipy.sparse.linalg costs import time and ~2 MB of resident memory
    src = str(Path(shallowshell.__file__).parents[1])
    probe = "import sys, shallowshell; print('scipy.sparse.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "False"


_NO_SCIPY = """
import sys
from shallowshell.cli import main
out = sys.argv[1]
assert main(["study", "--grid", "17x17", "--out", out]) == 0
assert main(["verify"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_study_and_verify_load_no_scipy(tmp_path):
    """`import shallowshell.cli`, a 17 x 17 study and the verify gate run on
    numpy and ctypes alone: no scipy module is ever imported."""
    src = str(Path(shallowshell.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert lapack.LAPACK.name == "numpy-openblas"


def test_scipy_fallback_factors_and_solves_alike(monkeypatch, rng):
    """Where numpy exports no dpbtrf symbol the loader falls back to
    scipy.linalg.lapack: its factors and solves of both H0 blocks are those
    of numpy's OpenBLAS to 1e-13, and an indefinite matrix fails at the same
    minor."""
    monkeypatch.setattr(lapack, "SYMBOLS", ("no_such_dpbtrf_",) + lapack.SYMBOLS[1:])
    fallback = lapack.load()
    assert fallback.name == "scipy"
    grid, mat = Grid(1.3, 0.7, 17, 33), Material(lam=1.3, mu=0.7, eps=0.1)
    for ab in (_membrane_band(grid, mat), _bending_band(grid, mat)):
        other = ab.copy(order="F")
        assert lapack.LAPACK.factor(ab) == 0 and fallback.factor(other) == 0
        assert relative(other, ab) <= 1e-13
        b = rng.standard_normal(ab.shape[1])
        assert relative(fallback.solver(other)(b), lapack.LAPACK.solver(ab)(b)) <= 1e-13
    k = np.diag([4.0, 3.0, -1.0, 2.0]) + np.eye(4, k=1) + np.eye(4, k=-1)
    minors = []
    for backend in (lapack.LAPACK, fallback):
        monkeypatch.setattr(lapack, "LAPACK", backend)
        with pytest.raises(NotPositiveDefiniteError) as err:
            _banded_cholesky(np.asfortranarray(dense_to_band(k, 1)))
        minors.append(err.value.minor)
    assert minors == [3, 3]


_FACTOR_BYTES = """
import hashlib
from shallowshell import Grid, Material, lapack
from shallowshell.solver import _bending_band, _membrane_band
grid, mat = Grid(1.0, 1.0, 129, 129), Material(1.0, 1.0, 0.1)
for band in (_membrane_band(grid, mat), _bending_band(grid, mat)):
    assert lapack.LAPACK.factor(band) == 0
    print(hashlib.sha256(band.tobytes()).hexdigest())
print(lapack.LAPACK.name, lapack.LAPACK._get_threads())
"""


def test_plate_hessian_factors_do_not_depend_on_blas_threads():
    """The 129^2 factors of both H0 blocks, where threaded blocked updates
    would change their last bits, are the same bytes under one and two
    OpenBLAS threads; the caller's thread count is restored afterwards."""
    src = str(Path(shallowshell.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _FACTOR_BYTES], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout.splitlines())
    assert outputs[0][:2] == outputs[1][:2]
    assert outputs[0][2] == "numpy-openblas 1" and outputs[1][2] == "numpy-openblas 2"


# -- the plate Hessian at the plate minimizer: blocks and warm steps ---------------


def _pack(u):
    """The interior unknowns as one vector: u1, u2, then u3, each row by row."""
    return u.interior.ravel()


def _unpack(grid, x):
    u = Displacement.zeros(grid)
    u.interior[...] = x.reshape(u.interior.shape)
    return u


def _dense_hessian(grid, mat, u):
    """The plate Hessian at u as one dense matrix in packed order (u1, u2, u3
    blocks), from the assembled blocks; K_tt is _membrane_matrix with its
    interleaved (u1, u2) order undone."""
    n = (grid.n1 - 2) * (grid.n2 - 2)
    order = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
    k33, k3t = _plate_hessian_blocks(grid, mat, u)
    ktt = band_to_dense(_membrane_band(grid, mat))[np.ix_(order, order)]
    k3t = np.column_stack([k3t(e) for e in np.eye(2 * n)])[:, order]
    return np.block([[ktt, k3t.T], [k3t, band_to_dense(k33)]])


def _fd_hessian(asm, x, eps):
    """Central differences of the gradient, column by column."""
    grid = asm.grid
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = eps
        plus, minus = (_pack(asm.gradient(_unpack(grid, x + s * e))) for s in (1.0, -1.0))
        cols.append((plus - minus) / (2.0 * eps))
    return np.column_stack(cols)


@pytest.mark.parametrize("n", [9, 17])
def test_minimizer_blocks_are_central_differences_of_the_gradient(n, material, general_force):
    """K_tt, K_3t and K_33 at a seeded clamped u against central differences
    of `gradient`.  The energy is quartic, so the differences of the cubic
    gradient are exact along (u1, u2) and off by c eps^2 in K_33: halving eps
    divides that error by 4."""
    grid = Grid(1.0, 1.0, n, n)
    asm = make_assembly(grid, Immersion("plate"), material, general_force(grid))
    u = random_clamped_displacement(grid, np.random.default_rng(n), amplitude=0.3)
    x = _pack(u)
    hess = _dense_hessian(grid, material, u)
    assert np.abs(hess - hess.T).max() <= 1e-14 * np.abs(hess).max()
    m = 2 * x.size // 3
    blocks = {"tt": np.s_[:m, :m], "3t": np.s_[m:, :m], "33": np.s_[m:, m:]}
    errors = {}
    for eps in (2e-4, 1e-4):
        fd = _fd_hessian(asm, x, eps)
        for name, b in blocks.items():
            errors[name, eps] = np.abs(hess[b] - fd[b]).max() / np.abs(fd[b]).max()
    for name in ("tt", "3t"):
        assert errors[name, 1e-4] <= 1e-10, name
    assert errors["33", 1e-4] <= 1e-6
    assert 3.9 <= errors["33", 2e-4] / errors["33", 1e-4] <= 4.1


@pytest.mark.parametrize("n", [9, 17])
def test_minimizer_solve_inverts_the_block_gauss_seidel_matrix(n, material, general_force):
    """H0^{-1} rebuilt at the plate minimizer is the inverse of
    M = (D + L) D^{-1} (D + U), D = diag(K_tt, K_33) and L = U^T the K_3t
    block there: M (H0^{-1} g) = g to roundoff, and H0^{-1} is symmetric."""
    grid = Grid(1.0, 1.0, n, n)
    asm = make_assembly(grid, Immersion("plate"), material, general_force(grid))
    u, _ = minimize(asm, Displacement.zeros(grid), SolverConfig())
    solve = _PlateSolve(grid, material)
    solve.refresh(u)
    assert solve.at is u and (solve.rebuilds, solve.refused) == (1, 0)
    hess = _dense_hessian(grid, material, u)
    m = 2 * hess.shape[0] // 3
    d = hess.copy()
    d[m:, :m] = d[:m, m:] = 0.0
    lower = np.tril(hess - d)
    big_m = (d + lower) @ np.linalg.solve(d, (d + lower).T)
    rng = np.random.default_rng(n)
    for _ in range(3):
        g, h = rng.standard_normal((2, hess.shape[0]))
        x = _pack(solve(_unpack(grid, g)))
        assert np.abs(big_m @ x - g).max() <= 1e-9 * np.abs(g).max()
        assert abs(_dot(h, x) - _dot(_pack(solve(_unpack(grid, h))), g)) \
            <= 1e-12 * np.sqrt(_dot(x, x) * _dot(h, h))


@pytest.mark.parametrize("n", [9, 17])
def test_plate_hessian_blocks_at_zero_are_the_bending_matrix(n, material):
    """At u = 0, given as None or as the zero displacement, the blocks
    decouple: there is no K_3t, and K_33 holds the bytes of _bending_band."""
    grid = Grid(1.0, 1.0, n, n)
    bending = _bending_band(grid, material)
    for u in (None, Displacement.zeros(grid)):
        k33, k3t = _plate_hessian_blocks(grid, material, u)
        assert k3t is None
        assert k33.shape == bending.shape and k33.tobytes() == bending.tobytes()


@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_plate_solve_at_zero_is_the_two_block_solves(dims, rng):
    """H0^{-1} at u = 0 gives the bytes of direct solves by the factors of
    _membrane_band, on (u1, u2) interleaved, and of _bending_band."""
    grid = Grid(*dims)
    mat = Material(lam=1.3, mu=0.7, eps=0.1)
    solve = _PlateSolve(grid, mat)
    assert solve.at is None and solve.k3t is None
    membrane = _banded_cholesky(_membrane_band(grid, mat))
    bending = _banded_cholesky(_bending_band(grid, mat))
    n = (grid.n1 - 2) * (grid.n2 - 2)
    for _ in range(3):
        g = rng.standard_normal(3 * n)
        tangential = membrane(g[: 2 * n].reshape(2, n).T.ravel()).reshape(n, 2).T.ravel()
        expected = np.concatenate((tangential, bending(g[2 * n :])))
        assert _pack(solve(_unpack(grid, g))).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [5, 9, 65])
def test_h0_at_zero_factors_at_the_corners_of_the_config_window(n):
    """Every config that is accepted has an H0 at u = 0, the solver's first
    and its fallback: it factors, with no floating-point warning, at every
    corner of the window config puts eps, mu, lambda (down to 0) and the
    sides in."""
    lo, hi = _SCALES
    for eps, l1, l2, mu, lam in itertools.product((lo, hi), (lo, hi), (lo, hi), (lo, hi),
                                                  (0.0, lo, hi)):
        _PlateSolve(Grid(l1, l2, n, n), Material(lam, mu, eps))


def test_banded_cholesky_names_the_failing_minor():
    k = np.diag([4.0, 3.0, -1.0, 2.0]) + np.eye(4, k=1) + np.eye(4, k=-1)
    with pytest.raises(NotPositiveDefiniteError) as err:
        _banded_cholesky(np.asfortranarray(dense_to_band(k, 1)))
    assert err.value.minor == 3
    assert isinstance(err.value, np.linalg.LinAlgError)


def _h0_sweep(immersion, ts, grid, mat, force, cfg, u_plate):
    """The warm steps as a sweep with H0 at u = 0 runs them: each from the
    previous solution, with an H0 of its own built at u = 0.  The reference
    for the sweep's H0 rebuilt at the plate minimizer."""
    out, prev = [], u_plate
    for t in ts:
        asm = make_assembly(grid, immersion.with_scale(t), mat, force)
        prev, diag = minimize(asm, prev, cfg)
        assert diag.converged
        out.append((prev, diag))
    return out


_WARM_TS = [0.2, 0.1, 0.05, 0.025]


@pytest.mark.parametrize("kind", ["paraboloid", "cylinder_patch", "sinusoidal_bump"])
def test_warm_steps_take_fewer_iterations_with_the_same_minimizers(kind):
    """At 17^2 every family's warm steps, with H0 rebuilt at the plate
    minimizer and started on the secant through it, converge in fewer
    iterations than the H0-at-zero sweep, to the same energies (1e-12
    relative) and minimizers (1e-7 in the V-norm)."""
    cfg = default_config().with_overrides(grid=(17, 17))
    grid, mat = cfg.make_grid(), cfg.material
    force, imm = cfg.make_force(grid), Immersion(kind)
    steps = homotopy_solve(imm, _WARM_TS + [0.0], grid, mat, force, cfg.solver)
    ref = _h0_sweep(imm, _WARM_TS, grid, mat, force, cfg.solver, steps[-1].u)
    warm = [s.diagnostics for s in steps[:-1]]
    cold_rebuilds = steps[-1].diagnostics.h0_rebuilds
    assert all(d.converged and (d.h0_rebuilds, d.h0_refused) == (cold_rebuilds + 1, 0)
               for d in warm)
    assert sum(d.iterations for d in warm) < sum(d.iterations for _, d in ref)
    if kind == "paraboloid":
        assert sum(d.iterations for d in warm) <= 60
    for step, (u_ref, d_ref) in zip(steps, ref):
        assert abs(step.diagnostics.final_energy - d_ref.final_energy) \
            <= 1e-12 * abs(d_ref.final_energy)
        assert v_norm(grid, step.u - u_ref) <= 1e-7


def _tangential_load(grid, a):
    """ROADMAP's load T_A: p1 = A (1/2 - y1), p2 = A (1/2 - y2), p3 = 0."""
    return ForceDensity.polynomial(grid, ((a / 2, -a), (a / 2, 0.0, -a), ()))


def test_sweep_counts_the_refused_rebuild_at_the_flat_saddle(material):
    """Under the purely tangential T_8 the cold plate solve stops at the flat
    saddle, where K_33 is indefinite: the rebuild there is refused, H0 stays
    at u = 0, every warm step reports the refusal, and the sweep reaches the
    energies of the H0 sweep to 1e-12 relative."""
    grid = Grid(1.0, 1.0, 17, 17)
    force, imm = _tangential_load(grid, 8.0), Immersion("paraboloid")
    steps = homotopy_solve(imm, _WARM_TS + [0.0], grid, material, force, SolverConfig())
    u_plate = steps[-1].u
    assert not u_plate.u3.any()
    k33, _ = _plate_hessian_blocks(grid, material, u_plate)
    with pytest.raises(NotPositiveDefiniteError) as err:
        _banded_cholesky(k33)
    assert err.value.minor == 128
    assert (steps[-1].diagnostics.h0_rebuilds, steps[-1].diagnostics.h0_refused) == (0, 0)
    ref = _h0_sweep(imm, _WARM_TS, grid, material, force, SolverConfig(), u_plate)
    for step, (u_ref, d_ref) in zip(steps, ref):
        diag = step.diagnostics
        assert diag.converged and diag.h0_refused >= 1 and diag.h0_rebuilds == 0
        assert abs(diag.final_energy - d_ref.final_energy) <= 1e-12 * abs(d_ref.final_energy)


def test_warm_steps_use_the_minimizer_below_the_critical_load(material):
    """Under T_4, below the critical load (~4.85 at 17^2), the flat plate
    state is the minimizer and K_33 is positive definite there: the warm
    steps use H0 rebuilt there and take fewer iterations than the H0 sweep."""
    grid = Grid(1.0, 1.0, 17, 17)
    force, imm = _tangential_load(grid, 4.0), Immersion("paraboloid")
    steps = homotopy_solve(imm, _WARM_TS + [0.0], grid, material, force, SolverConfig())
    ref = _h0_sweep(imm, _WARM_TS, grid, material, force, SolverConfig(), steps[-1].u)
    warm = [s.diagnostics for s in steps[:-1]]
    assert all(d.converged and d.h0_rebuilds >= 1 and d.h0_refused == 0 for d in warm)
    assert sum(d.iterations for d in warm) < sum(d.iterations for _, d in ref)


def test_diagnostics_count_every_evaluation(plate_assembly, monkeypatch):
    """Every evaluation is counted, and H0 is rebuilt at every _REFRESH-th
    iteration the run goes on from."""
    calls = []
    full = plate_assembly.full_evaluation
    monkeypatch.setattr(plate_assembly, "full_evaluation", lambda u: calls.append(1) or full(u))
    _, diag = minimize(plate_assembly, Displacement.zeros(plate_assembly.grid), SolverConfig())
    assert diag.evaluations == len(calls) == 1 + diag.iterations + diag.line_search_failures
    assert diag.iterations > _REFRESH
    assert diag.h0_rebuilds == (diag.iterations - 1) // _REFRESH and diag.h0_refused == 0


_WARM_BYTES = """
import hashlib
from shallowshell import homotopy_solve
from shallowshell.config import default_config
cfg = default_config().with_overrides(grid=(65, 65))
grid = cfg.make_grid()
steps = homotopy_solve(cfg.make_immersion(), [cfg.t_list[0], 0.0], grid, cfg.material,
                       cfg.make_force(grid), cfg.solver)
u, diag = steps[0].u, steps[0].diagnostics
data = b"".join(c.tobytes() for c in u.components())
print(diag.h0_rebuilds, diag.h0_refused, diag.iterations, repr(diag.final_energy),
      hashlib.sha256(data).hexdigest())
"""


def test_first_warm_step_bytes_do_not_depend_on_blas_threads():
    # the first warm step of the default 65^2 study under one and two BLAS
    # threads, with H0 rebuilt in the cold solve and at the plate minimizer
    src = str(Path(shallowshell.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run([sys.executable, "-c", _WARM_BYTES], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert outputs[0].startswith("2 0 ")
    assert outputs[0] == outputs[1]


def test_warm_steps_start_on_the_secant_through_the_plate_minimizer(
    grid9, material, general_force, monkeypatch
):
    """The largest t starts at the plate minimizer u0, every smaller t on the
    secant through u0, and every solve shares one H0, last rebuilt at u0."""
    starts = []

    def recording_minimize(asm, u0, cfg, **options):
        starts.append((u0, options.get("h0_solve")))
        return minimize(asm, u0, cfg, **options)

    monkeypatch.setattr("shallowshell.solver.minimize", recording_minimize)
    ts = [0.2, 0.1, 0.025, 0.0]
    steps = homotopy_solve(Immersion("paraboloid"), ts, grid9, material,
                           general_force(grid9), SolverConfig())
    u_plate = steps[-1].u
    assert not any(c.any() for c in starts[0][0].components())
    assert starts[1][0] is u_plate
    for k in (2, 3):
        expected = u_plate + (steps[k - 2].u - u_plate) * (ts[k - 1] / ts[k - 2])
        assert all(np.array_equal(a, b) for a, b in zip(starts[k][0].components(),
                                                        expected.components()))
    h0 = starts[0][1]
    assert all(other is h0 for _, other in starts) and h0.at is u_plate


# -- strong tangential loads: the seeded set -----------------------------------------

L3 = ((10.8, -9.8, 1.4), (-9.4, 10.8, 6.7), (0.6, -0.4, 0.3))


def test_seeded_load_3_rounds_to_l3(seeded_loads):
    assert len(seeded_loads) == 24
    assert np.array_equal(np.round(seeded_loads[3], 1), L3)
    assert all(not any(load[2]) for load in seeded_loads[::2])


def _seeded_plate_solve(n, load):
    grid = Grid(1.0, 1.0, n, n)
    asm = make_assembly(grid, Immersion("plate"), Material(1.0, 1.0, 0.1),
                        ForceDensity.polynomial(grid, load))
    return minimize(asm, Displacement.zeros(grid), SolverConfig())[1]


@pytest.mark.parametrize("k", range(1, 24, 2))
def test_odd_seeded_loads_converge_at_9x9(seeded_loads, k):
    """Each odd seeded load, strongly tangential with a small transverse
    part, converges on the plate at 9^2 in under 200 iterations (44-76 with
    H0 rebuilt every 30; none within 600 with H0 fixed at u = 0)."""
    diag = _seeded_plate_solve(9, seeded_loads[k])
    assert diag.converged and diag.iterations < 200


@pytest.mark.parametrize("k", [3, 5, 7])
def test_hard_seeded_loads_converge_at_17x17(seeded_loads, k):
    """Seeded loads 3, 5 and 7 converge at 17^2 in under 500 iterations
    (80 / 267 / 146); with H0 fixed at u = 0 they exhaust max_iter = 5000."""
    diag = _seeded_plate_solve(17, seeded_loads[k])
    assert diag.converged and diag.iterations < 500
    assert diag.h0_rebuilds >= 1


def test_homotopy_assembles_every_member_before_the_plate_solve(monkeypatch, grid9, material):
    """A member that is no immersion fails, tagged with its t, before any
    solve; so does a plate given a t > 0."""
    def no_minimize(*args, **kwargs):
        raise AssertionError("minimize called")

    monkeypatch.setattr("shallowshell.solver.minimize", no_minimize)
    force = ForceDensity.zero(grid9)
    with pytest.raises(ImmersionError) as exc:
        homotopy_solve(Immersion("paraboloid"), [1e8, 0.0], grid9, material, force,
                       SolverConfig())
    assert str(exc.value) == "t=1e+08: singular metric: det(a) not positive at node (8, 8)"
    with pytest.raises(ValueError, match="the plate has no scale parameter"):
        homotopy_solve(Immersion("plate"), [0.1, 0.0], grid9, material, force, SolverConfig())


def test_an_overflowing_load_never_converges(grid9, material):
    """With p3 = 1e300 the load norm overflows, so the tolerance is inf and
    so is the first residual: the solve stops at once, not converged."""
    asm = make_assembly(grid9, Immersion("plate"), material,
                        ForceDensity.constant(grid9, 0.0, 0.0, 1e300))
    with pytest.warns(RuntimeWarning, match="overflow"):
        _, diag = minimize(asm, Displacement.zeros(grid9), SolverConfig())
    assert diag.final_residual == np.inf
    assert diag.iterations == 0 and diag.converged is False


def test_solve_diagnostics_hold_python_floats(shell_assembly):
    _, diag = minimize(shell_assembly, Displacement.zeros(shell_assembly.grid), SolverConfig())
    assert diag.converged
    for name in ("final_energy", "final_residual", "wall_time", "noise_floor"):
        assert type(getattr(diag, name)) is float, name
    assert "np." not in repr(diag)
