"""Energy minimization, homotopy continuation, and the linear bending oracle.

The minimizer is a limited-memory quasi-Newton descent (two-loop recursion)
with Armijo backtracking: the energy is a smooth quartic in the displacement
and the gradient is exact, so no curvature line-search condition is needed;
updates with unusable curvature are simply skipped.  The initial inverse
Hessian of the recursion is the exact Hessian of the plate energy at u = 0,
factorized once per grid and material and shared by every solve of a
homotopy sweep, so the iteration count does not grow with the mesh
(Nocedal & Wright, Numerical Optimization, 2nd ed., section 7.2).

Results repeat bitwise for a given configuration seed.  The solver's
reductions are numpy sums in a fixed order, not BLAS dot products, so they
do not depend on the BLAS thread count.  The one BLAS-backed step is the
LAPACK banded Cholesky of H0: up to 65x65 nodes its factor is the same
under one or two OpenBLAS threads, but at 129x129 the threaded blocked
updates change its last bits, and with them the last digits of the
iterates (ROADMAP item 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .elasticity import Material, flat_voigt
from .energy import EnergyAssembly, ForceDensity, make_assembly
from .geometry import Immersion, c2_distance
from .grid import Displacement, Grid, require_clamped, v_norm

STALL_STEP = 1e-16


class LineSearchStallError(RuntimeError):
    """Backtracking reduced the step below the stall threshold."""

    def __init__(self, message: str, diagnostics: "SolveDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


class NonconvergenceError(RuntimeError):
    """A homotopy step exhausted max_iter without meeting the residual criterion."""

    def __init__(self, t: float, residual: float, iterations: int):
        super().__init__(
            f"solve at t={t:g} did not converge "
            f"(residual {residual:.3e} after {iterations} iterations)"
        )
        self.t = t


@dataclass
class SolverConfig:
    """Quasi-Newton solver settings.

    grad_tol is relative: the run stops once the weighted residual norm
    drops below grad_tol * (1 + weighted L2 norm of the load).
    """

    grad_tol: float = 1e-9
    max_iter: int = 5000
    memory: int = 10
    ls_shrink: float = 0.5
    ls_c1: float = 1e-4
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ls_shrink < 1.0:
            raise ValueError("ls_shrink must lie in (0, 1)")
        if not 0.0 < self.ls_c1 < 0.5:
            raise ValueError("ls_c1 must lie in (0, 0.5)")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.grad_tol <= 0 or self.max_iter < 0 or self.restarts < 1:
            raise ValueError("invalid solver configuration")


@dataclass
class SolveDiagnostics:
    iterations: int
    final_energy: float
    final_residual: float
    line_search_failures: int  # total backtracking reductions
    wall_time: float
    converged: bool
    energy_history: list = field(default_factory=list, repr=False)
    noise_floor: float = 0.0  # largest fp-noise allowance used by the search


# -- flat packing of the interior unknowns -----------------------------------


def pack(grid: Grid, u: Displacement) -> np.ndarray:
    return np.concatenate([c[1:-1, 1:-1].ravel() for c in u.components()])


def unpack(grid: Grid, x: np.ndarray) -> Displacement:
    n = (grid.n1 - 2) * (grid.n2 - 2)
    u = Displacement.zeros(grid)
    for k, comp in enumerate(u.components()):
        comp[1:-1, 1:-1] = x[k * n : (k + 1) * n].reshape(grid.n1 - 2, grid.n2 - 2)
    return u


# -- minimization -------------------------------------------------------------


def minimize(
    asm: EnergyAssembly, u0: Displacement, cfg: SolverConfig
) -> tuple[Displacement, SolveDiagnostics]:
    """Minimize the assembled energy from the clamped start u0.

    Returns the first iterate whose weighted residual satisfies the relative
    tolerance.  With restarts > 1, reruns from seeded perturbations of u0 and
    returns the lowest-energy converged result (deterministic given seed).
    When no run converges within max_iter, the lowest-energy run is
    returned, flagged converged=False; a stalled line search raises
    LineSearchStallError with diagnostics attached.
    """
    require_clamped(u0)
    tol = cfg.grad_tol * (1.0 + asm.load_norm())
    h0_solve = _plate_hessian_solve(asm.grid, asm.material)
    runs: list[tuple[Displacement, SolveDiagnostics]] = []
    for r in range(cfg.restarts):
        x0 = pack(asm.grid, u0)
        if r > 0:
            rng = np.random.default_rng([cfg.seed, r])
            x0 = x0 + 0.01 * rng.standard_normal(x0.size)
        runs.append(_descend(asm, x0, cfg, tol, h0_solve))
    # converged runs first, then the lowest energy; the earliest run wins ties
    return min(runs, key=lambda run: (not run[1].converged, run[1].final_energy))


_NOISE_ULPS = 16.0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product as a numpy sum: a fixed summation order, unlike BLAS,
    whose result depends on the thread count."""
    return float(np.sum(a * b))


def _weighted_residual(grid: Grid, g: Displacement) -> float:
    """Residual norm of a coefficient gradient: sqrt(sum g^2 / w) over the nodes."""
    w = grid.weights
    return float(np.sqrt(sum(np.sum(c * c / w) for c in g.components())))


def _descend(asm, x0, cfg, tol, h0_solve):
    grid = asm.grid
    start = time.perf_counter()

    def evaluate(x):
        u = unpack(grid, x)
        f, fscale, g = asm.full_evaluation(u)
        return u, f, fscale, g

    x = x0
    u, f, fscale, gdisp = evaluate(x)
    g = pack(grid, gdisp)
    resid = _weighted_residual(grid, gdisp)
    energies = [f]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho: list[float] = []
    iterations = 0
    backtracks = 0
    noise_floor = 0.0
    converged = resid <= tol

    while not converged and iterations < cfg.max_iter:
        d = _two_loop_direction(g, s_hist, y_hist, rho, h0_solve)
        gd = _dot(g, d)
        if gd >= 0.0:
            # quasi-Newton direction lost descent; forget the history and
            # take the plate-Newton step -H0^{-1} g
            s_hist.clear()
            y_hist.clear()
            rho.clear()
            d = -h0_solve(g)
            gd = _dot(g, d)
        # Armijo with an fp-noise allowance: the energy is evaluated by
        # summing terms of magnitude `fscale`, so decreases smaller than a
        # few ulps of that scale are unreadable; without the allowance the
        # search stalls long before the gradient's own accuracy is exhausted.
        noise = _NOISE_ULPS * np.finfo(float).eps * fscale
        noise_floor = max(noise_floor, noise)
        alpha = 1.0
        while True:
            x_new = x + alpha * d
            u_new, f_new, fscale_new, gdisp_new = evaluate(x_new)
            if f_new <= f + cfg.ls_c1 * alpha * gd + noise:
                break
            alpha *= cfg.ls_shrink
            backtracks += 1
            if alpha < STALL_STEP:
                diag = SolveDiagnostics(
                    iterations, f, resid, backtracks,
                    time.perf_counter() - start, False, energies,
                )
                raise LineSearchStallError(
                    f"line search stalled at step {alpha:.3g} "
                    f"(iteration {iterations}, residual {resid:.3g})",
                    diag,
                )
        g_new = pack(grid, gdisp_new)
        s = x_new - x
        y = g_new - g
        sy = _dot(s, y)
        if sy > 1e-12 * np.sqrt(_dot(s, s)) * np.sqrt(_dot(y, y)):
            s_hist.append(s)
            y_hist.append(y)
            rho.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho.pop(0)
        x, u, f, fscale, g, gdisp = x_new, u_new, f_new, fscale_new, g_new, gdisp_new
        resid = _weighted_residual(grid, gdisp)
        energies.append(f)
        iterations += 1
        converged = resid <= tol

    diag = SolveDiagnostics(
        iterations=iterations,
        final_energy=f,
        final_residual=resid,
        line_search_failures=backtracks,
        wall_time=time.perf_counter() - start,
        converged=converged,
        energy_history=energies,
        noise_floor=noise_floor,
    )
    return u, diag


def _two_loop_direction(g, s_hist, y_hist, rho, h0_solve):
    """Two-loop recursion with the exact plate Hessian at u = 0 as H0.

    h0_solve applies H0^{-1}.  H0 is exact for the plate, so it is not
    rescaled by the newest curvature pair; without history the direction is
    the plate-Newton step -H0^{-1} g.
    """
    q = g.copy()
    alphas = []
    for s, y, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho)):
        a = r * _dot(s, q)
        alphas.append(a)
        q -= a * y
    q = h0_solve(q)
    for (s, y, r), a in zip(zip(s_hist, y_hist, rho), reversed(alphas)):
        b = r * _dot(y, q)
        q += (a - b) * s
    return -q


# -- the plate Hessian at u = 0: stiffness matrices and their factors ----------
#
# Both blocks are E^T (C (x) W) E: E maps the unknowns to the three Voigt
# strain components at every point, C is the plate's 3x3 Voigt matrix and W
# the quadrature weights, so the matrix is the Hessian of the quadratic
# energy 1/2 sum_points w e . C e that the energy kernel evaluates.


def _bending_matrix(grid: Grid, mat: Material) -> sp.csr_matrix:
    """Bending stiffness of u3 at the plate, on the interior nodes.

    E is the clamped second-derivative rows of bending_stencil (d11; d22;
    d12), block by block, so the Kronecker factor is C (x) W; C has its
    shear row and column doubled to act on d12 rather than 2 d12.
    """
    idx = np.flatnonzero(grid.interior.ravel())
    shear = np.array([1.0, 1.0, 2.0])
    c = np.outer(shear, shear) * flat_voigt(mat)
    w = sp.diags((mat.eps**3 / 3.0) * grid.weights.ravel())
    rows = grid.leading_rows("bending", 3)[0][:, idx]
    return (rows.T @ sp.kron(c, w) @ rows).tocsr()


# _MEMBRANE_ROWS[a][v, b]: the weight of d_a u_b in the strain component v
# (e11, e22, 2 e12) of the linearized membrane strain.
_MEMBRANE_ROWS = (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
                  np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def _membrane_matrix(grid: Grid, mat: Material) -> sp.csr_matrix:
    """Membrane stiffness of (u1, u2) at the plate and u = 0, on the interior
    nodes, with u1 and u2 interleaved node by node so that it is banded.

    E is the linearized membrane strain from the cell-derivative rows of
    membrane_stencil, cell by cell, so the Kronecker factor is W (x) C.
    """
    idx = np.flatnonzero(grid.interior.ravel())
    rows = sum(sp.kron(op[:, idx], b) for op, b in zip(grid.cell_d1_ops, _MEMBRANE_ROWS))
    w = sp.diags(np.full(grid.num_cells, mat.eps * grid.cell_weight))
    return (rows.T @ sp.kron(w, flat_voigt(mat)) @ rows).tocsr()


def _banded_cholesky(K: sp.csr_matrix):
    """Factor a sparse symmetric positive definite matrix in lower band
    storage; returns its solve."""
    lower = sp.tril(K).tocoo()
    band = lower.row - lower.col
    ab = np.zeros((int(band.max()) + 1, K.shape[0]))
    ab[band, lower.col] = lower.data
    factor = (cholesky_banded(ab, lower=True), True)
    return lambda b: cho_solve_banded(factor, b, check_finite=False)


def _plate_hessian_solve(grid: Grid, mat: Material):
    """H0^{-1} of the minimizer: solve by the plate Hessian at u = 0.

    At u = 0 the plate energy decouples into the membrane block of (u1, u2)
    and the bending block of u3; `_factor_plate_hessian` factors both.  The
    Hessian depends only on the grid and the material, so the same H0
    serves every immersion of a homotopy sweep: it is factorized on the
    first call and kept in grid.solve_cache under the material.  Acts on
    packed interior vectors.
    """
    solve = grid.solve_cache.get(mat)
    if solve is None:
        solve = grid.solve_cache[mat] = _factor_plate_hessian(grid, mat)
    return solve


def _factor_plate_hessian(grid: Grid, mat: Material):
    n = (grid.n1 - 2) * (grid.n2 - 2)
    membrane = _banded_cholesky(_membrane_matrix(grid, mat))
    bending = _banded_cholesky(_bending_matrix(grid, mat))

    def solve(g: np.ndarray) -> np.ndarray:
        uv = membrane(g[: 2 * n].reshape(2, n).T.ravel())
        return np.concatenate((uv.reshape(n, 2).T.ravel(), bending(g[2 * n :])))

    return solve


# -- homotopy continuation along a flattening family --------------------------


@dataclass
class HomotopyStep:
    t: float
    immersion: Immersion
    assembly: EnergyAssembly
    u: Displacement
    diagnostics: SolveDiagnostics
    c2_dist: float


def homotopy_solve(
    immersion: Immersion,
    ts,
    grid: Grid,
    material: Material,
    force: ForceDensity,
    cfg: SolverConfig,
) -> list[HomotopyStep]:
    """Solve the family along a decreasing parameter list, warm-started.

    The plate problem (t = 0) is always solved first from a cold start; the
    largest t starts from the plate minimizer and every smaller t from the
    previous one.  The plate result fills the t = 0 row when present.

    Solves are checked in that order: the first one that exhausts max_iter
    raises NonconvergenceError tagged with its t, and later steps are not
    run.  A stalled line search raises LineSearchStallError, also tagged.
    """
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("homotopy parameters must be nonnegative")
    if any(a <= b for a, b in zip(ts, ts[1:])):
        raise ValueError("homotopy parameter list must be strictly decreasing")

    plate = immersion.with_scale(0.0)
    asm0 = make_assembly(grid, plate, material, force)
    u_plate, diag0 = _homotopy_step(asm0, Displacement.zeros(grid), cfg, 0.0)

    steps: list[HomotopyStep] = []
    prev = u_plate
    for t in ts:
        if t == 0.0:
            steps.append(HomotopyStep(0.0, plate, asm0, u_plate, diag0, 0.0))
            continue
        imm_t = immersion.with_scale(t)
        asm_t = make_assembly(grid, imm_t, material, force)
        u_t, diag_t = _homotopy_step(asm_t, prev, cfg, t)
        steps.append(
            HomotopyStep(t, imm_t, asm_t, u_t, diag_t, c2_distance(imm_t, plate, grid))
        )
        prev = u_t
    return steps


def _homotopy_step(asm, u0, cfg, t):
    """One converged solve of the sweep; any failure is tagged with t."""
    try:
        u, diag = minimize(asm, u0, cfg)
    except LineSearchStallError as exc:
        raise LineSearchStallError(f"t={t:g}: {exc}", exc.diagnostics) from None
    if not diag.converged:
        raise NonconvergenceError(t, diag.final_residual, diag.iterations)
    return u, diag


def boundedness_certificate(steps: list[HomotopyStep]) -> float:
    """Largest displacement norm over the sweep: the boundedness witness."""
    if not steps:
        return 0.0
    return max(v_norm(s.assembly.grid, s.u) for s in steps)


# -- independent linear oracle: clamped bending solve --------------------------


def linear_bending_solve(grid: Grid, mat: Material, p3: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve of the flat bending problem (no membrane terms).

    Assembles the quadratic bending form with the same clamped stencils and
    quadrature as the energy path and solves it for the interior transverse
    unknowns.  Serves as the small-load oracle for the nonlinear minimizer:
    it shares the bending matrix with the minimizer's H0, which sets only
    the minimizer's path, while the minimizer itself converges on the
    energy gradient.
    """
    idx = np.flatnonzero(grid.interior.ravel())
    rhs = (grid.weights * p3).ravel()[idx]
    u3 = np.zeros(grid.num_nodes)
    u3[idx] = _banded_cholesky(_bending_matrix(grid, mat))(rhs)
    return u3.reshape(grid.shape)
