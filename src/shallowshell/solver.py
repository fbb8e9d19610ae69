"""Energy minimization, homotopy continuation, and the rigidity probe.

The minimizer is a limited-memory quasi-Newton descent (two-loop recursion)
with Armijo backtracking: the energy is a smooth quartic in the displacement
and the gradient is exact, so no curvature line-search condition is needed;
updates with unusable curvature are simply skipped.  Results repeat bitwise
for a given configuration seed and a fixed BLAS thread count; the thread
count itself can change the iterates, because the solver's dot products run
through BLAS (ROADMAP item 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .elasticity import Material, flat_tensor
from .energy import (
    EnergyAssembly,
    ForceDensity,
    _weighted_residual,
    make_assembly,
    membrane_functional,
    membrane_functional_gradient,
)
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
    dinv = 1.0 / pack(asm.grid, asm.hessian_diagonal_estimate())
    runs: list[tuple[Displacement, SolveDiagnostics]] = []
    for r in range(cfg.restarts):
        x0 = pack(asm.grid, u0)
        if r > 0:
            rng = np.random.default_rng([cfg.seed, r])
            x0 = x0 + 0.01 * rng.standard_normal(x0.size)
        runs.append(_descend(asm, x0, cfg, tol, dinv))
    # converged runs first, then the lowest energy; the earliest run wins ties
    return min(runs, key=lambda run: (not run[1].converged, run[1].final_energy))


_NOISE_ULPS = 16.0


def _descend(asm, x0, cfg, tol, dinv):
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
        d = _two_loop_direction(g, s_hist, y_hist, rho, dinv)
        gd = float(np.dot(g, d))
        if gd >= 0.0:
            # quasi-Newton direction lost descent; fall back to the
            # preconditioned steepest descent and forget the history
            s_hist.clear()
            y_hist.clear()
            rho.clear()
            d = -dinv * g
            gd = float(np.dot(g, d))
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
        sy = float(np.dot(s, y))
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
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


def _two_loop_direction(g, s_hist, y_hist, rho, dinv):
    """Two-loop recursion with a static diagonal initial inverse Hessian.

    H0 = gamma * diag(dinv) with gamma fitted to the newest curvature pair;
    without history the direction is plain preconditioned steepest descent.
    """
    q = g.copy()
    if not s_hist:
        return -dinv * q
    alphas = []
    for s, y, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho)):
        a = r * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    y_last = y_hist[-1]
    gamma = (1.0 / rho[-1]) / float(np.dot(y_last, dinv * y_last))
    q = (gamma * dinv) * q
    for (s, y, r), a in zip(zip(s_hist, y_hist, rho), reversed(alphas)):
        b = r * np.dot(y, q)
        q += (a - b) * s
    return -q


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


# -- rigidity probe ------------------------------------------------------------


def rigidity_gap(
    grid: Grid,
    cfg: SolverConfig,
    starts: int = 20,
    max_iter: int = 2000,
) -> float:
    """Smallest membrane-functional value found on the unit displacement sphere.

    Projected-gradient descent (gradient step, renormalize, backtrack on the
    functional) from seeded random clamped starts.  A value bounded away from
    zero certifies that vanishing flat membrane strain forces the zero
    displacement at this resolution.
    """
    best = np.inf
    for k in range(starts):
        rng = np.random.default_rng([cfg.seed, 982451653, k])
        u = Displacement.zeros(grid)
        for comp in u.components():
            comp[1:-1, 1:-1] = rng.standard_normal((grid.n1 - 2, grid.n2 - 2))
        value = _project_descend(grid, u, max_iter)
        best = min(best, value)
    return float(best)


def _normalize(grid: Grid, u: Displacement) -> Displacement:
    nrm = v_norm(grid, u)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero displacement")
    return u * (1.0 / nrm)


def _project_descend(grid: Grid, u0: Displacement, max_iter: int) -> float:
    u = _normalize(grid, u0)
    value = membrane_functional(grid, u)
    step = 1.0
    stagnant = 0
    for _ in range(max_iter):
        g = membrane_functional_gradient(grid, u)
        gnorm = np.sqrt(sum(np.sum(c * c) for c in g.components()))
        if gnorm == 0.0:
            break
        previous = value
        improved = False
        trial_step = step
        while trial_step > 1e-18:
            cand = _normalize(grid, u + (-trial_step) * g)
            cand_value = membrane_functional(grid, cand)
            if cand_value < value:
                u, value = cand, cand_value
                step = trial_step * 2.0
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            break
        if previous - value < 1e-14 * max(previous, 1e-300):
            stagnant += 1
            if stagnant > 10:
                break
        else:
            stagnant = 0
    return value


# -- independent linear oracle: clamped bending solve --------------------------


def linear_bending_solve(grid: Grid, mat: Material, p3: np.ndarray) -> np.ndarray:
    """Direct sparse solve of the flat bending problem (no membrane terms).

    Assembles the quadratic bending form with the same clamped stencils and
    quadrature as the energy path and solves it for the interior transverse
    unknowns.  Serves as the small-load oracle for the nonlinear minimizer.
    """
    a0 = flat_tensor(mat)
    ops = grid.clamped_d2_ops
    w = sp.diags(grid.weights.ravel())
    scale = mat.eps**3 / 3.0
    K = None
    for a in range(2):
        for b in range(2):
            for s_ in range(2):
                for t_ in range(2):
                    coef = scale * a0[a, b, s_, t_]
                    if coef == 0.0:
                        continue
                    term = coef * (ops[(a + 1, b + 1)].T @ w @ ops[(s_ + 1, t_ + 1)])
                    K = term if K is None else K + term
    K = K.tocsr()
    idx = np.flatnonzero(grid.interior.ravel())
    K_int = K[idx][:, idx]
    rhs = (grid.weights * p3).ravel()[idx]
    x = spsolve(K_int.tocsc(), rhs)
    u3 = np.zeros(grid.num_nodes)
    u3[idx] = x
    return u3.reshape(grid.shape)
