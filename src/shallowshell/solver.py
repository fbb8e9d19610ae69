"""Energy minimization and homotopy continuation.

The minimizer is a limited-memory quasi-Newton descent with Armijo
backtracking: the energy is a smooth quartic in the displacement and the
gradient is exact, so no curvature line-search condition is needed.  The
two-loop recursion runs over the newest `memory` curvature pairs, one
bounded deque that skips pairs with unusable curvature; every run reports
through one SolveDiagnostics exit, a stall included.  Its initial inverse
Hessian H0 is an exact plate Hessian, so the iteration count does not grow
with the mesh (Nocedal & Wright, Numerical Optimization, 2nd ed., 7.2).
One rule chooses it: H0 is the plate Hessian at the latest iterate where its
u3 block K_33 factors (it does not at a flat saddle under a purely
tangential load), rebuilt in place every _REFRESH iterations without
convergence and, in a homotopy sweep, once at the plate minimizer u0.

One object, _PlateSolve, holds H0; a minimize call given none builds its
own at u = 0.  Its blocks are assembled from the local weights of the
grid's stencils (grid.cell_d1_ops, grid.clamped_d2_ops) straight into LAPACK
band storage, and the coupling block K_3t is never stored: its products
apply the cell stencils and their adjoint.

Results repeat bitwise for a given configuration seed.  The solver's
reductions are numpy sums in a fixed order, not BLAS dot products, so they
do not depend on the BLAS thread count.  The BLAS-backed steps are the
LAPACK banded Cholesky factorizations and solves (dpbtrf in place, and
dpbtrs), called through lapack.LAPACK with OpenBLAS pinned to one thread:
at 129x129 nodes threaded blocked updates would change the factors' last
bits, and with them the last digits of the iterates.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import energy, lapack
from .elasticity import Material, flat_voigt
from .energy import EnergyAssembly, ForceDensity, make_assembly
from .geometry import Immersion, ImmersionError, c2_distance
from .grid import Displacement, Grid, require_clamped

STALL_STEP = 1e-16
_REFRESH = 30  # iterations without convergence between rebuilds of H0


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


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A banded Cholesky factorization met a leading minor that is not
    positive: the matrix is not positive definite (up to roundoff)."""

    def __init__(self, minor: int):
        super().__init__(f"the leading minor of order {minor} is not positive definite")
        self.minor = minor


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
        for key, valid, why in (
            ("ls_shrink", 0.0 < self.ls_shrink < 1.0, "must lie in (0, 1)"),
            ("ls_c1", 0.0 < self.ls_c1 < 0.5, "must lie in (0, 0.5)"),
            ("memory", self.memory >= 1, "must be >= 1"),
            ("grad_tol", self.grad_tol > 0, "must be positive"),
            ("max_iter", self.max_iter >= 0, "must be >= 0"),
            ("restarts", self.restarts >= 1, "must be >= 1"),
            ("seed", self.seed >= 0, "must be >= 0"),
        ):
            if not valid:
                raise ValueError(f"{key}: {why}")


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
    evaluations: int = 0  # energy+gradient calls, rejected line-search trials included
    h0_rebuilds: int = 0  # rebuilds of H0 made, over the H0 the solve used (a sweep shares one)
    h0_refused: int = 0  # rebuilds refused where K_33 did not factor


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
    asm: EnergyAssembly, u0: Displacement, cfg: SolverConfig, h0_solve=None
) -> tuple[Displacement, SolveDiagnostics]:
    """Minimize the assembled energy from the clamped start u0.

    Returns the first iterate whose weighted residual satisfies the relative
    tolerance; a tolerance that is not finite is never met.  With
    restarts > 1, reruns from seeded perturbations of u0 and returns the
    lowest-energy converged result (deterministic given seed).
    When no run converges within max_iter, the lowest-energy run is
    returned, flagged converged=False; a stalled line search raises
    LineSearchStallError with diagnostics attached.

    h0_solve is the initial inverse Hessian of the two-loop recursion, a
    _PlateSolve, which the run rebuilds at its iterate every _REFRESH
    iterations; by default the call builds its own at u = 0.
    """
    require_clamped(u0)
    tol = cfg.grad_tol * (1.0 + asm.load_norm())
    if h0_solve is None:
        h0_solve = _PlateSolve(asm.grid, asm.material)
    runs: list[tuple[Displacement, SolveDiagnostics]] = []
    for r in range(cfg.restarts):
        x0 = pack(asm.grid, u0)
        if r > 0:
            x0 = x0 + 0.01 * np.random.default_rng([cfg.seed, r]).standard_normal(x0.size)
        runs.append(_descend(asm, x0, cfg, tol, h0_solve))
    # converged runs first, then the lowest energy; the earliest run wins ties
    return min(runs, key=lambda run: (not run[1].converged, run[1].final_energy))


_NOISE_ULPS = 16.0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product as a numpy sum: a fixed summation order, unlike BLAS,
    whose result depends on the thread count.  np.add.reduce is the
    pairwise sum np.sum runs, without its Python dispatch."""
    return float(np.add.reduce(a * b))


def _weighted_residual(grid: Grid, g: Displacement) -> float:
    """Residual norm of a coefficient gradient: sqrt(sum g^2 / w) over the nodes."""
    w = grid.weights
    return float(np.sqrt(sum(np.sum(c * c / w) for c in g.components())))


def _descend(asm, x0, cfg, tol, h0_solve):
    grid = asm.grid
    start = time.perf_counter()
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        evaluations += 1
        u = unpack(grid, x)
        return (u, *asm.full_evaluation(u))

    def diagnostics(converged):
        return SolveDiagnostics(iterations, f, resid, backtracks, time.perf_counter() - start,
                                converged, energies, noise_floor, evaluations,
                                h0_solve.rebuilds, h0_solve.refused)

    x = x0
    u, f, fscale, gdisp = evaluate(x)
    g = pack(grid, gdisp)
    resid = _weighted_residual(grid, gdisp)
    energies = [f]
    history = deque(maxlen=cfg.memory)  # the newest curvature pairs (s, y, 1 / s.y)
    iterations = backtracks = 0
    noise_floor = 0.0
    # `not resid <= tol` keeps iterating on a NaN residual, as `resid > tol` would not
    while not resid <= tol and iterations < cfg.max_iter:
        if iterations and iterations % _REFRESH == 0:
            history.clear()  # first: at 129^2 the pairs outweigh a K_33 factor
            h0_solve.refresh(u)
        d = _two_loop_direction(g, history, h0_solve)
        gd = _dot(g, d)
        if gd >= 0.0:
            # quasi-Newton direction lost descent; forget the history and
            # take the plate-Newton step -H0^{-1} g
            history.clear()
            d = -h0_solve(g)
            gd = _dot(g, d)
        # Armijo with an fp-noise allowance: the energy is evaluated by
        # summing terms of magnitude `fscale`, so decreases smaller than a
        # few ulps of that scale are unreadable; without the allowance the
        # search stalls long before the gradient's own accuracy is exhausted.
        noise = _NOISE_ULPS * float(np.finfo(float).eps) * fscale
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
                raise LineSearchStallError(
                    f"line search stalled at step {alpha:.3g} (iteration {iterations}, "
                    f"residual {resid:.3g})", diagnostics(False))
        g_new = pack(grid, gdisp_new)
        s = x_new - x
        y = g_new - g
        sy = _dot(s, y)
        if sy > 1e-12 * np.sqrt(_dot(s, s)) * np.sqrt(_dot(y, y)):
            history.append((s, y, 1.0 / sy))
        x, u, f, fscale, g, gdisp = x_new, u_new, f_new, fscale_new, g_new, gdisp_new
        resid = _weighted_residual(grid, gdisp)
        energies.append(f)
        iterations += 1

    # a load whose norm overflows leaves tol = inf, which no residual meets
    return u, diagnostics(math.isfinite(tol) and resid <= tol)


def _two_loop_direction(g, history, h0_solve):
    """Two-loop recursion over history's pairs (s, y, 1 / s.y) with an exact plate H0.

    h0_solve applies H0^{-1}, the inverse of the plate Hessian at u = 0 or
    its block inverse at a later iterate.  Either is exact for the plate, so
    it is not rescaled by the newest curvature pair; without history the
    direction is the plate-Newton step -H0^{-1} g.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= a * y
    q = h0_solve(q)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * _dot(y, q)) * s
    return -q


# -- the plate Hessian in band storage ---------------------------------------------
#
# Every block is E^T c E: E maps unknowns to strain components at every
# point (a cell or a node) and c is the weighted 3x3 Voigt matrix there, so
# the block is the Hessian of the quadratic energy 1/2 sum_points e . c e
# that EnergyAssembly evaluates.  A point's strains read the few nodes of its
# stencil's support only, so the block is a sum of small local matrices
# E_p^T c_p E_p, one per point, added like finite elements straight into
# LAPACK lower band storage over the interior unknowns.  E_p comes from the
# grid's own stencils (Stencil.local_weights).


def _slot_band(slots, ncomp: int, m2: int, a, b) -> int:
    """Band row i - j of the entry coupling slot a (row i) to slot b (column j)."""
    (i_a, j_a, c_a), (i_b, j_b, c_b) = slots[a], slots[b]
    return ncomp * ((i_a - i_b) * m2 + j_a - j_b) + c_a - c_b


def _assemble(band: np.ndarray, grid: Grid, weights: np.ndarray, c, slots, ncomp: int) -> None:
    """Add sum_p E_p^T c_p E_p to `band`, over the interior unknowns.

    weights[r, a] holds, at every point p, the weight of slot a in strain
    component r, and slots[a] = (o1, o2, k) puts slot a at node p + (o1, o2),
    unknown k of that node's ncomp (interleaved node by node); c is (R, R)
    or (R, R, *points).  Unknowns off the interior are dropped, as clamped
    values are.  Each band entry sums its points in a fixed order.
    """
    m1, m2 = grid.n1 - 2, grid.n2 - 2
    stress = np.einsum("rq...,rs...->qs...", c, weights)
    for a, (i_a, j_a, _) in enumerate(slots):
        for b, (i_b, j_b, k_b) in enumerate(slots):
            d = _slot_band(slots, ncomp, m2, a, b)
            if d < 0:
                continue
            # the points whose slots a and b both sit on interior nodes
            lo1, hi1 = 1 - min(i_a, i_b), grid.n1 - 1 - max(i_a, i_b)
            lo2, hi2 = 1 - min(j_a, j_b), grid.n2 - 1 - max(j_a, j_b)
            local = np.einsum("q...,q...->...", stress[:, a, lo1:hi1, lo2:hi2],
                              weights[:, b, lo1:hi1, lo2:hi2])
            row = band[d].reshape(m1, m2, ncomp)
            row[lo1 + i_b - 1 : hi1 + i_b - 1, lo2 + j_b - 1 : hi2 + j_b - 1, k_b] += local


def _zero_band(grid: Grid, slots, ncomp: int) -> np.ndarray:
    """A zero (kd + 1, n) Fortran-ordered band over the interior unknowns,
    kd the widest coupling of the slots."""
    m2 = grid.n2 - 2
    kd = max(_slot_band(slots, ncomp, m2, a, b) for a in range(len(slots))
             for b in range(len(slots)))
    return np.zeros(((grid.n1 - 2) * m2 * ncomp, kd + 1)).T


def _bending_band(grid: Grid, mat: Material) -> np.ndarray:
    """Bending stiffness of u3 at the plate, on the interior nodes.

    E is the clamped second-derivative rows of bending_stencil (d11; d22;
    d12) at every node, c the plate's Voigt matrix with its shear row and
    column doubled (to act on d12 rather than 2 d12), times the trapezoidal
    weight and eps^3 / 3: 9 x 9 local matrices, one per node.
    """
    stencil = grid.clamped_d2_ops
    c = (np.outer(energy._SHEAR, energy._SHEAR) * flat_voigt(mat))[..., None, None] \
        * ((mat.eps**3 / 3.0) * grid.weights)
    slots = [(o1, o2, 0) for o1, o2 in stencil.support]
    band = _zero_band(grid, slots, 1)
    _assemble(band, grid, stencil.local_weights(), c, slots, 1)
    return band


# _MEMBRANE_ROWS[a][v, b]: the weight of d_a u_b in the strain component v
# (e11, e22, 2 e12) of the linearized membrane strain.
_MEMBRANE_ROWS = (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
                  np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def _membrane_band(grid: Grid, mat: Material) -> np.ndarray:
    """Membrane stiffness of (u1, u2) at the plate, on the interior nodes,
    with u1 and u2 interleaved node by node so that it is banded: the
    tangential block of the plate Hessian, the same at every u.  E is the
    linearized membrane strain from the cell-derivative rows of
    membrane_stencil, c the weighted Voigt matrix: 8 x 8 local matrices,
    one per cell, over its four corners' (u1, u2)."""
    stencil = grid.cell_d1_ops
    cell = stencil.local_weights()
    weights = np.einsum("avb,as...->vsb...", np.array(_MEMBRANE_ROWS), cell)
    weights = weights.reshape((3, 8) + grid.cell_shape)
    slots = [(o1, o2, k) for o1, o2 in stencil.support for k in (0, 1)]
    band = _zero_band(grid, slots, 2)
    _assemble(band, grid, weights, (mat.eps * grid.cell_weight) * flat_voigt(mat), slots, 2)
    return band


def _banded_cholesky(ab: np.ndarray):
    """Factor a symmetric positive definite matrix held in lower band
    storage, in place by LAPACK dpbtrf; returns its solve, by dpbtrs.
    Raises NotPositiveDefiniteError when the matrix is not positive definite.
    """
    info = lapack.LAPACK.factor(ab)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"dpbtrf failed with info={info}")
    return lapack.LAPACK.solver(ab)


def _interleave(x: np.ndarray) -> np.ndarray:
    """The (u1, u2) part of a packed vector, interleaved node by node."""
    return x.reshape(2, -1).T.ravel()


def _deinterleave(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, 2).T.ravel()


# -- the plate Hessian at u --------------------------------------------------
#
# The plate's membrane strain is e(u) = E_t x_t + 1/2 P(u) D x_3, with D =
# [D_1; D_2] the cell derivatives of u3 and P(u) weighting them by D_a u3.
# So K_tt = E_t^T (W C) E_t, K_3t = D^T P^T (W C) E_t and K_33 = bending +
# D^T (P^T (W C) P + S) D, S the stress (W C) e(u) on (D_a, D_b).


def _plate_hessian_blocks(grid: Grid, mat: Material, u: Displacement | None = None):
    """(K_33, K_3t) of the plate Hessian at the clamped u, on the interior
    nodes: K_33 in band storage and K_3t as a _Coupling, whose columns are
    (u1, u2) interleaved as in _membrane_band.  At u = 0 (or None) they are
    the bending band and None."""
    if u is None or not any(c.any() for c in u.components()):
        return _bending_band(grid, mat), None
    cells = grid.cell_d1_ops
    g = cells(np.stack(u.components()))  # g[a, k]: D_a of component k
    du = g[:, 2]
    strain = np.stack((g[0, 0] + 0.5 * du[0] ** 2, g[1, 1] + 0.5 * du[1] ** 2,
                       g[1, 0] + g[0, 1] + du[0] * du[1]))
    wc = (mat.eps * grid.cell_weight) * flat_voigt(mat)
    s = np.einsum("vw,w...->v...", wc, strain)
    # p[v, a]: the weight of D_a u3 in the strain component v
    zero = np.zeros_like(du[0])
    p = np.array([[du[0], zero], [zero, du[1]], [du[1], du[0]]])
    pwc = np.einsum("va...,vw->aw...", p, wc)
    q = np.einsum("aw...,wb...->ab...", pwc, p) + s[energy._STRESS_MATRIX]
    k33 = _bending_band(grid, mat)
    slots = [(o1, o2, 0) for o1, o2 in cells.support]
    _assemble(k33, grid, cells.local_weights(), q, slots, 1)
    return k33, _Coupling(cells, pwc)


class _Coupling:
    """K_3t = D^T (P^T W C) E_t on the interior unknowns, applied through the
    grid's cell stencils: the membrane strain of (u1, u2), then the per-cell
    3 -> 2 map pwc = P^T W C, then the adjoint of the cell derivatives.  Its
    adjoint, K_t3, runs the same steps backwards.  Never stored."""

    def __init__(self, cells, pwc: np.ndarray):
        self.cells, self.pwc = cells, pwc
        self.inner = (cells.source[0] - 2, cells.source[1] - 2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """K_3t x: (u1, u2) interleaved -> u3."""
        cells, (m1, m2) = self.cells, self.inner
        ut = np.zeros((2,) + cells.source)
        ut[:, 1:-1, 1:-1] = np.moveaxis(x.reshape(m1, m2, 2), -1, 0)
        g = cells(ut)
        e = np.stack((g[0, 0], g[1, 1], g[1, 0] + g[0, 1]))
        y = np.einsum("av...,v...->a...", self.pwc, e)
        return cells.adjoint(y)[1:-1, 1:-1].ravel()

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """K_t3 x: u3 -> (u1, u2) interleaved."""
        cells, (m1, m2) = self.cells, self.inner
        u3 = np.zeros(cells.source)
        u3[1:-1, 1:-1] = x.reshape(m1, m2)
        s = np.einsum("av...,a...->v...", self.pwc, cells(u3))
        y = s[energy._STRESS_MATRIX]  # y[a, k]: the stress D_a u_k meets
        return np.moveaxis(cells.adjoint(y)[:, 1:-1, 1:-1], 0, -1).ravel()


class _PlateSolve:
    """H0^{-1}: the inverse of the plate Hessian at `at`, the latest point
    where its K_33 block factored (None for u = 0, where it is built), by
    solves with K_tt (membrane, on (u1, u2) interleaved) and K_33.  With a
    K_3t block (L) it is the symmetric block Gauss-Seidel inverse M^{-1},
    M = (D + L) D^{-1} (D + L)^T for D = diag(K_tt, K_33); without one
    (u = 0) the exact inverse.  K_tt is the same at every u, so it is
    factored once, after the bending matrix; refresh rebuilds the rest."""

    def __init__(self, grid: Grid, mat: Material):
        self.grid, self.mat, self.at = grid, mat, None
        self.rebuilds = self.refused = 0
        self._factor(None)
        self.membrane = _banded_cholesky(_membrane_band(grid, mat))

    def _factor(self, u: Displacement | None) -> None:
        k33, k3t = _plate_hessian_blocks(self.grid, self.mat, u)
        self.k33, self.k3t = _banded_cholesky(k33), k3t

    def refresh(self, u: Displacement) -> None:
        """Rebuild K_33 and K_3t at u, in place, dropping the old K_33 factor
        first so that one is alive at a time.  Where K_33(u) is not positive
        definite the refusal is counted and they are rebuilt at `at`."""
        self.k33 = self.k3t = None
        try:
            self._factor(u)
        except NotPositiveDefiniteError:
            self.refused += 1
        else:
            self.at = u
            self.rebuilds += 1
            return
        self._factor(self.at)  # past the handler, which holds the refused band

    def __call__(self, g: np.ndarray) -> np.ndarray:
        n = g.size // 3
        gt = _interleave(g[: 2 * n])
        if self.k3t is None:
            return np.concatenate((_deinterleave(self.membrane(gt)), self.k33(g[2 * n :])))
        x3 = self.k33(g[2 * n :] - self.k3t(self.membrane(gt)))
        xt = self.membrane(gt - self.k3t.adjoint(x3))
        return np.concatenate((_deinterleave(xt), x3))


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

    Every member is assembled before any solve: the plate, then each t > 0
    in solve order.  A member that is no immersion raises its ImmersionError
    tagged "t=...: ", a plate given a t > 0 raises ValueError.  The plate
    problem (t = 0) is solved first from a cold start.  All solves share one
    H0, the plate Hessian at the latest iterate where its K_33 block factors:
    built at u = 0 for the cold solve, it is rebuilt once at the plate
    minimizer u0 before the warm solves.  The largest t starts from u0 and
    every smaller t on the secant through u0, u0 + (t / t_prev)(u_prev - u0),
    since u_t = u0 + t w + O(t^2).  The plate result fills the t = 0 row
    when present.

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
    members = []
    for t in ts:
        if t > 0.0:
            imm_t = immersion.with_scale(t)
            try:
                members.append((t, imm_t, make_assembly(grid, imm_t, material, force)))
            except ImmersionError as exc:
                raise ImmersionError(f"t={t:g}: {exc}") from None
    h0 = _PlateSolve(grid, material)
    u_plate, diag0 = _homotopy_step(asm0, Displacement.zeros(grid), cfg, 0.0, h0)
    if members:
        h0.refresh(u_plate)

    steps: list[HomotopyStep] = []
    prev_t, prev = None, u_plate
    for t, imm_t, asm_t in members:
        start = prev if prev_t is None else u_plate + (prev - u_plate) * (t / prev_t)
        u_t, diag_t = _homotopy_step(asm_t, start, cfg, t, h0)
        steps.append(
            HomotopyStep(t, imm_t, asm_t, u_t, diag_t, c2_distance(imm_t, plate, grid))
        )
        prev_t, prev = t, u_t
    if 0.0 in ts:
        steps.append(HomotopyStep(0.0, plate, asm0, u_plate, diag0, 0.0))
    return steps


def _homotopy_step(asm, u0, cfg, t, h0_solve):
    """One converged solve of the sweep; any failure is tagged with t."""
    try:
        u, diag = minimize(asm, u0, cfg, h0_solve=h0_solve)
    except LineSearchStallError as exc:
        raise LineSearchStallError(f"t={t:g}: {exc}", exc.diagnostics) from None
    if not diag.converged:
        raise NonconvergenceError(t, diag.final_residual, diag.iterations)
    return u, diag
