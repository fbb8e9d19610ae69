"""Energy minimization, homotopy continuation, and the linear bending oracle.

The minimizer is a limited-memory quasi-Newton descent (two-loop recursion)
with Armijo backtracking: the energy is a smooth quartic in the displacement
and the gradient is exact, so no curvature line-search condition is needed;
updates with unusable curvature are simply skipped.  The initial inverse
Hessian H0 of the recursion is an exact plate Hessian, so the iteration
count does not grow with the mesh (Nocedal & Wright, Numerical
Optimization, 2nd ed., section 7.2):

- by default, and for the cold plate solve of a homotopy sweep, the Hessian
  of the plate energy at u = 0, which is block diagonal;
- for the warm solves of a sweep, the Hessian at the plate minimizer u0,
  applied as a symmetric block Gauss-Seidel inverse.  Since
  u_t = u0 + t w + O(t^2), each warm solve also starts on the secant
  through u0.  Where the u3 block is not positive definite at u0 (a flat
  saddle under a purely tangential load) the warm solves keep H0 at u = 0.

One builder, _plate_hessian_solve(grid, mat, u), makes both; nothing is
cached, so a minimize call given no H0 factors its own.  Its blocks are
assembled from the grid's stencils straight into LAPACK band storage, and
the coupling block K_3t is never stored: its products run through the same
stencils.

Results repeat bitwise for a given configuration seed.  The solver's
reductions are numpy sums in a fixed order, not BLAS dot products, so they
do not depend on the BLAS thread count.  The BLAS-backed steps are the
LAPACK banded Cholesky factorizations and solves (dpbtrf in place, and
dpbtrs), called through lapack.LAPACK with OpenBLAS pinned to one thread:
at 129x129 nodes threaded blocked updates would change the factors' last
bits, and with them the last digits of the iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .elasticity import Material, flat_voigt
from .energy import EnergyAssembly, ForceDensity, make_assembly
from .geometry import Immersion, c2_distance
from .grid import Displacement, Grid, require_clamped

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
    preconditioner: str = "plate"  # the recursion's H0: "plate" or "plate_minimizer"


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
    tolerance.  With restarts > 1, reruns from seeded perturbations of u0 and
    returns the lowest-energy converged result (deterministic given seed).
    When no run converges within max_iter, the lowest-energy run is
    returned, flagged converged=False; a stalled line search raises
    LineSearchStallError with diagnostics attached.

    h0_solve is the initial inverse Hessian of the two-loop recursion: a
    callable applying a symmetric positive definite matrix to packed
    interior vectors, whose `name` the diagnostics report as
    `preconditioner`.  By default the call factors the plate Hessian at
    u = 0 of the assembly's grid and material for itself; homotopy_solve
    passes it to the cold plate solve and the inverse built at the plate
    minimizer to its warm steps.
    """
    require_clamped(u0)
    tol = cfg.grad_tol * (1.0 + asm.load_norm())
    if h0_solve is None:
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
                    evaluations=evaluations, preconditioner=h0_solve.name,
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
        evaluations=evaluations,
        preconditioner=h0_solve.name,
    )
    return u, diag


def _two_loop_direction(g, s_hist, y_hist, rho, h0_solve):
    """Two-loop recursion with an exact plate Hessian as H0.

    h0_solve applies H0^{-1}: the plate Hessian at u = 0, or the block
    inverse of the plate Hessian at the plate minimizer.  Either is exact
    for the plate, so it is not rescaled by the newest curvature pair;
    without history the direction is the plate-Newton step -H0^{-1} g.
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
    stencil = grid.bending_stencil.leading(3)
    shear = np.array([1.0, 1.0, 2.0])
    c = (np.outer(shear, shear) * flat_voigt(mat))[..., None, None] \
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
    stencil = grid.membrane_stencil.leading(2)
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
    cells = grid.membrane_stencil.leading(2)
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
    q = np.einsum("aw...,wb...->ab...", pwc, p) + s[[[0, 2], [2, 1]]]
    k33 = _bending_band(grid, mat)
    slots = [(o1, o2, 0) for o1, o2 in cells.support]
    _assemble(k33, grid, cells.local_weights(), q, slots, 1)
    return k33, _Coupling(cells, pwc)


class _Coupling:
    """K_3t = D^T (P^T W C) E_t on the interior unknowns, applied through the
    grid's cell stencils: the membrane strain of (u1, u2), then the per-cell
    3 -> 2 map pwc = P^T W C, then the adjoint of the cell derivatives.  Its
    transpose K_t3 runs the same steps backwards.  Never stored."""

    def __init__(self, cells, pwc: np.ndarray, transposed: bool = False):
        self.cells, self.pwc, self.transposed = cells, pwc, transposed
        self.inner = (cells.source[0] - 2, cells.source[1] - 2)

    @property
    def T(self) -> "_Coupling":
        return _Coupling(self.cells, self.pwc, not self.transposed)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        cells, (m1, m2) = self.cells, self.inner
        if not self.transposed:  # (u1, u2) interleaved -> u3
            ut = np.zeros((2,) + cells.source)
            ut[:, 1:-1, 1:-1] = np.moveaxis(x.reshape(m1, m2, 2), -1, 0)
            g = cells(ut)
            e = np.stack((g[0, 0], g[1, 1], g[1, 0] + g[0, 1]))
            y = np.einsum("av...,v...->a...", self.pwc, e)
            return cells.adjoint(y)[1:-1, 1:-1].ravel()
        u3 = np.zeros(cells.source)
        u3[1:-1, 1:-1] = x.reshape(m1, m2)
        s = np.einsum("av...,a...->v...", self.pwc, cells(u3))
        y = s[[[0, 2], [2, 1]]]  # y[a, k]: the stress D_a u_k meets
        return np.moveaxis(cells.adjoint(y)[:, 1:-1, 1:-1], 0, -1).ravel()


def _plate_hessian_solve(grid: Grid, mat: Material, u: Displacement | None = None,
                         membrane=None) -> "_PlateSolve":
    """H0^{-1}: the inverse of the plate Hessian at the clamped u (u = 0 by
    default).  Factors K_33, raising NotPositiveDefiniteError if it is not
    positive definite, then K_tt unless `membrane` already solves by it."""
    k33, k3t = _plate_hessian_blocks(grid, mat, u)
    k33_solve = _banded_cholesky(k33)
    membrane = membrane or _banded_cholesky(_membrane_band(grid, mat))
    return _PlateSolve("plate" if u is None else "plate_minimizer", membrane, k33_solve, k3t)


class _PlateSolve:
    """Applies the inverse of the plate Hessian by solves with K_tt (membrane,
    on (u1, u2) interleaved) and K_33.  With a K_3t block (L) it is the
    symmetric block Gauss-Seidel inverse M^{-1}, M = (D + L) D^{-1} (D + L)^T
    for D = diag(K_tt, K_33); without one (u = 0) the exact inverse."""

    def __init__(self, name: str, membrane, k33, k3t: _Coupling | None):
        self.name, self.membrane, self.k33, self.k3t = name, membrane, k33, k3t
        self.kt3 = None if k3t is None else k3t.T

    def __call__(self, g: np.ndarray) -> np.ndarray:
        n = g.size // 3
        gt = _interleave(g[: 2 * n])
        if self.k3t is None:
            return np.concatenate((_deinterleave(self.membrane(gt)), self.k33(g[2 * n :])))
        x3 = self.k33(g[2 * n :] - self.k3t @ self.membrane(gt))
        xt = self.membrane(gt - self.kt3 @ x3)
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

    The plate problem (t = 0) is always solved first from a cold start,
    with H0 the plate Hessian at u = 0.  The largest t starts from the plate
    minimizer u0 and every smaller t on the secant through u0,
    u0 + (t / t_prev)(u_prev - u0); these warm solves take as H0 the block
    inverse of the plate Hessian at u0.  When its u3 block is not positive
    definite there, they start from the previous solution with H0 at u = 0
    instead.  The plate result fills the t = 0 row when present.  Both H0s
    share one K_tt factor, and H0's bending factor is freed before K_33(u0)'s.

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
    h0 = _plate_hessian_solve(grid, material)
    u_plate, diag0 = _homotopy_step(asm0, Displacement.zeros(grid), cfg, 0.0, h0)
    secant = False
    if ts and ts[0] > 0.0:
        membrane, h0 = h0.membrane, None  # free H0's bending factor before K_33(u0)'s
        try:
            h0, secant = _plate_hessian_solve(grid, material, u_plate, membrane), True
        except NotPositiveDefiniteError:
            h0 = _plate_hessian_solve(grid, material, membrane=membrane)

    steps: list[HomotopyStep] = []
    prev_t, prev = None, u_plate
    for t in ts:
        if t == 0.0:
            steps.append(HomotopyStep(0.0, plate, asm0, u_plate, diag0, 0.0))
            continue
        imm_t = immersion.with_scale(t)
        asm_t = make_assembly(grid, imm_t, material, force)
        on_secant = secant and prev_t is not None
        start = u_plate + (prev - u_plate) * (t / prev_t) if on_secant else prev
        u_t, diag_t = _homotopy_step(asm_t, start, cfg, t, h0)
        steps.append(
            HomotopyStep(t, imm_t, asm_t, u_t, diag_t, c2_distance(imm_t, plate, grid))
        )
        prev_t, prev = t, u_t
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
    u3[idx] = _banded_cholesky(_bending_band(grid, mat))(rhs)
    return u3.reshape(grid.shape)
