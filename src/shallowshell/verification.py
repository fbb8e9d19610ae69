"""Machine-checkable verification suite spanning every module.

Each check reruns one of the library's mathematical guarantees on canonical
small problems with fixed seeds and reports the observed worst value against
its threshold.  The gradient check accepts a corruption hook so the negative
control (a broken gradient must be caught) can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import StudyConfig
from .elasticity import (
    Material,
    build_tensor,
    contract,
    flat_tensor,
    positivity_gap,
    trace_decomposition,
    voigt_coefficients,
)
from .energy import ForceDensity, make_assembly, plate_membrane_strain
from .geometry import (
    Immersion,
    christoffel_from_metric,
    c2_distance,
    geometry_field,
    surface_quantities,
)
from .grid import (
    Displacement,
    Grid,
    l2_norm,
    h2_seminorm,
    random_clamped_displacement,
)
from .solver import SolverConfig, minimize

CATALOG_SAMPLES = (
    Immersion("plate"),
    Immersion("paraboloid", params={"t": 0.1, "kappa1": 1.0, "kappa2": 1.3}),
    Immersion("cylinder_patch", params={"t": 0.4}),
    Immersion("sinusoidal_bump", params={"t": 0.05, "m1": 1.0, "m2": 2.0}),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    threshold: float
    note: str = ""

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"{word} {self.name}: observed={self.observed:.3e} "
            f"threshold={self.threshold:.3e}{extra}"
        )


def _below(name, observed, threshold, note=""):
    return CheckResult(name, observed <= threshold, float(observed), float(threshold), note)


def _above(name, observed, threshold, note=""):
    return CheckResult(name, observed >= threshold, float(observed), float(threshold), note)


# -- geometry ------------------------------------------------------------------


def check_geometry_derivatives() -> CheckResult:
    """Analytic derivatives against Richardson-extrapolated central differences."""
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0

    def rel_err(exact, fd):
        return np.max(np.linalg.norm(exact - fd, axis=-1)
                      / np.maximum(1.0, np.linalg.norm(exact, axis=-1)))

    for imm in CATALOG_SAMPLES:
        pts = np.column_stack(
            [
                rng.uniform(4 * h, imm.L1 - 4 * h, 100),
                rng.uniform(4 * h, imm.L2 - 4 * h, 100),
            ]
        )
        _, grad, hess = imm.evaluate(pts)
        for alpha in range(2):
            # central differences of the value and of the analytic gradient
            # at steps h and h/2, then one Richardson step
            diffs = []
            for step in (h, h / 2):
                delta = np.zeros(2)
                delta[alpha] = step
                vp, gp, _ = imm.evaluate(pts + delta)
                vm, gm, _ = imm.evaluate(pts - delta)
                diffs.append(((vp - vm) / (2.0 * step), (gp - gm) / (2.0 * step)))
            (v_coarse, g_coarse), (v_fine, g_fine) = diffs
            worst = max(worst, rel_err(grad[:, alpha], (4.0 * v_fine - v_coarse) / 3.0))
            worst = max(worst, rel_err(hess[:, :, alpha], (4.0 * g_fine - g_coarse) / 3.0))
    return _below("geometry.derivatives_vs_fd", worst, 1e-8)


def check_metric_inverse() -> CheckResult:
    worst = 0.0
    grid = Grid(1.0, 1.0, 9, 9)
    for imm in CATALOG_SAMPLES:
        geom = geometry_field(imm, grid)
        prod = np.einsum("xyab,xybc->xyac", geom.a, geom.a_inv)
        worst = max(worst, float(np.max(np.abs(prod - np.eye(2)))))
    return _below("geometry.metric_inverse", worst, 1e-13)


def check_plate_flat() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("plate"), grid)
    exact = (
        np.array_equal(geom.a, np.broadcast_to(np.eye(2), geom.a.shape))
        and np.all(geom.b == 0.0)
        and np.all(geom.gamma == 0.0)
        and np.all(geom.sqrt_a == 1.0)
        and np.all(geom.K == 0.0)
    )
    return CheckResult("geometry.plate_flat_exact", bool(exact), 0.0 if exact else 1.0, 0.0)


def check_christoffel_cross() -> CheckResult:
    """The Gamma of surface_quantities, which the energy uses, against the
    metric-only Koszul formula."""
    grid = Grid(1.0, 1.0, 9, 9)
    worst = 0.0
    for imm in CATALOG_SAMPLES:
        y = np.stack([grid.y1, grid.y2], axis=-1)
        _, grad, hess = imm.evaluate(y)
        _, a_inv, _, direct, _, _ = surface_quantities(imm, y)
        koszul = christoffel_from_metric(grad, hess, a_inv)
        worst = max(worst, float(np.max(np.abs(direct - koszul))))
    return _below("geometry.christoffel_koszul", worst, 1e-10)


def check_c2_monotone() -> CheckResult:
    grid = Grid(1.0, 1.0, 17, 17)
    plate = Immersion("plate")
    margin = np.inf
    for kind in ("paraboloid", "cylinder_patch", "sinusoidal_bump"):
        base = Immersion(kind, params={"t": 0.2})
        dists = [c2_distance(base.with_scale(t), plate, grid)
                 for t in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        diffs = np.diff(dists)
        margin = min(margin, float(-diffs.max()))
        if dists[-1] >= dists[0]:
            margin = -1.0
    return _above("geometry.c2_distance_monotone", margin, 0.0,
                  "min decrease between successive t")


# -- elasticity ------------------------------------------------------------------


def _paraboloid_geom(n=9, t=0.1):
    grid = Grid(1.0, 1.0, n, n)
    return grid, geometry_field(Immersion("paraboloid", params={"t": t}), grid)


def check_tensor_symmetries() -> CheckResult:
    _, geom = _paraboloid_geom()
    A = build_tensor(geom.a_inv, Material(1.0, 1.0, 0.1))
    worst = max(
        float(np.max(np.abs(A - np.einsum("xyabst->xybast", A)))),
        float(np.max(np.abs(A - np.einsum("xyabst->xyabts", A)))),
        float(np.max(np.abs(A - np.einsum("xyabst->xystab", A)))),
    )
    return _below("elasticity.tensor_symmetries", worst, 0.0)


def check_contract_symmetry() -> CheckResult:
    rng = np.random.default_rng(11)
    _, geom = _paraboloid_geom()
    mat = Material(1.3, 0.7, 0.1)
    A = build_tensor(geom.a_inv[3, 4], mat)
    worst = 0.0
    for _ in range(50):
        s = rng.standard_normal((2, 2))
        s = 0.5 * (s + s.T)
        t = rng.standard_normal((2, 2))
        t = 0.5 * (t + t.T)
        st, ts = contract(A, s, t), contract(A, t, s)
        worst = max(worst, abs(st - ts) / max(abs(st), 1e-30))
    # the six coefficients the energy contracts with are the full tensor's
    A = build_tensor(geom.a_inv, mat)
    entries = (A[..., 0, 0, 0, 0], A[..., 1, 1, 1, 1], A[..., 0, 1, 0, 1],
               A[..., 0, 0, 1, 1], A[..., 0, 0, 0, 1], A[..., 1, 1, 0, 1])
    for c, a in zip(voigt_coefficients(geom.a_inv, mat), entries):
        worst = max(worst, float(np.max(np.abs(c - a)) / np.max(np.abs(a))))
    return _below("elasticity.contract_symmetry", worst, 1e-13)


def check_trace_identity() -> CheckResult:
    rng = np.random.default_rng(12)
    mat = Material(1.0, 1.0, 0.1)
    _, geom = _paraboloid_geom(t=0.2)
    A = build_tensor(geom.a_inv, mat)
    worst = 0.0
    for _ in range(50):
        s = rng.standard_normal((2, 2))
        s = 0.5 * (s + s.T)
        iso, dev = trace_decomposition(geom.a_inv, s, mat)
        total = contract(A, s, s)
        worst = max(worst, float(np.max(np.abs(iso + dev - total) / np.maximum(np.abs(total), 1e-30))))
    return _below("elasticity.trace_identity", worst, 1e-12)


def check_positivity_realized() -> CheckResult:
    rng = np.random.default_rng(13)
    mat = Material(1.0, 1.0, 0.1)
    grid, geom = _paraboloid_geom(t=0.2)
    A = build_tensor(geom.a_inv, mat)
    gap = positivity_gap(geom, mat)
    margin = np.inf
    for _ in range(100):
        s = rng.standard_normal((2, 2))
        s = 0.5 * (s + s.T)
        quad = contract(A, s, s) * geom.sqrt_a
        bound = gap * float(np.sum(s * s))
        margin = min(margin, float(np.min(quad - bound)))
    return _above("elasticity.positivity_realized", margin, -1e-12,
                  "min over nodes of form minus gap bound")


def check_plate_tensor() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("plate"), grid)
    A = build_tensor(geom.a_inv, Material(1.0, 1.0, 0.1))
    a0 = flat_tensor(Material(1.0, 1.0, 0.1))
    worst = float(np.max(np.abs(A - a0)))
    return _below("elasticity.plate_tensor_reduction", worst, 0.0)


# -- discrete space ---------------------------------------------------------------


def check_operator_linearity() -> CheckResult:
    """The two strain stacks, forward and adjoint, are linear maps."""
    rng = np.random.default_rng(21)
    grid = Grid(1.0, 1.0, 9, 9)
    c = 1.7
    worst = 0.0
    for stencil in (grid.membrane_stencil, grid.bending_stencil):
        for op, shape in ((stencil, grid.shape),
                          (stencil.adjoint, (stencil.hi,) + stencil.target)):
            f, g = rng.standard_normal((2,) + shape)
            # the adjoint consumes its argument: hand it copies
            lin = op(f + c * g) - op(f.copy()) - c * op(g.copy())
            scale = max(float(np.max(np.abs(op(f)))), 1.0)
            worst = max(worst, float(np.max(np.abs(lin))) / scale)
    return _below("discrete.operator_linearity", worst, 1e-14)


def check_integration_by_parts() -> CheckResult:
    """The cell product rule sum_cells |cell| (D_a f A g + A f D_a g) = 0
    for clamped f, g and a = 1, 2: with p and q the sums of f and of g over
    the two ends of a cell edge across axis a, the summand is the step of
    p q / (4 h_a) along axis a, so the sum telescopes to boundary values,
    which vanish.  Worst over two grids relative to ||f|| ||g||."""
    rng = np.random.default_rng(22)
    worst = 0.0
    for n in (9, 17):
        grid = Grid(1.0, 1.0, n, n)
        f = random_clamped_displacement(grid, rng, smooth=0).u1
        g = random_clamped_displacement(grid, rng, smooth=0).u1
        (d1f, d1g), (d2f, d2g), (af, ag) = grid.membrane_stencil(np.stack((f, g)))
        norms = max(l2_norm(grid, f) * l2_norm(grid, g), 1e-30)
        for df, dg in ((d1f, d1g), (d2f, d2g)):
            s = grid.cell_weight * np.sum(df * ag + af * dg)
            worst = max(worst, abs(s) / norms)
    return _below("discrete.integration_by_parts", worst, 1e-12,
                  "clamped fields: boundary terms cancel exactly")


def check_mixed_symmetry() -> CheckResult:
    """The twist row of bending_stencil is its interior d1 row applied to
    its interior d2 row, on clamped fields exactly (boundary ring included:
    both vanish there, and the clamped zeros stand in for the d2 rows that
    the interior stencil leaves empty).  Worst residual over seeded fields
    on the identity grids, relative to the largest composed value."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for dims in IDENTITY_GRIDS:
        grid = Grid(*dims)
        stencil = grid.bending_stencil
        for s in (0, 2):
            f = random_clamped_displacement(grid, rng, smooth=s).u3
            rows = stencil(f)
            composed = stencil(rows[4])[3]
            residual = np.max(np.abs(rows[2] - composed)) / np.max(np.abs(composed))
            worst = max(worst, float(residual))
    return _below("discrete.mixed_derivative_symmetry", worst, 1e-13)


IDENTITY_TOL = 1e-12
IDENTITY_GRIDS = ((1.0, 1.0, 9, 9), (2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33))


def rigidity_residuals(grid: Grid, fields=None) -> tuple[float, float]:
    """Worst relative residuals of two exact identities of the cell stencils.

    For clamped u, (K) ||e(u')||^2 = 1/2 ||grad_c u'||^2 + 1/2 ||div_c u'||^2
    (a^T d is skew on the interior nodes, so the cross terms cancel: the
    discrete Korn constant is exactly 1/2) and (T) sum_cells |cell| tr E(u)
    = 1/2 ||grad_c u3||^2 (sum div_c u' telescopes to 0).  With the trivial
    kernel of grad_c they prove rigidity: E = 0 gives u3 = 0, then
    e(u') = 0, then u' = 0.  fields defaults to eight seeded clamped ones.
    """
    if fields is None:
        rng = np.random.default_rng(24)
        fields = [random_clamped_displacement(grid, rng, smooth=s) for s in (0, 2) * 4]
    w = grid.cell_weight
    flat = np.zeros(grid.shape)
    korn = trace = 0.0
    for u in fields:
        # g[a, k]: the cell derivative D_a of component k
        g = grid.cell_d1_ops(u.block)
        (g11, g21, g31), (g12, g22, g32) = g
        # the linearized strain: that of the tangential part alone
        e = plate_membrane_strain(grid, Displacement(u.u1, u.u2, flat))
        strain = w * np.sum(e * e)
        split = 0.5 * w * np.sum(g11**2 + g12**2 + g21**2 + g22**2 + (g11 + g22) ** 2)
        korn = max(korn, abs(strain - split) / max(strain, 1e-300))
        tr = w * np.sum(np.trace(plate_membrane_strain(grid, u), axis1=-2, axis2=-1))
        slope = 0.5 * w * np.sum(g31**2 + g32**2)
        trace = max(trace, abs(tr - slope) / max(slope, 1e-300))
    return float(korn), float(trace)


def check_korn() -> CheckResult:
    """(K) and (T) of rigidity_residuals to roundoff: Korn constant 1/2."""
    korn, trace = np.max([rigidity_residuals(Grid(*g)) for g in IDENTITY_GRIDS], axis=0)
    return _below("discrete.korn_trace_identities", max(korn, trace), IDENTITY_TOL,
                  f"relative residuals K={korn:.1e} T={trace:.1e}")


def check_bubble_h2() -> CheckResult:
    # closed form for the squared H2 seminorm of (x(1-x)y(1-y))^2, an H2_0
    # member, on (0,1)^2
    exact = 4.0 / 1225.0
    errs = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        b = (grid.y1 * (1 - grid.y1) * grid.y2 * (1 - grid.y2)) ** 2
        errs.append(abs(h2_seminorm(grid, b) ** 2 - exact))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    return _above("discrete.bubble_h2_order", min(ratios), 3.0,
                  "error reduction per refinement (4 = exact O(h^2))")


# -- energy ------------------------------------------------------------------------


def _gradient_setup(n: int, kind: str):
    grid = Grid(1.0, 1.0, n, n)
    params = {"t": 0.1} if kind == "paraboloid" else {}
    mat = Material(1.0, 1.0, 0.1)
    force = ForceDensity.constant(grid, 0.5, -0.3, 1.0)
    return grid, make_assembly(grid, Immersion(kind, params=params), mat, force)


FD_PAIRS, FD_TAU, FD_SEED = 20, 1e-6, 11


def gradient_check(n: int, kind: str, corrupt: bool = False) -> float:
    """Worst relative error of the analytic gradient against central finite
    differences of the energy (step FD_TAU) over FD_PAIRS seeded random pairs."""
    grid, asm = _gradient_setup(n, kind)
    rng = np.random.default_rng(FD_SEED)
    worst = 0.0
    for _ in range(FD_PAIRS):
        u = random_clamped_displacement(grid, rng)
        v = random_clamped_displacement(grid, rng)
        g = asm.gradient(u)
        if corrupt:
            g = Displacement(g.u1 * (1.0 + 1e-4), g.u2, g.u3)
        gv = sum(float(np.sum(gc * vc)) for gc, vc in zip(g.components(), v.components()))
        fd = (asm.energy(u + FD_TAU * v) - asm.energy(u + (-FD_TAU) * v)) / (2.0 * FD_TAU)
        worst = max(worst, abs(gv - fd) / max(abs(fd), abs(gv), 1e-30))
    return worst


def check_gradient(corrupt_gradient: bool = False) -> CheckResult:
    worst = 0.0
    for n in (9, 17):
        for kind in ("plate", "paraboloid"):
            worst = max(worst, gradient_check(n, kind, corrupt=corrupt_gradient))
    note = "CORRUPTION HOOK ACTIVE" if corrupt_gradient else ""
    return _below("energy.gradient_vs_fd", worst, 1e-6, note)


PLATE_GRIDS = ((1.0, 1.0, 17, 17), (2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33))


def _single_node_plate(grid: Grid, mat: Material, force: ForceDensity, i: int, j: int,
                       a: np.ndarray):
    """The discrete plate energy of u = a delta_(i,j), worked out by hand.

    Node (i, j) lies at least two nodes from the boundary, so no ghost row
    meets u and every quadrature weight is h1 h2.  On the four cells around
    the node the cell derivatives of u_k are (+-a_k/(2 h1), +-a_k/(2 h2)),
    so E(su) = s E1 + s^2 E2; the clamped d11 is (-2, 1, 1) a3/h1^2 at
    (i, j) and (i+-1, j), d22 likewise along axis 2, and d12 is
    +-a3/(4 h1 h2) at the four diagonal neighbours.  With J(su) = s^2 M1 +
    s^3 M12 + s^4 M2 + s^2 B - s L, returns (J(u), d/ds J(su) at s = 1,
    the magnitude |M1| + |M12| + |M2| + |B| + |L|, the four cells, E(u) on
    them).
    """
    h1, h2, w = grid.h1, grid.h2, grid.h1 * grid.h2
    A = flat_tensor(mat)
    # cell derivative factors: the node is the far corner of cells (i-1, .)
    # and (., j-1), the near corner of cells (i, .) and (., j)
    g = np.array([[s1 / (2.0 * h1), s2 / (2.0 * h2)] for s1 in (1, -1) for s2 in (1, -1)])
    cells = (i - 1, i - 1, i, i), (j - 1, j, j - 1, j)
    e1 = 0.5 * (g[:, :, None] * a[:2] + a[:2, None] * g[:, None, :])
    e2 = 0.5 * a[2] ** 2 * g[:, :, None] * g[:, None, :]
    f = np.zeros((9, 2, 2))
    f[0] = np.diag([-2.0 * a[2] / h1**2, -2.0 * a[2] / h2**2])
    f[1:3, 0, 0] = a[2] / h1**2
    f[3:5, 1, 1] = a[2] / h2**2
    f[5:, 0, 1] = f[5:, 1, 0] = np.array([1.0, -1.0, -1.0, 1.0]) * a[2] / (4.0 * h1 * h2)
    memb = mat.eps * w * np.array([0.5 * np.sum(contract(A, e1, e1)),
                                   np.sum(contract(A, e1, e2)),
                                   0.5 * np.sum(contract(A, e2, e2))])
    bend = mat.eps**3 / 3.0 * w * 0.5 * np.sum(contract(A, f, f))
    load = w * sum(p[i, j] * ak for p, ak in zip(force.components(), a))
    return (np.sum(memb) + bend - load, memb @ (2.0, 3.0, 4.0) + 2.0 * bend - load,
            np.sum(np.abs(memb)) + bend + abs(load), cells, e1 + e2)


def check_plate_path() -> CheckResult:
    """The plate assembly against the closed form of _single_node_plate.

    For single-node fields u = a delta_(i,j) on three grids, under a
    polynomial load in all three components, the assembly's energy J(u),
    the pairing <grad J(u), u> = d/ds J(su) at s = 1 and the membrane strain
    (the hand E on the four cells, 0 elsewhere) match values computed by
    hand from the stencils and the 16-component plate tensor.  This proves
    the assembly's flat-reference path, its Voigt coefficients at the flat
    metric, its shear factors and the gradient's pairing in the direction
    u, independently of the assembly; it does not cover the geometry pulls
    of a curved reference.
    """
    mat = Material(1.3, 0.7, 0.1)
    rng = np.random.default_rng(31)
    worst = 0.0
    for dims in PLATE_GRIDS:
        grid = Grid(*dims)
        force = ForceDensity.polynomial(
            grid, ((0.5, 0.2), (-0.3, 0.0, 0.4), (1.0, 0.1, -0.2, 0.3)))
        asm = make_assembly(grid, Immersion("plate", grid.L1, grid.L2), mat, force)
        for _ in range(4):
            i, j = rng.integers(2, grid.n1 - 2), rng.integers(2, grid.n2 - 2)
            a = 0.1 * rng.standard_normal(3)
            u = Displacement.zeros(grid)
            u.block[:, i, j] = a
            energy, slope, scale, cells, e = _single_node_plate(grid, mat, force, i, j, a)
            value, _, g = asm.full_evaluation(u)
            pairing = sum(float(np.sum(gc * uc)) for gc, uc in zip(g.components(),
                                                                     u.components()))
            strain = np.zeros(grid.cell_shape + (2, 2))
            strain[cells] = e
            worst = max(worst, abs(value - energy) / scale, abs(pairing - slope) / scale,
                        float(np.max(np.abs(asm.membrane_strain(u) - strain))
                              / np.max(np.abs(e))))
    return _below("energy.plate_closed_form", worst, 1e-12,
                  "single-node fields: energy, <grad J(u), u> and strain vs hand values")


def check_energy_nonnegative() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    asm = make_assembly(grid, Immersion("paraboloid", params={"t": 0.1}),
                        Material(1.0, 1.0, 0.1), ForceDensity.zero(grid))
    rng = np.random.default_rng(32)
    lowest = np.inf
    for _ in range(50):
        u = random_clamped_displacement(grid, rng)
        lowest = min(lowest, asm.energy(u))
    return _above("energy.nonnegative_at_zero_load", lowest, 0.0)


def check_strain_symmetry() -> CheckResult:
    """Swapping the axes (u1 <-> u2, every field transposed) keeps the energy
    and reflects the strains (11 <-> 22 at the transposed points) on the unit
    square, for shells symmetric in (y1, y2), under a seeded load the swap
    maps to itself; a weight that differs between the axes breaks it."""
    mat = Material(1.0, 1.0, 0.1)
    rng = np.random.default_rng(33)
    worst = 0.0
    for n in (9, 17):
        grid = Grid(1.0, 1.0, n, n)
        for imm in (Immersion("paraboloid", params={"t": 0.3}),
                    Immersion("sinusoidal_bump", params={"t": 0.2, "m1": 1.0, "m2": 1.0})):
            u = random_clamped_displacement(grid, rng)
            p, q = rng.standard_normal((2,) + grid.shape)
            asm = make_assembly(grid, imm, mat, ForceDensity(p, p.T, q + q.T))
            v = Displacement(u.u2.T, u.u1.T, u.u3.T)
            energy = asm.energy(u)
            worst = max(worst, abs(asm.energy(v) - energy) / abs(energy))
            for got, ref in ((asm.membrane_strain(v), asm.membrane_strain(u)),
                             (asm.bending_strain(v.u3), asm.bending_strain(u.u3))):
                reflected = np.swapaxes(ref, 0, 1)[..., ::-1, ::-1]
                worst = max(worst, np.max(np.abs(got - reflected)) / np.max(np.abs(ref)))
    return _below("energy.strain_symmetry", worst, 1e-13)


def check_load_bilinearity() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    rng = np.random.default_rng(34)
    u = random_clamped_displacement(grid, rng)
    mat = Material(1.0, 1.0, 0.1)
    imm = Immersion("paraboloid", params={"t": 0.1})

    def load_term(force):
        asm = make_assembly(grid, imm, mat, force)
        return asm.energy(Displacement.zeros(grid)) - asm.energy(u) + (
            make_assembly(grid, imm, mat, ForceDensity.zero(grid)).energy(u)
        )

    f1 = ForceDensity.constant(grid, 0.4, -0.2, 0.9)
    f2 = ForceDensity.constant(grid, -0.1, 0.8, 0.3)
    c = 2.5
    combo = ForceDensity(f1.p1 + c * f2.p1, f1.p2 + c * f2.p2, f1.p3 + c * f2.p3)
    lhs = load_term(combo)
    rhs = load_term(f1) + c * load_term(f2)
    worst = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    return _below("energy.load_bilinearity", worst, 1e-13)


# -- solver -------------------------------------------------------------------------


def check_solver_zero_load() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    asm = make_assembly(grid, Immersion("plate"), Material(1.0, 1.0, 0.1),
                        ForceDensity.zero(grid))
    _, diag = minimize(asm, Displacement.zeros(grid), SolverConfig())
    return _below("solver.zero_load_immediate", diag.iterations, 0.0)


def check_solver_determinism() -> CheckResult:
    """Two seeded solves with restarts on the same assembly give the same
    bytes.  Each minimize call factors its own plate Hessian H0, so this
    also proves that two independent factorizations give the same bytes."""
    grid = Grid(1.0, 1.0, 9, 9)
    asm = make_assembly(grid, Immersion("paraboloid", params={"t": 0.1}),
                        Material(1.0, 1.0, 0.1),
                        ForceDensity.constant(grid, 0.1, -0.05, 0.5))
    cfg = SolverConfig(seed=7, restarts=2)
    u_a, diag_a = minimize(asm, Displacement.zeros(grid), cfg)
    u_b, diag_b = minimize(asm, Displacement.zeros(grid), cfg)
    same = (u_a.block.tobytes() == u_b.block.tobytes()
            and diag_a.final_energy == diag_b.final_energy)
    return CheckResult("solver.determinism_bitwise", bool(same), 0.0 if same else 1.0, 0.0)


def check_solver_monotone() -> CheckResult:
    grid = Grid(1.0, 1.0, 9, 9)
    asm = make_assembly(grid, Immersion("paraboloid", params={"t": 0.1}),
                        Material(1.0, 1.0, 0.1),
                        ForceDensity.constant(grid, 0.2, -0.1, 1.0))
    _, diag = minimize(asm, Displacement.zeros(grid), SolverConfig())
    hist = np.asarray(diag.energy_history)
    increase = float(np.max(np.diff(hist))) if len(hist) > 1 else 0.0
    # monotone up to the line search's documented roundoff allowance: an
    # energy of this magnitude cannot certify decreases below a few ulps
    return _below("solver.energy_monotone", increase, diag.noise_floor,
                  "max energy increase vs fp-noise allowance; "
                  f"net decrease {hist[0] - hist[-1]:.3e}")


def run_verification(cfg: StudyConfig | None = None,
                     corrupt_gradient: bool = False) -> list[CheckResult]:
    """Run the full invariant suite.

    The checks are fixed: cfg is accepted but not read, and `shallowshell
    verify` rejects --config after parsing and validating FILE.
    """
    checks = [
        check_geometry_derivatives(),
        check_metric_inverse(),
        check_plate_flat(),
        check_christoffel_cross(),
        check_c2_monotone(),
        check_tensor_symmetries(),
        check_contract_symmetry(),
        check_trace_identity(),
        check_positivity_realized(),
        check_plate_tensor(),
        check_operator_linearity(),
        check_integration_by_parts(),
        check_mixed_symmetry(),
        check_korn(),
        check_bubble_h2(),
        check_gradient(corrupt_gradient=corrupt_gradient),
        check_plate_path(),
        check_energy_nonnegative(),
        check_strain_symmetry(),
        check_load_bilinearity(),
        check_solver_zero_load(),
        check_solver_determinism(),
        check_solver_monotone(),
    ]
    return checks
