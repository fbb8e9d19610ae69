import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import shallowshell
from kron_reference import kron_ops, relative
from shallowshell import (
    Displacement,
    ForceDensity,
    Grid,
    Immersion,
    Material,
    make_assembly,
    plate_membrane_strain,
)
from shallowshell.elasticity import build_tensor
from shallowshell.geometry import SurfaceGeometry, cell_geometry
from shallowshell import grid as ss_grid
from shallowshell.grid import random_clamped_displacement
from shallowshell.solver import _weighted_residual


def dot(g, v):
    return sum(float(np.sum(gc * vc)) for gc, vc in zip(g.components(), v.components()))


# -- force catalog ---------------------------------------------------------------


def test_force_catalog(grid9):
    f = ForceDensity.from_catalog(grid9, "constant", {"p1": 0.5, "p2": -0.3, "p3": 1.0})
    assert np.all(f.p1 == 0.5) and np.all(f.p2 == -0.3) and np.all(f.p3 == 1.0)
    f = ForceDensity.from_catalog(grid9, "polynomial", {"p3_coeffs": (1.0, 2.0)})
    assert np.allclose(f.p3, 1.0 + 2.0 * grid9.y1, atol=0)
    assert np.all(f.p1 == 0.0)
    f = ForceDensity.from_catalog(
        grid9, "gaussian_bump",
        {"amp3": 2.0, "center1": 0.5, "center2": 0.5, "sigma": 0.2},
    )
    assert abs(f.p3[grid9.n1 // 2, grid9.n2 // 2] - 2.0) < 1e-14
    with pytest.raises(ValueError, match="unknown force kind"):
        ForceDensity.from_catalog(grid9, "wind", {})
    with pytest.raises(ValueError, match="at most 6"):
        ForceDensity.polynomial(grid9, ((1,) * 7, (), ()))
    with pytest.raises(ValueError, match="width"):
        ForceDensity.gaussian_bump(grid9, (1, 0, 0), (0.5, 0.5), 0.0)


# -- strain fields ----------------------------------------------------------------


def test_membrane_strain_zero_and_symmetry(shell_assembly, grid17, rng):
    E = shell_assembly.membrane_strain(Displacement.zeros(grid17))
    assert np.all(E == 0.0)
    u = random_clamped_displacement(grid17, rng)
    E = shell_assembly.membrane_strain(u)
    assert np.array_equal(E[..., 0, 1], E[..., 1, 0])


def test_membrane_strain_plate_reduction_exact(plate_assembly, grid17, rng):
    for _ in range(5):
        u = random_clamped_displacement(grid17, rng)
        assert np.array_equal(
            plate_assembly.membrane_strain(u), plate_membrane_strain(grid17, u)
        )


def test_membrane_strain_tangential_only(grid9):
    u = Displacement.zeros(grid9)
    u.u1[:] = grid9.y1 * (1 - grid9.y1) * grid9.y2 * (1 - grid9.y2)
    E = plate_membrane_strain(grid9, u)
    assert np.array_equal(E[..., 0, 0], grid9.cell_d1_ops(u.u1)[0])
    assert np.all(E[..., 1, 1] == 0.0)


def test_membrane_strain_pure_transverse(grid9, rng):
    u = Displacement.zeros(grid9)
    u.u3[1:-1, 1:-1] = 0.3 * rng.standard_normal((grid9.n1 - 2, grid9.n2 - 2))
    E = plate_membrane_strain(grid9, u)
    g1, g2 = grid9.cell_d1_ops(u.u3)
    assert np.allclose(E[..., 0, 0], 0.5 * g1 * g1, atol=0)
    assert np.allclose(E[..., 0, 1], 0.5 * g1 * g2, atol=0)
    assert np.min(E[..., 0, 0]) >= 0.0  # squares


def test_bending_strain_plate_is_plain_second_derivative(grid9, material, rng):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    u3 = random_clamped_displacement(grid9, rng).u3
    F = asm.bending_strain(u3)
    d11, _, d12 = grid9.clamped_d2_ops(u3)
    assert np.array_equal(F[..., 0, 0], d11)
    assert np.array_equal(F[..., 0, 1], d12)
    assert np.all(asm.bending_strain(np.zeros(grid9.shape)) == 0.0)


def test_bending_strain_curvature_correction_tracks_christoffel(grid9, material, rng):
    """The departure from the flat bending strain is the Christoffel pull;
    for the paraboloid family the symbols are O(t^2), so the gap decays with
    the measured |Gamma| (quadratically in t), vanishing into the plate."""
    u3 = random_clamped_displacement(grid9, rng).u3
    flat = make_assembly(grid9, Immersion("plate"), material,
                         ForceDensity.zero(grid9)).bending_strain(u3)
    diffs, gammas = [], []
    for t in (0.1, 0.01):
        asm = make_assembly(
            grid9, Immersion("paraboloid", params={"t": t}), material,
            ForceDensity.zero(grid9),
        )
        diffs.append(np.max(np.abs(asm.bending_strain(u3) - flat)))
        gammas.append(np.max(np.abs(asm.geometry.gamma)))
    assert diffs[0] > diffs[1] > 0.0
    ratio = (diffs[0] / diffs[1]) / (gammas[0] / gammas[1])
    assert 0.5 < ratio < 2.0


def test_linearized_strain_cases(grid9):
    # with u3 = 0 the plate membrane strain is the linearized strain
    assert np.all(plate_membrane_strain(grid9, Displacement.zeros(grid9)) == 0.0)
    # sampled rigid in-plane rotation has zero symmetric gradient
    rot = Displacement(-grid9.y2.copy(), grid9.y1.copy(), np.zeros(grid9.shape))
    e = plate_membrane_strain(grid9, rot)
    assert np.max(np.abs(e)) < 1e-14


# -- energy and gradient -----------------------------------------------------------


def test_energy_zero_displacement(shell_assembly, grid17):
    assert shell_assembly.energy(Displacement.zeros(grid17)) == 0.0


def test_energy_nonnegative_without_load(grid17, material, rng):
    asm = make_assembly(
        grid17, Immersion("paraboloid", params={"t": 0.1}), material,
        ForceDensity.zero(grid17),
    )
    for _ in range(20):
        u = random_clamped_displacement(grid17, rng)
        assert asm.energy(u) >= 0.0


def test_energy_zero_only_for_vanishing_strains(grid9, material, rng):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    u = random_clamped_displacement(grid9, rng)
    e = asm.energy(u)
    E = asm.membrane_strain(u)
    F = asm.bending_strain(u.u3)
    assert e > 0.0 and (np.any(E != 0.0) or np.any(F != 0.0))
    assert asm.energy(Displacement.zeros(grid9)) == 0.0


def test_gradient_at_zero_with_zero_load(grid9, material):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    g = asm.gradient(Displacement.zeros(grid9))
    assert all(np.all(c == 0.0) for c in g.components())


def test_gradient_pure_load_hand_assembly(grid9, material):
    asm = make_assembly(
        grid9, Immersion("plate"), material, ForceDensity.constant(grid9, 0, 0, 2.0)
    )
    g = asm.gradient(Displacement.zeros(grid9))
    expected = -grid9.weights * 2.0
    expected[~grid9.interior] = 0.0
    assert np.array_equal(g.u3, expected)
    assert np.all(g.u1 == 0.0) and np.all(g.u2 == 0.0)


@pytest.mark.parametrize("kind,params", [("plate", {}), ("paraboloid", {"t": 0.1})])
@pytest.mark.parametrize("n", [9, 17])
def test_gradient_vs_central_differences(kind, params, n, material):
    grid = Grid(1.0, 1.0, n, n)
    asm = make_assembly(
        grid, Immersion(kind, params=params), material,
        ForceDensity.constant(grid, 0.5, -0.3, 1.0),
    )
    rng = np.random.default_rng(11)
    tau = 1e-6
    for _ in range(20):
        u = random_clamped_displacement(grid, rng)
        v = random_clamped_displacement(grid, rng)
        gv = dot(asm.gradient(u), v)
        fd = (asm.energy(u + tau * v) - asm.energy(u + (-tau) * v)) / (2 * tau)
        assert abs(gv - fd) <= 1e-6 * max(abs(fd), abs(gv))


def test_residual_norm_properties(grid9, material):
    asm0 = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    zero = Displacement.zeros(grid9)
    assert _weighted_residual(grid9, asm0.gradient(zero)) == 0.0
    r = []
    for c in (1.0, 2.0, 4.0):
        asm = make_assembly(
            grid9, Immersion("plate"), material,
            ForceDensity.constant(grid9, 0.1 * c, 0.0, c),
        )
        r.append(_weighted_residual(grid9, asm.gradient(zero)))
    assert abs(r[1] / r[0] - 2.0) < 1e-12 and abs(r[2] / r[1] - 2.0) < 1e-12


def test_load_term_bilinear(grid9, material, rng):
    imm = Immersion("paraboloid", params={"t": 0.1})
    u = random_clamped_displacement(grid9, rng)
    zero = ForceDensity.zero(grid9)
    base = make_assembly(grid9, imm, material, zero).energy(u)

    def load_term(f):
        return base - make_assembly(grid9, imm, material, f).energy(u)

    f1 = ForceDensity.constant(grid9, 0.4, -0.2, 0.9)
    f2 = ForceDensity.constant(grid9, -0.1, 0.8, 0.3)
    c = 2.5
    combo = ForceDensity(f1.p1 + c * f2.p1, f1.p2 + c * f2.p2, f1.p3 + c * f2.p3)
    lhs = load_term(combo)
    rhs = load_term(f1) + c * load_term(f2)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_hessian_diagonal_estimate_positive(shell_assembly):
    d = shell_assembly.hessian_diagonal_estimate()
    for comp in d.components():
        assert np.min(comp) > 0.0
    # transverse stiffness dominates the tangential one
    assert np.median(d.u3) > np.median(d.u1)


@pytest.mark.parametrize("kind", ["plate", "paraboloid"])
@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_hessian_diagonal_estimate_is_the_squared_stencil_sum(dims, kind, material):
    """The estimate is the scipy formula it replaced, sum (op.power(2)).T @ w
    over the sp.kron-built cell derivatives and clamped second derivatives,
    to roundoff (1e-13 relative), before the floor."""
    grid = Grid(*dims)
    params = {} if kind == "plate" else {"t": 0.3}
    imm = Immersion(kind, grid.L1, grid.L2, params)
    asm = make_assembly(grid, imm, material, ForceDensity.constant(grid, 0.5, -0.3, 1.0))
    ref = kron_ops(grid)
    a00 = asm.geometry.a_inv[..., 0, 0]
    amean = float(np.mean((material.bulk_factor + 4.0 * material.mu) * a00 * a00))
    cw = (grid.cell_weight * cell_geometry(imm, grid).sqrt_a).ravel()
    memb = sum(ref["cell_d1", axis].power(2).T @ cw for axis in (1, 2))
    memb *= material.eps * amean
    wsa = asm.wsa.ravel()
    bend = sum(mult * (ref["bend", key].power(2).T @ wsa)
               for key, mult in (((1, 1), 1.0), ((2, 2), 1.0), ((1, 2), 2.0)))
    bend *= (material.eps**3 / 3.0) * amean
    d = asm.hessian_diagonal_estimate()
    for got, expected in zip(d.components(), (memb, memb, memb + bend)):
        expected = np.maximum(expected, 1e-12 * max(float(np.max(memb + bend)), 1.0))
        assert relative(got.ravel(), expected) <= 1e-13


# -- the component kernel against the 16-component reference ---------------------


def _reference_evaluation(asm, imm, u):
    """Energy, energy scale, gradient and strains at u from the full tensor
    of build_tensor contracted with einsum, one sparse product per field and
    stencil (the sp.kron builds), and strains as (..., 2, 2) matrices; the
    midpoint geometry is built afresh, since the assembly does not keep it."""
    grid, ng, mat = asm.grid, asm.geometry, asm.material
    cg = cell_geometry(imm, grid)
    ops = kron_ops(grid)

    def cells(key, f):
        return (ops[key] @ f.ravel()).reshape(grid.cell_shape)

    def nodes(key, f):
        return (ops[key] @ f.ravel()).reshape(grid.shape)

    def back(key, c):
        return (ops[key].T @ c.ravel()).reshape(grid.shape)

    def cgrad(f):
        return np.stack([cells(("cell_d1", 1), f), cells(("cell_d1", 2), f)])

    gu = [cgrad(u.u1), cgrad(u.u2)]
    du = cgrad(u.u3)
    E = np.empty(grid.cell_shape + (2, 2))
    for a in range(2):
        for b in range(2):
            E[..., a, b] = 0.5 * (gu[a][b] + gu[b][a]) + 0.5 * du[a] * du[b]
    tang = np.stack([cells("cell_avg", u.u1), cells("cell_avg", u.u2)])
    E -= np.einsum("xysab,sxy->xyab", cg.gamma, tang)
    E -= cg.b * cells("cell_avg", u.u3)[..., None, None]

    F = np.empty(grid.shape + (2, 2))
    for a in range(2):
        for b in range(2):
            F[..., a, b] = nodes(("bend", (min(a, b) + 1, max(a, b) + 1)), u.u3)
    dn = np.stack([nodes(("int_d1", k), u.u3) for k in (1, 2)])
    F -= np.einsum("xysab,sxy->xyab", ng.gamma, dn)

    A_cell = build_tensor(cg.a_inv, mat)
    A_node = build_tensor(ng.a_inv, mat)
    cw = mat.eps * grid.cell_weight * cg.sqrt_a
    bw = mat.eps**3 / 3.0 * grid.weights * ng.sqrt_a
    quad = 0.5 * (np.einsum("xy,xyabst,xyst,xyab->", bw, A_node, F, F)
                  + np.einsum("xy,xyabst,xyst,xyab->", cw, A_cell, E, E))
    wsa = grid.weights * ng.sqrt_a
    pairs = [wsa * p * c for p, c in zip(asm.force.components(), u.components())]
    energy = quad - sum(np.sum(p) for p in pairs)
    scale = quad + sum(np.sum(np.abs(p)) for p in pairs)

    SE = cw[..., None, None] * np.einsum("xyabst,xyst->xyab", A_cell, E)
    SF = bw[..., None, None] * np.einsum("xyabst,xyst->xyab", A_node, F)
    t1, t2, tavg = ("cell_d1", 1), ("cell_d1", 2), "cell_avg"
    pulled = np.einsum("xysab,xyab->sxy", cg.gamma, SE)
    g = [back(t1, SE[..., k, 0]) + back(t2, SE[..., k, 1]) - back(tavg, pulled[k])
         for k in range(2)]
    g3 = (back(t1, SE[..., 0, 0] * du[0] + SE[..., 1, 0] * du[1])
          + back(t2, SE[..., 0, 1] * du[0] + SE[..., 1, 1] * du[1])
          - back(tavg, np.einsum("xyab,xyab->xy", cg.b, SE)))
    for a in range(2):
        for b in range(2):
            g3 += back(("bend", (min(a, b) + 1, max(a, b) + 1)), SF[..., a, b])
    pulled = np.einsum("xysab,xyab->sxy", ng.gamma, SF)
    g3 -= back(("int_d1", 1), pulled[0]) + back(("int_d1", 2), pulled[1])
    grad = []
    for gk, p in zip(g + [g3], asm.force.components()):
        gk = gk - wsa * p
        gk[~grid.interior] = 0.0
        grad.append(gk)
    return energy, scale, grad, E, F


def _relative(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


KERNEL_GRIDS = {"9x5": (2.0, 1.0, 9, 5), "17x33": (1.3, 0.7, 17, 33)}
KERNEL_SHAPES = ("plate", "paraboloid", "cylinder_patch", "sinusoidal_bump")


@pytest.mark.parametrize("kind", KERNEL_SHAPES)
@pytest.mark.parametrize("dims", KERNEL_GRIDS.values(), ids=KERNEL_GRIDS.keys())
def test_component_kernel_matches_full_tensor_reference(dims, kind, material):
    grid = Grid(*dims)
    params = {} if kind == "plate" else {"t": 0.3}
    force = ForceDensity.polynomial(
        grid, ((0.5, 0.2), (-0.3, 0.0, 0.4), (1.0, 0.1, -0.2, 0.3)))
    imm = Immersion(kind, grid.L1, grid.L2, params)
    asm = make_assembly(grid, imm, material, force)
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = random_clamped_displacement(grid, rng, amplitude=0.3)
        energy, scale, grad, E, F = _reference_evaluation(asm, imm, u)
        f, fscale, g = asm.full_evaluation(u)
        assert abs(f - energy) <= 1e-13 * scale
        assert abs(fscale - scale) <= 1e-13 * scale
        assert asm.energy_and_scale(u) == (f, fscale)
        assert _relative(np.stack(g.components()), np.stack(grad)) <= 1e-13
        assert _relative(asm.membrane_strain(u), E) <= 1e-13
        assert _relative(asm.bending_strain(u.u3), F) <= 1e-13


def test_assembly_holds_no_full_tensor(shell_assembly):
    """The assembly keeps component fields, never a 16-component tensor."""

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)

    held = [a for value in vars(shell_assembly).values() for a in arrays(value)]
    assert held and max(a.ndim for a in held) <= 3


def _count_applications(monkeypatch, evaluate):
    """Stencil applications of one call, counted at Stencil.__call__ and
    Stencil.adjoint and at the slicing kernels of the strain stacks, which
    must agree: no application may bypass the two entry points.  Returns
    (forward applications, adjoint applications)."""
    calls, kernels = [], []
    for name in ("__call__", "adjoint"):
        def counting(op, arg, fn=getattr(ss_grid.Stencil, name), name=name):
            calls.append(name)
            return fn(op, arg)

        monkeypatch.setattr(ss_grid.Stencil, name, counting)
    for cls in (ss_grid._CellStencil, ss_grid._BendingStencil):
        for name in ("_apply", "_adjoint"):
            def kernel(op, arg, fn=getattr(cls, name)):
                kernels.append(fn)
                return fn(op, arg)

            monkeypatch.setattr(cls, name, kernel)
    evaluate()
    monkeypatch.undo()
    assert len(kernels) == len(calls)
    return calls.count("__call__"), calls.count("adjoint")


def test_stencil_applications_per_evaluation(monkeypatch, material, general_force,
                                             grid17, rng):
    """One application per stack and direction: the membrane and bending
    stacks for the strains, their adjoints for the gradient; the energy
    alone applies the two stacks forward.  The same on a curved shell and on
    a flat assembly."""
    force = general_force(grid17)
    u = random_clamped_displacement(grid17, rng)
    for imm in (Immersion("paraboloid", params={"t": 0.1}), Immersion("plate")):
        asm = make_assembly(grid17, imm, material, force)
        assert _count_applications(monkeypatch, lambda: asm.full_evaluation(u)) == (2, 2)
        assert _count_applications(monkeypatch, lambda: asm.energy(u)) == (2, 0)


def test_evaluation_memory_peaks(material):
    """Temporaries of one evaluation at 129x129 nodes (tracemalloc peak, MiB):
    at most those of the per-stencil kernel the stacks replaced, 4.3 for a
    full evaluation and 2.6 for the energy alone."""
    grid = Grid(1.0, 1.0, 129, 129)
    asm = make_assembly(grid, Immersion("sinusoidal_bump", params={"t": 0.05, "m2": 2.0}),
                        material, ForceDensity.constant(grid, 0.5, -0.3, 1.0))
    u = random_clamped_displacement(grid, np.random.default_rng(3))
    asm.full_evaluation(u)  # builds every lazy operator first
    for evaluate, bound in ((asm.full_evaluation, 4.3), (asm.energy, 2.6)):
        tracemalloc.start()
        try:
            result = evaluate(u)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        del result
        assert peak <= bound, (evaluate.__name__, peak)


def _bump_assembly(grid, material):
    return make_assembly(grid, Immersion("sinusoidal_bump", params={"t": 0.05, "m2": 2.0}),
                         material, ForceDensity.constant(grid, 0.5, -0.3, 1.0))


def test_assembly_keeps_no_midpoint_geometry_and_peaks_near_what_it_keeps(material):
    """A 129 x 129 bump assembly keeps the nodal geometry (22 fields), the
    fields an evaluation reads (38) and its force (3), and no midpoint
    SurfaceGeometry, which took 21 more (kept 84, peak 87).  The build
    peaks 10 fields above what it keeps: the midpoint geometry is folded
    and dropped before the nodal one is built.  Units: one float64 nodal
    field; tracemalloc, with the grid's lazy state built first."""
    grid = Grid(1.0, 1.0, 129, 129)
    _bump_assembly(grid, material)
    tracemalloc.start()
    try:
        asm = _bump_assembly(grid, material)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field = 8 * grid.num_nodes
    geometries = [v for v in vars(asm).values() if isinstance(v, SurfaceGeometry)]
    assert [g.sqrt_a.shape for g in geometries] == [grid.shape]
    assert kept <= 64 * field, kept / field
    assert peak <= 75 * field, peak / field


def test_full_evaluation_peak_above_its_inputs(material):
    """One full evaluation at 129 x 129 peaks at most 20.5 nodal fields
    above its inputs (tracemalloc): the membrane stress block plus the
    adjoint's three rows, with the stresses freed before the adjoint runs
    and the adjoints scaling their block in place."""
    asm = _bump_assembly(Grid(1.0, 1.0, 129, 129), material)
    u = random_clamped_displacement(asm.grid, np.random.default_rng(3))
    asm.full_evaluation(u)  # builds every lazy operator first
    tracemalloc.start()
    try:
        result = asm.full_evaluation(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    assert peak <= 20.5 * 8 * asm.grid.num_nodes, peak / (8 * asm.grid.num_nodes)


_EVALUATION_BYTES = """
import hashlib
import numpy as np
from shallowshell import ForceDensity, Grid, Immersion, Material, make_assembly
from shallowshell.grid import random_clamped_displacement
grid = Grid(1.0, 1.0, 65, 65)
asm = make_assembly(grid, Immersion("paraboloid", params={"t": 0.2}), Material(1.0, 1.0, 0.1),
                    ForceDensity.constant(grid, 0.5, -0.3, 1.0))
u = random_clamped_displacement(grid, np.random.default_rng(5), amplitude=0.3)
f, scale, g = asm.full_evaluation(u)
data = np.array([f, scale]).tobytes() + b"".join(c.tobytes() for c in g.components())
print(hashlib.sha256(data).hexdigest())
"""


def test_evaluation_bytes_do_not_depend_on_blas_threads():
    # the kernel makes no BLAS call, so no reduction can follow the thread count
    src = str(Path(shallowshell.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run([sys.executable, "-c", _EVALUATION_BYTES], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0]) == 65 and outputs[0] == outputs[1]
