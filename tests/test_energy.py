import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

import shallowshell
from shallowshell import (
    Displacement,
    ForceDensity,
    Grid,
    Immersion,
    Material,
    linearized_strain,
    make_assembly,
    plate_energy,
    plate_gradient,
    plate_membrane_strain,
)
from shallowshell.elasticity import build_tensor
from shallowshell.energy import plate_bending_strain
from shallowshell.grid import random_clamped_displacement


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
    d1c, _ = grid9.cell_d1_ops
    assert np.array_equal(E[..., 0, 0], grid9.to_cells(d1c, u.u1))
    assert np.all(E[..., 1, 1] == 0.0)


def test_membrane_strain_pure_transverse(grid9, rng):
    u = Displacement.zeros(grid9)
    u.u3[1:-1, 1:-1] = 0.3 * rng.standard_normal((grid9.n1 - 2, grid9.n2 - 2))
    E = plate_membrane_strain(grid9, u)
    d1c, d2c = grid9.cell_d1_ops
    g1 = grid9.to_cells(d1c, u.u3)
    g2 = grid9.to_cells(d2c, u.u3)
    assert np.allclose(E[..., 0, 0], 0.5 * g1 * g1, atol=0)
    assert np.allclose(E[..., 0, 1], 0.5 * g1 * g2, atol=0)
    assert np.min(E[..., 0, 0]) >= 0.0  # squares


def test_bending_strain_plate_is_plain_second_derivative(grid9, material, rng):
    asm = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    u3 = random_clamped_displacement(grid9, rng).u3
    F = asm.bending_strain(u3)
    ops = grid9.clamped_d2_ops
    assert np.array_equal(F[..., 0, 0], grid9.apply(ops[(1, 1)], u3))
    assert np.array_equal(F[..., 0, 1], grid9.apply(ops[(1, 2)], u3))
    assert np.all(asm.bending_strain(np.zeros(grid9.shape)) == 0.0)


def test_bending_strain_curvature_correction_tracks_christoffel(grid9, material, rng):
    """The departure from the flat bending strain is the Christoffel pull;
    for the paraboloid family the symbols are O(t^2), so the gap decays with
    the measured |Gamma| (quadratically in t), vanishing into the plate."""
    u3 = random_clamped_displacement(grid9, rng).u3
    flat = plate_bending_strain(grid9, u3)
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


def test_linearized_strain_cases(grid9, rng):
    assert np.all(linearized_strain(grid9, Displacement.zeros(grid9)) == 0.0)
    u = random_clamped_displacement(grid9, rng)
    u3_only = Displacement(u.u1, u.u2, np.zeros(grid9.shape))
    assert np.array_equal(
        linearized_strain(grid9, u3_only), plate_membrane_strain(grid9, u3_only)
    )
    # sampled rigid in-plane rotation has zero symmetric gradient
    rot = Displacement(-grid9.y2.copy(), grid9.y1.copy(), np.zeros(grid9.shape))
    e = linearized_strain(grid9, rot)
    assert np.max(np.abs(e)) < 1e-14


def test_first_variation_linearity_and_gateaux(shell_assembly, grid17, rng):
    u = random_clamped_displacement(grid17, rng)
    v = random_clamped_displacement(grid17, rng)
    w = random_clamped_displacement(grid17, rng)
    zero = Displacement.zeros(grid17)
    assert np.all(shell_assembly.first_variation(u, zero) == 0.0)

    lin = (
        shell_assembly.first_variation(u, v + w)
        - shell_assembly.first_variation(u, v)
        - shell_assembly.first_variation(u, w)
    )
    assert np.max(np.abs(lin)) <= 1e-14

    ep = shell_assembly.first_variation(u, v)
    errs = []
    for tau in (1e-2, 1e-3, 1e-4):
        fd = (shell_assembly.membrane_strain(u + tau * v)
              - shell_assembly.membrane_strain(u)) / tau
        errs.append(np.max(np.abs(fd - ep)))
    assert 8.0 < errs[0] / errs[1] < 12.0  # O(tau) truncation
    assert 8.0 < errs[1] / errs[2] < 12.0


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


def test_plate_path_equality(grid17, material, general_force, rng):
    force = general_force(grid17)
    asm = make_assembly(grid17, Immersion("plate"), material, force)
    for _ in range(50):
        u = random_clamped_displacement(grid17, rng)
        e_shell = asm.energy(u)
        e_plate = plate_energy(grid17, material, force, u)
        assert abs(e_shell - e_plate) <= 1e-12 * max(abs(e_shell), abs(e_plate), 1e-30)
        g_shell = asm.gradient(u)
        g_plate = plate_gradient(grid17, material, force, u)
        scale = max(max(np.max(np.abs(c)) for c in g_shell.components()), 1e-30)
        for a, b in zip(g_shell.components(), g_plate.components()):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale


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
        # the explicit first-variation route agrees with the transposed one
        assert abs(asm.directional_derivative(u, v) - gv) <= 1e-11 * max(1.0, abs(gv))


def test_residual_norm_properties(grid9, material):
    asm0 = make_assembly(grid9, Immersion("plate"), material, ForceDensity.zero(grid9))
    assert asm0.residual_norm(Displacement.zeros(grid9)) == 0.0
    r = []
    for c in (1.0, 2.0, 4.0):
        asm = make_assembly(
            grid9, Immersion("plate"), material,
            ForceDensity.constant(grid9, 0.1 * c, 0.0, c),
        )
        r.append(asm.residual_norm(Displacement.zeros(grid9)))
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


# -- the component kernel against the 16-component reference ---------------------


def _reference_evaluation(asm, u, v):
    """Energy, energy scale, gradient and first variation at u (direction v)
    from the full tensor of build_tensor contracted with einsum, one sparse
    product per field and stencil, and strains as (..., 2, 2) matrices."""
    grid, cg, ng, mat = asm.grid, asm.cell_geom, asm.geometry, asm.material
    cells, back = grid.to_cells, grid.from_cells
    d1c, d2c = grid.cell_d1_ops
    avg = grid.cell_avg_op

    def cgrad(f):
        return np.stack([cells(d1c, f), cells(d2c, f)])

    def membrane(w, du, coeff):
        gw = [cgrad(w.u1), cgrad(w.u2)]
        dw = cgrad(w.u3)
        E = np.empty(grid.cell_shape + (2, 2))
        for a in range(2):
            for b in range(2):
                E[..., a, b] = 0.5 * (gw[a][b] + gw[b][a]) + coeff * 0.5 * (
                    du[a] * dw[b] + dw[a] * du[b])
        tang = np.stack([cells(avg, w.u1), cells(avg, w.u2)])
        E -= np.einsum("xysab,sxy->xyab", cg.gamma, tang)
        E -= cg.b * cells(avg, w.u3)[..., None, None]
        return E

    ops = grid.clamped_d2_ops
    F = np.empty(grid.shape + (2, 2))
    for a in range(2):
        for b in range(2):
            F[..., a, b] = grid.apply(ops[(a + 1, b + 1)], u.u3)
    dn = np.stack([grid.apply(op, u.u3) for op in grid.interior_d1_ops])
    F -= np.einsum("xysab,sxy->xyab", ng.gamma, dn)

    du = cgrad(u.u3)
    E = membrane(u, du, 0.5)
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
    tops = grid.transposed_ops
    t1, t2, tavg = tops[("cell_d1", 1)], tops[("cell_d1", 2)], tops["cell_avg"]
    pulled = np.einsum("xysab,xyab->sxy", cg.gamma, SE)
    g = [back(t1, SE[..., k, 0]) + back(t2, SE[..., k, 1]) - back(tavg, pulled[k])
         for k in range(2)]
    g3 = (back(t1, SE[..., 0, 0] * du[0] + SE[..., 1, 0] * du[1])
          + back(t2, SE[..., 0, 1] * du[0] + SE[..., 1, 1] * du[1])
          - back(tavg, np.einsum("xyab,xyab->xy", cg.b, SE)))
    for a in range(2):
        for b in range(2):
            g3 += grid.apply(tops[("bend", (min(a, b) + 1, max(a, b) + 1))], SF[..., a, b])
    pulled = np.einsum("xysab,xyab->sxy", ng.gamma, SF)
    g3 -= grid.apply(tops[("int_d1", 1)], pulled[0]) + grid.apply(tops[("int_d1", 2)], pulled[1])
    grad = []
    for gk, p in zip(g + [g3], asm.force.components()):
        gk = gk - wsa * p
        gk[~grid.interior] = 0.0
        grad.append(gk)
    return energy, scale, grad, membrane(v, du, 1.0), E, F


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
    asm = make_assembly(grid, Immersion(kind, grid.L1, grid.L2, params), material, force)
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = random_clamped_displacement(grid, rng, amplitude=0.3)
        v = random_clamped_displacement(grid, rng, amplitude=0.3)
        energy, scale, grad, ep, E, F = _reference_evaluation(asm, u, v)
        f, fscale, g = asm.full_evaluation(u)
        assert abs(f - energy) <= 1e-13 * scale
        assert abs(fscale - scale) <= 1e-13 * scale
        assert asm.energy_and_scale(u) == (f, fscale)
        assert _relative(np.stack(g.components()), np.stack(grad)) <= 1e-13
        assert _relative(asm.first_variation(u, v), ep) <= 1e-13
        assert _relative(asm.membrane_strain(u), E) <= 1e-13
        assert _relative(asm.bending_strain(u.u3), F) <= 1e-13
        if kind == "plate":
            assert abs(plate_energy(grid, material, force, u) - energy) <= 1e-13 * scale
            gp = plate_gradient(grid, material, force, u)
            assert _relative(np.stack(gp.components()), np.stack(grad)) <= 1e-13


def test_sparse_products_per_evaluation(monkeypatch, shell_assembly, grid17, rng):
    """One sparse product per stencil and column block: at most 16 for a
    full evaluation and 8 for the energy alone, on a curved shell."""
    u = random_clamped_displacement(grid17, rng)
    shell_assembly.full_evaluation(u)  # builds every lazy operator first
    calls = []
    matmul = sp.csr_matrix.__matmul__

    def counting(op, other):
        calls.append(op)
        return matmul(op, other)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    shell_assembly.full_evaluation(u)
    full = len(calls)
    calls.clear()
    shell_assembly.energy(u)
    assert 0 < len(calls) <= 8
    assert full <= 16


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


def _count_products(monkeypatch, evaluate):
    """Sparse products of one call, counted at __matmul__ of CSR and CSC and
    at the compiled matvec kernels, which must agree: no product may bypass
    __matmul__.  Returns (CSR products, CSC products)."""
    formats, kernels = [], []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def counting(op, other, matmul=cls.__matmul__):
            formats.append(op.format)
            return matmul(op, other)

        monkeypatch.setattr(cls, "__matmul__", counting)
    for name in ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs"):
        def kernel(*args, fn=getattr(_sparsetools, name)):
            kernels.append(fn)
            return fn(*args)

        monkeypatch.setattr(_sparsetools, name, kernel)
    evaluate()
    monkeypatch.undo()
    assert len(kernels) == len(formats)
    return formats.count("csr"), formats.count("csc")


def test_sparse_products_per_evaluation_with_transposes(monkeypatch, material, general_force,
                                                        grid17, rng):
    """One product per stack and direction: the membrane and bending stacks
    for the strains (CSR), their transposes for the gradient (CSC); the
    energy alone makes the two forward products.  The same on a curved
    shell, on a flat assembly and in the plate functions."""
    force = general_force(grid17)
    u = random_clamped_displacement(grid17, rng)
    for imm in (Immersion("paraboloid", params={"t": 0.1}), Immersion("plate")):
        asm = make_assembly(grid17, imm, material, force)
        asm.full_evaluation(u)  # builds every lazy operator first
        assert _count_products(monkeypatch, lambda: asm.full_evaluation(u)) == (2, 2)
        assert _count_products(monkeypatch, lambda: asm.energy(u)) == (2, 0)
    plate = (grid17, material, force, u)
    assert _count_products(monkeypatch, lambda: plate_gradient(*plate)) == (2, 2)
    assert _count_products(monkeypatch, lambda: plate_energy(*plate)) == (2, 0)


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
