import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kron_reference import dense, kron_ops, kron_stacks, relative
from shallowshell import Displacement, Grid, integrate, v_norm
from shallowshell.grid import (
    h2_seminorm,
    h1_seminorm,
    l2_norm,
    random_clamped_displacement,
    require_clamped,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BUBBLE_H2_SQ = 4.0 / 1225.0  # integral of |D^2 (x(1-x)y(1-y))^2|^2 over the unit square


def bubble(grid):
    """An H2_0 member: it and its normal derivative vanish on the boundary."""
    return (grid.y1 * (1 - grid.y1) * grid.y2 * (1 - grid.y2)) ** 2


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 4, 9)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 9, 9)
    g = Grid(2.0, 1.0, 9, 5)
    assert g.h1 == 0.25 and g.h2 == 0.25
    assert g.y1[-1, 0] == 2.0 and g.y2[0, -1] == 1.0


@pytest.mark.parametrize("side", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("axis", [1, 2])
def test_grid_refuses_a_side_that_is_not_finite(axis, side):
    """NaN passes a `<= 0` test and inf is positive: neither is a side."""
    sides = (side, 1.0) if axis == 1 else (1.0, side)
    with pytest.raises(ValueError, match="grid side lengths must be positive and finite"):
        Grid(*sides, 5, 5)


def test_d2_exact_on_quadratics(grid9):
    inner = grid9.interior
    d11, _, _ = grid9.clamped_d2_ops(grid9.y1**2)
    assert np.max(np.abs(d11[inner] - 2.0)) < 1e-12
    _, _, d12 = grid9.clamped_d2_ops(grid9.y1 * grid9.y2)
    assert np.max(np.abs(d12[inner] - 1.0)) < 1e-12
    assert np.all(grid9.clamped_d2_ops(np.zeros(grid9.shape)) == 0.0)


def test_d2_mixed_symmetry_exact(grid9, rng):
    """On clamped fields the twist row is the interior d1 of the interior d2
    and the interior d2 of the interior d1 alike, to roundoff: d12 = d21."""
    f = random_clamped_displacement(grid9, rng).u3
    rows = grid9.bending_stencil(f)
    assert relative(grid9.bending_stencil(rows[4])[3], rows[2]) <= 1e-13
    assert relative(grid9.bending_stencil(rows[3])[4], rows[2]) <= 1e-13


def test_clamped_ghost_rows(grid9):
    """Edge rows of the clamped second derivative encode 2 u(first)/h^2."""
    u = np.zeros(grid9.shape)
    u[1, 4] = 0.3
    val, _, m = grid9.clamped_d2_ops(u)
    assert val[0, 4] == 2.0 * 0.3 / grid9.h1**2
    # mixed derivative vanishes on the whole boundary ring under the closure
    assert np.all(m[0, :] == 0.0) and np.all(m[:, 0] == 0.0)


def test_operator_linearity(grid9, rng):
    c = -2.4
    for stencil in (grid9.membrane_stencil, grid9.bending_stencil):
        for op, shape in ((stencil, grid9.shape),
                          (stencil.adjoint, (stencil.hi,) + stencil.target)):
            f, g = rng.standard_normal((2,) + shape)
            lin = op(f + c * g) - op(f.copy()) - c * op(g.copy())
            assert np.max(np.abs(lin)) <= 1e-14 * max(np.max(np.abs(op(f))), 1.0)


def test_integrate_exactness():
    grid = Grid(1.0, 1.0, 9, 9)
    assert integrate(grid, np.ones(grid.shape)) == 1.0
    assert abs(integrate(grid, grid.y1) - 0.5) < 1e-15
    assert abs(integrate(grid, grid.y1 * grid.y2) - 0.25) < 1e-15


def test_integrate_second_order_convergence():
    errs = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        errs.append(abs(integrate(grid, grid.y1**2) - 1.0 / 3.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_integration_by_parts_clamped(rng):
    """The cell product rule: sum_cells |cell| (D_a f A g + A f D_a g) = 0
    for clamped f, g, along each axis."""
    for n in (9, 17):
        grid = Grid(1.0, 1.0, n, n)
        f = random_clamped_displacement(grid, rng, smooth=0).u1
        g = random_clamped_displacement(grid, rng, smooth=0).u1
        (d1f, d1g), (d2f, d2g), (af, ag) = grid.membrane_stencil(np.stack((f, g)))
        for df, dg in ((d1f, d1g), (d2f, d2g)):
            s = grid.cell_weight * np.sum(df * ag + af * dg)
            assert abs(s) <= 1e-12 * l2_norm(grid, f) * l2_norm(grid, g)


def test_v_norm_axioms(grid9, rng):
    assert v_norm(grid9, Displacement.zeros(grid9)) == 0.0
    for _ in range(10):
        u = random_clamped_displacement(grid9, rng)
        v = random_clamped_displacement(grid9, rng)
        c = float(rng.uniform(-3, 3))
        assert abs(v_norm(grid9, c * u) - abs(c) * v_norm(grid9, u)) < 1e-12
        assert v_norm(grid9, u + v) <= v_norm(grid9, u) + v_norm(grid9, v) + 1e-12


def test_poincare_constant_stable_under_refinement():
    """The exact discrete Poincare constant max ||f|| / |f|_H1 over clamped
    f: 1 / sqrt of the smallest generalized eigenvalue of the cell-gradient
    form (h1_seminorm squared) against the trapezoid mass, on the interior
    nodes."""
    consts = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        inner = np.flatnonzero(grid.interior.ravel())
        grad = dense(grid.cell_d1_ops)[0][:, inner]
        scale = 1.0 / np.sqrt(grid.weights.ravel()[inner])
        form = grid.cell_weight * scale[:, None] * (grad.T @ grad) * scale
        values, vectors = np.linalg.eigh(form)
        consts.append(1.0 / np.sqrt(values[0]))
        # the lowest mode attains it in the norms themselves
        f = np.zeros(grid.num_nodes)
        f[inner] = scale * vectors[:, 0]
        f = f.reshape(grid.shape)
        assert abs(l2_norm(grid, f) / h1_seminorm(grid, f) - consts[-1]) <= 1e-12
    # continuum constant for the unit square is 1/(pi sqrt(2)) ~ 0.225
    assert all(c < 0.3 for c in consts)
    assert max(consts) - min(consts) < 0.1
    print("Poincare constants per grid:", consts)


def test_bubble_h2_quadrature_second_order():
    errs = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        errs.append(abs(h2_seminorm(grid, bubble(grid)) ** 2 - BUBBLE_H2_SQ))
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def test_cell_gradient_kernel_trivial():
    """Cell differences of a clamped field vanish only for the zero field.

    This is the property that makes the membrane energy coercive; the
    node-centered stencils fail it (sublattice combs), so guard it.
    """
    grid = Grid(1.0, 1.0, 9, 9)
    # the odd-odd comb is invisible to interior centered differences ...
    comb = np.zeros(grid.shape)
    comb[1:-1:2, 1:-1:2] = 1.0
    p1, p2 = grid.interior_d1_ops(comb)
    deep = np.zeros(grid.shape, dtype=bool)
    deep[3:-3, 3:-3] = True
    assert np.max(np.abs(p1[deep])) == 0.0
    assert np.max(np.abs(p2[deep])) == 0.0
    # ... but the cell stencils see it at full strength
    cells = np.abs(grid.cell_d1_ops(comb)[0])
    assert np.max(cells) >= 1.0 / (2 * grid.h1)
    # and their joint kernel over clamped fields is trivial
    stacked = dense(grid.cell_d1_ops)[0]
    interior_cols = np.flatnonzero(grid.interior.ravel())
    sub = stacked[:, interior_cols]
    sv = np.linalg.svd(sub, compute_uv=False)
    assert sv.min() > 1e-12


def test_cell_ops_exact_on_linears(grid9):
    f = 2.0 * grid9.y1 - 0.7 * grid9.y2
    g1, g2 = grid9.cell_d1_ops(f)
    assert np.max(np.abs(g1 - 2.0)) < 1e-13
    assert np.max(np.abs(g2 + 0.7)) < 1e-13
    (avg,) = grid9.cell_avg_op(f)
    c1, c2 = grid9.cell_centers
    assert np.max(np.abs(avg - (2.0 * c1 - 0.7 * c2))) < 1e-13


def test_displacement_clamping_helpers(grid9):
    u = Displacement.zeros(grid9)
    assert u.is_clamped()
    u.u2[0, 3] = 1.0
    assert not u.is_clamped()
    with pytest.raises(ValueError, match="boundary"):
        require_clamped(u)


def test_displacement_arithmetic(grid9, rng):
    u = random_clamped_displacement(grid9, rng)
    v = random_clamped_displacement(grid9, rng)
    w = 2.0 * u - v
    assert np.allclose(w.u3, 2.0 * u.u3 - v.u3, atol=0)
    assert w.is_clamped()


def test_displacement_is_one_block(grid9, rng):
    """A displacement is one C-contiguous (3, n1, n2) float64 block: its
    components and interior are views of it, arithmetic returns new blocks,
    the three-array constructor copies and wrap does not."""
    fields = [rng.standard_normal(grid9.shape) for _ in range(3)]
    u = Displacement(*fields)
    assert u.block.shape == (3,) + grid9.shape and u.block.dtype == np.float64
    assert u.block.flags.c_contiguous
    for k, (comp, field) in enumerate(zip(u.components(), fields)):
        assert np.shares_memory(comp, u.block) and comp.tobytes() == field.tobytes()
        assert not np.shares_memory(comp, field)
        assert getattr(u, f"u{k + 1}").base is u.block
    assert np.shares_memory(u.interior, u.block) and u.interior.shape == (3, 7, 7)
    u.u3[1:-1, 1:-1] = 2.0
    assert np.all(u.block[2, 1:-1, 1:-1] == 2.0) and np.all(u.interior[2] == 2.0)
    v = Displacement.wrap(rng.standard_normal((3,) + grid9.shape))
    for w, ref in ((u + v, u.block + v.block), (u - v, u.block - v.block),
                   (0.5 * u, 0.5 * u.block), (u * 0.5, 0.5 * u.block), (-u, -u.block),
                   (u.copy(), u.block)):
        assert isinstance(w, Displacement) and w.block.flags.c_contiguous
        assert w.block.tobytes() == ref.tobytes()
        assert not np.shares_memory(w.block, u.block) and not np.shares_memory(w.block, v.block)
    block = np.zeros((3,) + grid9.shape)
    assert Displacement.wrap(block).block is block
    zero = Displacement.zeros(grid9).block
    assert not zero.any() and not np.signbit(zero).any()


@pytest.mark.parametrize("dims", [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)])
def test_operators_exact_along_each_axis_on_non_square_grids(dims):
    """Linears and quadratics along each axis on grids with n1 != n2 and
    h1 != h2, where a Kronecker factor on the wrong axis cannot pass."""
    grid = Grid(*dims)
    y = {1: grid.y1, 2: grid.y2}
    c = dict(zip((1, 2), grid.cell_centers))
    h = {1: grid.h1, 2: grid.h2}
    inner = grid.interior
    p = grid.interior_d1_ops
    cell = grid.cell_d1_ops
    avg = grid.cell_avg_op

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-9)

    for a in (1, 2):
        b = 3 - a
        lin, quad = y[a], y[a] ** 2
        clamped = grid.clamped_d2_ops(quad)[a - 1]
        assert close(clamped[inner], 2.0)
        assert close(grid.clamped_d2_ops(quad)[b - 1][inner], 0.0)
        # ghost rows on the two edges normal to axis a, empty rows elsewhere
        if a == 1:
            assert close(clamped[0, :], 2.0 * quad[1, :] / h[1] ** 2)
            assert close(clamped[-1, :], 2.0 * quad[-2, :] / h[1] ** 2)
            assert np.all(clamped[1:-1, 0] == 0.0) and np.all(clamped[1:-1, -1] == 0.0)
        else:
            assert close(clamped[:, 0], 2.0 * quad[:, 1] / h[2] ** 2)
            assert close(clamped[:, -1], 2.0 * quad[:, -2] / h[2] ** 2)
            assert np.all(clamped[0, 1:-1] == 0.0) and np.all(clamped[-1, 1:-1] == 0.0)
        assert close(p(quad)[a - 1][inner], 2.0 * y[a][inner])
        assert close(p(quad)[b - 1], 0.0)
        assert np.all(p(quad)[a - 1][~inner] == 0.0)
        assert close(cell(quad)[a - 1], 2.0 * c[a])
        assert close(cell(quad)[b - 1], 0.0)
        assert close(avg(lin)[0], c[a])
    bilinear = grid.y1 * grid.y2
    assert close(grid.clamped_d2_ops(bilinear)[2][inner], 1.0)
    assert close(cell(bilinear)[0], c[2])
    assert close(cell(bilinear)[1], c[1])
    assert close(avg(bilinear)[0], c[1] * c[2])


def _views(grid):
    """Each named row-block view of the strain stacks: (view, stack, lo, hi,
    the kron_ops keys of its rows)."""
    membrane, bending = grid.membrane_stencil, grid.bending_stencil
    return (
        (grid.cell_d1_ops, membrane, 0, 2, [("cell_d1", 1), ("cell_d1", 2)]),
        (grid.cell_avg_op, membrane, 2, 3, ["cell_avg"]),
        (grid.clamped_d2_ops, bending, 0, 3, [("bend", (1, 1)), ("bend", (2, 2)),
                                              ("bend", (1, 2))]),
        (grid.interior_d1_ops, bending, 3, 5, [("int_d1", 1), ("int_d1", 2)]),
    )


_DIMS = [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)]


@pytest.mark.parametrize("dims", _DIMS)
def test_transposed_ops_are_the_adjoints_of_the_kron_builds(dims):
    """transposed_ops holds the adjoints of the two stacks, and each is the
    transposed sp.kron build to roundoff (1e-13 relative), entry by entry."""
    grid = Grid(*dims)
    stacks = (grid.membrane_stencil, grid.bending_stencil)
    assert grid.transposed_ops == tuple(stack.adjoint for stack in stacks)
    for stack, ref in zip(stacks, kron_stacks(grid)):
        assert relative(dense(stack)[1], ref.T.toarray()) <= 1e-13


@pytest.mark.parametrize("dims", _DIMS)
def test_stencils_are_row_blocks_of_the_stacks(dims):
    """Both stacks and every named view of their row blocks match the
    Kronecker-built operators, forward and adjoint, to roundoff (1e-13
    relative, entry by entry); no operator holds an array."""
    grid = Grid(*dims)
    reference = kron_ops(grid)
    for stack, ref in zip((grid.membrane_stencil, grid.bending_stencil), kron_stacks(grid)):
        forward, adjoint = dense(stack)
        assert relative(forward, ref.toarray()) <= 1e-13
        assert relative(adjoint, ref.T.toarray()) <= 1e-13
    for view, _, _, _, keys in _views(grid):
        ref = np.vstack([reference[key].toarray() for key in keys])
        forward, adjoint = dense(view)
        assert relative(forward, ref) <= 1e-13, keys
        assert relative(adjoint, ref.T) <= 1e-13, keys
        assert not any(isinstance(a, np.ndarray) for a in vars(view).values()), keys


@pytest.mark.parametrize("dims", _DIMS)
def test_row_views_are_the_row_blocks_of_the_stacks(dims, rng):
    """Every rows(lo, hi) view of a stack, and every named one, computes the
    stack's row blocks lo .. hi - 1 byte for byte, on a batch of fields; its
    adjoint is the stack's adjoint of the block zero-padded to the stack's
    rows, and its local weights the stack's rows of them, byte for byte."""
    grid = Grid(*dims)
    x = rng.standard_normal((2,) + grid.shape)
    views = [(stack.rows(lo, hi), stack, lo, hi)
             for stack, k in ((grid.membrane_stencil, 3), (grid.bending_stencil, 5))
             for lo in range(k) for hi in range(lo + 1, k + 1)]
    views += [(view, stack, lo, hi) for view, stack, lo, hi, _ in _views(grid)]
    for view, stack, lo, hi in views:
        rows = stack(x)
        assert view(x).tobytes() == rows[lo:hi].tobytes(), (lo, hi)
        assert view.rows(0, 1)(x).tobytes() == rows[lo : lo + 1].tobytes(), (lo, hi)
        y = rng.standard_normal((hi - lo,) + rows.shape[1:])
        padded = np.zeros_like(rows)
        padded[lo:hi] = y
        assert view.adjoint(y).tobytes() == stack.adjoint(padded).tobytes(), (lo, hi)
        assert view.local_weights().tobytes() == stack.local_weights()[lo:hi].tobytes()
        with pytest.raises(ValueError, match="no row blocks"):
            view.rows(0, hi - lo + 1)


@pytest.mark.parametrize("dims", _DIMS)
def test_local_weights_are_the_kron_entries(dims):
    """local_weights reads every stack's weights off its support: at each
    target point, the weight of each support point is the sp.kron build's
    entry, bit for bit, and 0 where the point lies off the grid."""
    grid = Grid(*dims)
    for stack, ref in zip((grid.membrane_stencil, grid.bending_stencil), kron_stacks(grid)):
        w = stack.local_weights()
        blocks = ref.shape[0] // (stack.target[0] * stack.target[1])
        matrix = ref.toarray().reshape((blocks,) + stack.target + grid.shape)
        assert w.shape == (blocks, len(stack.support)) + stack.target
        expected = np.zeros_like(w)
        t1, t2 = np.meshgrid(*(np.arange(t) for t in stack.target), indexing="ij")
        for a, (o1, o2) in enumerate(stack.support):
            s1, s2 = t1 + o1, t2 + o2
            on = (s1 >= 0) & (s1 < grid.n1) & (s2 >= 0) & (s2 < grid.n2)
            expected[:, a][:, on] = matrix[:, t1[on], t2[on], s1[on], s2[on]]
        assert w.tobytes() == expected.tobytes()
        # the support holds every stored entry of the reference
        assert np.count_nonzero(w) == ref.count_nonzero()


def test_operator_build_peak_stays_near_what_it_keeps(monkeypatch):
    """Building every operator property that perfbench builds
    (GRID_OPERATORS in perfbench/tracing.py) at 129 x 129 keeps no
    field-sized array and allocates none on the way: the stencils hold only
    the grid's spacings and the rows they compute (a 129 x 129 field takes
    130 KiB)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import GRID_OPERATORS

    grid = Grid(1.0, 1.0, 129, 129)
    tracemalloc.start()
    try:
        for name in GRID_OPERATORS:
            getattr(grid, name)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**10, (peak / 2**10, kept / 2**10)


def _per_component_displacement(grid, rng, amplitude, smooth):
    """random_clamped_displacement as a loop over the components, one draw
    and one smoothing pass per component: the reference for the batched draw."""
    u = Displacement.zeros(grid)
    for comp in u.components():
        comp[1:-1, 1:-1] = amplitude * rng.standard_normal((grid.n1 - 2, grid.n2 - 2))
        for _ in range(smooth):
            comp[1:-1, 1:-1] = 0.25 * (
                comp[:-2, 1:-1] + comp[2:, 1:-1] + comp[1:-1, :-2] + comp[1:-1, 2:]
            )
    return u


@pytest.mark.parametrize("dims", [(1.0, 1.0, 9, 9), (1.0, 1.0, 17, 17), (2.0, 1.0, 9, 5)])
@pytest.mark.parametrize("smooth", [0, 2])
def test_random_clamped_displacement_is_the_per_component_draw(dims, smooth):
    grid = Grid(*dims)
    got = random_clamped_displacement(grid, np.random.default_rng(11), 0.3, smooth)
    ref = _per_component_displacement(grid, np.random.default_rng(11), 0.3, smooth)
    for a, b in zip(got.components(), ref.components()):
        assert a.shape == grid.shape and a.tobytes() == b.tobytes()
    assert got.is_clamped()
