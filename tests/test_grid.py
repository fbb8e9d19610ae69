import tracemalloc

import numpy as np
import pytest

from kron_reference import kron_ops, kron_stacks, relative
from shallowshell import Displacement, Grid, d1, d2, integrate, v_norm
from shallowshell.grid import (
    h2_seminorm,
    l2_norm,
    h1_seminorm,
    random_clamped_displacement,
    require_clamped,
)

BUBBLE_H2_SQ = 22.0 / 45.0  # integral of |D^2 (x(1-x)y(1-y))|^2 over the unit square


def bubble(grid):
    return grid.y1 * (1 - grid.y1) * grid.y2 * (1 - grid.y2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 4, 9)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 9, 9)
    g = Grid(2.0, 1.0, 9, 5)
    assert g.h1 == 0.25 and g.h2 == 0.25
    assert g.y1[-1, 0] == 2.0 and g.y2[0, -1] == 1.0


def test_d1_exact_on_linears(grid9):
    assert np.all(d1(grid9, np.full(grid9.shape, 3.7), 1)[1:-1, 1:-1] == 0.0)
    f = grid9.y1.copy()
    assert np.max(np.abs(d1(grid9, f, 1) - 1.0)) == 0.0  # one-sided edges too
    f = grid9.y1 * grid9.y2
    mid = grid9.n1 // 2
    assert d1(grid9, f, 2)[mid, mid] == 0.5


def test_d2_exact_on_quadratics(grid9):
    f = grid9.y1**2
    assert np.max(np.abs(d2(grid9, f, 1, 1) - 2.0)) < 1e-12
    f = grid9.y1 * grid9.y2
    assert np.max(np.abs(d2(grid9, f, 1, 2)[1:-1, 1:-1] - 1.0)) < 1e-12
    z = np.zeros(grid9.shape)
    assert np.all(d2(grid9, z, 1, 1, clamped=True) == 0.0)
    assert np.all(d2(grid9, z, 1, 2, clamped=True) == 0.0)


def test_d2_mixed_symmetry_exact(grid9, rng):
    f = rng.standard_normal(grid9.shape)
    assert np.array_equal(d2(grid9, f, 1, 2), d2(grid9, f, 2, 1))


def test_clamped_ghost_rows(grid9):
    """Edge rows of the clamped second derivative encode 2 u(first)/h^2."""
    u = np.zeros(grid9.shape)
    u[1, 4] = 0.3
    val = d2(grid9, u, 1, 1, clamped=True)
    assert val[0, 4] == 2.0 * 0.3 / grid9.h1**2
    # mixed derivative vanishes on the whole boundary ring under the closure
    m = d2(grid9, u, 1, 2, clamped=True)
    assert np.all(m[0, :] == 0.0) and np.all(m[:, 0] == 0.0)


def test_operator_linearity(grid9, rng):
    f = rng.standard_normal(grid9.shape)
    g = rng.standard_normal(grid9.shape)
    c = -2.4
    for op in (
        lambda z: d1(grid9, z, 1),
        lambda z: d2(grid9, z, 2, 2),
        lambda z: d2(grid9, z, 1, 1, clamped=True),
    ):
        lin = op(f + c * g) - op(f) - c * op(g)
        assert np.max(np.abs(lin)) <= 1e-14 * max(np.max(np.abs(op(f))), 1.0)


def test_integrate_exactness():
    grid = Grid(1.0, 1.0, 9, 9)
    assert integrate(grid, np.ones(grid.shape)) == 1.0
    assert abs(integrate(grid, grid.y1) - 0.5) < 1e-15
    assert abs(integrate(grid, grid.y1, weight=grid.y2) - 0.25) < 1e-15


def test_integrate_second_order_convergence():
    errs = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        errs.append(abs(integrate(grid, grid.y1**2) - 1.0 / 3.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_integration_by_parts_clamped(rng):
    for n in (9, 17):
        grid = Grid(1.0, 1.0, n, n)
        f = random_clamped_displacement(grid, rng, smooth=0).u1
        g = random_clamped_displacement(grid, rng, smooth=0).u1
        s = integrate(grid, d1(grid, f, 1) * g) + integrate(grid, f * d1(grid, g, 1))
        assert abs(s) <= 1e-12 * l2_norm(grid, f) * l2_norm(grid, g)


def test_v_norm_axioms(grid9, rng):
    assert v_norm(grid9, Displacement.zeros(grid9)) == 0.0
    for _ in range(10):
        u = random_clamped_displacement(grid9, rng)
        v = random_clamped_displacement(grid9, rng)
        c = float(rng.uniform(-3, 3))
        assert abs(v_norm(grid9, c * u) - abs(c) * v_norm(grid9, u)) < 1e-12
        assert v_norm(grid9, u + v) <= v_norm(grid9, u) + v_norm(grid9, v) + 1e-12


def test_poincare_constant_stable_under_refinement(rng):
    consts = []
    for n in (9, 17, 33):
        grid = Grid(1.0, 1.0, n, n)
        best = 0.0
        for _ in range(30):
            f = random_clamped_displacement(grid, rng, smooth=1).u3
            best = max(best, l2_norm(grid, f) / h1_seminorm(grid, f))
        consts.append(best)
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
    d1c, d2c = grid.cell_d1_ops
    # the odd-odd comb is invisible to interior centered differences ...
    comb = np.zeros(grid.shape)
    comb[1:-1:2, 1:-1:2] = 1.0
    p1, p2 = grid.interior_d1_ops
    deep = np.zeros(grid.shape, dtype=bool)
    deep[3:-3, 3:-3] = True
    assert np.max(np.abs(grid.apply(p1, comb)[deep])) == 0.0
    assert np.max(np.abs(grid.apply(p2, comb)[deep])) == 0.0
    # ... but the cell stencils see it at full strength
    cells = np.abs(grid.to_cells(d1c, comb))
    assert np.max(cells) >= 1.0 / (2 * grid.h1)
    # and their joint kernel over clamped fields is trivial
    stacked = np.vstack([d1c @ np.eye(grid.num_nodes), d2c @ np.eye(grid.num_nodes)])
    interior_cols = np.flatnonzero(grid.interior.ravel())
    sub = stacked[:, interior_cols]
    sv = np.linalg.svd(sub, compute_uv=False)
    assert sv.min() > 1e-12


def test_cell_ops_exact_on_linears(grid9):
    d1c, d2c = grid9.cell_d1_ops
    f = 2.0 * grid9.y1 - 0.7 * grid9.y2
    assert np.max(np.abs(grid9.to_cells(d1c, f) - 2.0)) < 1e-13
    assert np.max(np.abs(grid9.to_cells(d2c, f) + 0.7)) < 1e-13
    avg = grid9.cell_avg_op
    c1, c2 = grid9.cell_centers
    assert np.max(np.abs(grid9.to_cells(avg, f) - (2.0 * c1 - 0.7 * c2))) < 1e-13


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

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-9)

    for a in (1, 2):
        b = 3 - a
        lin, quad = y[a], y[a] ** 2
        assert close(d1(grid, lin, a), 1.0) and close(d1(grid, lin, b), 0.0)
        assert close(d1(grid, quad, a), 2.0 * y[a]) and close(d1(grid, quad, b), 0.0)
        assert close(d2(grid, quad, a, a), 2.0) and close(d2(grid, quad, b, b), 0.0)
        clamped = d2(grid, quad, a, a, clamped=True)
        assert close(clamped[inner], 2.0)
        assert close(d2(grid, quad, b, b, clamped=True)[inner], 0.0)
        # ghost rows on the two edges normal to axis a, empty rows elsewhere
        if a == 1:
            assert close(clamped[0, :], 2.0 * quad[1, :] / h[1] ** 2)
            assert close(clamped[-1, :], 2.0 * quad[-2, :] / h[1] ** 2)
            assert np.all(clamped[1:-1, 0] == 0.0) and np.all(clamped[1:-1, -1] == 0.0)
        else:
            assert close(clamped[:, 0], 2.0 * quad[:, 1] / h[2] ** 2)
            assert close(clamped[:, -1], 2.0 * quad[:, -2] / h[2] ** 2)
            assert np.all(clamped[0, 1:-1] == 0.0) and np.all(clamped[-1, 1:-1] == 0.0)
        assert close(grid.apply(p[a - 1], quad)[inner], 2.0 * y[a][inner])
        assert close(grid.apply(p[b - 1], quad), 0.0)
        assert np.all(grid.apply(p[a - 1], quad)[~inner] == 0.0)
        assert close(grid.to_cells(cell[a - 1], quad), 2.0 * c[a])
        assert close(grid.to_cells(cell[b - 1], quad), 0.0)
        assert close(grid.to_cells(grid.cell_avg_op, lin), c[a])
    bilinear = grid.y1 * grid.y2
    assert close(d2(grid, bilinear, 1, 2), 1.0)
    assert close(d2(grid, bilinear, 1, 2, clamped=True)[inner], 1.0)
    assert close(grid.to_cells(cell[0], bilinear), c[2])
    assert close(grid.to_cells(cell[1], bilinear), c[1])
    assert close(grid.to_cells(grid.cell_avg_op, bilinear), c[1] * c[2])


def _forward_ops(grid):
    """The operator behind each transposed_ops key and each kron_ops key."""
    ops = {"cell_avg": grid.cell_avg_op}
    for axis in (1, 2):
        ops[("int_d1", axis)] = grid.interior_d1_ops[axis - 1]
        ops[("cell_d1", axis)] = grid.cell_d1_ops[axis - 1]
        ops[("d1", axis)] = grid.d1_ops[axis - 1]
    for key in ((1, 1), (2, 2), (1, 2)):
        ops[("bend", key)] = grid.clamped_d2_ops[key]
        ops[("d2", key)] = grid.d2_ops[key]
    return ops


def _operands(rng, n):
    """A vector with signed zeros and a 3-column block, of n rows."""
    x = rng.standard_normal(n)
    x[::7] = -0.0
    return x, np.column_stack([x, rng.standard_normal(n), -x])


_DIMS = [(2.0, 1.0, 9, 5), (1.3, 0.7, 17, 33)]


@pytest.mark.parametrize("dims", _DIMS)
def test_transposed_ops_are_the_adjoints_of_the_kron_builds(dims, rng):
    """Every transpose is the adjoint of its forward stencil: its vector and
    3-column block products are those of the transposed sp.kron build to
    roundoff (1e-13 relative), and its transpose is the forward stencil."""
    grid = Grid(*dims)
    forward, reference = _forward_ops(grid), kron_ops(grid)
    assert set(grid.transposed_ops) == {k for k in forward if k[0] not in ("d1", "d2")}
    for key, op_t in grid.transposed_ops.items():
        ref_t = reference[key].T.tocsr()
        assert op_t.shape == ref_t.shape == forward[key].shape[::-1]
        assert op_t.T is forward[key]
        for v in _operands(rng, op_t.shape[1]):
            assert relative(op_t @ v, ref_t @ v) <= 1e-13, key


@pytest.mark.parametrize("dims", _DIMS)
def test_stencils_are_row_blocks_of_the_stacks(dims, rng):
    """Every per-stencil operator and every leading-row stack matches the
    Kronecker-built operator, forward and adjoint, to roundoff; the
    per-stencil products are the stacks' row blocks byte for byte; and no
    operator holds an array."""
    grid = Grid(*dims)
    forward, reference = _forward_ops(grid), kron_ops(grid)
    for key, op in forward.items():
        ref = reference[key]
        assert op.shape == ref.shape
        for v in _operands(rng, op.shape[1]):
            assert relative(op @ v, ref @ v) <= 1e-13, key
        for v in _operands(rng, op.shape[0]):
            assert relative(op.T @ v, ref.T @ v) <= 1e-13, key
        assert not any(isinstance(a, np.ndarray) for a in vars(op).values()), key
    membrane, bending = grid.membrane_stencil, grid.bending_stencil
    assert membrane.shape == (3 * grid.num_cells, grid.num_nodes)
    assert bending.shape == (5 * grid.num_nodes, grid.num_nodes)
    x = rng.standard_normal(grid.num_nodes)
    for stack, ref, keys in (
        (membrane, kron_stacks(grid)[0], [("cell_d1", 1), ("cell_d1", 2), "cell_avg"]),
        (bending, kron_stacks(grid)[1], [("bend", (1, 1)), ("bend", (2, 2)), ("bend", (1, 2)),
                                        ("int_d1", 1), ("int_d1", 2)]),
    ):
        rows = stack @ x
        size = rows.size // len(keys)
        for k, key in enumerate(keys):
            assert (forward[key] @ x).tobytes() == rows[k * size : (k + 1) * size].tobytes()
        for count in range(1, len(keys) + 1):
            lead = stack.leading(count)
            assert lead.shape == (count * size, grid.num_nodes)
            assert (lead @ x).tobytes() == rows[: count * size].tobytes()
            for v in _operands(rng, count * size):
                assert relative(lead.T @ v, ref[: count * size].T @ v) <= 1e-13


@pytest.mark.parametrize("dims", _DIMS)
def test_d1_and_d2_ops_are_the_kron_builds(dims, rng):
    """The generic derivatives behind every study row's v_norm_err are their
    sp.kron builds to roundoff, forward and adjoint; the mixed derivative is
    one object for both index orders."""
    grid = Grid(*dims)
    reference = kron_ops(grid)
    ops = {("d1", axis): grid.d1_ops[axis - 1] for axis in (1, 2)}
    ops.update({("d2", key): grid.d2_ops[key] for key in ((1, 1), (2, 2), (1, 2))})
    assert grid.d2_ops[(1, 2)] is grid.d2_ops[(2, 1)]
    for key, op in ops.items():
        for v in _operands(rng, grid.num_nodes):
            assert relative(op @ v, reference[key] @ v) <= 1e-13, key
            assert relative(op.T @ v, reference[key].T @ v) <= 1e-13, key


@pytest.mark.parametrize("dims", _DIMS)
def test_local_weights_are_the_kron_entries(dims):
    """local_weights reads every stack's weights off its support: at each
    target point, the weight of each support point is the sp.kron build's
    entry, bit for bit, and 0 where the point lies off the grid."""
    grid = Grid(*dims)
    for stack, ref in zip((grid.membrane_stencil, grid.bending_stencil), kron_stacks(grid)):
        w = stack.local_weights()
        dense = ref.toarray().reshape((stack.blocks,) + stack.target + grid.shape)
        assert w.shape == (stack.blocks, len(stack.support)) + stack.target
        expected = np.zeros_like(w)
        t1, t2 = np.meshgrid(*(np.arange(t) for t in stack.target), indexing="ij")
        for a, (o1, o2) in enumerate(stack.support):
            s1, s2 = t1 + o1, t2 + o2
            on = (s1 >= 0) & (s1 < grid.n1) & (s2 >= 0) & (s2 < grid.n2)
            expected[:, a][:, on] = dense[:, t1[on], t2[on], s1[on], s2[on]]
        assert w.tobytes() == expected.tobytes()
        # the support holds every stored entry of the reference
        assert np.count_nonzero(w) == ref.count_nonzero()


# Every operator property that perfbench builds (GRID_OPERATORS in
# perfbench/tracing.py).
_GRID_OPERATORS = ("d1_ops", "d2_ops", "cell_d1_ops", "cell_avg_op",
                   "interior_d1_ops", "clamped_d2_ops", "transposed_ops")


def test_operator_build_peak_stays_near_what_it_keeps():
    """Building the operators at 129 x 129 keeps no field-sized array and
    allocates none on the way: the stencils hold only the grid's spacings
    and the rows they compute (a 129 x 129 field takes 130 KiB)."""
    grid = Grid(1.0, 1.0, 129, 129)
    tracemalloc.start()
    try:
        for name in _GRID_OPERATORS:
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
