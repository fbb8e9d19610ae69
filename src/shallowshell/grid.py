"""Uniform rectangular grids with clamped boundary conditions.

Provides the discrete function space for displacements (u1, u2) in H1_0 and
u3 in H2_0, built from second-order centered finite differences, mirror-ghost
closure of the clamped condition for u3, and tensor-product trapezoidal
quadrature.  All difference operators are assembled once per grid as sparse
matrices acting on row-major flattened node vectors, so that energy gradients
can be formed by exact stencil transposition.

Every operator is a Kronecker product of 1-D stencils, or the sum of two.
Node (i, j) is entry i * n2 + j, so the axis-1 factor is the outer one; the
factor on the other axis is the identity, or the interior mask where only
interior rows are filled.  The clamped second derivative along an axis is
kron(centered, mask) + kron(ghost edge rows, identity), and the clamped
mixed derivative is c * kron(C, C) with the centered +-1 stencil C.

kron_stack builds the operators from these terms directly: it writes every
entry, a product of 1-D stencil values, into CSR arrays allocated once per
operator, with the bytes sp.kron and sp.vstack would give and no sparse
intermediate.  The solver builds its plate-Hessian strain maps with it too,
and owns their factors: a grid caches operators only.

The strain stencils are stored once, stacked by collocation set:
membrane_stencil holds the cell rows [d1; d2; average] and bending_stencil
the nodal rows [clamped d11; d22; d12; interior d1; d2].  The per-stencil
operators (cell_d1_ops, cell_avg_op, clamped_d2_ops, interior_d1_ops) and
their transposes (transposed_ops) are views of the stacks that share their
data and index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp


@dataclass(eq=False)
class Grid:
    """Tensor-product grid on the closed rectangle [0, L1] x [0, L2].

    n1, n2 count nodes per side including the boundary; node (i, j) sits at
    (i*h1, j*h2).  At least 5 nodes per side are required so that interior
    biharmonic-type stencils never straddle both boundaries.
    """

    L1: float
    L2: float
    n1: int
    n2: int

    def __post_init__(self):
        if self.L1 <= 0 or self.L2 <= 0:
            raise ValueError("grid side lengths must be positive")
        if self.n1 < 5 or self.n2 < 5:
            raise ValueError("grids need at least 5 nodes per side")

    @property
    def h1(self) -> float:
        return self.L1 / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return self.L2 / (self.n2 - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def num_nodes(self) -> int:
        return self.n1 * self.n2

    @cached_property
    def y1(self) -> np.ndarray:
        return np.outer(np.linspace(0.0, self.L1, self.n1), np.ones(self.n2))

    @cached_property
    def y2(self) -> np.ndarray:
        return np.outer(np.ones(self.n1), np.linspace(0.0, self.L2, self.n2))

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, one per node."""
        w1 = np.ones(self.n1)
        w1[0] = w1[-1] = 0.5
        w2 = np.ones(self.n2)
        w2[0] = w2[-1] = 0.5
        return self.h1 * self.h2 * np.outer(w1, w2)

    @cached_property
    def interior(self) -> np.ndarray:
        """Boolean mask, True at nodes with both indices strictly inside."""
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    # -- sparse operators: Kronecker products of 1-D stencils ----------------

    def _along(self, axis: int, stencil, other=np.eye) -> tuple[np.ndarray, np.ndarray]:
        """The Kronecker factors, outer one first, of stencil(n, h) along
        `axis` with other(n) on the other axis."""
        sides = {1: (self.n1, self.h1), 2: (self.n2, self.h2)}
        n, h = sides[axis]
        a, b = stencil(n, h), other(sides[3 - axis][0])
        return (a, b) if axis == 1 else (b, a)

    @cached_property
    def d1_ops(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """First-derivative operators (axis 1, axis 2) defined at all nodes.

        Centered three-point stencils where the node has two neighbours along
        the axis, second-order one-sided stencils on the two edge layers.
        """
        return tuple(kron_stack([[self._along(axis, _d1_one_sided)]]) for axis in (1, 2))

    @cached_property
    def d2_ops(self) -> dict[tuple[int, int], sp.csr_matrix]:
        """Generic second-derivative operators for arbitrary smooth fields.

        The mixed derivative is the exact composition of the two first
        derivative operators, hence symmetric in the index pair by
        construction.
        """
        d1, d2 = self.d1_ops
        mixed = (d1 @ d2).tocsr()
        return {
            (1, 1): kron_stack([[self._along(1, _d2_one_sided)]]),
            (2, 2): kron_stack([[self._along(2, _d2_one_sided)]]),
            (1, 2): mixed,
            (2, 1): mixed,
        }

    @property
    def cell_shape(self) -> tuple[int, int]:
        return (self.n1 - 1, self.n2 - 1)

    @property
    def num_cells(self) -> int:
        return (self.n1 - 1) * (self.n2 - 1)

    @property
    def cell_weight(self) -> float:
        """Midpoint-rule weight of one grid cell."""
        return self.h1 * self.h2

    @cached_property
    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        c1 = np.linspace(0.5 * self.h1, self.L1 - 0.5 * self.h1, self.n1 - 1)
        c2 = np.linspace(0.5 * self.h2, self.L2 - 0.5 * self.h2, self.n2 - 1)
        return np.outer(c1, np.ones(self.n2 - 1)), np.outer(np.ones(self.n1 - 1), c2)

    def stencil_blocks(self, stencil: str):
        """The row blocks of membrane_stencil or bending_stencil (stencil =
        "membrane" or "bending") as Kronecker terms, for kron_stack: each
        block is a list of dense factor pairs whose Kronecker products sum to
        it.  A generator, so that one block's factors are freed before the
        next block's are made.

        The membrane blocks are cell d1, cell d2 and the cell average.  The
        bending blocks are the clamped d11 and d22, kron(centered, mask) +
        kron(ghost edge rows, identity); the clamped d12, c * kron(C, C),
        with c carried by the outer factor (its entries are +-c either way);
        and the interior d1 and d2.
        """
        if stencil == "membrane":
            q1, q2 = 0.5 / self.h1, 0.5 / self.h2
            both1, both2 = _cell(self.n1, 1.0, 1.0), _cell(self.n2, 1.0, 1.0)
            yield [(_cell(self.n1, -q1, q1), both2)]
            yield [(both1, _cell(self.n2, -q2, q2))]
            yield [(_cell(self.n1, 0.25, 0.25), both2)]
            return
        for axis in (1, 2):
            yield [self._along(axis, _d2_centered, _interior_mask), self._along(axis, _ghost)]
        c = 0.25 / (self.h1 * self.h2)
        yield [(_interior_rows(self.n1, -c, 0.0, c), _interior_rows(self.n2, -1.0, 0.0, 1.0))]
        for axis in (1, 2):
            yield [self._along(axis, _d1_centered, _interior_mask)]

    @cached_property
    def membrane_stencil(self) -> sp.csr_matrix:
        """The membrane strain rows, stacked: [cell d1; cell d2; cell average].

        A (3 num_cells) x num_nodes operator.  One product with a column
        block of nodal fields gives every cell derivative and average of
        every column; cell_d1_ops and cell_avg_op are its row blocks.
        """
        return kron_stack(self.stencil_blocks("membrane"))

    @cached_property
    def bending_stencil(self) -> sp.csr_matrix:
        """The bending strain rows, stacked: [clamped d11; d22; d12; interior
        d1; interior d2].

        A (5 num_nodes) x num_nodes operator; clamped_d2_ops and
        interior_d1_ops are its row blocks.
        """
        return kron_stack(self.stencil_blocks("bending"))

    def _blocks(self, stencil: str, first: int, stop: int) -> sp.csr_matrix:
        """Row blocks first..stop-1 of membrane_stencil or bending_stencil
        (stencil = "membrane" or "bending"), as a view."""
        rows = self.num_cells if stencil == "membrane" else self.num_nodes
        return _row_view(getattr(self, stencil + "_stencil"), first * rows, stop * rows)

    @cached_property
    def _leading(self) -> dict:
        return {}

    def leading_rows(self, stencil: str, blocks: int) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        """The first `blocks` row blocks of membrane_stencil or
        bending_stencil (stencil = "membrane" or "bending") and their
        transpose, as views built once per grid.  EnergyAssembly applies
        the whole stacks on a curved reference and only the derivative rows
        (2 membrane blocks, 3 bending blocks) on a flat one."""
        pair = self._leading.get((stencil, blocks))
        if pair is None:
            rows = self._blocks(stencil, 0, blocks)
            pair = self._leading[stencil, blocks] = (rows, _transpose(rows))
        return pair

    @cached_property
    def cell_d1_ops(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """First derivatives at cell centers from the four corner values.

        Second-order at the cell midpoint and free of the sublattice null
        modes that plague node-collocated centered differences; this is what
        makes the membrane energy coercive on the discrete clamped space.
        Row blocks 0 and 1 of membrane_stencil.
        """
        return self._blocks("membrane", 0, 1), self._blocks("membrane", 1, 2)

    @cached_property
    def cell_avg_op(self) -> sp.csr_matrix:
        """Four-corner average onto cell centers (second order); row block 2
        of membrane_stencil."""
        return self._blocks("membrane", 2, 3)

    @cached_property
    def interior_d1_ops(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Centered first derivatives with rows only at interior nodes.

        These are the strain stencils: strain fields are collocated at
        interior nodes and taken to vanish on the boundary ring.  Row blocks
        3 and 4 of bending_stencil.
        """
        return self._blocks("bending", 3, 4), self._blocks("bending", 4, 5)

    @cached_property
    def clamped_d2_ops(self) -> dict[tuple[int, int], sp.csr_matrix]:
        """Second-derivative operators for fields clamped in the H2_0 sense.

        Rows at interior nodes carry the usual centered stencils.  Rows on
        the two edges normal to the derivative direction carry the
        mirror-ghost closure: with f = 0 on the boundary and the ghost value
        equal to the first interior value (discrete normal derivative zero),
        the second derivative at an edge node reduces to 2*f(first interior)
        / h^2.  All other edge rows evaluate to zero on clamped fields and
        are left empty; the mixed derivative likewise vanishes on the whole
        boundary ring under the ghost closure.  Row blocks 0-2 of
        bending_stencil.
        """
        mixed = self._blocks("bending", 2, 3)
        return {
            (1, 1): self._blocks("bending", 0, 1),
            (2, 2): self._blocks("bending", 1, 2),
            (1, 2): mixed,
            (2, 1): mixed,
        }

    @cached_property
    def transposed_ops(self) -> dict:
        """Transposes of the strain stencils, as copy-free CSC views.

        Each value shares its arrays with the forward operator, and so with
        the stack.  A CSC product adds each output entry's terms in the
        column order that the CSR copy of the transpose adds them, so the
        products are bitwise those of `op.T.tocsr()`.  EnergyAssembly
        transposes whole stacks (leading_rows) instead.
        """
        d1i = self.interior_d1_ops
        bend = self.clamped_d2_ops
        cell = self.cell_d1_ops
        out = {
            ("int_d1", 1): _transpose(d1i[0]),
            ("int_d1", 2): _transpose(d1i[1]),
            ("cell_d1", 1): _transpose(cell[0]),
            ("cell_d1", 2): _transpose(cell[1]),
            "cell_avg": _transpose(self.cell_avg_op),
        }
        for key in ((1, 1), (2, 2), (1, 2)):
            out[("bend", key)] = _transpose(bend[key])
        return out

    def apply(self, op: sp.csr_matrix, f: np.ndarray) -> np.ndarray:
        return (op @ f.ravel()).reshape(self.shape)

    def to_cells(self, op: sp.csr_matrix, f: np.ndarray) -> np.ndarray:
        return (op @ f.ravel()).reshape(self.cell_shape)


# -- Kronecker stacks and views into them ------------------------------------


def kron_stack(blocks) -> sp.csr_matrix:
    """Row blocks stacked into one CSR matrix, each block the sum of the
    Kronecker products of its terms: a block [(a, b), ...] stands for
    sum(kron(a, b)) over its terms.

    The factors are dense.  The terms of a block have factors of the same
    shapes and share no entry, so every entry is one product a * b, as
    sp.kron takes it, and zero products are not stored.  The arrays (data,
    int32 indices, indptr) are allocated once for the whole stack and filled
    a few rows of the outer factor at a time, each row in ascending column
    order: byte for byte those of sp.vstack of the sp.kron sums, without a
    sparse copy of any block.  `blocks` may be a generator; each block's
    factors are reduced to their nonzero columns as it arrives.
    """
    compact = [_compact(block) for block in blocks]
    indptr = np.zeros(sum(len(cols_a) * len(cols_b) for cols_a, cols_b, *_ in compact) + 1,
                      dtype=np.int32)
    row = 1
    for cols_a, cols_b, _, per_row, _ in compact:
        counts = indptr[row : row + len(cols_a) * len(cols_b)].reshape(len(cols_a), len(cols_b))
        for rows_a, rows_b in per_row:
            counts += np.multiply.outer(rows_a, rows_b)
        row += counts.size
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    row = 0
    for cols_a, cols_b, values, _, _ in compact:
        (m, width_a), (p, width_b) = cols_a.shape, cols_b.shape
        step = max(1, _CHUNK // (p * width_a * width_b))
        for first in range(0, m, step):
            rows = slice(first, first + step)
            entries, columns = _kron_entries(cols_a, cols_b, values, rows)
            keep = entries != 0
            start, stop = indptr[row + first * p], indptr[row + min(m, first + step) * p]
            data[start:stop] = entries[keep]
            indices[start:stop] = columns[keep]
        row += m * p
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, compact[0][-1]))


# Candidate entries per pass of kron_stack: it bounds the pass's scratch
# arrays (13 bytes a candidate) whatever the grid size.
_CHUNK = 1 << 15


def _compact(block):
    """A block's factors by their nonzero columns: for each factor, the
    union of the terms' nonzero columns, row by row, ascending and padded to
    the widest row with columns the row leaves zero (the outer factor's
    columns times the inner factor's column count, their weight in the
    product's column index); each term's factor values there; each term's
    stored entries per row of each factor; and the block's column count."""
    nonzero = [(a != 0, b != 0) for a, b in block]
    cols_a, cols_b = (_nonzero_columns(reduce(np.logical_or, slot)) for slot in zip(*nonzero))
    rows_a, rows_b = (np.arange(len(c))[:, None] for c in (cols_a, cols_b))
    values = [(a[rows_a, cols_a], b[rows_b, cols_b]) for a, b in block]
    per_row = [(a.sum(axis=1, dtype=np.int32), b.sum(axis=1, dtype=np.int32)) for a, b in nonzero]
    inner = block[0][1].shape[1]
    return cols_a * inner, cols_b, values, per_row, block[0][0].shape[1] * inner


def _nonzero_columns(nonzero: np.ndarray) -> np.ndarray:
    """Each row's True columns, ascending, padded to the widest row with
    columns the row leaves False."""
    width = nonzero.sum(axis=1).max()
    return np.sort((~nonzero).argpartition(width - 1, axis=1)[:, :width], axis=1)


def _kron_entries(cols_a, cols_b, values, rows: slice):
    """The candidate entries of a compacted block on the given rows of its
    outer factor, indexed by row in each factor and then by slot pair, so
    that row-major order is CSR order: the values and the int32 columns.
    Each slot pair is one outer product over the rows."""
    cols_a = cols_a[rows]
    (m, width_a), (p, width_b) = cols_a.shape, cols_b.shape
    entries = np.empty((m, p, width_a * width_b))
    columns = np.empty(entries.shape, dtype=np.int32)
    (first_a, first_b), *others = values
    for i in range(width_a):
        for j in range(width_b):
            s = i * width_b + j
            np.multiply.outer(first_a[rows, i], first_b[:, j], out=entries[:, :, s])
            for va, vb in others:
                entries[:, :, s] += np.multiply.outer(va[rows, i], vb[:, j])
            np.add.outer(cols_a[:, i], cols_b[:, j], out=columns[:, :, s])
    return entries, columns


def _row_view(stack: sp.csr_matrix, first: int, stop: int) -> sp.csr_matrix:
    """Rows first..stop-1 of a CSR matrix, sharing its data and indices; the
    row pointer is shared too when first = 0, else shifted into a new array.
    The arrays are assigned after construction: scipy's constructor prunes a
    slice much shorter than its base into a copy."""
    start, end = stack.indptr[first], stack.indptr[stop]
    indptr = stack.indptr[first : stop + 1]
    view = sp.csr_matrix((stop - first, stack.shape[1]), dtype=stack.dtype)
    view.data = stack.data[start:end]
    view.indices = stack.indices[start:end]
    view.indptr = indptr - start if start else indptr
    return view


def _transpose(op: sp.csr_matrix) -> sp.csc_matrix:
    """op.T as a CSC matrix on op's own arrays, assigned after construction
    for the same reason as in _row_view."""
    view = sp.csc_matrix(op.shape[::-1], dtype=op.dtype)
    view.data, view.indices, view.indptr = op.data, op.indices, op.indptr
    return view


# -- 1-D stencils: dense n x n (cells: (n-1) x n); zeros are not stored -------


def _interior_rows(n: int, lower: float, center: float, upper: float) -> np.ndarray:
    """Rows at the n - 2 interior points with weights on (k-1, k, k+1)."""
    m = np.zeros((n, n))
    k = np.arange(1, n - 1)
    m[k, k - 1] = lower
    m[k, k] = center
    m[k, k + 1] = upper
    return m


def _interior_mask(n: int) -> np.ndarray:
    return _interior_rows(n, 0.0, 1.0, 0.0)


def _d1_centered(n: int, h: float) -> np.ndarray:
    return _interior_rows(n, -0.5 / h, 0.0, 0.5 / h)


def _d2_centered(n: int, h: float) -> np.ndarray:
    return _interior_rows(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)


def _d1_one_sided(n: int, h: float) -> np.ndarray:
    m = _d1_centered(n, h)
    m[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
    m[-1, -3:] = 0.5 / h, -2.0 / h, 1.5 / h
    return m


def _d2_one_sided(n: int, h: float) -> np.ndarray:
    m = _d2_centered(n, h)
    m[0, :4] = 2.0 / h**2, -5.0 / h**2, 4.0 / h**2, -1.0 / h**2
    m[-1, -4:] = -1.0 / h**2, 4.0 / h**2, -5.0 / h**2, 2.0 / h**2
    return m


def _ghost(n: int, h: float) -> np.ndarray:
    """Mirror-ghost edge rows of the clamped second derivative."""
    m = np.zeros((n, n))
    m[0, 1] = m[-1, -2] = 2.0 / h**2
    return m


def _cell(n: int, left: float, right: float) -> np.ndarray:
    """(n-1) x n map from the two ends of each cell to its midpoint."""
    k = np.arange(n - 1)
    m = np.zeros((n - 1, n))
    m[k, k] = left
    m[k, k + 1] = right
    return m


# -- public difference / quadrature operations -----------------------------


def d1(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """First partial derivative along axis 1 or 2 (centered interior)."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return grid.apply(grid.d1_ops[axis - 1], f)


def d2(grid: Grid, f: np.ndarray, a: int, b: int, clamped: bool = False) -> np.ndarray:
    """Second partial derivative d^2 f / dy_a dy_b.

    With clamped=True the field is treated as an H2_0 member: boundary values
    are zero and the normal derivative is closed with mirror ghost values.
    """
    if a not in (1, 2) or b not in (1, 2):
        raise ValueError("derivative indices must be 1 or 2")
    ops = grid.clamped_d2_ops if clamped else grid.d2_ops
    return grid.apply(ops[(a, b)], f)


def integrate(grid: Grid, f: np.ndarray, weight: np.ndarray | None = None) -> float:
    """Trapezoidal integral of f (times an optional nodal weight field)."""
    g = f if weight is None else f * weight
    return float(np.sum(grid.weights * g))


# -- displacements and norms ------------------------------------------------


@dataclass
class Displacement:
    """Grid samples of a clamped displacement (u1, u2, u3).

    u1 and u2 are H1_0 members (zero on the boundary); u3 is an H2_0 member
    (zero boundary values, normal derivative closed by ghost reflection
    wherever second derivatives are taken).
    """

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid) -> "Displacement":
        return cls(*(np.zeros(grid.shape) for _ in range(3)))

    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.u1, self.u2, self.u3)

    def copy(self) -> "Displacement":
        return Displacement(self.u1.copy(), self.u2.copy(), self.u3.copy())

    def __add__(self, other: "Displacement") -> "Displacement":
        return Displacement(self.u1 + other.u1, self.u2 + other.u2, self.u3 + other.u3)

    def __sub__(self, other: "Displacement") -> "Displacement":
        return Displacement(self.u1 - other.u1, self.u2 - other.u2, self.u3 - other.u3)

    def __mul__(self, c: float) -> "Displacement":
        return Displacement(c * self.u1, c * self.u2, c * self.u3)

    __rmul__ = __mul__

    def is_clamped(self) -> bool:
        for u in self.components():
            if np.any(u[0, :]) or np.any(u[-1, :]) or np.any(u[:, 0]) or np.any(u[:, -1]):
                return False
        return True


def require_clamped(u: Displacement) -> None:
    if not u.is_clamped():
        raise ValueError("displacement has nonzero boundary values")


def random_clamped_displacement(
    grid: Grid, rng: np.random.Generator, amplitude: float = 0.1, smooth: int = 2
) -> Displacement:
    """Seeded random clamped displacement for checks and tests.

    smooth > 0 applies neighbour-averaging sweeps to the interior, which
    tames the second differences of raw white noise (otherwise they dominate
    every energy-scale comparison on fine grids).
    """
    # one draw for the three components: the generator fills in order, so
    # the fields are those of three draws of one component each
    u = np.zeros((3,) + grid.shape)
    u[:, 1:-1, 1:-1] = amplitude * rng.standard_normal((3, grid.n1 - 2, grid.n2 - 2))
    for _ in range(smooth):
        u[:, 1:-1, 1:-1] = 0.25 * (
            u[:, :-2, 1:-1] + u[:, 2:, 1:-1] + u[:, 1:-1, :-2] + u[:, 1:-1, 2:]
        )
    return Displacement(*u)


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    return np.sqrt(max(integrate(grid, f * f), 0.0))


def h1_seminorm(grid: Grid, f: np.ndarray) -> float:
    g1 = d1(grid, f, 1)
    g2 = d1(grid, f, 2)
    return np.sqrt(max(integrate(grid, g1 * g1 + g2 * g2), 0.0))


def h2_seminorm(grid: Grid, f: np.ndarray) -> float:
    s = np.zeros(grid.shape)
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        dab = d2(grid, f, a, b)
        s += dab * dab
    return np.sqrt(max(integrate(grid, s), 0.0))


def h1_norm(grid: Grid, f: np.ndarray) -> float:
    return np.sqrt(l2_norm(grid, f) ** 2 + h1_seminorm(grid, f) ** 2)


def h2_norm(grid: Grid, f: np.ndarray) -> float:
    return np.sqrt(
        l2_norm(grid, f) ** 2 + h1_seminorm(grid, f) ** 2 + h2_seminorm(grid, f) ** 2
    )


def v_norm(grid: Grid, u: Displacement) -> float:
    """Norm of the displacement space: ||u1||_H1 + ||u2||_H1 + ||u3||_H2."""
    return h1_norm(grid, u.u1) + h1_norm(grid, u.u2) + h2_norm(grid, u.u3)
