"""Uniform rectangular grids with clamped boundary conditions.

Provides the discrete function space for displacements (u1, u2) in H1_0 and
u3 in H2_0, built from second-order centered finite differences, mirror-ghost
closure of the clamped condition for u3, and tensor-product trapezoidal
quadrature.

Every difference operator is a Stencil: a linear map between grid fields
applied by shifted-slice sums over (..., n1, n2) arrays, with an adjoint
written the same way, so that energy gradients are formed by exact stencil
transposition.  A stencil holds only the grid's spacings and the rows it
computes, so it costs nothing to build and nothing to keep.  On flattened
vectors (node (i, j) is entry i * n2 + j) `op @ x` and `op.T @ y` act as
the sparse matrices of the same stencils would, row blocks stacked in order.

The strain stencils are stored once, stacked by collocation set:
membrane_stencil computes the cell rows [d1; d2; average] and
bending_stencil the nodal rows [clamped d11; d22; d12; interior d1; d2].
The per-stencil operators (cell_d1_ops, cell_avg_op, clamped_d2_ops,
interior_d1_ops) compute single row blocks of the same code, and
transposed_ops holds their adjoints.  Stencil.local_weights reads each
stencil's weights off its support, so the solver assembles its banded
plate Hessian from the same stencils the energy applies.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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

    # -- difference operators: stencils applied by slicing ------------------

    @cached_property
    def membrane_stencil(self) -> "Stencil":
        """The membrane strain rows, stacked: [cell d1; cell d2; cell average].

        Maps (..., n1, n2) fields to (3, ..., n1 - 1, n2 - 1) cell values;
        cell_d1_ops and cell_avg_op are its row blocks.
        """
        return _CellStencil(self, (0, 1, 2))

    @cached_property
    def bending_stencil(self) -> "Stencil":
        """The bending strain rows, stacked: [clamped d11; d22; d12; interior
        d1; interior d2].

        Maps (..., n1, n2) fields to (5, ..., n1, n2) nodal values;
        clamped_d2_ops and interior_d1_ops are its row blocks.
        """
        return _BendingStencil(self, (0, 1, 2, 3, 4))

    @cached_property
    def d1_ops(self) -> tuple["Stencil", "Stencil"]:
        """First-derivative operators (axis 1, axis 2) defined at all nodes.

        Centered three-point stencils where the node has two neighbours along
        the axis, second-order one-sided stencils on the two edge layers.
        """
        return tuple(_AxisStencil(self, axis, _D1_ONE_SIDED) for axis in (1, 2))

    @cached_property
    def d2_ops(self) -> dict[tuple[int, int], "Stencil"]:
        """Generic second-derivative operators for arbitrary smooth fields.

        The mixed derivative is the composition of the two first derivative
        operators, one object for both index orders, hence symmetric in the
        index pair by construction.
        """
        d1, d2 = self.d1_ops
        mixed = _Product(d1, d2)
        return {
            (1, 1): _AxisStencil(self, 1, _D2_ONE_SIDED),
            (2, 2): _AxisStencil(self, 2, _D2_ONE_SIDED),
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

    @cached_property
    def cell_d1_ops(self) -> tuple["Stencil", "Stencil"]:
        """First derivatives at cell centers from the four corner values.

        Second-order at the cell midpoint and free of the sublattice null
        modes that plague node-collocated centered differences; this is what
        makes the membrane energy coercive on the discrete clamped space.
        Row blocks 0 and 1 of membrane_stencil.
        """
        return _CellStencil(self, (0,), False), _CellStencil(self, (1,), False)

    @cached_property
    def cell_avg_op(self) -> "Stencil":
        """Four-corner average onto cell centers (second order); row block 2
        of membrane_stencil."""
        return _CellStencil(self, (2,), False)

    @cached_property
    def interior_d1_ops(self) -> tuple["Stencil", "Stencil"]:
        """Centered first derivatives with rows only at interior nodes.

        These are the strain stencils: strain fields are collocated at
        interior nodes and taken to vanish on the boundary ring.  Row blocks
        3 and 4 of bending_stencil.
        """
        return _BendingStencil(self, (3,), False), _BendingStencil(self, (4,), False)

    @cached_property
    def clamped_d2_ops(self) -> dict[tuple[int, int], "Stencil"]:
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
        mixed = _BendingStencil(self, (2,), False)
        return {
            (1, 1): _BendingStencil(self, (0,), False),
            (2, 2): _BendingStencil(self, (1,), False),
            (1, 2): mixed,
            (2, 1): mixed,
        }

    @cached_property
    def transposed_ops(self) -> dict:
        """The adjoints of the strain stencils, keyed by stencil."""
        d1i = self.interior_d1_ops
        bend = self.clamped_d2_ops
        cell = self.cell_d1_ops
        out = {
            ("int_d1", 1): d1i[0].T,
            ("int_d1", 2): d1i[1].T,
            ("cell_d1", 1): cell[0].T,
            ("cell_d1", 2): cell[1].T,
            "cell_avg": self.cell_avg_op.T,
        }
        for key in ((1, 1), (2, 2), (1, 2)):
            out[("bend", key)] = bend[key].T
        return out

    def apply(self, op: "Stencil", f: np.ndarray) -> np.ndarray:
        return (op @ f.ravel()).reshape(self.shape)

    def to_cells(self, op: "Stencil", f: np.ndarray) -> np.ndarray:
        return (op @ f.ravel()).reshape(self.cell_shape)


# -- stencils ------------------------------------------------------------------


class Stencil:
    """A linear map between grid fields, applied by shifted-slice sums.

    It maps fields of shape `source` to row blocks of shape `target`: called
    on an array (..., *source) it returns (blocks, ..., *target), or
    (..., *target) for an unstacked stencil (blocks = None), and `adjoint`
    maps such an array back to (..., *source).  `op @ x` applies it to a
    flattened field, or to the columns of an (op.shape[1], k) block, with
    the row blocks stacked in order, as a sparse matrix would; `op.T` is the
    adjoint, itself a Stencil.

    A stencil's row blocks reach the source points target + support[a]
    only; local_weights() reads its weights off that support.
    """

    support: tuple = ()

    def __init__(self, source, target, blocks=None):
        self.source, self.target, self.blocks = source, target, blocks

    @property
    def shape(self) -> tuple[int, int]:
        return ((self.blocks or 1) * math.prod(self.target), math.prod(self.source))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        out = self._apply(f)
        return out if self.blocks else out[0]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._adjoint(y if self.blocks else y[None])

    @property
    def T(self) -> "Stencil":
        return _Adjoint(self)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return _flat(self, self.__call__, x, (None, self.source), (self.blocks, self.target))

    def leading(self, blocks: int) -> "Stencil":
        """The stacked stencil of the first `blocks` row blocks."""
        op = copy.copy(self)
        op.rows, op.blocks = self.rows[:blocks], blocks
        return op

    def local_weights(self) -> np.ndarray:
        """w[r, a] at every target point p: the weight that row block r
        gives the source point p + support[a] (0 where that point lies off
        the grid), a (blocks, len(support), *target) array.

        Read off by colour probing: source points are coloured by their
        indices modulo the support's extent, so that the support of every
        target point holds each colour once, and one application to the
        indicator of each colour yields the weight of that colour's point.
        """
        offsets = np.array(self.support)
        p1, p2 = offsets.max(axis=0) - offsets.min(axis=0) + 1
        i1, i2 = np.ogrid[: self.source[0], : self.source[1]]
        colour = (i1 % p1) * p2 + i2 % p2
        probes = (colour == np.arange(p1 * p2)[:, None, None]).astype(float)
        out = self._apply(probes)
        j1, j2 = np.ogrid[: self.target[0], : self.target[1]]
        w = np.empty((out.shape[0], len(offsets)) + self.target)
        for a, (o1, o2) in enumerate(offsets):
            at = ((j1 + o1) % p1) * p2 + (j2 + o2) % p2
            w[:, a] = np.take_along_axis(out, at[None, None], axis=1)[:, 0]
        return w


class _Adjoint(Stencil):
    def __init__(self, op: Stencil):
        super().__init__(op.target, op.source, op.blocks)
        self.op = op

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape[::-1]

    def __call__(self, y):
        return self.op.adjoint(y)

    def adjoint(self, f):
        return self.op(f)

    @property
    def T(self) -> Stencil:
        return self.op

    def __matmul__(self, y):
        return _flat(self, self.op.adjoint, y, (self.blocks, self.source), (None, self.target))


def _flat(op: Stencil, fn, x: np.ndarray, layout_in, layout_out) -> np.ndarray:
    """fn applied to a flattened field x, or to the columns of x, with the
    fields' layouts given as (blocks, shape); the result flattened alike."""
    if x.shape[0] != op.shape[1]:
        raise ValueError(f"operand of {x.shape[0]} rows for an operator of shape {op.shape}")
    cols = x.shape[1:]
    (blocks_in, shape_in), (blocks_out, _) = layout_in, layout_out
    f = x.reshape((blocks_in or 1,) + shape_in + cols)
    if cols:
        f = np.moveaxis(f, -1, 1)
    g = fn(f if blocks_in else f[0])
    if not blocks_out:
        g = g[None]
    if cols:
        g = np.moveaxis(g, 1, -1)
    return g.reshape((-1,) + cols)


def _parts(axis: int) -> tuple:
    """The index tuples of the first entry, the last, all but the first, all
    but the last and the inner ones along `axis` (-1 or -2)."""
    trail = () if axis == -1 else (slice(None),)
    return tuple((Ellipsis, part) + trail for part in (
        slice(0, 1), slice(-1, None), slice(1, None), slice(None, -1), slice(1, -1)))


_PARTS = {-1: _parts(-1), -2: _parts(-2)}


def _spread(left: np.ndarray, right: np.ndarray, axis: int) -> np.ndarray:
    """The adjoint of the two-point cell map c[k] = l x[k] + r x[k + 1]
    along `axis` (-1 or -2), given left = l c and right = r c: x[k] =
    left[k] + right[k - 1], with the terms that fall off the ends dropped."""
    first, last, tail, head, inner = _PARTS[axis]
    shape = list(left.shape)
    shape[axis] += 1
    x = np.empty(shape)
    x[first] = left[first]
    x[last] = right[last]
    np.add(left[tail], right[head], out=x[inner])
    return x


class _CellStencil(Stencil):
    """Rows of [cell d1; cell d2; cell average]: each cell's four corners,
    d1 = q1 ((f10 + f11) - (f00 + f01)), d2 = q2 ((f01 - f00) + (f11 - f10))
    and the average (f00 + f01 + f10 + f11) / 4, with q = 1 / (2 h)."""

    support = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self, grid: Grid, rows: tuple, stacked: bool = True):
        super().__init__(grid.shape, grid.cell_shape, len(rows) if stacked else None)
        self.rows, self.q = rows, (0.5 / grid.h1, 0.5 / grid.h2)

    def _apply(self, f):
        out = np.empty((len(self.rows),) + f.shape[:-2] + self.target)
        if 1 in self.rows:  # d2: the steps along axis 2, summed along axis 1
            o = out[self.rows.index(1)]
            step = f[..., 1:] - f[..., :-1]
            np.add(step[..., 1:, :], step[..., :-1, :], out=o)
            o *= self.q[1]
            del step
        if set(self.rows) - {1}:  # d1 and the average: the sums along axis 2
            pair_sum = f[..., 1:] + f[..., :-1]
            for o, r in zip(out, self.rows):
                if r == 0:
                    np.subtract(pair_sum[..., 1:, :], pair_sum[..., :-1, :], out=o)
                    o *= self.q[0]
                elif r == 2:
                    np.add(pair_sum[..., 1:, :], pair_sum[..., :-1, :], out=o)
                    o *= 0.25
        return out

    def _adjoint(self, y):
        # x = spread2(A - B, A + B): A the axis-1 spread of the rows that sum
        # along axis 2 (d1: -q1, +q1; average: 1/4, 1/4), B that of d2 (q2, q2)
        (q1, q2), rows = self.q, self.rows
        left = right = None
        if 0 in rows:
            right = q1 * y[rows.index(0)]
            left = -right
        if 2 in rows:
            avg = 0.25 * y[rows.index(2)]
            if left is None:
                left, right = avg, avg
            else:
                left += avg
                right += avg
            del avg
        across = None if left is None else _spread(left, right, -2)
        del left, right
        if 1 not in rows:
            return _spread(across, across, -1)
        w = q2 * y[rows.index(1)]
        step = _spread(w, w, -2)
        del w
        if across is None:
            return _spread(-step, step, -1)
        plus = across + step
        across -= step
        del step
        return _spread(across, plus, -1)


class _BendingStencil(Stencil):
    """Rows of [clamped d11; d22; d12; interior d1; interior d2] at the nodes.

    At interior nodes the centered stencils; the clamped d11 (d22) also has
    the mirror-ghost rows 2 f(first interior) / h^2 on the two edges normal
    to its axis, corners included; every other boundary row is zero.
    """

    support = tuple((o1, o2) for o1 in (-1, 0, 1) for o2 in (-1, 0, 1))

    def __init__(self, grid: Grid, rows: tuple, stacked: bool = True):
        super().__init__(grid.shape, grid.shape, len(rows) if stacked else None)
        self.rows, self.h = rows, (grid.h1, grid.h2)
        n1, n2 = grid.shape
        # the two edges normal to axis 1 and 2, and the nodes their ghost rows read
        self.edges = ((Ellipsis, slice(None, None, n1 - 1), slice(None)),
                      (Ellipsis, slice(None, None, n2 - 1)))
        self.ghosts = ((Ellipsis, slice(1, n1 - 1, n1 - 3), slice(None)),
                       (Ellipsis, slice(1, n2 - 1, n2 - 3)))

    def _apply(self, f):
        # on the flattened nodes, where a step along axis 1 is n2 entries:
        # every row is computed from shifted contiguous slices over the
        # nodes n2 + 1 .. N - n2 - 2 (all interior nodes and some boundary
        # ones), then the boundary rows are cleared and the ghost rows set
        (h1, h2), rows = self.h, self.rows
        n1, n2 = self.source
        size, lead = n1 * n2, f.shape[:-2]
        flat = f.reshape(lead + (size,))
        out = np.zeros((len(rows),) + lead + (size,))
        band = (Ellipsis, slice(n2 + 1, size - n2 - 1))
        up, down = flat[..., 2 * n2 + 1 : size - 1], flat[..., 1 : size - 2 * n2 - 1]
        if {0, 1} & set(rows):
            twice = 2.0 * flat[band]
        if {2, 4} & set(rows):
            across = flat[..., 2:] - flat[..., :-2]  # centered steps along axis 2, from node 1
        for o, r in zip(out, rows):
            ob = o[band]
            if r == 0:
                np.add(down, up, out=ob)
                ob -= twice
                ob *= 1.0 / h1**2
            elif r == 1:
                np.add(flat[..., n2 : size - n2 - 2], flat[..., n2 + 2 : size - n2], out=ob)
                ob -= twice
                ob *= 1.0 / h2**2
            elif r == 2:
                np.subtract(across[..., 2 * n2 : size - 2], across[..., : size - 2 * n2 - 2],
                            out=ob)
                ob *= 0.25 / (h1 * h2)
            elif r == 3:
                np.subtract(up, down, out=ob)
                ob *= 0.5 / h1
            else:
                np.multiply(across[..., n2 : size - n2 - 2], 0.5 / h2, out=ob)
        out = out.reshape(out.shape[:-1] + self.source)
        out[..., 1:-1, :: n2 - 1] = 0.0
        for o, r in zip(out, rows):
            if r < 2:
                h = self.h[r]
                np.multiply(f[self.ghosts[r]], 2.0 / h**2, out=o[self.edges[r]])
        return out

    def _scale(self) -> np.ndarray:
        """The factor of each row's centered stencil."""
        h1, h2 = self.h
        return np.array([(1.0 / h1**2, 1.0 / h2**2, 0.25 / (h1 * h2), 0.5 / h1, 0.5 / h2)[r]
                         for r in self.rows])

    def _adjoint(self, y):
        # the interior rows, scaled and cleared on the boundary nodes, spread
        # onto their neighbours by shifted slices of the flattened nodes, as
        # in _apply; then the ghost rows
        rows = self.rows
        n1, n2 = self.source
        size = n1 * n2
        flat = y.reshape(y.shape[:-2] + (size,))[..., n2 + 1 : size - n2 - 1]
        flat = flat * self._scale().reshape((-1,) + (1,) * (flat.ndim - 1))
        flat[..., n2 - 2 :: n2] = 0.0
        flat[..., n2 - 1 :: n2] = 0.0
        part = dict(zip(rows, flat))
        x = np.zeros(y.shape[1:-2] + (size,))
        # d11 and d1 along axis 1, d22 and d2 along axis 2: the weights of
        # the neighbours at +1 and -1
        for second, first, step in ((0, 3, n2), (1, 4, 1)):
            curv, slope = part.get(second), part.get(first)
            if curv is None and slope is None:
                continue
            up = x[..., n2 + 1 + step : size - n2 - 1 + step]
            down = x[..., n2 + 1 - step : size - n2 - 1 - step]
            if curv is None:
                up += slope
                down -= slope
            elif slope is None:
                up += curv
                down += curv
            else:
                up += curv + slope
                down += curv - slope
        # and of the node itself
        if 0 in part or 1 in part:
            center = part[0] + part[1] if 0 in part and 1 in part else part.get(0, part.get(1))
            x[..., n2 + 1 : size - n2 - 1] -= 2.0 * center
        if 2 in part:
            twist = part[2]
            x[..., 2 * n2 + 2 :] += twist
            x[..., : size - 2 * n2 - 2] += twist
            x[..., 2 * n2 : size - 2] -= twist
            x[..., 2 : size - 2 * n2] -= twist
        x = x.reshape(y.shape[1:])
        for r, p in zip(rows, y):
            if r < 2:
                x[self.ghosts[r]] += (2.0 / self.h[r] ** 2) * p[self.edges[r]]
        return x


# One-sided 1-D derivative stencils: the weights of the centered interior
# row on (k-1, k, k+1), and of the first edge row on points 0, 1, ... (the
# last row mirrors it with the sign of an odd derivative), in units of 1/h^order.
_D1_ONE_SIDED = (1, (-0.5, 0.0, 0.5), (-1.5, 2.0, -0.5))
_D2_ONE_SIDED = (2, (1.0, -2.0, 1.0), (2.0, -5.0, 4.0, -1.0))


class _AxisStencil(Stencil):
    """A 1-D derivative along one axis at every node, with one-sided rows on
    the two edges normal to it."""

    def __init__(self, grid: Grid, axis: int, stencil):
        super().__init__(grid.shape, grid.shape)
        order, centered, edge = stencil
        h = grid.h1 if axis == 1 else grid.h2
        scale = 1.0 / h**order
        self.axis = axis - 3  # -2 or -1
        self.centered = [c * scale for c in centered]
        self.first = [e * scale for e in edge]
        self.last = [(-1) ** order * e * scale for e in edge[::-1]]

    def _lines(self, a):
        """a with the stencil's axis first."""
        return np.moveaxis(a, self.axis, 0)

    def _apply(self, f):
        out = np.empty(f.shape)
        g, o = self._lines(f), self._lines(out)
        lo, mid, hi = self.centered
        np.multiply(g[:-2], lo, out=o[1:-1])
        if mid:
            o[1:-1] += mid * g[1:-1]
        o[1:-1] += hi * g[2:]
        k = len(self.first)
        o[0] = sum(c * g[i] for i, c in enumerate(self.first))
        o[-1] = sum(c * g[i - k] for i, c in enumerate(self.last))
        return out[None]

    def _adjoint(self, y):
        x = np.zeros(y.shape[1:])
        g, o = self._lines(y[0]), self._lines(x)
        lo, mid, hi = self.centered
        o[:-2] += lo * g[1:-1]
        if mid:
            o[1:-1] += mid * g[1:-1]
        o[2:] += hi * g[1:-1]
        k = len(self.first)
        for i, c in enumerate(self.first):
            o[i] += c * g[0]
        for i, c in enumerate(self.last):
            o[i - k] += c * g[-1]
        return x


class _Product(Stencil):
    """The composition outer(inner(f)) of two unstacked stencils."""

    def __init__(self, outer: Stencil, inner: Stencil):
        super().__init__(inner.source, outer.target)
        self.outer, self.inner = outer, inner

    def _apply(self, f):
        return self.outer._apply(self.inner(f))

    def _adjoint(self, y):
        return self.inner.adjoint(self.outer._adjoint(y))


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
