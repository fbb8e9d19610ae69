"""Uniform rectangular grids with clamped boundary conditions.

Provides the discrete function space for displacements (u1, u2) in H1_0 and
u3 in H2_0, built from second-order centered finite differences, mirror-ghost
closure of the clamped condition for u3, and tensor-product trapezoidal
quadrature.

The strain operators are two Stencils, stacks of row blocks applied by
shifted-slice sums over (..., n1, n2) arrays, each with an adjoint written
the same way, so that energy gradients are formed by exact stencil
transposition: membrane_stencil computes the cell rows [d1; d2; average]
and bending_stencil the nodal rows [clamped d11; d22; d12; interior d1;
d2].  cell_d1_ops, cell_avg_op, clamped_d2_ops and interior_d1_ops are
views of consecutive row blocks (Stencil.rows).  A stencil holds only the
grid's spacings and the rows it computes, so it costs nothing to build and
nothing to keep.  Stencil.local_weights reads a stack's weights off its
support, so the solver assembles its banded plate Hessian from the same
stencils the energy applies.

The norms of the displacement space take their derivatives from the same
stencils: the H1 seminorm is the midpoint rule over cell_d1_ops, the H2
seminorm the trapezoid rule over clamped_d2_ops.
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
        return _CellStencil(self)

    @cached_property
    def bending_stencil(self) -> "Stencil":
        """The bending strain rows, stacked: [clamped d11; d22; d12; interior
        d1; interior d2].

        Maps (..., n1, n2) fields to (5, ..., n1, n2) nodal values;
        clamped_d2_ops and interior_d1_ops are its row blocks.
        """
        return _BendingStencil(self)

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

    @property
    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Built on each call, not kept: cell_geometry reads them once per assembly."""
        c1 = np.linspace(0.5 * self.h1, self.L1 - 0.5 * self.h1, self.n1 - 1)
        c2 = np.linspace(0.5 * self.h2, self.L2 - 0.5 * self.h2, self.n2 - 1)
        return np.outer(c1, np.ones(self.n2 - 1)), np.outer(np.ones(self.n1 - 1), c2)

    @cached_property
    def cell_d1_ops(self) -> "Stencil":
        """First derivatives at cell centers from the four corner values,
        stacked: [cell d1; cell d2], row blocks 0-1 of membrane_stencil.

        Second-order at the cell midpoint and free of the sublattice null
        modes that plague node-collocated centered differences; this is what
        makes the membrane energy coercive on the discrete clamped space.
        """
        return self.membrane_stencil.rows(0, 2)

    @cached_property
    def cell_avg_op(self) -> "Stencil":
        """Four-corner average onto cell centers (second order); row block 2
        of membrane_stencil."""
        return self.membrane_stencil.rows(2, 3)

    @cached_property
    def interior_d1_ops(self) -> "Stencil":
        """Centered first derivatives with rows only at interior nodes,
        stacked: [interior d1; interior d2], row blocks 3-4 of
        bending_stencil.

        These are the strain stencils: strain fields are collocated at
        interior nodes and taken to vanish on the boundary ring.
        """
        return self.bending_stencil.rows(3, 5)

    @cached_property
    def clamped_d2_ops(self) -> "Stencil":
        """Second derivatives of fields clamped in the H2_0 sense, stacked:
        [d11; d22; d12], row blocks 0-2 of bending_stencil.

        Rows at interior nodes carry the usual centered stencils.  Rows on
        the two edges normal to the derivative direction carry the
        mirror-ghost closure: with f = 0 on the boundary and the ghost value
        equal to the first interior value (discrete normal derivative zero),
        the second derivative at an edge node reduces to 2*f(first interior)
        / h^2.  All other edge rows evaluate to zero on clamped fields and
        are left empty; the mixed derivative likewise vanishes on the whole
        boundary ring under the ghost closure.
        """
        return self.bending_stencil.rows(0, 3)

    @cached_property
    def transposed_ops(self) -> tuple:
        """The adjoints of the two strain stacks, membrane then bending."""
        return self.membrane_stencil.adjoint, self.bending_stencil.adjoint

    # the derivative stencils under their older names, which perfbench builds by name
    @cached_property
    def d1_ops(self) -> "Stencil":
        return self.cell_d1_ops

    @cached_property
    def d2_ops(self) -> "Stencil":
        return self.clamped_d2_ops


# -- stencils ------------------------------------------------------------------


class Stencil:
    """A stack of row blocks, applied by shifted-slice sums.

    Called on an array (..., *source) it returns (k, ..., *target), its k
    row blocks in order, and `adjoint` maps such an array back to
    (..., *source), consuming it: the kernels scale its rows in place.
    rows(lo, hi) is the stencil of row blocks lo .. hi - 1.
    A kernel computes a prefix of the stack, the shortest of `prefixes`
    that holds the rows asked for: rows() slices its output and zero-pads
    the adjoint's input.

    A stencil's row blocks reach the source points target + support[a]
    only; local_weights() reads its weights off that support.
    """

    support: tuple = ()
    prefixes: tuple = ()

    def __init__(self, source, target):
        self.source, self.target = source, target
        self.lo = 0
        self.hi = self.prefix = self.prefixes[-1]

    def rows(self, lo: int, hi: int) -> "Stencil":
        """The stencil of row blocks lo .. hi - 1 of this one."""
        if not 0 <= lo < hi <= self.hi - self.lo:
            raise ValueError(f"no row blocks {lo}:{hi} in a stack of {self.hi - self.lo}")
        op = copy.copy(self)
        op.lo, op.hi = self.lo + lo, self.lo + hi
        op.prefix = min(k for k in self.prefixes if k >= op.hi)
        return op

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return self._apply(f)[self.lo : self.hi]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if (self.lo, self.hi) != (0, self.prefix):
            padded = np.zeros((self.prefix,) + y.shape[1:])
            padded[self.lo : self.hi] = y
            y = padded
        return self._adjoint(y)

    def local_weights(self) -> np.ndarray:
        """w[r, a] at every target point p: the weight that row block r
        gives the source point p + support[a] (0 where that point lies off
        the grid), a (k, len(support), *target) array.

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
        out = self(probes)
        j1, j2 = np.ogrid[: self.target[0], : self.target[1]]
        w = np.empty((out.shape[0], len(offsets)) + self.target)
        for a, (o1, o2) in enumerate(offsets):
            at = ((j1 + o1) % p1) * p2 + (j2 + o2) % p2
            w[:, a] = np.take_along_axis(out, at[None, None], axis=1)[:, 0]
        return w


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
    and the average (f00 + f01 + f10 + f11) / 4, with q = 1 / (2 h).  The
    kernels compute the two derivative rows, or all three."""

    support = ((0, 0), (0, 1), (1, 0), (1, 1))
    prefixes = (2, 3)

    def __init__(self, grid: Grid):
        super().__init__(grid.shape, grid.cell_shape)
        self.q = (0.5 / grid.h1, 0.5 / grid.h2)

    def _apply(self, f):
        (q1, q2), out = self.q, np.empty((self.prefix,) + f.shape[:-2] + self.target)
        # d2: the steps along axis 2, summed along axis 1
        step = f[..., 1:] - f[..., :-1]
        np.add(step[..., 1:, :], step[..., :-1, :], out=out[1])
        out[1] *= q2
        del step
        # d1 and the average: the sums along axis 2, differenced or summed along axis 1
        pair_sum = f[..., 1:] + f[..., :-1]
        np.subtract(pair_sum[..., 1:, :], pair_sum[..., :-1, :], out=out[0])
        out[0] *= q1
        if self.prefix > 2:
            np.add(pair_sum[..., 1:, :], pair_sum[..., :-1, :], out=out[2])
            out[2] *= 0.25
        return out

    def _adjoint(self, y):
        # x = spread2(A - B, A + B): A the axis-1 spread of the rows that sum
        # along axis 2 (d1: -q1, +q1; average: 1/4, 1/4), B that of d2 (q2, q2)
        q1, q2 = self.q
        right = np.multiply(y[0], q1, out=y[0])
        left = -right
        if self.prefix > 2:
            avg = np.multiply(y[2], 0.25, out=y[2])
            left += avg
            right += avg
            del avg
        across = _spread(left, right, -2)
        del left, right
        w = np.multiply(y[1], q2, out=y[1])
        step = _spread(w, w, -2)
        del w
        plus = across + step
        across -= step
        del step
        return _spread(across, plus, -1)


class _BendingStencil(Stencil):
    """Rows of [clamped d11; d22; d12; interior d1; interior d2] at the nodes.

    At interior nodes the centered stencils; the clamped d11 (d22) also has
    the mirror-ghost rows 2 f(first interior) / h^2 on the two edges normal
    to its axis, corners included; every other boundary row is zero.  The
    kernels compute the three second-derivative rows, or all five.
    """

    support = tuple((o1, o2) for o1 in (-1, 0, 1) for o2 in (-1, 0, 1))
    prefixes = (3, 5)

    def __init__(self, grid: Grid):
        super().__init__(grid.shape, grid.shape)
        self.h = (grid.h1, grid.h2)
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
        h1, h2 = self.h
        n1, n2 = self.source
        size, lead = n1 * n2, f.shape[:-2]
        flat = f.reshape(lead + (size,))
        out = np.zeros((self.prefix,) + lead + (size,))
        rows = [o[..., n2 + 1 : size - n2 - 1] for o in out]
        up, down = flat[..., 2 * n2 + 1 : size - 1], flat[..., 1 : size - 2 * n2 - 1]
        twice = 2.0 * flat[..., n2 + 1 : size - n2 - 1]
        across = flat[..., 2:] - flat[..., :-2]  # centered steps along axis 2, from node 1
        np.add(down, up, out=rows[0])
        rows[0] -= twice
        rows[0] *= 1.0 / h1**2
        np.add(flat[..., n2 : size - n2 - 2], flat[..., n2 + 2 : size - n2], out=rows[1])
        rows[1] -= twice
        rows[1] *= 1.0 / h2**2
        np.subtract(across[..., 2 * n2 : size - 2], across[..., : size - 2 * n2 - 2],
                    out=rows[2])
        rows[2] *= 0.25 / (h1 * h2)
        if self.prefix > 3:
            np.subtract(up, down, out=rows[3])
            rows[3] *= 0.5 / h1
            np.multiply(across[..., n2 : size - n2 - 2], 0.5 / h2, out=rows[4])
        out = out.reshape(out.shape[:-1] + self.source)
        out[..., 1:-1, :: n2 - 1] = 0.0
        for r in (0, 1):
            np.multiply(f[self.ghosts[r]], 2.0 / self.h[r] ** 2, out=out[r][self.edges[r]])
        return out

    def _adjoint(self, y):
        # the interior rows, scaled and cleared on the boundary nodes, spread
        # onto their neighbours by shifted slices of the flattened nodes, as
        # in _apply; then the ghost rows
        h1, h2 = self.h
        n1, n2 = self.source
        size = n1 * n2
        scale = np.array((1.0 / h1**2, 1.0 / h2**2, 0.25 / (h1 * h2), 0.5 / h1, 0.5 / h2))
        # the ghost rows read edge nodes that the scaling in place overwrites
        ghost = [(2.0 / self.h[r] ** 2) * y[r][self.edges[r]] for r in (0, 1)]
        flat = y.reshape(y.shape[:-2] + (size,))[..., n2 + 1 : size - n2 - 1]
        flat *= scale[: self.prefix].reshape((-1,) + (1,) * (flat.ndim - 1))
        flat[..., n2 - 2 :: n2] = 0.0
        flat[..., n2 - 1 :: n2] = 0.0
        x = np.zeros(y.shape[1:-2] + (size,))
        # d11 and d1 along axis 1, d22 and d2 along axis 2: the weights of
        # the neighbours at +1 and -1
        for second, step in ((0, n2), (1, 1)):
            curv = flat[second]
            up = x[..., n2 + 1 + step : size - n2 - 1 + step]
            down = x[..., n2 + 1 - step : size - n2 - 1 - step]
            if self.prefix > 3:
                slope = flat[second + 3]
                up += curv + slope
                down += curv - slope
            else:
                up += curv
                down += curv
        # and of the node itself
        x[..., n2 + 1 : size - n2 - 1] -= 2.0 * (flat[0] + flat[1])
        twist = flat[2]
        x[..., 2 * n2 + 2 :] += twist
        x[..., : size - 2 * n2 - 2] += twist
        x[..., 2 * n2 : size - 2] -= twist
        x[..., 2 : size - 2 * n2] -= twist
        x = x.reshape(y.shape[1:])
        for r in (0, 1):
            x[self.ghosts[r]] += ghost[r]
        return x


# -- quadrature, displacements and norms -------------------------------------


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Trapezoidal integral of f."""
    return float(np.sum(grid.weights * f))


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
    return math.sqrt(integrate(grid, f * f))


def h1_seminorm(grid: Grid, f: np.ndarray) -> float:
    """The midpoint rule over the cell derivatives (cell_d1_ops)."""
    g = grid.cell_d1_ops(f)
    return math.sqrt(grid.cell_weight * np.sum(g * g))


def h2_seminorm(grid: Grid, f: np.ndarray) -> float:
    """The trapezoid rule over the clamped second derivatives
    (clamped_d2_ops), d12 counted twice: f is taken to lie in H2_0."""
    d11, d22, d12 = grid.clamped_d2_ops(f)
    return math.sqrt(integrate(grid, d11 * d11 + d22 * d22 + 2.0 * d12 * d12))


def v_norm(grid: Grid, u: Displacement) -> float:
    """Norm of the displacement space: ||u1||_H1 + ||u2||_H1 + ||u3||_H2."""
    h1_norms = [math.sqrt(l2_norm(grid, f) ** 2 + h1_seminorm(grid, f) ** 2)
                for f in u.components()]
    return h1_norms[0] + h1_norms[1] + math.sqrt(h1_norms[2] ** 2 + h2_seminorm(grid, u.u3) ** 2)
