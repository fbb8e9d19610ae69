"""scipy.sparse reference builds of the grid's stencils, for the tests.

Every operator is built as the Kronecker product of dense 1-D stencils
(node (i, j) is entry i * n2 + j, so the axis-1 factor is the outer one),
the way the program built them before its stencils were written as
shifted-slice sums.  The tests compare the slicing stencils, their
adjoints, their local weights and the banded plate Hessian with these;
dense() gives a stencil's own matrices for the comparison.
"""

import math

import numpy as np
import scipy.sparse as sp


def interior_rows(n, lower, center, upper):
    """Rows at the n - 2 interior points with weights on (k-1, k, k+1)."""
    m = np.zeros((n, n))
    k = np.arange(1, n - 1)
    m[k, k - 1] = lower
    m[k, k] = center
    m[k, k + 1] = upper
    return m


def interior_mask(n):
    return interior_rows(n, 0.0, 1.0, 0.0)


def d1_centered(n, h):
    return interior_rows(n, -0.5 / h, 0.0, 0.5 / h)


def d2_centered(n, h):
    return interior_rows(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)


def ghost(n, h):
    """Mirror-ghost edge rows of the clamped second derivative."""
    m = np.zeros((n, n))
    m[0, 1] = m[-1, -2] = 2.0 / h**2
    return m


def cell(n, left, right):
    """(n-1) x n map from the two ends of each cell to its midpoint."""
    k = np.arange(n - 1)
    m = np.zeros((n - 1, n))
    m[k, k] = left
    m[k, k + 1] = right
    return m


def kron(a, b):
    return sp.kron(a, b, "csr")


def kron_ops(grid):
    """Every stencil of the grid as a CSR matrix: the strain rows keyed
    ("cell_d1", axis), "cell_avg", ("bend", (a, b)) and ("int_d1", axis)."""
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    q1, q2 = 0.5 / h1, 0.5 / h2
    both1, both2 = cell(n1, 1.0, 1.0), cell(n2, 1.0, 1.0)
    return {
        ("cell_d1", 1): kron(cell(n1, -q1, q1), both2),
        ("cell_d1", 2): kron(both1, cell(n2, -q2, q2)),
        "cell_avg": kron(cell(n1, 0.25, 0.25), both2),
        ("bend", (1, 1)): kron(d2_centered(n1, h1), interior_mask(n2))
        + kron(ghost(n1, h1), np.eye(n2)),
        ("bend", (2, 2)): kron(interior_mask(n1), d2_centered(n2, h2))
        + kron(np.eye(n1), ghost(n2, h2)),
        ("bend", (1, 2)): 0.25 / (h1 * h2) * kron(interior_rows(n1, -1.0, 0.0, 1.0),
                                                  interior_rows(n2, -1.0, 0.0, 1.0)),
        ("int_d1", 1): kron(d1_centered(n1, h1), interior_mask(n2)),
        ("int_d1", 2): kron(interior_mask(n1), d1_centered(n2, h2)),
    }


def kron_stacks(grid):
    """The membrane and bending stacks as CSR matrices."""
    ops = kron_ops(grid)
    membrane = sp.vstack([ops["cell_d1", 1], ops["cell_d1", 2], ops["cell_avg"]], format="csr")
    bending = sp.vstack([ops["bend", (1, 1)], ops["bend", (2, 2)], ops["bend", (1, 2)],
                         ops["int_d1", 1], ops["int_d1", 2]], format="csr")
    return membrane, bending


def dense(op):
    """The dense matrices (forward, adjoint) of a grid stencil, built by
    applying it to the identity, each column the image of one unit field
    (fields flattened with node (i, j) at entry i * n2 + j, row blocks
    stacked in order)."""
    n = math.prod(op.source)
    out = op(np.eye(n).reshape((n,) + op.source))
    forward = np.moveaxis(out, 1, -1).reshape(-1, n)
    m = forward.shape[0]
    units = np.moveaxis(np.eye(m).reshape((m, out.shape[0]) + out.shape[2:]), 0, 1)
    return forward, op.adjoint(units).reshape(m, n).T


def relative(got, ref):
    """Largest entry of |got - ref| over the largest |ref|."""
    return float(np.abs(np.asarray(got) - np.asarray(ref)).max() / np.abs(ref).max())


def band_to_dense(ab):
    """The symmetric matrix of a (kd + 1, n) lower band."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    k = np.zeros((n, n))
    for d in range(kd + 1):
        k[np.arange(d, n), np.arange(n - d)] = ab[d, : n - d]
    return k + np.tril(k, -1).T


def dense_to_band(k, kd):
    """The (kd + 1, n) lower band of a symmetric matrix."""
    n = k.shape[0]
    ab = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        ab[d, : n - d] = np.diagonal(k, -d)
    return ab
