"""scipy.sparse reference builds of the grid's stencils, for the tests.

Every operator is built as the Kronecker product of dense 1-D stencils
(node (i, j) is entry i * n2 + j, so the axis-1 factor is the outer one),
the way the program built them before its stencils were written as
shifted-slice sums.  The tests compare the slicing stencils, their
adjoints, their local weights and the banded plate Hessian with these.
"""

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


def d1_one_sided(n, h):
    m = d1_centered(n, h)
    m[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
    m[-1, -3:] = 0.5 / h, -2.0 / h, 1.5 / h
    return m


def d2_one_sided(n, h):
    m = d2_centered(n, h)
    m[0, :4] = 2.0 / h**2, -5.0 / h**2, 4.0 / h**2, -1.0 / h**2
    m[-1, -4:] = -1.0 / h**2, 4.0 / h**2, -5.0 / h**2, 2.0 / h**2
    return m


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
    """Every stencil of the grid as a CSR matrix, keyed as transposed_ops
    keys the strain stencils, plus ("d1", axis) and ("d2", (a, b)) for the
    one-sided family."""
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    q1, q2 = 0.5 / h1, 0.5 / h2
    both1, both2 = cell(n1, 1.0, 1.0), cell(n2, 1.0, 1.0)
    d1 = (kron(d1_one_sided(n1, h1), np.eye(n2)), kron(np.eye(n1), d1_one_sided(n2, h2)))
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
        ("d1", 1): d1[0],
        ("d1", 2): d1[1],
        ("d2", (1, 1)): kron(d2_one_sided(n1, h1), np.eye(n2)),
        ("d2", (2, 2)): kron(np.eye(n1), d2_one_sided(n2, h2)),
        ("d2", (1, 2)): (d1[0] @ d1[1]).tocsr(),
    }


def kron_stacks(grid):
    """The membrane and bending stacks as CSR matrices."""
    ops = kron_ops(grid)
    membrane = sp.vstack([ops["cell_d1", 1], ops["cell_d1", 2], ops["cell_avg"]], format="csr")
    bending = sp.vstack([ops["bend", (1, 1)], ops["bend", (2, 2)], ops["bend", (1, 2)],
                         ops["int_d1", 1], ops["int_d1", 2]], format="csr")
    return membrane, bending


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
