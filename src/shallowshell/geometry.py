"""Analytic immersion catalog and pointwise surface geometry.

Every immersion in the catalog carries hand-coded exact first and second
partial derivatives, so all downstream geometric quantities (metric, second
fundamental form, Christoffel symbols, Gaussian curvature, area density) are
free of numerical differentiation error.  The flat plate is the exact
reference configuration: its geometry evaluates bitwise to 0 and 1.

The derivatives form one table, `Immersion._planes`: the value, gradient
and Hessian as nested tuples of component planes, each an array over the
points.  Entries that are constant for a family (the plate's tangents, the
vanishing Hessian components) are held as the Python floats 0.0 and 1.0, so
the arithmetic on them is scalar.  One path, `surface_quantities`, forms the
metric, b, Gamma, sqrt(a) and K from the table plane by plane with
elementwise products; `geometry_field` and `cell_geometry` call it at the
nodes and at the cell midpoints.  Each contraction adds its terms in the
order np.einsum does over an axis of two or three components, and like
einsum never returns -0.0, so the values are bitwise those of the einsum
formulas, sign bits included.  `christoffel_from_metric` keeps the einsum
Koszul formula as the independent check of the Gamma that
`surface_quantities` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .grid import Grid

DEGENERACY_THRESHOLD = 1e-12

_CATALOG = {
    "plate": {},
    "paraboloid": {"t": 0.0, "kappa1": 1.0, "kappa2": 1.0},
    "cylinder_patch": {"t": 0.0},
    "sinusoidal_bump": {"t": 0.0, "m1": 1.0, "m2": 1.0},
}

# Name of the flattening parameter per family: t -> 0 recovers the plate.
SCALE_PARAM = "t"


class ImmersionError(Exception):
    """Raised when a map fails to be an immersion on the sampled points:
    degenerate tangents, a singular metric, or geometry that is not finite."""


@dataclass(frozen=True)
class Immersion:
    """A catalog surface patch over the rectangle (0, L1) x (0, L2).

    kind selects the family (plate | paraboloid | cylinder_patch |
    sinusoidal_bump); params hold its real parameters.  Families are chosen
    so that every second derivative is analytic and symmetric, and so that
    the scale parameter t interpolates linearly (in C2 distance) to the
    plate at t = 0.
    """

    kind: str
    L1: float = 1.0
    L2: float = 1.0
    params: MappingProxyType = None

    def __post_init__(self):
        if self.kind not in _CATALOG:
            raise ValueError(
                f"unknown immersion kind {self.kind!r}; "
                f"expected one of {sorted(_CATALOG)}"
            )
        defaults = dict(_CATALOG[self.kind])
        given = dict(self.params or {})
        unknown = set(given) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for immersion "
                f"kind {self.kind!r}"
            )
        defaults.update(given)
        if self.kind == "cylinder_patch" and defaults["t"] < 0:
            raise ValueError("cylinder_patch curvature t must be >= 0")
        object.__setattr__(self, "params", MappingProxyType(defaults))

    def with_scale(self, t: float) -> "Immersion":
        """Family member with the flattening parameter replaced by t."""
        if self.kind == "plate":
            if t != 0.0:
                raise ValueError("the plate has no scale parameter")
            return self
        new = dict(self.params)
        new[SCALE_PARAM] = t
        return replace(self, params=new)

    def check_point(self, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=float)
        y1, y2 = y[..., 0], y[..., 1]
        if np.any(y1 < 0) or np.any(y1 > self.L1) or np.any(y2 < 0) or np.any(y2 > self.L2):
            raise ValueError("evaluation point outside the closed domain rectangle")

    def evaluate(self, y: np.ndarray):
        """Value, gradient, and Hessian of the immersion at points y.

        y has shape (..., 2); returns (value, grad, hess) with shapes
        (..., 3), (..., 2, 3), and (..., 2, 2, 3).  The Hessian is stored
        with both index orders filled from the same analytic expression, so
        hess[..., 0, 1, :] == hess[..., 1, 0, :] holds identically.
        """
        y = np.asarray(y, dtype=float)
        self.check_point(y)
        base = y.shape[:-1]
        return tuple(_stack(p, base) for p in self._planes(y[..., 0], y[..., 1]))

    def _planes(self, y1: np.ndarray, y2: np.ndarray):
        """The derivative table: (value, grad, hess) as nested tuples of planes.

        value[k], grad[alpha][k] and hess[alpha][beta][k] are the components
        at the points (y1, y2); hess[1][0] is the hess[0][1] object.  Entries
        that are constant for the family are the Python floats 0.0 and 1.0.
        """
        value = [y1, y2, 0.0]
        grad = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        h00 = [0.0, 0.0, 0.0]
        h01 = [0.0, 0.0, 0.0]
        h11 = [0.0, 0.0, 0.0]
        p = self.params

        if self.kind == "plate":
            pass
        elif self.kind == "paraboloid":
            t, k1, k2 = p["t"], p["kappa1"], p["kappa2"]
            value[2] = 0.5 * t * (k1 * y1**2 + k2 * y2**2)
            grad[0][2] = t * k1 * y1
            grad[1][2] = t * k2 * y2
            h00[2] = t * k1
            h11[2] = t * k2
        elif self.kind == "cylinder_patch":
            t = p["t"]
            if t > 0:
                # sin(t y)/t and (1 - cos(t y))/t written via sinc for a
                # smooth limit into the plate at t = 0
                value[0] = y1 * np.sinc(t * y1 / np.pi)
                value[2] = 0.5 * t * y1**2 * np.sinc(0.5 * t * y1 / np.pi) ** 2
                c, s = np.cos(t * y1), np.sin(t * y1)
                grad[0][0] = c
                grad[0][2] = s
                h00[0] = -t * s
                h00[2] = t * c
        elif self.kind == "sinusoidal_bump":
            t, m1, m2 = p["t"], p["m1"], p["m2"]
            k1 = m1 * np.pi / self.L1
            k2 = m2 * np.pi / self.L2
            s1, c1 = np.sin(k1 * y1), np.cos(k1 * y1)
            s2, c2 = np.sin(k2 * y2), np.cos(k2 * y2)
            value[2] = t * s1 * s2
            grad[0][2] = t * k1 * c1 * s2
            grad[1][2] = t * k2 * s1 * c2
            h00[2] = -t * k1**2 * s1 * s2
            h01[2] = t * k1 * k2 * c1 * c2
            h11[2] = -t * k2**2 * s1 * s2

        h01 = tuple(h01)
        return (tuple(value), tuple(map(tuple, grad)),
                ((tuple(h00), h01), (h01, tuple(h11))))


# -- component planes ----------------------------------------------------------


def _stack(planes, base: tuple) -> np.ndarray:
    """A fresh (*base, *dims) array holding the nested tuple of planes."""
    dims = []
    entry = planes
    while isinstance(entry, tuple):
        dims.append(len(entry))
        entry = entry[0]
    out = np.empty(base + tuple(dims))
    _put(np.moveaxis(out, range(len(base), out.ndim), range(len(dims))), planes)
    return out if out.ndim else out[()]


def _put(view: np.ndarray, planes) -> None:
    if isinstance(planes, tuple):
        for i, entry in enumerate(planes):
            _put(view[i, ...], entry)
    else:
        view[...] = planes


def _sum(p0, p1, p2=None):
    """Sum of two or three products, as np.einsum adds them over an axis of
    that length (two-lane accumulators from +0.0): (p0 + p2) + p1, never -0.0."""
    s = p0 if p2 is None else p0 + p2
    return (s + p1) + 0.0


def _table(entry, symmetric: bool):
    """The 2x2 table of entry(alpha, beta); when symmetric, (1, 0) is (0, 1)."""
    upper = entry(0, 1)
    return ((entry(0, 0), upper), (upper if symmetric else entry(1, 0), entry(1, 1)))


def _cross(g):
    (g0, g1, g2), (h0, h1, h2) = g
    return (g1 * h2 - g2 * h1, g2 * h0 - g0 * h2, g0 * h1 - g1 * h0)


def _length(c):
    return np.sqrt((c[0] * c[0] + c[1] * c[1]) + c[2] * c[2])


def _normal(g):
    """(positively oriented unit normal planes, |d1 theta x d2 theta|);
    raises ImmersionError when the tangents are (numerically) parallel."""
    cross = _cross(g)
    norm = _length(cross)
    if np.any(norm < DEGENERACY_THRESHOLD):
        raise ImmersionError(
            "degenerate immersion: |d1 theta x d2 theta| below "
            f"{DEGENERACY_THRESHOLD:g}"
        )
    return tuple(c / norm for c in cross), norm


def _metric(g):
    return _table(lambda a, b: _sum(*(g[a][k] * g[b][k] for k in range(3))), True)


def _inverse(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if np.any(det <= DEGENERACY_THRESHOLD**2):
        raise ImmersionError("singular metric: det(a) not positive")
    return ((a[1][1] / det, -a[0][1] / det), (-a[1][0] / det, a[0][0] / det))


def _second_form(n, h):
    return _table(lambda a, b: _sum(*(n[k] * h[a][b][k] for k in range(3))),
                  h[1][0] is h[0][1])


def _christoffel(g, h, a_inv):
    symmetric = h[1][0] is h[0][1]
    tangent_dot_hess = [
        _table(lambda a, b: _sum(*(g[m][k] * h[a][b][k] for k in range(3))), symmetric)
        for m in range(2)
    ]
    return tuple(
        _table(lambda a, b: _sum(*(a_inv[s][m] * tangent_dot_hess[m][a][b]
                                   for m in range(2))), symmetric)
        for s in range(2)
    )


def _curvature(a_inv, b):
    m = _table(lambda a, c: _sum(*(a_inv[a][s] * b[s][c] for s in range(2))), False)
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def christoffel_from_metric(grad: np.ndarray, hess: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    """Christoffel symbols from the metric-only (Koszul) formula.

    Independent cross-check for the tangential symbols: uses the analytic
    derivatives of the metric, d_c a_{ab} = hess_{ca}.grad_b + grad_a.hess_{cb}.
    """
    da = np.einsum("...cak,...bk->...cab", hess, grad) + np.einsum(
        "...ak,...cbk->...cab", grad, hess
    )
    koszul = 0.5 * (
        np.einsum("...anb->...nab", da)
        + np.einsum("...bna->...nab", da)
        - np.einsum("...nab->...nab", da)
    )
    return np.einsum("...sn,...nab->...sab", a_inv, koszul)


@dataclass
class SurfaceGeometry:
    """All pointwise geometric quantities of an immersion on a grid."""

    grid: Grid
    a: np.ndarray        # metric, (n1, n2, 2, 2)
    a_inv: np.ndarray    # inverse metric
    b: np.ndarray        # second fundamental form
    gamma: np.ndarray    # Christoffel symbols, (n1, n2, sigma, alpha, beta)
    sqrt_a: np.ndarray   # area density
    K: np.ndarray        # Gaussian curvature

    @cached_property
    def is_flat(self) -> bool:
        return bool(
            np.all(self.b == 0.0)
            and np.all(self.gamma == 0.0)
            and np.all(self.sqrt_a == 1.0)
        )


def surface_quantities(imm: Immersion, y: np.ndarray, point: str = "node"):
    """All pointwise geometric quantities at an arbitrary point array.

    Returns (a, a_inv, b, gamma, sqrt_a, K), each with the leading shape of
    y.  Raises ImmersionError naming the first offending `point` index when
    the tangents degenerate or det(a) is not positive, and else when a
    quantity is not finite (an overflow).
    """
    y = np.asarray(y, dtype=float)
    imm.check_point(y)
    base = y.shape[:-1]
    _, g, h = imm._planes(y[..., 0], y[..., 1])
    with np.errstate(all="ignore"):  # an overflow is named below as non-finite geometry
        try:
            normal, sqrt_a = _normal(g)
            a = _metric(g)
            a_inv = _inverse(a)
        except ImmersionError as exc:
            # the first point that fails either test: the tangents' cross
            # product, or det(a), which can round to 0 where the product passes
            a = _metric(g)
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            bad = ((np.broadcast_to(_length(_cross(g)), base) < DEGENERACY_THRESHOLD)
                   | (np.broadcast_to(det, base) <= DEGENERACY_THRESHOLD**2))
            raise ImmersionError(f"{exc} at {point} {_first(bad)}") from None
        b = _second_form(normal, h)
        gamma = _christoffel(g, h, a_inv)
        K = _curvature(a_inv, b)
    out = tuple(_stack(q, base) for q in (a, a_inv, b, gamma, sqrt_a, K))
    # min and max propagate NaN and reach any inf, and allocate nothing
    if not all(np.isfinite(q.min()) and np.isfinite(q.max()) for q in out):
        finite = [np.isfinite(q).reshape(base + (-1,)).all(axis=-1) for q in out]
        bad = ~np.logical_and.reduce(finite)
        raise ImmersionError(f"non-finite geometry at {point} {_first(bad)}")
    return out


def _first(bad: np.ndarray):
    """The index of the first point where bad holds, as a tuple of ints."""
    where = np.argwhere(bad)
    return tuple(int(i) for i in where[0]) if len(where) else "unknown"


def geometry_field(imm: Immersion, grid: Grid) -> SurfaceGeometry:
    """Evaluate every geometric quantity of the immersion at the grid nodes."""
    return _geometry_at(imm, grid, (grid.y1, grid.y2), "node")


def cell_geometry(imm: Immersion, grid: Grid) -> SurfaceGeometry:
    """Geometric quantities at the cell midpoints (membrane collocation)."""
    return _geometry_at(imm, grid, grid.cell_centers, "cell")


def _geometry_at(imm: Immersion, grid: Grid, coords, point: str) -> SurfaceGeometry:
    if not (np.isclose(imm.L1, grid.L1) and np.isclose(imm.L2, grid.L2)):
        raise ValueError("grid rectangle does not match the immersion domain")
    a, a_inv, b, gamma, sqrt_a, K = surface_quantities(imm, np.stack(coords, axis=-1), point)
    return SurfaceGeometry(grid=grid, a=a, a_inv=a_inv, b=b, gamma=gamma,
                           sqrt_a=sqrt_a, K=K)


def c2_distance(imm: Immersion, ref: Immersion, grid: Grid) -> float:
    """Grid-sampled surrogate of the C2 distance between two immersions.

    Max over nodes of |theta - ref| plus the Euclidean norms of the first
    derivative differences and of the three distinct second derivative
    differences.
    """
    if not (np.isclose(imm.L1, ref.L1) and np.isclose(imm.L2, ref.L2)):
        raise ValueError("immersions live on different domains")
    y = np.stack([grid.y1, grid.y2], axis=-1)
    v1, g1, h1 = imm.evaluate(y)
    v2, g2, h2 = ref.evaluate(y)
    total = np.linalg.norm(v1 - v2, axis=-1)
    for alpha in range(2):
        total += np.linalg.norm(g1[..., alpha, :] - g2[..., alpha, :], axis=-1)
    for alpha, beta in ((0, 0), (0, 1), (1, 1)):
        total += np.linalg.norm(
            h1[..., alpha, beta, :] - h2[..., alpha, beta, :], axis=-1
        )
    return float(np.max(total))
