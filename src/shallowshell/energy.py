"""Shallow-shell strains, energy, and its analytic gradient.

The discrete energy mirrors the continuous one term by term.  Bending
strains are collocated at grid nodes with the mirror-ghost closure of the
clamped condition and integrated with trapezoidal weights; membrane strains
are collocated at cell midpoints (four-corner differences) and integrated
with the midpoint rule.  Cell collocation is essential, not cosmetic:
node-collocated centered differences annihilate sublattice combs in the
tangential components, so a general tangential load could extract unbounded
energy from strain-free oscillations.  The four-corner stencils have a
trivial kernel and restore discrete membrane coercivity at second order.

The gradient is assembled by transposing the very same stencils against the
stress fields, so the discrete first variation is represented exactly (up to
roundoff) and is checkable against central differences of the scalar energy.

One evaluator, EnergyAssembly, serves every immersion.  The plate energy
is that of the assembly at Immersion("plate"), whose flat reference skips
the cell averages and the geometry pulls; there is no separate plate path.
An assembly keeps the nodal geometry and the fields an evaluation reads;
the midpoint geometry is folded into the membrane fields, then dropped.
Strains and stresses are (3, points) arrays of the components (11, 22, 12),
the shear strain stored doubled (2 E_12), so the quadratic form
A^{abst} E_st E_ab is e . C e with C the 3x3 Voigt matrix of
elasticity.voigt_coefficients at each point, and every pairing of a stress
with a strain variation is a plain sum of componentwise products.

An evaluation makes four stencil applications, two for the energy alone:
the grid's stacked membrane stencil (cell d1, d2 and average) applied to
u.block, the (3, n1, n2) block of u as it is, the stacked bending stencil
(clamped d11, d22, d12 and interior d1, d2) applied to u3, and for the
gradient the adjoint of each stack applied to the block of stresses its
rows meet; the gradient wraps the adjoints' block.  A flat
reference applies only the derivative rows, grid.cell_d1_ops and
grid.clamped_d2_ops.  The stencils are shifted-slice sums, stresses and
geometry pulls single np.einsum contractions (optimize=False: fixed
summation order, no BLAS) and the quadratic forms pairwise np.sum
reductions, so the bytes of an evaluation do not depend on the BLAS
thread count.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .elasticity import VOIGT_SYMMETRIC, Material, voigt_coefficients
from .geometry import Immersion, SurfaceGeometry, cell_geometry, geometry_field
from .grid import Displacement, Grid, Stencil


# The catalog loads: each kind's keys and their defaults, in the order the
# kind's constructor takes them, the three per-component keys first.
_LOADS = {
    "constant": {"p1": 0.0, "p2": 0.0, "p3": 0.0},
    "polynomial": {"p1_coeffs": (), "p2_coeffs": (), "p3_coeffs": ()},
    "gaussian_bump": {"amp1": 0.0, "amp2": 0.0, "amp3": 0.0,
                      "center1": 0.5, "center2": 0.5, "sigma": 0.1},
}


@dataclass
class ForceDensity:
    """Applied force per unit area, sampled at the grid nodes.

    No smallness or sign restriction applies; in particular the tangential
    components may be arbitrary.  The catalog kinds and their keys are
    _LOADS; a rejected load raises ValueError("<key>: <why>").
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray

    def components(self):
        return (self.p1, self.p2, self.p3)

    def norm_sums(self, grid: Grid) -> np.ndarray:
        """Running sums of sum w p^2 over p1, p2, p3: the last is the load norm squared."""
        return np.cumsum([np.sum(grid.weights * p * p) for p in self.components()])

    @classmethod
    def zero(cls, grid: Grid) -> "ForceDensity":
        return cls(*(np.zeros(grid.shape) for _ in range(3)))

    @classmethod
    def constant(cls, grid: Grid, p1: float, p2: float, p3: float) -> "ForceDensity":
        one = np.ones(grid.shape)
        return cls(p1 * one, p2 * one, p3 * one)

    @classmethod
    def polynomial(cls, grid: Grid, coeffs) -> "ForceDensity":
        """Quadratic polynomial per component.

        coeffs holds three coefficient sequences (c0, c_y1, c_y2, c_y1y1,
        c_y1y2, c_y2y2); shorter sequences are zero-padded.
        """
        y1, y2 = grid.y1, grid.y2
        basis = (np.ones(grid.shape), y1, y2, y1 * y1, y1 * y2, y2 * y2)
        fields = []
        for m, comp in enumerate(coeffs, start=1):
            if len(comp) > 6:
                raise ValueError(f"p{m}_coeffs: at most 6 coefficients")
            c = list(comp) + [0.0] * (6 - len(comp))
            fields.append(sum(ci * bi for ci, bi in zip(c, basis)))
        return cls(*fields)

    @classmethod
    def gaussian_bump(cls, grid: Grid, amps, center, sigma: float) -> "ForceDensity":
        """exp(-r^2 / (2 sigma^2)).  Where sigma^2 overflows, (r/sigma)^2 is
        formed term by term, so a far centre still gives 0, not inf/inf;
        sigma^2 = 0 takes its limit: 1 at a node on the centre, 0 elsewhere
        (as it already is below sigma^2 ~ h^2/1500)."""
        if sigma <= 0:
            raise ValueError("sigma: gaussian bump width must be positive")
        d1, d2 = grid.y1 - center[0], grid.y2 - center[1]
        with np.errstate(over="ignore"):
            s2 = np.float64(sigma) ** 2
            if s2 == np.inf:
                bump = np.exp(-0.5 * ((d1 / sigma) ** 2 + (d2 / sigma) ** 2))
            else:
                r2 = d1 ** 2 + d2 ** 2
                bump = np.exp(-0.5 * r2 / s2) if s2 > 0 else (r2 == 0) * 1.0
        return cls(amps[0] * bump, amps[1] * bump, amps[2] * bump)

    @classmethod
    def from_catalog(cls, grid: Grid, kind: str, params: dict) -> "ForceDensity":
        """The _LOADS kind with params, the omitted keys at their defaults."""
        if kind not in _LOADS:
            raise ValueError(f"kind: unknown force kind {kind!r}")
        unknown = sorted(set(params) - set(_LOADS[kind]))
        if unknown:
            raise ValueError(f"{unknown[0]}: unknown key for kind {kind!r}")
        args = [params.get(key, default) for key, default in _LOADS[kind].items()]
        if kind == "constant":
            return cls.constant(grid, *args)
        if kind == "polynomial":
            return cls.polynomial(grid, args)
        return cls.gaussian_bump(grid, args[:3], args[3:5], args[5])


# -- strains ------------------------------------------------------------------

# Factors that turn the stencil rows (d11, d22, d12) into the bending strain
# components (11, 22, 2*12), and the bending stress back into stencil rows.
_SHEAR = np.array([1.0, 1.0, 2.0])[:, None]

# The symmetric 2x2 membrane stress from its components (S11, S22, S12).
_STRESS_MATRIX = np.array([[0, 2], [2, 1]])


def _as_matrix(e: np.ndarray) -> np.ndarray:
    """Symmetric (..., 2, 2) matrices from the components (11, 22, 2*12)."""
    m = np.empty(e.shape[1:] + (2, 2))
    m[..., 0, 0] = e[0]
    m[..., 1, 1] = e[1]
    m[..., 0, 1] = m[..., 1, 0] = 0.5 * e[2]
    return m


def _voigt_matrices(a_inv: np.ndarray, mat: Material, weight: np.ndarray) -> np.ndarray:
    """The (3, 3, points) Voigt matrices of the weighted elasticity tensor."""
    c = voigt_coefficients(a_inv.reshape(-1, 2, 2), mat)
    c *= weight.ravel()
    return c[VOIGT_SYMMETRIC]


def _pull(geom: SurfaceGeometry, fields: int):
    """Minus the geometry fields that the strains subtract, as a
    (3, fields, points) array: entry [v, m] pairs strain component v
    (11, 22, 2*12) with the derivative or average of component m.  The
    fields are Gamma^1, Gamma^2 and (fields = 3) b; None on a flat reference.
    """
    if geom.is_flat:
        return None
    gamma = geom.gamma
    mats = (gamma[..., 0, :, :], gamma[..., 1, :, :], geom.b)[:fields]
    p = np.empty((3, fields) + geom.sqrt_a.shape)
    for m, f in enumerate(mats):
        np.negative(f[..., 0, 0], out=p[0, m])
        np.negative(f[..., 1, 1], out=p[1, m])
        np.multiply(f[..., 0, 1], -2.0, out=p[2, m])
    return p.reshape(3, fields, -1)


def _membrane_strain(g: np.ndarray, pull) -> np.ndarray:
    """Membrane strain components (3, cells) from the stencil block
    g[k, j, cell]: row block k of the membrane stencil applied to component
    j of a displacement u.

    The stencil is the whole membrane_stencil (d1, d2, average), or its
    derivative rows when pull is None (a flat reference).
    """
    du = g[:2, 2]
    if pull is None:
        e = np.zeros((3, g.shape[2]))
    else:
        e = np.einsum("vmc,mc->vc", pull, g[2])
    # z[k, l] = d_k u_l + 1/2 d_k u3 d_l u3; the strain is its symmetric part
    z = du[:, None] * du
    z *= 0.5
    z += g[:2, :2]
    e[:2] += z.reshape(4, -1)[::3]
    e[2] += z[0, 1] + z[1, 0]
    return e


def _bending(op, pull, u3: np.ndarray):
    """Bending strain components (3, nodes) and the stencil rows fb[k, node]
    (ghost closure).  op is the bending stencil, or its second-derivative
    rows when pull is None (a flat reference)."""
    fb = op(u3).reshape(-1, u3.size)
    f = fb[:3] * _SHEAR
    if pull is not None:
        f += np.einsum("vmn,mn->vn", pull, fb[3:])
    return f, fb


def plate_membrane_strain(grid: Grid, u: Displacement) -> np.ndarray:
    """Membrane strain of the flat reference: symmetric gradient plus the
    quadratic transverse term, with no curvature couplings."""
    g = grid.cell_d1_ops(u.block).reshape(2, 3, -1)
    return _as_matrix(_membrane_strain(g, None).reshape((3,) + grid.cell_shape))


# -- the immersion-bound evaluator ---------------------------------------------


@dataclass
class EnergyAssembly:
    """Immersion-bound evaluator of the shell energy and its gradient.

    Immutable after construction.  An evaluation reads u and the fields
    built here.  memb_ops and bend_ops are the grid's stacked strain
    stencils: on a curved reference the whole membrane_stencil and
    bending_stencil, on a flat one their derivative rows cell_d1_ops and
    clamped_d2_ops.  memb and bend are the (3, 3, points) Voigt matrices
    at cell midpoints and at nodes, with the thickness factor, the
    quadrature weight and the area density folded in; memb_pull and
    bend_pull are _pull's fields, None on a flat reference; load is the
    weighted load as a (3, n1, n2) block, wsa and cell_wsa the nodal and
    cell weights times sqrt(a).  Of the geometry it keeps only the nodal
    one (bending, export); the midpoint one is folded into memb fields.
    """

    grid: Grid
    immersion: InitVar[Immersion]
    material: Material
    force: ForceDensity
    geometry: SurfaceGeometry = field(init=False)  # nodal quantities
    cell_wsa: np.ndarray = field(init=False)
    wsa: np.ndarray = field(init=False)
    memb_ops: Stencil = field(init=False)
    bend_ops: Stencil = field(init=False)
    memb: np.ndarray = field(init=False)
    bend: np.ndarray = field(init=False)
    memb_pull: np.ndarray | None = field(init=False)
    bend_pull: np.ndarray | None = field(init=False)
    load: np.ndarray = field(init=False)

    def __post_init__(self, immersion: Immersion):
        mat, grid = self.material, self.grid
        cells = cell_geometry(immersion, grid)
        self.cell_wsa = grid.cell_weight * cells.sqrt_a
        self.memb = _voigt_matrices(cells.a_inv, mat, mat.eps * self.cell_wsa)
        self.memb_pull = _pull(cells, 3)
        del cells
        self.geometry = geometry_field(immersion, grid)
        self.wsa = grid.weights * self.geometry.sqrt_a
        self.bend = _voigt_matrices(self.geometry.a_inv, mat, mat.eps**3 / 3.0 * self.wsa)
        self.bend_pull = _pull(self.geometry, 2)
        # the averages and the first derivatives only where the geometry pulls on them
        self.memb_ops = grid.cell_d1_ops if self.memb_pull is None else grid.membrane_stencil
        self.bend_ops = grid.clamped_d2_ops if self.bend_pull is None else grid.bending_stencil
        self.load = np.stack([self.wsa * p for p in self.force.components()])

    # -- strain fields ------------------------------------------------------

    def membrane_strain(self, u: Displacement) -> np.ndarray:
        """Nonlinear membrane strain E[..., alpha, beta] at cell midpoints."""
        g = self.memb_ops(u.block).reshape(-1, 3, self.grid.num_cells)
        e = _membrane_strain(g, self.memb_pull)
        return _as_matrix(e.reshape((3,) + self.grid.cell_shape))

    def bending_strain(self, u3: np.ndarray) -> np.ndarray:
        """Bending strain F[..., alpha, beta] at nodes (ghost closure)."""
        f = _bending(self.bend_ops, self.bend_pull, u3)[0]
        return _as_matrix(f.reshape((3,) + self.grid.shape))

    # -- energy and gradient -------------------------------------------------

    def energy_and_scale(self, u: Displacement) -> tuple[float, float]:
        return self._evaluate(u, False)[:2]

    def energy(self, u: Displacement) -> float:
        return self.energy_and_scale(u)[0]

    def gradient(self, u: Displacement) -> Displacement:
        """Coefficient gradient of the energy; zero on boundary nodes.

        Satisfies <g, v> = dJ(u)[v] in the plain dot product for every
        clamped v, by construction from the transposed stencils.
        """
        return self._evaluate(u, True)[2]

    def full_evaluation(self, u: Displacement):
        """(energy, energy magnitude, gradient) from one strain evaluation."""
        return self._evaluate(u, True)

    def _evaluate(self, u: Displacement, with_gradient: bool):
        """(energy, magnitude of its terms, gradient or None).

        The roundoff of an energy evaluation is a few ulps of the magnitude,
        not of the (much smaller) value itself; the minimizer needs the
        magnitude to keep line-search comparisons meaningful near
        convergence.  Both quadratic forms are nonnegative, so the magnitude
        is their sum plus the absolute load pairing.

        The quadratic forms are summed by np.sum, pairwise: its rounding
        error stays near one ulp of the magnitude and varies smoothly with
        u, so central differences of the energy over steps of 1e-6 still
        resolve directional derivatives six orders below the magnitude.

        The gradient applies each stack's adjoint once to its stress block:
        rows of g and fb are overwritten with the stress each stencil row
        meets and the adjoint consumes them: one block per stencil at a time.
        """
        grid = self.grid
        prod = self.load * u.block
        load = float(prod.sum())
        load_abs = float(np.abs(prod, out=prod).sum())
        del prod
        g = self.memb_ops(u.block).reshape(-1, 3, grid.num_cells)
        e = _membrane_strain(g, self.memb_pull)
        if not with_gradient:
            del g
        s = np.einsum("uvc,vc->uc", self.memb, e)
        quad = np.sum(np.multiply(e, s, out=e))
        del e
        if with_gradient:
            g[:2, :2] = s[_STRESS_MATRIX]
            g[:2, 2] = np.einsum("klc,lc->kc", g[:2, :2], g[:2, 2])
            if self.memb_pull is not None:
                g[2] = np.einsum("vmc,vc->mc", self.memb_pull, s)
        del s
        if with_gradient:
            grad = self.memb_ops.adjoint(g.reshape(g.shape[:2] + grid.cell_shape))
            del g
        f, fb = _bending(self.bend_ops, self.bend_pull, u.u3)
        sf = np.einsum("uvn,vn->un", self.bend, f)
        quad = 0.5 * (quad + np.sum(np.multiply(f, sf, out=f)))
        energy, scale = float(quad - load), float(quad + load_abs)
        if not with_gradient:
            return energy, scale, None
        del f
        np.multiply(sf, _SHEAR, out=fb[:3])
        if self.bend_pull is not None:
            np.einsum("vmn,vn->mn", self.bend_pull, sf, out=fb[3:])
        del sf
        grad[2] += self.bend_ops.adjoint(fb.reshape((-1,) + grid.shape))
        grad -= self.load
        n1, n2 = grid.shape
        grad[:, :: n1 - 1] = 0.0
        grad[:, :, :: n2 - 1] = 0.0
        return energy, scale, Displacement.wrap(grad)

    def hessian_diagonal_estimate(self) -> Displacement:
        """Positive per-node curvature scales of the quadratic energy part.

        The bending stiffness of u3 exceeds the membrane stiffness of u1, u2
        by orders of magnitude; only the order of magnitude matters here.
        Each node gets sum_r (op_r^2)^T w_r over the cell derivatives (w the
        cell weight times sqrt(a)) and over the clamped d11, d22 and twice
        d12 (w the nodal weight times sqrt(a)).  The minimizer no longer
        uses it (it preconditions with the factorized plate Hessian); the
        benchmark's tracer still times it by name, so it stays until the
        benchmark drops it (ROADMAP item 4).
        """
        grid = self.grid
        mat = self.material
        a00 = self.geometry.a_inv[..., 0, 0]
        amean = float(np.mean((mat.bulk_factor + 4.0 * mat.mu) * a00 * a00))  # A^{0000}
        memb = _squared_adjoint(grid.cell_d1_ops, self.cell_wsa)
        memb *= mat.eps * amean
        bend = _squared_adjoint(grid.clamped_d2_ops,
                                np.array([1.0, 1.0, 2.0])[:, None, None] * self.wsa)
        bend *= (mat.eps**3 / 3.0) * amean
        d = Displacement(memb, memb, memb + bend)
        floor = 1e-12 * max(float(np.max(d.u3)), 1.0)
        np.maximum(d.block, floor, out=d.block)
        return d

    def load_norm(self) -> float:
        return float(np.sqrt(self.force.norm_sums(self.grid)[-1]))


def _squared_adjoint(stencil: Stencil, weight: np.ndarray) -> np.ndarray:
    """sum_r (op_r^2)^T weight_r for the row blocks op_r of a stacked
    stencil: its squared weights at each target point, times the point's
    weight, spread onto the source points of its support."""
    w = stencil.local_weights()
    spread = np.einsum("ra...,r...->a...", w * w, np.broadcast_to(weight, w[:, 0].shape))
    (n1, n2), (t1, t2) = stencil.source, stencil.target
    x = np.zeros(stencil.source)
    for a, (o1, o2) in enumerate(stencil.support):
        lo1, hi1, lo2, hi2 = max(0, -o1), min(t1, n1 - o1), max(0, -o2), min(t2, n2 - o2)
        x[lo1 + o1 : hi1 + o1, lo2 + o2 : hi2 + o2] += spread[a, lo1:hi1, lo2:hi2]
    return x


def make_assembly(
    grid: Grid, immersion: Immersion, material: Material, force: ForceDensity
) -> EnergyAssembly:
    return EnergyAssembly(grid, immersion, material, force)
