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

One kernel evaluates every path, the flat plate included.  Strains and
stresses are (3, ...) arrays of the components (11, 22, 12), the shear strain
stored doubled (2 E_12), so the quadratic form A^{abst} E_st E_ab is e . C e
with the six Voigt coefficients of elasticity.voigt_coefficients, and every
pairing of a stress with a strain variation is a plain sum of componentwise
products.  Each stencil is applied once to a column block of all the fields
that share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .elasticity import Material, voigt_coefficients
from .geometry import Immersion, SurfaceGeometry, cell_geometry, geometry_field
from .grid import Displacement, Grid


@dataclass
class ForceDensity:
    """Applied force per unit area, sampled at the grid nodes.

    No smallness or sign restriction applies; in particular the tangential
    components may be arbitrary.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray

    def components(self):
        return (self.p1, self.p2, self.p3)

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
        for comp in coeffs:
            c = list(comp) + [0.0] * (6 - len(comp))
            if len(c) > 6:
                raise ValueError("polynomial force takes at most 6 coefficients")
            fields.append(sum(ci * bi for ci, bi in zip(c, basis)))
        return cls(*fields)

    @classmethod
    def gaussian_bump(cls, grid: Grid, amps, center, sigma: float) -> "ForceDensity":
        if sigma <= 0:
            raise ValueError("gaussian bump width must be positive")
        r2 = (grid.y1 - center[0]) ** 2 + (grid.y2 - center[1]) ** 2
        bump = np.exp(-0.5 * r2 / sigma**2)
        return cls(amps[0] * bump, amps[1] * bump, amps[2] * bump)

    @classmethod
    def from_catalog(cls, grid: Grid, kind: str, params: dict) -> "ForceDensity":
        if kind == "constant":
            return cls.constant(
                grid,
                float(params.get("p1", 0.0)),
                float(params.get("p2", 0.0)),
                float(params.get("p3", 0.0)),
            )
        if kind == "polynomial":
            return cls.polynomial(
                grid,
                (
                    params.get("p1_coeffs", ()),
                    params.get("p2_coeffs", ()),
                    params.get("p3_coeffs", ()),
                ),
            )
        if kind == "gaussian_bump":
            return cls.gaussian_bump(
                grid,
                (
                    float(params.get("amp1", 0.0)),
                    float(params.get("amp2", 0.0)),
                    float(params.get("amp3", 0.0)),
                ),
                (float(params.get("center1", 0.5)), float(params.get("center2", 0.5))),
                float(params.get("sigma", 0.1)),
            )
        raise ValueError(f"unknown force kind {kind!r}")


# -- the component kernel -------------------------------------------------------


def _columns(fields) -> np.ndarray:
    """The fields as the columns of one (n, k) block."""
    return np.column_stack([f.ravel() for f in fields])


def _block(op, x: np.ndarray, shape) -> np.ndarray:
    """op applied to every column of the block x in one sparse product, as a
    (k, *shape) array of strided rows.  Column k of a block product is op @
    x[:, k] bit for bit."""
    return (op @ x).T.reshape((x.shape[1],) + shape)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise pairing sum_k a_k b_k of two component arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _stress(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Stress components (S11, S22, S12) = C e from the six coefficient fields."""
    c11, c22, c33, c12, c13, c23 = c
    return np.array((
        c11 * e[0] + c12 * e[1] + c13 * e[2],
        c12 * e[0] + c22 * e[1] + c23 * e[2],
        c13 * e[0] + c23 * e[1] + c33 * e[2],
    ))


def _as_matrix(e: np.ndarray) -> np.ndarray:
    """Symmetric (..., 2, 2) matrices from the components (11, 22, 2*12)."""
    m = np.empty(e.shape[1:] + (2, 2))
    m[..., 0, 0] = e[0]
    m[..., 1, 1] = e[1]
    m[..., 0, 1] = m[..., 1, 0] = 0.5 * e[2]
    return m


def _pull_fields(geom: SurfaceGeometry):
    """Components (11, 22, 2*12) of Gamma^1, Gamma^2 and b; None when flat."""
    if geom.is_flat:
        return None
    gamma = geom.gamma
    return tuple(
        np.stack((m[..., 0, 0], m[..., 1, 1], 2.0 * m[..., 0, 1]))
        for m in (gamma[..., 0, :, :], gamma[..., 1, :, :], geom.b)
    )


def _membrane(grid: Grid, v: Displacement, pull, coeff: float = 0.5, du=None):
    """Membrane strain components at cell midpoints, linear in v, and the
    cell gradient of v.u3.

    du is the cell gradient of a transverse field (default: that of v.u3).
    With coeff = 1/2 and the default the nonlinear strain of v; with du
    from u.u3 and coeff = 1 the first variation at u in direction v; with
    coeff = 0 the linearized strain.  pull holds the geometry fields
    (_pull_fields), None on a flat reference.
    """
    d1, d2 = grid.cell_d1_ops
    x = _columns(v.components())
    g1 = _block(d1, x, grid.cell_shape)
    g2 = _block(d2, x, grid.cell_shape)
    dv = (g1[2], g2[2])
    if du is None:
        du = dv
    e = np.array((
        g1[0] + coeff * (du[0] * dv[0]),
        g2[1] + coeff * (du[1] * dv[1]),
        (g2[0] + g1[1]) + coeff * (du[0] * dv[1] + dv[0] * du[1]),
    ))
    if pull is not None:
        avg = _block(grid.cell_avg_op, x, grid.cell_shape)
        for p, a in zip(pull, avg):
            e -= p * a
    return e, dv


def _bending(grid: Grid, u3: np.ndarray, pull) -> np.ndarray:
    """Bending strain components at nodes (ghost closure); pull holds the
    Christoffel fields, None on a flat reference."""
    ops = grid.clamped_d2_ops
    f = np.array([grid.apply(ops[key], u3) for key in ((1, 1), (2, 2), (1, 2))])
    f[2] *= 2.0
    if pull is not None:
        d1, d2 = (grid.apply(op, u3) for op in grid.interior_d1_ops)
        f -= pull[0] * d1 + pull[1] * d2
    return f


def _transpose(grid: Grid, s: np.ndarray, du, sf: np.ndarray, memb_pull, bend_pull):
    """Gradient of the quadratic energy, (3, *shape): the strain stencils
    transposed against the membrane stress s and the bending stress sf."""
    tops = grid.transposed_ops
    s11, s22, s12 = s
    x1 = _columns((s11, s12, s11 * du[0] + s12 * du[1]))
    x2 = _columns((s12, s22, s12 * du[0] + s22 * du[1]))
    g = _block(tops[("cell_d1", 1)], x1, grid.shape) + _block(tops[("cell_d1", 2)], x2, grid.shape)
    if memb_pull is not None:
        g -= _block(tops["cell_avg"], _columns([_pair(p, s) for p in memb_pull]), grid.shape)
    g3 = g[2]
    g3 += grid.apply(tops[("bend", (1, 1))], sf[0])
    g3 += grid.apply(tops[("bend", (2, 2))], sf[1])
    g3 += 2.0 * grid.apply(tops[("bend", (1, 2))], sf[2])
    if bend_pull is not None:
        t1, t2 = tops[("int_d1", 1)], tops[("int_d1", 2)]
        g3 -= grid.apply(t1, _pair(bend_pull[0], sf)) + grid.apply(t2, _pair(bend_pull[1], sf))
    return g


class _Kernel(NamedTuple):
    """Everything an evaluation reads besides u.

    memb and bend are the Voigt coefficient fields at cell midpoints and at
    nodes, with the thickness factor, the quadrature weight and the area
    density folded in; memb_pull (Gamma^1, Gamma^2, b) and bend_pull
    (Gamma^1, Gamma^2) are None on a flat reference; load is the three
    weighted load fields.
    """

    grid: Grid
    memb: np.ndarray
    bend: np.ndarray
    memb_pull: tuple | None
    bend_pull: tuple | None
    load: np.ndarray

    def strains(self, u: Displacement):
        e, du = _membrane(self.grid, u, self.memb_pull)
        return e, du, _bending(self.grid, u.u3, self.bend_pull)

    def evaluate(self, u: Displacement, with_gradient: bool):
        """(energy, magnitude of its terms, gradient or None).

        The roundoff of an energy evaluation is a few ulps of the magnitude,
        not of the (much smaller) value itself; the minimizer needs the
        magnitude to keep line-search comparisons meaningful near
        convergence.  Both quadratic forms are nonnegative, so the magnitude
        is their sum plus the absolute load pairing.
        """
        e, du, f = self.strains(u)
        s = _stress(self.memb, e)
        sf = _stress(self.bend, f)
        quad = 0.5 * (np.sum(sf * f) + np.sum(s * e))
        load = 0.0
        load_abs = 0.0
        for lw, ui in zip(self.load, u.components()):
            prod = lw * ui
            load += float(np.sum(prod))
            load_abs += float(np.sum(np.abs(prod)))
        if not with_gradient:
            return float(quad - load), float(quad + load_abs), None
        g = _transpose(self.grid, s, du, sf, self.memb_pull, self.bend_pull)
        g -= self.load
        g[:, [0, -1], :] = 0.0
        g[:, :, [0, -1]] = 0.0
        return float(quad - load), float(quad + load_abs), Displacement(*g)


def _flat_kernel(grid: Grid, mat: Material, force: ForceDensity) -> _Kernel:
    """The kernel of the flat reference: constant coefficients, no geometry."""
    a0 = voigt_coefficients(np.eye(2), mat)[:, None, None]
    w = grid.weights
    return _Kernel(grid, (mat.eps * grid.cell_weight) * a0, (mat.eps**3 / 3.0 * w) * a0,
                   None, None, np.stack([w * p for p in force.components()]))


def linearized_strain(grid: Grid, u: Displacement) -> np.ndarray:
    """Symmetrized gradient of the tangential components at cell midpoints."""
    return _as_matrix(_membrane(grid, u, None, 0.0)[0])


def plate_membrane_strain(grid: Grid, u: Displacement) -> np.ndarray:
    """Membrane strain of the flat reference: symmetric gradient plus the
    quadratic transverse term, with no curvature couplings."""
    return _as_matrix(_membrane(grid, u, None)[0])


def plate_bending_strain(grid: Grid, u3: np.ndarray) -> np.ndarray:
    return _as_matrix(_bending(grid, u3, None))


# -- the immersion-bound evaluator ---------------------------------------------


@dataclass
class EnergyAssembly:
    """Immersion-bound evaluator of the shell energy and its gradient.

    Immutable after construction; caches the six Voigt coefficient fields
    at both collocation sets (weights folded in), the geometry fields the
    strains subtract, and the weighted load fields.
    """

    grid: Grid
    geometry: SurfaceGeometry            # nodal quantities (bending, export)
    cell_geom: SurfaceGeometry           # midpoint quantities (membrane)
    material: Material
    force: ForceDensity
    wsa: np.ndarray = field(init=False)
    _kernel: _Kernel = field(init=False)

    def __post_init__(self):
        mat = self.material
        self.wsa = self.grid.weights * self.geometry.sqrt_a
        cw = self.grid.cell_weight * self.cell_geom.sqrt_a
        bend_pull = _pull_fields(self.geometry)
        self._kernel = _Kernel(
            self.grid,
            (mat.eps * cw) * voigt_coefficients(self.cell_geom.a_inv, mat),
            (mat.eps**3 / 3.0 * self.wsa) * voigt_coefficients(self.geometry.a_inv, mat),
            _pull_fields(self.cell_geom),
            None if bend_pull is None else bend_pull[:2],
            np.stack([self.wsa * p for p in self.force.components()]),
        )

    # -- strain fields ------------------------------------------------------

    def membrane_strain(self, u: Displacement) -> np.ndarray:
        """Nonlinear membrane strain E[..., alpha, beta] at cell midpoints."""
        return _as_matrix(_membrane(self.grid, u, self._kernel.memb_pull)[0])

    def bending_strain(self, u3: np.ndarray) -> np.ndarray:
        """Bending strain F[..., alpha, beta] at nodes (ghost closure)."""
        return _as_matrix(_bending(self.grid, u3, self._kernel.bend_pull))

    def first_variation(self, u: Displacement, v: Displacement) -> np.ndarray:
        """Derivative of the membrane strain at u in direction v."""
        du = tuple(self.grid.to_cells(op, u.u3) for op in self.grid.cell_d1_ops)
        return _as_matrix(_membrane(self.grid, v, self._kernel.memb_pull, 1.0, du)[0])

    # -- energy, gradient, residual ------------------------------------------

    def energy_and_scale(self, u: Displacement) -> tuple[float, float]:
        return self._kernel.evaluate(u, False)[:2]

    def energy(self, u: Displacement) -> float:
        return self.energy_and_scale(u)[0]

    def gradient(self, u: Displacement) -> Displacement:
        """Coefficient gradient of the energy; zero on boundary nodes.

        Satisfies <g, v> = dJ(u)[v] in the plain dot product for every
        clamped v, by construction from the transposed stencils.
        """
        return self._kernel.evaluate(u, True)[2]

    def full_evaluation(self, u: Displacement):
        """(energy, energy magnitude, gradient) from one strain evaluation."""
        return self._kernel.evaluate(u, True)

    def directional_derivative(self, u: Displacement, v: Displacement) -> float:
        """First variation of the energy at u in direction v (direct form)."""
        k = self._kernel
        e, du, f = k.strains(u)
        ep, _ = _membrane(self.grid, v, k.memb_pull, 1.0, du)
        fv = _bending(self.grid, v.u3, k.bend_pull)
        val = np.sum(_stress(k.bend, f) * fv) + np.sum(_stress(k.memb, e) * ep)
        val -= sum(np.sum(lw * vi) for lw, vi in zip(k.load, v.components()))
        return float(val)

    def residual_norm(self, u: Displacement) -> float:
        g = self.gradient(u)
        return _weighted_residual(self.grid, g)

    def hessian_diagonal_estimate(self) -> Displacement:
        """Positive per-node curvature scales of the quadratic energy part.

        The bending stiffness of u3 exceeds the membrane stiffness of u1, u2
        by orders of magnitude; only the order of magnitude matters here.
        The minimizer no longer uses it (it preconditions with the
        factorized plate Hessian); the benchmark's tracer still times it by
        name, so it stays until the benchmark drops it (ROADMAP item 4).
        """
        grid = self.grid
        mat = self.material
        a00 = self.geometry.a_inv[..., 0, 0]
        amean = float(np.mean((mat.bulk_factor + 4.0 * mat.mu) * a00 * a00))  # A^{0000}
        cw = grid.cell_weight * self.cell_geom.sqrt_a
        d1c, d2c = grid.cell_d1_ops
        memb = np.zeros(grid.num_nodes)
        for op in (d1c, d2c):
            memb += op.power(2).T @ cw.ravel()
        memb *= mat.eps * amean
        bend = np.zeros(grid.num_nodes)
        ops = grid.clamped_d2_ops
        wsa = self.wsa.ravel()
        for key, mult in (((1, 1), 1.0), ((2, 2), 1.0), ((1, 2), 2.0)):
            bend += mult * (ops[key].power(2).T @ wsa)
        bend *= (mat.eps**3 / 3.0) * amean
        d = Displacement(
            memb.reshape(grid.shape).copy(),
            memb.reshape(grid.shape).copy(),
            (memb + bend).reshape(grid.shape),
        )
        floor = 1e-12 * max(float(np.max(d.u3)), 1.0)
        for comp in d.components():
            np.maximum(comp, floor, out=comp)
        return d

    def load_norm(self) -> float:
        return float(
            np.sqrt(
                sum(np.sum(self.grid.weights * p * p) for p in self.force.components())
            )
        )


def make_assembly(
    grid: Grid, immersion: Immersion, material: Material, force: ForceDensity
) -> EnergyAssembly:
    return EnergyAssembly(
        grid,
        geometry_field(immersion, grid),
        cell_geometry(immersion, grid),
        material,
        force,
    )


def _weighted_residual(grid: Grid, g: Displacement) -> float:
    """Residual norm of a coefficient gradient: sqrt(sum g^2 / w) over the nodes."""
    w = grid.weights
    return float(np.sqrt(sum(np.sum(c * c / w) for c in g.components())))


# -- dedicated plate path (flat reference energy) -------------------------------


def plate_energy(grid: Grid, mat: Material, force: ForceDensity, u: Displacement) -> float:
    """Energy of the flat reference model, assembled without any geometry.

    Same stencils and quadrature as the shell path; this is the reduction
    target the shell energy must reproduce at the plate immersion.
    """
    return _flat_kernel(grid, mat, force).evaluate(u, False)[0]


def plate_gradient(grid: Grid, mat: Material, force: ForceDensity, u: Displacement) -> Displacement:
    return _flat_kernel(grid, mat, force).evaluate(u, True)[2]
