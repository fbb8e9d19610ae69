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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elasticity import Material, build_tensor, flat_tensor
from .geometry import Immersion, SurfaceGeometry, cell_geometry, geometry_field
from .grid import Displacement, Grid

_SYM_PAIRS = ((0, 0), (0, 1), (1, 1))


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


# -- strain kernels -----------------------------------------------------------


def _cell_grads(grid: Grid, f: np.ndarray):
    d1, d2 = grid.cell_d1_ops
    return grid.to_cells(d1, f), grid.to_cells(d2, f)


def _cell_symmetric_gradient(grid: Grid, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    d = (_cell_grads(grid, u1), _cell_grads(grid, u2))
    e = np.zeros(grid.cell_shape + (2, 2))
    e[..., 0, 0] = d[0][0]
    e[..., 1, 1] = d[1][1]
    e[..., 0, 1] = 0.5 * (d[0][1] + d[1][0])
    e[..., 1, 0] = e[..., 0, 1]
    return e


def _cell_quadratic(grid: Grid, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """Symmetrized product of transverse cell gradients (the geometric
    nonlinearity of the membrane strain)."""
    du = _cell_grads(grid, u3)
    dv = du if v3 is u3 else _cell_grads(grid, v3)
    q = np.zeros(grid.cell_shape + (2, 2))
    for a, b in _SYM_PAIRS:
        q[..., a, b] = 0.5 * (du[a] * dv[b] + dv[a] * du[b])
    q[..., 1, 0] = q[..., 0, 1]
    return q


def _membrane(grid: Grid, u3: np.ndarray, v: Displacement, coeff: float,
              cgeo: SurfaceGeometry | None) -> np.ndarray:
    """Membrane strain kernel at cell midpoints, linear in v.

    With u3 = v.u3 and coeff = 1/2 the nonlinear strain of v; with u3 = u.u3
    and coeff = 1 the first variation at u in direction v.
    """
    E = _cell_symmetric_gradient(grid, v.u1, v.u2)
    E += coeff * _cell_quadratic(grid, u3, v.u3)
    if cgeo is not None:
        avg = grid.cell_avg_op
        tang = np.stack((grid.to_cells(avg, v.u1), grid.to_cells(avg, v.u2)))
        E -= np.einsum("xysab,sxy->xyab", cgeo.gamma, tang)
        E -= cgeo.b * grid.to_cells(avg, v.u3)[..., None, None]
    return E


def _bending(grid: Grid, u3: np.ndarray, geom: SurfaceGeometry | None) -> np.ndarray:
    ops = grid.clamped_d2_ops
    F = np.zeros(grid.shape + (2, 2))
    F[..., 0, 0] = grid.apply(ops[(1, 1)], u3)
    F[..., 1, 1] = grid.apply(ops[(2, 2)], u3)
    F[..., 0, 1] = grid.apply(ops[(1, 2)], u3)
    F[..., 1, 0] = F[..., 0, 1]
    if geom is not None:
        du = np.stack([grid.apply(p, u3) for p in grid.interior_d1_ops])
        F -= np.einsum("xysab,sxy->xyab", geom.gamma, du)
    return F


def linearized_strain(grid: Grid, u: Displacement) -> np.ndarray:
    """Symmetrized gradient of the tangential components at cell midpoints."""
    return _cell_symmetric_gradient(grid, u.u1, u.u2)


def plate_membrane_strain(grid: Grid, u: Displacement) -> np.ndarray:
    """Membrane strain of the flat reference: symmetric gradient plus the
    quadratic transverse term, with no curvature couplings."""
    return _membrane(grid, u.u3, u, 0.5, None)


def plate_bending_strain(grid: Grid, u3: np.ndarray) -> np.ndarray:
    return _bending(grid, u3, None)


# -- transposed-stencil accumulation ------------------------------------------


def _transpose_membrane(grid: Grid, u: Displacement, SE: np.ndarray,
                        cgeo: SurfaceGeometry | None):
    tops = grid.transposed_ops
    t1, t2 = tops[("cell_d1", 1)], tops[("cell_d1", 2)]

    def tgrad(fa, fb):
        return grid.from_cells(t1, fa) + grid.from_cells(t2, fb)

    g1 = tgrad(SE[..., 0, 0], SE[..., 0, 1])
    g2 = tgrad(SE[..., 1, 0], SE[..., 1, 1])
    du = _cell_grads(grid, u.u3)
    g3 = tgrad(
        SE[..., 0, 0] * du[0] + SE[..., 1, 0] * du[1],
        SE[..., 0, 1] * du[0] + SE[..., 1, 1] * du[1],
    )
    if cgeo is not None:
        tavg = tops["cell_avg"]
        pulled = np.einsum("xysab,xyab->sxy", cgeo.gamma, SE)
        g1 -= grid.from_cells(tavg, pulled[0])
        g2 -= grid.from_cells(tavg, pulled[1])
        g3 -= grid.from_cells(tavg, np.einsum("xyab,xyab->xy", cgeo.b, SE))
    return g1, g2, g3


def _transpose_bending(grid: Grid, SF: np.ndarray, geom: SurfaceGeometry | None):
    tops = grid.transposed_ops
    g3 = grid.apply(tops[("bend", (1, 1))], SF[..., 0, 0])
    g3 += grid.apply(tops[("bend", (2, 2))], SF[..., 1, 1])
    g3 += 2.0 * grid.apply(tops[("bend", (1, 2))], SF[..., 0, 1])
    if geom is not None:
        pulled = np.einsum("xysab,xyab->sxy", geom.gamma, SF)
        t1, t2 = tops[("int_d1", 1)], tops[("int_d1", 2)]
        g3 -= grid.apply(t1, pulled[0]) + grid.apply(t2, pulled[1])
    return g3


# -- the immersion-bound evaluator ---------------------------------------------


@dataclass
class EnergyAssembly:
    """Immersion-bound evaluator of the shell energy and its gradient.

    Immutable after construction; caches the elasticity tensor at both
    collocation sets, the quadrature-times-area weights, and the weighted
    load fields.
    """

    grid: Grid
    geometry: SurfaceGeometry            # nodal quantities (bending, export)
    cell_geom: SurfaceGeometry           # midpoint quantities (membrane)
    material: Material
    force: ForceDensity
    tensor: np.ndarray = field(init=False)
    wsa: np.ndarray = field(init=False)
    _bend_w: np.ndarray = field(init=False)
    _memb_w: np.ndarray = field(init=False)
    _load_w: tuple = field(init=False)

    def __post_init__(self):
        self.tensor = build_tensor(self.geometry.a_inv, self.material)
        self.wsa = self.grid.weights * self.geometry.sqrt_a
        self._bend_w = (self.material.eps**3 / 3.0) * (
            self.wsa[..., None, None, None, None] * self.tensor
        )
        cell_tensor = build_tensor(self.cell_geom.a_inv, self.material)
        cw = self.grid.cell_weight * self.cell_geom.sqrt_a
        self._memb_w = self.material.eps * (cw[..., None, None, None, None] * cell_tensor)
        self._load_w = tuple(self.wsa * p for p in self.force.components())

    # -- strain fields ------------------------------------------------------

    def membrane_strain(self, u: Displacement) -> np.ndarray:
        """Nonlinear membrane strain E[..., alpha, beta] at cell midpoints."""
        return _membrane(self.grid, u.u3, u, 0.5, self.cell_geom)

    def bending_strain(self, u3: np.ndarray) -> np.ndarray:
        """Bending strain F[..., alpha, beta] at nodes (ghost closure)."""
        return _bending(self.grid, u3, self.geometry)

    def first_variation(self, u: Displacement, v: Displacement) -> np.ndarray:
        """Derivative of the membrane strain at u in direction v."""
        return _membrane(self.grid, u.u3, v, 1.0, self.cell_geom)

    # -- energy, gradient, residual ------------------------------------------

    def _energy_terms(self, E: np.ndarray, F: np.ndarray, u: Displacement):
        """Energy value plus the magnitude of its terms before cancellation.

        The roundoff of an energy evaluation is a few ulps of the magnitude,
        not of the (much smaller) value itself; the minimizer needs the
        magnitude to keep line-search comparisons meaningful near
        convergence.  Both quadratic forms are nonnegative, so the magnitude
        is their sum plus the absolute load pairing.
        """
        quad = 0.5 * (
            np.einsum("xyabst,xyst,xyab->", self._bend_w, F, F)
            + np.einsum("xyabst,xyst,xyab->", self._memb_w, E, E)
        )
        load = 0.0
        load_abs = 0.0
        for lw, ui in zip(self._load_w, u.components()):
            prod = lw * ui
            load += float(np.sum(prod))
            load_abs += float(np.sum(np.abs(prod)))
        return float(quad - load), float(quad + load_abs)

    def energy_and_scale(self, u: Displacement) -> tuple[float, float]:
        return self._energy_terms(self.membrane_strain(u), self.bending_strain(u.u3), u)

    def _gradient_from(self, E: np.ndarray, F: np.ndarray, u: Displacement) -> Displacement:
        grid = self.grid
        SE = np.einsum("xyabst,xyst->xyab", self._memb_w, E)
        SF = np.einsum("xyabst,xyst->xyab", self._bend_w, F)
        g1, g2, g3 = _transpose_membrane(grid, u, SE, self.cell_geom)
        g3 += _transpose_bending(grid, SF, self.geometry)
        g = Displacement(g1 - self._load_w[0], g2 - self._load_w[1], g3 - self._load_w[2])
        for comp in g.components():
            comp[~grid.interior] = 0.0
        return g

    def energy(self, u: Displacement) -> float:
        return self.energy_and_scale(u)[0]

    def gradient(self, u: Displacement) -> Displacement:
        """Coefficient gradient of the energy; zero on boundary nodes.

        Satisfies <g, v> = dJ(u)[v] in the plain dot product for every
        clamped v, by construction from the transposed stencils.
        """
        return self._gradient_from(self.membrane_strain(u), self.bending_strain(u.u3), u)

    def full_evaluation(self, u: Displacement):
        """(energy, energy magnitude, gradient) from one strain evaluation."""
        E = self.membrane_strain(u)
        F = self.bending_strain(u.u3)
        f, scale = self._energy_terms(E, F, u)
        return f, scale, self._gradient_from(E, F, u)

    def directional_derivative(self, u: Displacement, v: Displacement) -> float:
        """First variation of the energy at u in direction v (direct form)."""
        E = self.membrane_strain(u)
        F = self.bending_strain(u.u3)
        Ep = self.first_variation(u, v)
        Fv = self.bending_strain(v.u3)
        val = np.einsum("xyabst,xyst,xyab->", self._bend_w, F, Fv)
        val += np.einsum("xyabst,xyst,xyab->", self._memb_w, E, Ep)
        val -= sum(np.sum(lw * vi) for lw, vi in zip(self._load_w, v.components()))
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
        amean = float(np.mean(self.tensor[..., 0, 0, 0, 0]))
        cw = grid.cell_weight * self.cell_geom.sqrt_a
        d1c, d2c = grid.cell_d1_ops
        memb = np.zeros(grid.num_nodes)
        for op in (d1c, d2c):
            memb += op.power(2).T @ cw.ravel()
        memb *= self.material.eps * amean
        bend = np.zeros(grid.num_nodes)
        ops = grid.clamped_d2_ops
        wsa = self.wsa.ravel()
        for key, mult in (((1, 1), 1.0), ((2, 2), 1.0), ((1, 2), 2.0)):
            bend += mult * (ops[key].power(2).T @ wsa)
        bend *= (self.material.eps**3 / 3.0) * amean
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
    a0 = flat_tensor(mat)
    E = plate_membrane_strain(grid, u)
    F = plate_bending_strain(grid, u.u3)
    w = grid.weights
    quad = 0.5 * (
        (mat.eps**3 / 3.0) * np.einsum("xy,abst,xyst,xyab->", w, a0, F, F)
        + mat.eps * grid.cell_weight * np.einsum("abst,xyst,xyab->", a0, E, E)
    )
    load = sum(np.sum(w * p * ui) for p, ui in zip(force.components(), u.components()))
    return float(quad - load)


def plate_gradient(grid: Grid, mat: Material, force: ForceDensity, u: Displacement) -> Displacement:
    a0 = flat_tensor(mat)
    w = grid.weights
    E = plate_membrane_strain(grid, u)
    F = plate_bending_strain(grid, u.u3)
    SE = mat.eps * grid.cell_weight * np.einsum("abst,xyst->xyab", a0, E)
    SF = (mat.eps**3 / 3.0) * np.einsum("xy,abst,xyst->xyab", w, a0, F)
    g1, g2, g3 = _transpose_membrane(grid, u, SE, None)
    g3 += _transpose_bending(grid, SF, None)
    g = Displacement(g1 - w * force.p1, g2 - w * force.p2, g3 - w * force.p3)
    for comp in g.components():
        comp[~grid.interior] = 0.0
    return g
