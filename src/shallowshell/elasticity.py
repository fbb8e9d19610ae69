"""Two-dimensional elasticity tensor of the shallow-shell energy.

The tensor couples the contravariant metric of the middle surface with two
material coefficients.  Besides building and contracting it, this module
verifies its positive-definiteness empirically through the smallest
eigenvalue of its Voigt representation, which is the coercivity constant the
whole energy argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceGeometry

@dataclass(frozen=True)
class Material:
    """Elastic coefficients and half-thickness of the shell."""

    lam: float
    mu: float
    eps: float

    def __post_init__(self):
        for key, value in (("lambda", self.lam), ("mu", self.mu), ("eps", self.eps)):
            if not np.isfinite(value):
                raise ValueError(f"{key}: must be finite")
        if self.lam < 0:
            raise ValueError("lambda: must be >= 0")
        if self.mu <= 0:
            raise ValueError("mu: must be > 0")
        if self.eps <= 0:
            raise ValueError("eps: half-thickness must be > 0")

    @property
    def bulk_factor(self) -> float:
        return 4.0 * self.lam * self.mu / (self.lam + 2.0 * self.mu)


def build_tensor(a_inv: np.ndarray, mat: Material) -> np.ndarray:
    """Elasticity tensor A^{abst} from the inverse metric.

    Works pointwise (input shape (2, 2)) or on node fields (..., 2, 2); the
    result gains four trailing tensor indices.  All 16 components are
    stored: this is the reference form that the checks and tests compare
    against.  The energy exploits the symmetries through
    voigt_coefficients instead.
    """
    c = mat.bulk_factor
    term_bulk = c * np.einsum("...ab,...st->...abst", a_inv, a_inv)
    term_shear = 2.0 * mat.mu * (
        np.einsum("...as,...bt->...abst", a_inv, a_inv)
        + np.einsum("...at,...bs->...abst", a_inv, a_inv)
    )
    return term_bulk + term_shear


# voigt_coefficients(a_inv, mat)[VOIGT_SYMMETRIC] is the symmetric 3x3 matrix.
VOIGT_SYMMETRIC = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


def voigt_coefficients(a_inv: np.ndarray, mat: Material) -> np.ndarray:
    """The six distinct components of A^{abst}, built straight from a_inv.

    Order (A^{0000}, A^{1111}, A^{0101}, A^{0011}, A^{0001}, A^{1101}): the
    entries of the symmetric 3x3 matrix of the quadratic form A:e:e in the
    components (e11, e22, 2 e12), stacked on a new leading axis; indexing
    with VOIGT_SYMMETRIC gives the matrix itself.
    """
    c, mu = mat.bulk_factor, mat.mu
    a00, a11, a01 = a_inv[..., 0, 0], a_inv[..., 1, 1], a_inv[..., 0, 1]
    return np.stack((
        (c + 4.0 * mu) * a00 * a00,
        (c + 4.0 * mu) * a11 * a11,
        c * a01 * a01 + 2.0 * mu * (a00 * a11 + a01 * a01),
        c * a00 * a11 + 4.0 * mu * a01 * a01,
        (c + 4.0 * mu) * a00 * a01,
        (c + 4.0 * mu) * a11 * a01,
    ))


def flat_tensor(mat: Material) -> np.ndarray:
    """The plate tensor: the elasticity tensor at the Euclidean metric."""
    return build_tensor(np.eye(2), mat)


def flat_voigt(mat: Material) -> np.ndarray:
    """The 3x3 Voigt matrix of the plate tensor in (e11, e22, 2 e12)."""
    return voigt_coefficients(np.eye(2), mat)[VOIGT_SYMMETRIC]


def contract(tensor: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Full contraction A^{abst} s_{st} t_{ab}; bilinear and symmetric."""
    return np.einsum("...abst,...st,...ab->...", tensor, s, t)


def trace_decomposition(a_inv: np.ndarray, s: np.ndarray, mat: Material):
    """Split the elastic quadratic form at strain s into two traces.

    Returns (isotropic, deviatoric): the bulk factor times the squared
    metric trace of s, and 4 mu times the trace of the squared shape matrix
    m = a_inv s.  Their sum equals contract(build_tensor(a_inv, mat), s, s);
    at the plate metric the deviatoric part reduces to 4 mu times the
    Frobenius norm of s.
    """
    m = np.einsum("...sa,...ab->...sb", a_inv, s)
    tr = m[..., 0, 0] + m[..., 1, 1]
    iso = mat.bulk_factor * tr**2
    dev = 4.0 * mat.mu * np.einsum("...ab,...ba->...", m, m)
    return iso, dev


def positivity_gap(field: SurfaceGeometry, mat: Material) -> float:
    """Empirical coercivity constant of the weighted elasticity tensor.

    Minimum over nodes of the smallest eigenvalue of the Voigt matrix of
    A^{abst} sqrt(a); a positive value realizes the positive-definiteness
    bound with the area density included.
    """
    c00, c11, cs, c01, c0s, c1s = voigt_coefficients(field.a_inv, mat) * field.sqrt_a
    # the Voigt matrix in the basis (t11, t22, sqrt(2) t12), whose Euclidean
    # norm is the componentwise sum of squares over the symmetric 2x2 strain
    r2 = np.sqrt(2.0)
    rows = ((c00, c01, r2 * c0s), (c01, c11, r2 * c1s), (r2 * c0s, r2 * c1s, 2.0 * cs))
    eigs = np.linalg.eigvalsh(np.stack([np.stack(r, axis=-1) for r in rows], axis=-2))
    gap = float(eigs.min())
    if gap <= 0:
        raise RuntimeError(
            "elasticity tensor lost positive-definiteness "
            f"(min eigenvalue {gap:g}); geometry and material are inconsistent"
        )
    return gap
