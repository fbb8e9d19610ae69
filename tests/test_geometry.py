import numpy as np
import pytest

from shallowshell import (
    Grid,
    Immersion,
    ImmersionError,
    c2_distance,
    cell_geometry,
    christoffel_from_metric,
    geometry_field,
)
from shallowshell.geometry import (
    _christoffel,
    _curvature,
    _metric,
    _normal,
    _second_form,
    _stack,
    surface_quantities,
)
from shallowshell.verification import CATALOG_SAMPLES, check_geometry_derivatives


def test_plate_point_evaluation():
    value, grad, hess = Immersion("plate").evaluate((0.3, 0.7))
    assert np.array_equal(value, [0.3, 0.7, 0.0])
    assert np.array_equal(grad[0], [1.0, 0.0, 0.0])
    assert np.array_equal(grad[1], [0.0, 1.0, 0.0])
    assert np.all(hess == 0.0)


def test_paraboloid_derivatives_match_hand_values():
    imm = Immersion("paraboloid", params={"t": 0.1})
    _, grad, hess = imm.evaluate((1.0, 0.0))
    assert np.allclose(grad[0], [1.0, 0.0, 0.1], atol=0)
    assert np.allclose(grad[1], [0.0, 1.0, 0.0], atol=0)
    assert np.allclose(hess[0, 0], [0.0, 0.0, 0.1], atol=0)
    # cross-check against central differences at an interior point
    y0 = np.array([0.7, 0.3])
    _, grad_in, _ = imm.evaluate(y0)
    h = 1e-5
    for alpha, step in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        vp = imm.evaluate(y0 + step)[0]
        vm = imm.evaluate(y0 - step)[0]
        fd = (vp - vm) / (2 * h)
        assert np.linalg.norm(fd - grad_in[alpha]) < 1e-9


def test_paraboloid_gradient_vanishes_at_origin():
    for t in (0.05, 0.3, 2.0):
        _, grad, _ = Immersion("paraboloid", params={"t": t}).evaluate((0.0, 0.0))
        assert np.array_equal(grad[0], [1.0, 0.0, 0.0])
        assert np.array_equal(grad[1], [0.0, 1.0, 0.0])


def test_point_outside_domain_rejected():
    imm = Immersion("paraboloid", params={"t": 0.1})
    with pytest.raises(ValueError, match="outside"):
        imm.evaluate((1.5, 0.2))


def test_unknown_kind_and_param_rejected():
    with pytest.raises(ValueError, match="unknown immersion kind"):
        Immersion("sphere")
    with pytest.raises(ValueError, match="unknown parameter"):
        Immersion("paraboloid", params={"curvature": 1.0})


def test_unit_normal_values():
    # b is the unit normal against the Hessian: on the paraboloid at (1, 0)
    # the normal is (-0.1, 0, 1)/sqrt(1.01) and the straight second
    # derivatives (0, 0, 0.1); on the cylinder it is (-sin, 0, cos)(t y1),
    # so b11 = t
    _, _, b, _, _, _ = surface_quantities(Immersion("plate"), (0.4, 0.4))
    assert np.array_equal(b, np.zeros((2, 2))) and not np.any(np.signbit(b))
    _, _, b, _, _, _ = surface_quantities(Immersion("paraboloid", params={"t": 0.1}), (1.0, 0.0))
    assert abs(b[0, 0] - 0.1 / np.sqrt(1.01)) < 1e-15
    assert b[1, 1] == b[0, 0] and b[0, 1] == b[1, 0] == 0.0
    _, _, b, _, _, _ = surface_quantities(Immersion("cylinder_patch", params={"t": 0.4}), (0.7, 0.2))
    assert abs(b[0, 0] - 0.4) < 1e-15


def _with_tangents(monkeypatch, grad):
    """Immersion._planes with the tangent planes replaced by `grad`."""
    planes = Immersion._planes

    def replaced(self, y1, y2):
        value, _, hess = planes(self, y1, y2)
        return value, grad, hess

    monkeypatch.setattr(Immersion, "_planes", replaced)


def test_unit_normal_degenerate_tangents(monkeypatch):
    _with_tangents(monkeypatch, ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    with pytest.raises(ImmersionError, match="degenerate"):
        surface_quantities(Immersion("plate"), (0.5, 0.5))


def test_fundamental_forms_plate_and_paraboloid():
    a, a_inv, b, _, sqrt_a, _ = surface_quantities(Immersion("plate"), (0.2, 0.9))
    assert np.array_equal(a, np.eye(2))
    assert np.array_equal(a_inv, np.eye(2))
    assert sqrt_a == 1.0
    assert np.all(b == 0.0)

    imm = Immersion("paraboloid", params={"t": 0.1})
    a, a_inv, b, _, sqrt_a, _ = surface_quantities(imm, (1.0, 0.0))
    assert abs(a[0, 0] - 1.01) < 1e-15
    assert a[0, 1] == 0.0
    assert a[1, 1] == 1.0
    assert abs(sqrt_a - np.sqrt(1.01)) < 1e-15

    # at the origin b reduces to t times the identity
    for t in (0.1, 0.7):
        _, _, b, _, _, _ = surface_quantities(Immersion("paraboloid", params={"t": t}), (0.0, 0.0))
        assert np.allclose(b, t * np.eye(2), atol=1e-16)


def test_christoffel_value_and_symmetry():
    imm = Immersion("paraboloid", params={"t": 0.1})
    gamma = surface_quantities(imm, (1.0, 0.0))[3]
    assert abs(gamma[0, 0, 0] - 0.01 / 1.01) < 1e-15

    rng = np.random.default_rng(5)
    for imm in CATALOG_SAMPLES:
        pts = np.column_stack([rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)])
        gamma = surface_quantities(imm, pts)[3]
        assert np.array_equal(gamma[..., 0, 1], gamma[..., 1, 0])


def test_christoffel_against_metric_only_formula():
    rng = np.random.default_rng(6)
    for imm in CATALOG_SAMPLES:
        pts = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)])
        _, grad, hess = imm.evaluate(pts)
        _, a_inv, _, direct, _, _ = surface_quantities(imm, pts)
        koszul = christoffel_from_metric(grad, hess, a_inv)
        assert np.max(np.abs(direct - koszul)) < 1e-10


def test_gaussian_curvature_cases():
    assert surface_quantities(Immersion("plate"), (0.5, 0.5))[5] == 0.0

    for t in (0.1, 0.5):
        K = surface_quantities(Immersion("paraboloid", params={"t": t}), (0.0, 0.0))[5]
        assert abs(K - t * t) < 1e-15

    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("cylinder_patch", params={"t": 0.4}), grid)
    assert np.max(np.abs(geom.K)) == 0.0


def test_geometry_field_plate_and_degenerate_limit():
    grid = Grid(1.0, 1.0, 5, 5)
    geom = geometry_field(Immersion("plate"), grid)
    assert np.all(geom.K == 0.0)
    assert geom.is_flat

    flat = geometry_field(Immersion("paraboloid", params={"t": 0.0}), grid)
    for name in ("a", "a_inv", "b", "gamma", "sqrt_a", "K"):
        assert np.array_equal(getattr(flat, name), getattr(geom, name))


def test_geometry_field_paraboloid_curvature_closed_form():
    grid = Grid(1.0, 1.0, 9, 9)
    t = 0.1
    geom = geometry_field(Immersion("paraboloid", params={"t": t}), grid)
    r2 = grid.y1**2 + grid.y2**2
    exact = t * t / (1.0 + t * t * r2) ** 2
    assert np.max(np.abs(geom.K - exact)) <= 1e-12


def test_geometry_field_domain_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        geometry_field(Immersion("plate", L1=2.0), Grid(1.0, 1.0, 9, 9))


def test_metric_inverse_identity_on_grid():
    grid = Grid(1.0, 1.0, 9, 9)
    for imm in CATALOG_SAMPLES:
        geom = geometry_field(imm, grid)
        prod = np.einsum("xyab,xybc->xyac", geom.a, geom.a_inv)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-13


def test_c2_distance_examples():
    grid = Grid(1.0, 1.0, 33, 33)
    plate = Immersion("plate")
    par = Immersion("paraboloid", params={"t": 0.1})
    assert c2_distance(par, par, grid) == 0.0
    # sup attained at the far corner: 0.1 value, two 0.1 first-derivative
    # norms, two 0.1 straight second derivatives, zero mixed
    assert abs(c2_distance(par, plate, grid) - 0.5) < 1e-14

    # linear scaling in the family parameter: distance = 5t on this domain
    d1 = c2_distance(par.with_scale(0.2), plate, grid)
    d2 = c2_distance(par.with_scale(0.05), plate, grid)
    assert abs(d1 - 1.0) < 1e-13 and abs(d2 - 0.25) < 1e-13


def test_c2_distance_monotone_in_scale():
    grid = Grid(1.0, 1.0, 17, 17)
    plate = Immersion("plate")
    for kind in ("paraboloid", "cylinder_patch", "sinusoidal_bump"):
        fam = Immersion(kind, params={"t": 1.0})
        dists = [c2_distance(fam.with_scale(t), plate, grid)
                 for t in (0.2, 0.1, 0.05, 0.025, 0.0125, 0.0)]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] == 0.0


def test_c2_distance_domain_mismatch():
    with pytest.raises(ValueError, match="different domains"):
        c2_distance(Immersion("plate", L1=2.0), Immersion("plate"), Grid(1, 1, 9, 9))


def test_analytic_derivatives_vs_richardson_fd():
    result = check_geometry_derivatives()
    assert result.passed, result.line()


def test_hessian_symmetric_identically():
    rng = np.random.default_rng(8)
    for imm in CATALOG_SAMPLES:
        pts = np.column_stack([rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)])
        _, _, hess = imm.evaluate(pts)
        assert np.array_equal(hess[..., 0, 1, :], hess[..., 1, 0, :])


def test_with_scale_family_and_plate_guard():
    fam = Immersion("sinusoidal_bump", params={"t": 0.2, "m1": 2.0})
    assert fam.with_scale(0.05).params["t"] == 0.05
    assert fam.with_scale(0.05).params["m1"] == 2.0
    with pytest.raises(ValueError):
        Immersion("plate").with_scale(0.1)
    assert Immersion("plate").with_scale(0.0).kind == "plate"


# -- the plane code against the einsum formulas, bit for bit ---------------------


def _reference_evaluate(imm, y):
    """(value, grad, hess) filled into zeroed arrays from the analytic
    expressions, as the array path of the catalog wrote them."""
    y1, y2 = y[..., 0], y[..., 1]
    base = y.shape[:-1]
    value, grad, hess = np.zeros(base + (3,)), np.zeros(base + (2, 3)), np.zeros(base + (2, 2, 3))
    value[..., 0], value[..., 1] = y1, y2
    grad[..., 0, 0] = grad[..., 1, 1] = 1.0
    p = imm.params
    if imm.kind == "paraboloid":
        t, k1, k2 = p["t"], p["kappa1"], p["kappa2"]
        value[..., 2] = 0.5 * t * (k1 * y1**2 + k2 * y2**2)
        grad[..., 0, 2] = t * k1 * y1
        grad[..., 1, 2] = t * k2 * y2
        hess[..., 0, 0, 2] = t * k1
        hess[..., 1, 1, 2] = t * k2
    elif imm.kind == "cylinder_patch" and p["t"] > 0:
        t = p["t"]
        value[..., 0] = y1 * np.sinc(t * y1 / np.pi)
        value[..., 2] = 0.5 * t * y1**2 * np.sinc(0.5 * t * y1 / np.pi) ** 2
        grad[..., 0, 0] = np.cos(t * y1)
        grad[..., 0, 2] = np.sin(t * y1)
        hess[..., 0, 0, 0] = -t * np.sin(t * y1)
        hess[..., 0, 0, 2] = t * np.cos(t * y1)
    elif imm.kind == "sinusoidal_bump":
        t = p["t"]
        k1, k2 = p["m1"] * np.pi / imm.L1, p["m2"] * np.pi / imm.L2
        s1, c1 = np.sin(k1 * y1), np.cos(k1 * y1)
        s2, c2 = np.sin(k2 * y2), np.cos(k2 * y2)
        value[..., 2] = t * s1 * s2
        grad[..., 0, 2] = t * k1 * c1 * s2
        grad[..., 1, 2] = t * k2 * s1 * c2
        hess[..., 0, 0, 2] = -t * k1**2 * s1 * s2
        hess[..., 0, 1, 2] = hess[..., 1, 0, 2] = t * k1 * k2 * c1 * c2
        hess[..., 1, 1, 2] = -t * k2**2 * s1 * s2
    return value, grad, hess


def _reference_geometry(imm, y):
    """(a, a_inv, b, gamma, sqrt_a, K) by the einsum contractions."""
    _, grad, hess = _reference_evaluate(imm, y)
    cross = np.cross(grad[..., 0, :], grad[..., 1, :])
    sqrt_a = np.linalg.norm(cross, axis=-1)
    normal = cross / sqrt_a[..., None]
    a = np.einsum("...ak,...bk->...ab", grad, grad)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    a_inv = np.empty_like(a)
    a_inv[..., 0, 0] = a[..., 1, 1] / det
    a_inv[..., 1, 1] = a[..., 0, 0] / det
    a_inv[..., 0, 1] = -a[..., 0, 1] / det
    a_inv[..., 1, 0] = -a[..., 1, 0] / det
    b = np.einsum("...k,...abk->...ab", normal, hess)
    tangent_dot_hess = np.einsum("...nk,...abk->...nab", grad, hess)
    gamma = np.einsum("...sn,...nab->...sab", a_inv, tangent_dot_hess)
    m = np.einsum("...as,...sb->...ab", a_inv, b)
    K = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return a, a_inv, b, gamma, sqrt_a, K


def _same_bits(x, y):
    """Equal values and equal sign bits: the geometry CSV prints -0.0 as -0."""
    return (np.shape(x) == np.shape(y) and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


REFERENCE_CASES = {
    "plate": ("plate", {}),
    "paraboloid-1-1": ("paraboloid", {"t": 0.3, "kappa1": 1.0, "kappa2": 1.0}),
    "paraboloid-1.3--0.7": ("paraboloid", {"t": 0.3, "kappa1": 1.3, "kappa2": -0.7}),
    "cylinder-0": ("cylinder_patch", {"t": 0.0}),
    "cylinder-0.4": ("cylinder_patch", {"t": 0.4}),
    "bump-2-1": ("sinusoidal_bump", {"t": 0.3, "m1": 2.0, "m2": 1.0}),
}
REFERENCE_GRIDS = {"9x5": (2.0, 1.0, 9, 5), "17x33": (1.3, 0.7, 17, 33)}


@pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
@pytest.mark.parametrize("dims", REFERENCE_GRIDS.values(), ids=REFERENCE_GRIDS.keys())
def test_geometry_bitwise_equal_to_einsum_reference(dims, case):
    grid = Grid(*dims)
    imm = Immersion(case[0], grid.L1, grid.L2, case[1])
    names = ("a", "a_inv", "b", "gamma", "sqrt_a", "K")
    for field, centers in ((geometry_field, (grid.y1, grid.y2)),
                           (cell_geometry, grid.cell_centers)):
        y = np.stack(centers, axis=-1)
        geom = field(imm, grid)
        for name, ref in zip(names, _reference_geometry(imm, y)):
            assert _same_bits(getattr(geom, name), ref), (field.__name__, name)
        for got, ref in zip(imm.evaluate(y), _reference_evaluate(imm, y)):
            assert _same_bits(got, ref)


def test_immersion_error_messages(monkeypatch):
    # tangents 2e-12 apart: |d1 theta x d2 theta| = 2e-12 passes the
    # degeneracy test, but a22 = 1 + 4e-24 rounds to 1, so det(a) = 0
    with monkeypatch.context() as patch:
        _with_tangents(patch, ((1.0, 0.0, 0.0), (1.0, 2e-12, 0.0)))
        with pytest.raises(ImmersionError) as exc:
            surface_quantities(Immersion("plate"), (0.5, 0.5))
    assert str(exc.value).startswith("singular metric: det(a) not positive")

    # a plate whose second tangent turns into the first at node (3, 2)
    planes = Immersion._planes
    grid = Grid(1.0, 1.0, 9, 9)

    def degenerate(self, y1, y2):
        value, grad, hess = planes(self, y1, y2)
        bad = ((y1 == grid.y1[3, 2]) & (y2 == grid.y2[3, 2])).astype(float)
        return value, (grad[0], (bad, 1.0 - bad, 0.0)), hess

    monkeypatch.setattr(Immersion, "_planes", degenerate)
    with pytest.raises(ImmersionError) as exc:
        geometry_field(Immersion("plate"), grid)
    assert str(exc.value) == ("degenerate immersion: |d1 theta x d2 theta| below 1e-12 "
                              "at node (3, 2)")


def test_singular_metric_names_its_node(monkeypatch):
    """Tangents (1, 0, 0) and (1, 2e-12, 0) at node (3, 2) of a 9 x 9 grid
    pass the cross-product test but round det(a) to 0: the error names the
    node all the same."""
    planes = Immersion._planes
    grid = Grid(1.0, 1.0, 9, 9)

    def singular(self, y1, y2):
        value, grad, hess = planes(self, y1, y2)
        bad = (y1 == grid.y1[3, 2]) & (y2 == grid.y2[3, 2])
        return value, (grad[0], (np.where(bad, 1.0, 0.0), np.where(bad, 2e-12, 1.0), 0.0)), hess

    monkeypatch.setattr(Immersion, "_planes", singular)
    with pytest.raises(ImmersionError) as exc:
        geometry_field(Immersion("plate"), grid)
    assert str(exc.value) == "singular metric: det(a) not positive at node (3, 2)"


def test_cell_geometry_errors_name_the_cell(monkeypatch):
    """A fault at a cell midpoint is named as a cell, not a node."""
    planes = Immersion._planes
    grid = Grid(1.0, 1.0, 9, 9)
    y1, y2 = (c[3, 2] for c in grid.cell_centers)

    def degenerate(self, p1, p2):
        value, grad, hess = planes(self, p1, p2)
        bad = ((p1 == y1) & (p2 == y2)).astype(float)
        return value, (grad[0], (bad, 1.0 - bad, 0.0)), hess

    monkeypatch.setattr(Immersion, "_planes", degenerate)
    geometry_field(Immersion("plate"), grid)  # no node sits at a midpoint
    with pytest.raises(ImmersionError) as exc:
        cell_geometry(Immersion("plate"), grid)
    assert str(exc.value) == ("degenerate immersion: |d1 theta x d2 theta| below 1e-12 "
                              "at cell (3, 2)")


@pytest.mark.parametrize("kind, t", [("sinusoidal_bump", 1e300), ("paraboloid", 1e200)])
def test_overflowing_geometry_is_no_immersion(kind, t):
    """Tangents and curvatures that overflow leave inf or nan in a, b or K,
    which pass the degeneracy and det(a) tests: the first point holding one
    is named, and numpy raises no warning on the way."""
    grid = Grid(1.0, 1.0, 9, 9)
    imm = Immersion(kind, params={"t": t})
    for field, point in ((geometry_field, "node"), (cell_geometry, "cell")):
        with pytest.raises(ImmersionError) as exc:
            field(imm, grid)
        assert str(exc.value) == f"non-finite geometry at {point} (0, 0)"
    with pytest.raises(ImmersionError, match="^non-finite geometry at node"):
        surface_quantities(imm, (0.5, 0.5))
    assert np.isfinite(geometry_field(imm.with_scale(1.0), grid).K).all()


def _as_planes(x, depth: int):
    """The trailing `depth` axes of x as nested tuples of planes, as
    Immersion._planes holds them (views; the Hessian's (1, 0) entry is its
    (0, 1) object)."""
    if depth == 0:
        return x
    x = np.moveaxis(x, x.ndim - depth, 0)
    planes = [_as_planes(x[i], depth - 1) for i in range(len(x))]
    if depth == 3:
        planes[1] = (planes[0][1], planes[1][1])
    return tuple(planes)


def test_public_contractions_bitwise_on_signed_zeros():
    """The plane functions behind surface_quantities against the einsum
    formulas on random tangents and Hessians, a third of whose entries are
    zeros of either sign: the sums come out as einsum's, and a sum of zeros
    as +0.0."""
    rng = np.random.default_rng(11)

    def signed_zeros(shape):
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.35] = -0.0
        x[rng.random(shape) < 0.15] = 0.0
        return x

    base = (40, 50)
    grad = signed_zeros(base + (2, 3))
    grad[..., 0, 0] += 3.0  # keep the tangents apart
    grad[..., 1, 1] += 3.0
    hess = signed_zeros(base + (2, 2, 3))
    hess[..., 1, 0, :] = hess[..., 0, 1, :]
    g, h = _as_planes(grad, 2), _as_planes(hess, 3)
    cross = np.cross(grad[..., 0, :], grad[..., 1, :])
    normal = cross / np.linalg.norm(cross, axis=-1)[..., None]
    n, sqrt_a = _normal(g)
    assert _same_bits(_stack(n, base), normal)
    assert _same_bits(sqrt_a, np.linalg.norm(cross, axis=-1))
    a = _metric(g)
    assert _same_bits(_stack(a, base), np.einsum("...ak,...bk->...ab", grad, grad))
    b = _stack(_second_form(n, h), base)
    assert _same_bits(b, np.einsum("...k,...abk->...ab", normal, hess))
    a_inv = signed_zeros(base + (2, 2))
    gamma = np.einsum("...sn,...nab->...sab", a_inv,
                      np.einsum("...nk,...abk->...nab", grad, hess))
    assert _same_bits(_stack(_christoffel(g, h, _as_planes(a_inv, 2)), base), gamma)
    m = np.einsum("...as,...sb->...ab", a_inv, b)
    K = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    assert _same_bits(_curvature(_as_planes(a_inv, 2), _as_planes(b, 2)), K)
