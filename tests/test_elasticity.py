import numpy as np
import pytest

from shallowshell import (
    Grid,
    Immersion,
    Material,
    build_tensor,
    contract,
    flat_tensor,
    geometry_field,
    positivity_gap,
    trace_decomposition,
)


def rand_sym(rng):
    s = rng.standard_normal((2, 2))
    return 0.5 * (s + s.T)


def test_material_invariants():
    Material(lam=0.0, mu=1.0, eps=0.1)
    with pytest.raises(ValueError):
        Material(lam=-1.0, mu=1.0, eps=0.1)
    with pytest.raises(ValueError):
        Material(lam=1.0, mu=0.0, eps=0.1)
    with pytest.raises(ValueError):
        Material(lam=1.0, mu=1.0, eps=0.0)


def test_flat_tensor_hand_values():
    A = flat_tensor(Material(1.0, 1.0, 0.1))
    assert abs(A[0, 0, 0, 0] - 16.0 / 3.0) < 1e-15
    assert abs(A[0, 0, 1, 1] - 4.0 / 3.0) < 1e-15
    assert abs(A[0, 1, 0, 1] - 2.0) < 1e-15


def test_tensor_lambda_zero_pure_shear_form():
    A = flat_tensor(Material(0.0, 1.0, 0.1))
    d = np.eye(2)
    expected = 2.0 * (
        np.einsum("as,bt->abst", d, d) + np.einsum("at,bs->abst", d, d)
    )
    assert np.array_equal(A, expected)


def test_plate_tensor_matches_flat_reference():
    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("plate"), grid)
    mat = Material(1.7, 0.9, 0.05)
    A = build_tensor(geom.a_inv, mat)
    assert np.array_equal(A, np.broadcast_to(flat_tensor(mat), A.shape))


def test_tensor_symmetries_exact():
    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.2}), grid)
    A = build_tensor(geom.a_inv, Material(1.3, 0.8, 0.1))
    assert np.array_equal(A, np.einsum("xyabst->xybast", A))
    assert np.array_equal(A, np.einsum("xyabst->xyabts", A))
    assert np.array_equal(A, np.einsum("xyabst->xystab", A))


def test_contract_cases(rng):
    A = flat_tensor(Material(1.0, 1.0, 0.1))
    t = rand_sym(rng)
    assert contract(A, np.zeros((2, 2)), t) == 0.0
    assert abs(contract(A, np.eye(2), np.eye(2)) - 40.0 / 3.0) < 1e-14

    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.2}), grid)
    Ac = build_tensor(geom.a_inv[5, 6], Material(1.3, 0.8, 0.1))
    for _ in range(50):
        s, t = rand_sym(rng), rand_sym(rng)
        st, ts = contract(Ac, s, t), contract(Ac, t, s)
        assert abs(st - ts) <= 1e-13 * max(abs(st), 1.0)


def test_contract_bilinear(rng):
    A = flat_tensor(Material(0.6, 1.4, 0.1))
    s, t, w = rand_sym(rng), rand_sym(rng), rand_sym(rng)
    c = 2.3
    lhs = contract(A, s, t + c * w)
    rhs = contract(A, s, t) + c * contract(A, s, w)
    assert abs(lhs - rhs) < 1e-13 * max(abs(lhs), 1.0)


def test_trace_decomposition_values_and_identity(rng):
    mat = Material(1.0, 1.0, 0.1)
    iso, dev = trace_decomposition(np.eye(2), np.zeros((2, 2)), mat)
    assert iso == 0.0 and dev == 0.0

    iso, dev = trace_decomposition(np.eye(2), np.eye(2), mat)
    assert abs(iso - 16.0 / 3.0) < 1e-14
    assert abs(dev - 8.0) < 1e-14
    assert abs(iso + dev - 40.0 / 3.0) < 1e-13

    grid = Grid(1.0, 1.0, 9, 9)
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.3}), grid)
    mat2 = Material(2.1, 0.7, 0.1)
    A = build_tensor(geom.a_inv, mat2)
    for _ in range(50):
        s = rand_sym(rng)
        iso, dev = trace_decomposition(geom.a_inv, s, mat2)
        total = contract(A, s, s)
        rel = np.max(np.abs(iso + dev - total) / np.maximum(np.abs(total), 1e-30))
        assert rel <= 1e-12


def test_positivity_gap_closed_forms():
    grid = Grid(1.0, 1.0, 17, 17)
    plate = geometry_field(Immersion("plate"), grid)
    gap = positivity_gap(plate, Material(0.0, 1.0, 0.1))
    assert abs(gap - 4.0) <= 1e-12  # pure shear form is 4*mu*|t|^2

    gap_full = positivity_gap(plate, Material(1.0, 1.0, 0.1))
    assert gap_full >= 4.0 - 1e-12


def test_positivity_gap_paraboloid_near_plate():
    grid = Grid(1.0, 1.0, 17, 17)
    mat = Material(1.0, 1.0, 0.1)
    plate_gap = positivity_gap(geometry_field(Immersion("plate"), grid), mat)
    for t in (0.05, 0.1, 0.2):
        geom = geometry_field(Immersion("paraboloid", params={"t": t}), grid)
        gap = positivity_gap(geom, mat)
        assert gap > 0.0
        if t <= 0.1:
            assert gap >= 3.9
        # perturbation of the flat gap vanishes with the curvature scale
        assert abs(gap - plate_gap) <= 4.0 * t


def test_positivity_bound_realized(rng):
    grid = Grid(1.0, 1.0, 9, 9)
    mat = Material(1.0, 1.0, 0.1)
    geom = geometry_field(Immersion("paraboloid", params={"t": 0.2}), grid)
    A = build_tensor(geom.a_inv, mat)
    gap = positivity_gap(geom, mat)
    for _ in range(100):
        t = rand_sym(rng)
        quad = contract(A, t, t) * geom.sqrt_a
        assert np.min(quad - gap * np.sum(t * t)) >= -1e-12


def test_tensor_continuity_in_metric(rng):
    """Perturbing the inverse metric perturbs components proportionally."""
    mat = Material(1.0, 1.0, 0.1)
    base = np.eye(2) + 0.05 * np.array([[0.0, 1.0], [1.0, 0.0]])
    A0 = build_tensor(base, mat)
    worst_ratio = 0.0
    for eta in (1e-2, 1e-4, 1e-6):
        d = rand_sym(rng)
        d *= eta / np.max(np.abs(d))
        A1 = build_tensor(base + d, mat)
        worst_ratio = max(worst_ratio, np.max(np.abs(A1 - A0)) / eta)
    # observed Lipschitz constant, reported for the record
    print(f"tensor metric-continuity constant ~ {worst_ratio:.3f}")
    assert worst_ratio < 50.0
