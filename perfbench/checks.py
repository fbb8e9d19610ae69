"""Independent correctness checks for the benchmark's workloads.

Every check takes numbers the program produced and judges them without
calling the program again: against closed forms, against central
differences, against an exact algebraic identity, or against the same data
after a round trip.  None compares with a stored copy of earlier output.
Each returns a list of failure messages; an empty list means the check
passed.
"""

from __future__ import annotations

import numpy as np

# An energy summed from terms of magnitude `scale` is readable only to a few
# ulps of that scale; the solver's line search allows the same 16 ulps.
NOISE_ULPS = 16.0


# -- study33: the shell-to-plate limit ----------------------------------------


def study_converged(converged: list[bool]) -> list[str]:
    bad = [k for k, ok in enumerate(converged) if not ok]
    return [f"homotopy steps {bad} did not converge"] if bad else []


def plate_limit(ts, errs) -> list[str]:
    """v_norm_err falls strictly as t falls, is exactly 0 at the plate, and
    falls at first order: err/t stays within a factor 2 over the sweep."""
    ts = [float(t) for t in ts]
    errs = [float(e) for e in errs]
    out = []
    if ts[-1] != 0.0 or errs[-1] != 0.0:
        out.append(f"plate row must read t=0, v_norm_err=0; got t={ts[-1]}, err={errs[-1]!r}")
    for (t_a, e_a), (t_b, e_b) in zip(zip(ts, errs), zip(ts[1:], errs[1:])):
        if not (t_a > t_b and e_a > e_b):
            out.append(f"v_norm_err does not fall from t={t_a:g} ({e_a!r}) to t={t_b:g} ({e_b!r})")
    rates = [e / t for t, e in zip(ts, errs) if t > 0]
    if rates and (min(rates) <= 0.0 or max(rates) > 2.0 * min(rates)):
        out.append(f"v_norm_err/t is not first order: {rates}")
    return out


def c2_distances(ts, c2s, rtol: float = 1e-12) -> list[str]:
    """The grid C2 distance of the default paraboloid z = t(y1^2 + y2^2)/2 to
    the plate has the closed form 5t: at the corner (1, 1) the value, both
    first derivatives and both pure second derivatives are t, the mixed one 0."""
    out = []
    for t, c2 in zip(ts, c2s):
        exact = 5.0 * t
        if abs(c2 - exact) > rtol * max(exact, 1.0):
            out.append(f"c2_distance at t={t:g} is {c2!r}, closed form {exact!r}")
    return out


def energy_minimum(j_star: float, j_perturbed, scale: float) -> list[str]:
    """J(u* + dv) >= J(u*) minus the roundoff allowance of an energy of
    magnitude `scale`, for every seeded perturbation."""
    allowance = NOISE_ULPS * np.finfo(float).eps * scale
    lower = [j for j in j_perturbed if j < j_star - allowance]
    if lower:
        return [f"perturbation lowers the energy below J(u*)={j_star!r}: {min(lower)!r} "
                f"(allowance {allowance:.3e})"]
    return []


def bitwise_equal(what: str, expected, actual) -> list[str]:
    for k, (a, b) in enumerate(zip(expected, actual)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or not np.array_equal(a, b):
            return [f"{what}: component {k} differs"]
    return []


# -- fields257: the energy kernel, the geometry and the exports ---------------


def gradient_matches_fd(gv, fd, rtol: float = 1e-6) -> list[str]:
    """<g, v> against central differences of the energy along v."""
    out = []
    for k, (a, b) in enumerate(zip(gv, fd)):
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        if not rel <= rtol:
            out.append(f"direction {k}: <g,v>={a!r} vs central difference {b!r} (rel {rel:.2e})")
    return out


def fifth_difference(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(v[5] - 5 * v[4] + 10 * v[3] - 10 * v[2] + 5 * v[1] - v[0])


def quartic_line(values, rtol: float = 1e-12) -> list[str]:
    """The energy is a quartic in the displacement, so along a line its fifth
    finite difference vanishes up to roundoff of the energy's scale."""
    d5 = fifth_difference(values)
    scale = float(np.max(np.abs(values)))
    if not abs(d5) <= rtol * scale:
        return [f"fifth difference along a line is {d5:.3e}, scale {scale:.3e}"]
    return []


def graph_geometry(y1, y2, t: float, k1: float, k2: float) -> dict:
    """Geometry of the graph z = t sin(k1 y1) sin(k2 y2), from the graph
    formulas: a = I + grad z grad z^T, sqrt a = sqrt(1 + |grad z|^2),
    b = hess z / sqrt a, K = det(hess z) / (1 + |grad z|^2)^2."""
    s1, c1 = np.sin(k1 * y1), np.cos(k1 * y1)
    s2, c2 = np.sin(k2 * y2), np.cos(k2 * y2)
    z1 = t * k1 * c1 * s2
    z2 = t * k2 * s1 * c2
    z11 = -t * k1 * k1 * s1 * s2
    z12 = t * k1 * k2 * c1 * c2
    z22 = -t * k2 * k2 * s1 * s2
    w = 1.0 + z1 * z1 + z2 * z2
    root = np.sqrt(w)
    return {
        "a11": 1.0 + z1 * z1, "a12": z1 * z2, "a22": 1.0 + z2 * z2,
        "b11": z11 / root, "b12": z12 / root, "b22": z22 / root,
        "sqrt_a": root, "K": (z11 * z22 - z12 * z12) / (w * w),
    }


GEOMETRY_COLUMNS = ("a11", "a12", "a22", "b11", "b12", "b22", "sqrt_a", "K")


def geometry_matches(exported: dict, closed: dict, rtol: float = 1e-12) -> list[str]:
    out = []
    for name in GEOMETRY_COLUMNS:
        e, c = np.asarray(exported[name]), np.asarray(closed[name])
        err = float(np.max(np.abs(e - c)))
        scale = max(float(np.max(np.abs(c))), 1e-300)
        if not err <= rtol * scale:
            out.append(f"exported {name} is {err:.2e} from the graph formula (scale {scale:.2e})")
    return out


def geometry_columns(geom) -> dict:
    """The exported columns of a SurfaceGeometry, keyed like the CSV header."""
    return {
        "a11": geom.a[..., 0, 0], "a12": geom.a[..., 0, 1], "a22": geom.a[..., 1, 1],
        "b11": geom.b[..., 0, 0], "b12": geom.b[..., 0, 1], "b22": geom.b[..., 1, 1],
        "sqrt_a": geom.sqrt_a, "K": geom.K,
    }


def geometry_roundtrip(exported: dict, in_memory: dict) -> list[str]:
    return bitwise_equal("geometry CSV vs the field in memory",
                         [in_memory[n] for n in GEOMETRY_COLUMNS],
                         [exported[n] for n in GEOMETRY_COLUMNS])


def parse_geometry_csv(path, shape) -> dict:
    """Columns of a geometry export as (n1, n2) arrays, keyed by name."""
    with open(path) as fh:
        fh.readline()  # meta line
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (shape[0] * shape[1], len(header)):
        raise ValueError(f"geometry CSV holds {data.shape}, expected {shape[0] * shape[1]} rows")
    idx = (data[:, 0].astype(int), data[:, 1].astype(int))
    cols = {}
    for k, name in enumerate(header[2:], start=2):
        arr = np.full(shape, np.nan)
        arr[idx] = data[:, k]
        cols[name] = arr
    return cols


# -- verify: the program's own gate --------------------------------------------


def verification_passed(results, expected: int = 23) -> list[str]:
    out = [f"{name} failed" for name, passed in results if not passed]
    if len(results) != expected:
        out.append(f"{len(results)} checks ran, expected {expected}")
    return out
