"""Nonlinear shallow-shell energy minimization on clamped rectangles."""

from .elasticity import (
    Material,
    build_tensor,
    contract,
    flat_tensor,
    positivity_gap,
    trace_decomposition,
    voigt_matrix,
)
from .energy import (
    EnergyAssembly,
    ForceDensity,
    linearized_strain,
    make_assembly,
    plate_membrane_strain,
)
from .geometry import (
    Immersion,
    ImmersionError,
    SurfaceGeometry,
    c2_distance,
    cell_geometry,
    christoffel,
    christoffel_from_metric,
    eval_immersion,
    fundamental_forms,
    gaussian_curvature,
    geometry_field,
    unit_normal,
)
from .grid import (
    Displacement,
    Grid,
    d1,
    d2,
    integrate,
    seminorms,
    v_norm,
)
from .solver import (
    HomotopyStep,
    LineSearchStallError,
    NonconvergenceError,
    SolveDiagnostics,
    SolverConfig,
    boundedness_certificate,
    homotopy_solve,
    linear_bending_solve,
    minimize,
)

__version__ = "0.1.0"
