"""Nonlinear shallow-shell energy minimization on clamped rectangles."""

from .elasticity import (
    Material,
    build_tensor,
    contract,
    flat_tensor,
    positivity_gap,
    trace_decomposition,
)
from .energy import (
    EnergyAssembly,
    ForceDensity,
    make_assembly,
    plate_membrane_strain,
)
from .geometry import (
    Immersion,
    ImmersionError,
    SurfaceGeometry,
    c2_distance,
    cell_geometry,
    christoffel_from_metric,
    geometry_field,
)
from .grid import (
    Displacement,
    Grid,
    integrate,
    v_norm,
)
from .solver import (
    HomotopyStep,
    LineSearchStallError,
    NonconvergenceError,
    SolveDiagnostics,
    SolverConfig,
    homotopy_solve,
    minimize,
)

__version__ = "0.1.0"
