"""Discrete frames, rotations, and conservation laws on hyperbolic charts.

The package takes coframe data (dual forms plus connection form) sampled on
a uniform grid, checks the curvature -1 structure equations, solves for the
frame rotation that makes the first dual form closed, and turns the result
into conservation-law reports — including whole parameter families of
conserved forms for models whose coframe depends polynomially on a spectral
parameter.
"""

from .conservation import (
    AxisConservation,
    ConservationReport,
    analyze,
    write_csv,
    write_q_svg,
)
from .errors import (
    ConfigError,
    DegenerateFrameError,
    EvolutionError,
    OrthogonalityError,
    PssframeError,
    StructureGateError,
)
from .fieldio import read_field, write_field
from .forms import closedness_residual, potential
from .frames import (
    FrameData,
    connection_matrix,
    frame_change,
    frame_vector_fields,
    lie_bracket,
    load_frame_data,
    orthogonality_error,
    require_orthogonal,
    save_frame_data,
    special_frame_residual,
    structure_residuals,
)
from .grid import GridChart, midpoints, partial_derivative
from .hierarchy import (
    EtaSeries,
    HierarchyResult,
    OrderResult,
    closed_form_series,
    expand_phi_system,
    solve_hierarchy,
)
from .rotation_solver import (
    CoordinateCheck,
    SolveReport,
    expm_skew,
    solve_L_nd,
    solve_phi_2d,
    special_coordinates_check,
)

__version__ = "1.0.0"

__all__ = [
    "AxisConservation",
    "ConservationReport",
    "analyze",
    "write_csv",
    "write_q_svg",
    "ConfigError",
    "DegenerateFrameError",
    "EvolutionError",
    "OrthogonalityError",
    "PssframeError",
    "StructureGateError",
    "read_field",
    "write_field",
    "closedness_residual",
    "potential",
    "FrameData",
    "connection_matrix",
    "frame_change",
    "frame_vector_fields",
    "lie_bracket",
    "load_frame_data",
    "orthogonality_error",
    "require_orthogonal",
    "save_frame_data",
    "special_frame_residual",
    "structure_residuals",
    "GridChart",
    "midpoints",
    "partial_derivative",
    "EtaSeries",
    "HierarchyResult",
    "OrderResult",
    "closed_form_series",
    "expand_phi_system",
    "solve_hierarchy",
    "CoordinateCheck",
    "SolveReport",
    "expm_skew",
    "solve_L_nd",
    "solve_phi_2d",
    "special_coordinates_check",
    "__version__",
]
