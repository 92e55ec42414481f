"""Built-in models that carry curvature -1 frame data."""

from .camassa_holm import (
    CamassaHolmState,
    ch_evolve,
    ch_forms,
    ch_from_arrays,
    ch_from_values,
    ch_integral_drift,
    ch_pde_residual,
    ch_series_table,
)
from .igsge import (
    IGSGEResiduals,
    IGSGEState,
    igsge_explicit_solution,
    igsge_forms,
    igsge_residual,
)
from .sine_gordon import (
    SineGordonSolution,
    sg_forms,
    sg_pde_residual,
    sg_solution,
)

__all__ = [
    "CamassaHolmState",
    "ch_evolve",
    "ch_forms",
    "ch_from_arrays",
    "ch_from_values",
    "ch_integral_drift",
    "ch_pde_residual",
    "ch_series_table",
    "IGSGEResiduals",
    "IGSGEState",
    "igsge_explicit_solution",
    "igsge_forms",
    "igsge_residual",
    "SineGordonSolution",
    "sg_forms",
    "sg_pde_residual",
    "sg_solution",
]
