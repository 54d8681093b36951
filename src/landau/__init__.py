"""Velocity-space simulator and diagnostics for the homogeneous Landau-Coulomb equation."""

__version__ = "0.1.0"

from .grid import (
    Field,
    Grid,
    SymTensorField,
    VecField,
    integrate,
    make_grid,
    spectral_gradient,
)
from .fields import (
    MomentVector,
    NormRequest,
    boltzmann_entropy,
    level_set_plus,
    lp_m_norm,
    maxwellian,
    moments,
    sobolev_ratio,
    weighted_gradient_energy,
    weighted_h1_norm,
)
from .coefficients import (
    CoefficientSet,
    biharmonic_potential,
    coefficient_upper_bounds,
    compute_coefficients,
    direct_quadrature_coefficients,
    structural_residuals,
)
from .solver import (
    AnisotropicGaussian,
    BlowUpError,
    Maxwellian,
    PerturbedMaxwellian,
    SimConfig,
    Trajectory,
    TwoBump,
    initial_datum,
    rhs,
    run,
    stable_dt,
    step,
)
from . import analysis

__all__ = [name for name in dir() if not name.startswith("_")]
