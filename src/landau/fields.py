"""Weighted norms, moments, entropy, and level-set constructions.

The measurement vocabulary shared by the solver and the diagnostics:
weighted Lebesgue norms ||f||_{L^p_m}, the conserved moment triple,
Boltzmann entropy, positive-part level sets, and the weighted gradient
energies that drive the regularity estimates.

All functions are pure; quadrature is everywhere the same midpoint rule
as :func:`landau.grid.integrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, integrate, spectral_gradient

__all__ = [
    "MomentVector",
    "NormRequest",
    "maxwellian",
    "lp_m_norm",
    "moments",
    "boltzmann_entropy",
    "level_set_plus",
    "squared_gradient",
    "weighted_gradient_energy",
    "sobolev_ratio",
]

# Nodes at or below this density contribute zero to f*log(f).
ENTROPY_FLOOR = 1e-300
# Negative values beyond this fraction of max|f| signal solver failure.
NEGATIVITY_SLACK = 1e-12


def maxwellian(grid: Grid) -> Field:
    """The unit-mass, zero-mean, unit-temperature Gaussian equilibrium."""
    return Field(grid, (2.0 * np.pi) ** -1.5 * np.exp(-0.5 * grid.radius2))


@dataclass(frozen=True)
class MomentVector:
    mass: float
    momentum: tuple[float, float, float]
    energy: float


@dataclass(frozen=True)
class NormRequest:
    """Lebesgue exponent p in [1, inf] and polynomial weight exponent m."""

    p: float
    m: float = 0.0

    def __post_init__(self) -> None:
        if not self.p >= 1.0:
            raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {self.p}")
        if math.isinf(self.p) and self.m != 0.0:
            raise ValueError("weighted sup norms (p = inf with m != 0) are not supported")


def lp_m_norm(field: Field, req: NormRequest) -> float:
    """(integral of |f|^p <v>^m)^(1/p); plain sup norm when p = inf."""
    if math.isinf(req.p):
        return field.max_abs()
    weighted = np.abs(field.values) ** req.p
    if req.m != 0.0:
        weighted = weighted * field.grid.bracket_power(req.m)
    total = field.grid.cell_volume * float(np.sum(weighted))
    return total ** (1.0 / req.p)


def moments(field: Field) -> MomentVector:
    """Mass, momentum, and energy integrals (the conserved triple)."""
    grid = field.grid
    v1, v2, v3 = grid.coords
    w = grid.cell_volume
    vals = field.values
    mass = w * float(np.sum(vals))
    momentum = (
        w * float(np.sum(v1 * vals)),
        w * float(np.sum(v2 * vals)),
        w * float(np.sum(v3 * vals)),
    )
    energy = w * float(np.sum(grid.radius2 * vals))
    return MomentVector(mass, momentum, energy)


def boltzmann_entropy(field: Field, *, absolute: bool = False) -> float:
    """Integral of f log f (or f |log f|) with the 0 log 0 = 0 convention.

    Rejects fields whose negative excursions exceed roundoff scale:
    those signal a failed solve, not a density.
    """
    vals = field.values
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    if top > 0.0 and float(np.min(vals)) < -NEGATIVITY_SLACK * top:
        raise ValueError("field has negative values beyond roundoff tolerance; entropy undefined")
    pos = vals[vals > ENTROPY_FLOOR]
    logs = np.log(pos)
    if absolute:
        logs = np.abs(logs)
    return field.grid.cell_volume * float(np.sum(pos * logs))


def level_set_plus(h: Field, level: float) -> Field:
    """Positive part above the level: max(h - level, 0)."""
    if not level >= 0.0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return Field(h.grid, np.maximum(h.values - level, 0.0))


def squared_gradient(field: Field) -> np.ndarray:
    """|grad f|^2 per node from the spectral gradient, its components squared and added in place."""
    grad = spectral_gradient(field).values
    out = grad[0] * grad[0]
    for component in grad[1:]:
        out += component * component
    return out


def weighted_gradient_energy(h: Field, p: float) -> float:
    """Integral of <v>^-3 |grad(|h|^(p/2))|^2 via the spectral gradient.

    For p = 2 the gradient of h itself is used: |grad|h|| = |grad h|
    almost everywhere, and differentiating the smooth representative
    avoids spurious ringing from the kink of |h| at sign changes.
    """
    if not p > 0.0:
        raise ValueError(f"exponent must be positive, got {p}")
    grid = h.grid
    if p == 2.0:
        base = h.values
    else:
        base = np.abs(h.values) ** (0.5 * p)
    density = squared_gradient(Field(grid, base))
    density *= grid.bracket_power(-3.0)
    return grid.cell_volume * float(np.sum(density))


def sobolev_ratio(g: Field, s: float) -> float:
    """Measured constant of the weighted Sobolev inequality.

    Returns LHS / RHS for
    (int |g|^6 <v>^-9)^(1/3)  <=  C1 int |grad g|^2 <v>^-3  +  C2 (int |g|^s)^(2/s)
    with C1 = C2 = 1.  Boundedness of this ratio over a corpus evidences
    a finite inequality constant; both sides are homogeneous of degree 2
    in g, so the ratio is invariant under g -> lambda*g.
    """
    if not 1.0 <= s <= 6.0:
        raise ValueError(f"exponent s must lie in [1, 6], got {s}")
    if g.max_abs() == 0.0:
        raise ValueError("ratio undefined for the zero field")
    grid = g.grid
    w = grid.cell_volume
    lhs = (w * float(np.sum(np.abs(g.values) ** 6 * grid.bracket_power(-9.0)))) ** (1.0 / 3.0)
    dissipation = w * float(np.sum(grid.bracket_power(-3.0) * squared_gradient(g)))
    lp_term = (w * float(np.sum(np.abs(g.values) ** s))) ** (2.0 / s)
    return lhs / (dissipation + lp_term)
