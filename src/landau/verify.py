"""Invariant measurements and the suite behind the ``verify`` subcommand.

Each function below measures one invariant and returns plain numbers:
coefficient-oracle gaps, the gap of A to the Maxwellian's closed form,
structural residuals over a probe corpus,
conservation drifts along trajectories, the refinement order of the
equilibrium residual, and the exponent-identity residual.  They are the
single implementation of these checks: ``run_verification`` applies its
bounds to them, and to the worst `coefficient_upper_bounds` ratios over
the probe corpus, and the acceptance tests call the same functions with
their own fixtures and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis import exponents
from .coefficients import (
    CoefficientSet,
    coefficient_upper_bounds,
    compute_coefficients,
    direct_quadrature_coefficients,
    structural_residuals,
)
from .fields import maxwellian
from .grid import SYM_COMPONENTS, Field, Grid, integrate, make_grid, spectral_gradient
from .solver import AnisotropicGaussian, Maxwellian, SimConfig, Trajectory, TwoBump, equilibrium_residual, run

__all__ = [
    "CheckResult",
    "conservation_drifts",
    "corpus_fields",
    "exponent_residual",
    "maxwellian_closed_form_gap",
    "oracle_gaps",
    "residual_order",
    "run_verification",
    "structural_worst",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def corpus_fields(grid: Grid) -> list[Field]:
    """Smooth, decaying probe densities for the structural identities."""
    v1, v2, v3 = grid.coords
    norm = (2.0 * np.pi) ** -1.5
    mu = maxwellian(grid).values
    shapes = [
        mu,
        0.5 * norm * (np.exp(-0.5 * ((v1 - 1.0) ** 2 + v2**2 + v3**2))
                      + np.exp(-0.5 * ((v1 + 1.0) ** 2 + v2**2 + v3**2))),
        norm * np.exp(-0.5 * (v1**2 / 0.8 + v2**2 + v3**2 / 1.2)) / np.sqrt(0.96),
        norm * np.exp(-0.5 * (v1**2 + v2**2 + v3**2)) * (1.0 + 0.3 * np.cos(np.pi * v1 / grid.extent)),
        (2.0 * np.pi * 0.5) ** -1.5 * np.exp(-grid.radius2),
        0.5 * mu + 0.5 * norm * np.exp(-0.5 * ((v1 - 1.0) ** 2 + v2**2 + v3**2)),
    ]
    return [Field(grid, s + np.zeros(grid.shape)) for s in shapes]


def structural_worst(sets: Iterable[CoefficientSet]) -> tuple[float, float]:
    """Worst trace and divergence residuals (`structural_residuals`) over the coefficient sets."""
    residuals = [structural_residuals(coeffs) for coeffs in sets]
    return max(r[0] for r in residuals), max(r[1] for r in residuals)


def oracle_gaps(coeffs: CoefficientSet) -> tuple[float, float, float]:
    """Gaps between the spectral coefficients of the Maxwellian and independent values.

    `coeffs` is the set of `maxwellian(grid)`.  Returns the worst relative
    gap of A and a against the direct-quadrature oracle (each entry scaled
    by max(|a|, |A_ij|)), the worst relative gap of grad a (scaled by
    |grad a|), both at 10 nodes drawn uniformly with ``default_rng(0)``,
    and the absolute error of a(0) against (2 pi)^{-3/2}.
    """
    mu, grid = coeffs.density, coeffs.density.grid
    picks = np.random.default_rng(0).integers(0, grid.n, size=(10, 3))
    oracle = direct_quadrature_coefficients(mu, [tuple(grid.axis[i] for i in pick) for pick in picks])
    gap_A = gap_grad = 0.0
    for pick, ora in zip(picks, oracle):
        node = tuple(int(x) for x in pick)
        gap_A = max(gap_A, abs(float(coeffs.a.values[node]) - ora.a) / abs(ora.a))
        for r, c in SYM_COMPONENTS:
            exact = float(ora.A[r, c])
            gap_A = max(gap_A, abs(float(coeffs.A.component(r, c)[node]) - exact) / max(abs(ora.a), abs(exact)))
        spec_grad = coeffs.grad_a.values[(slice(None), *node)]
        scale = max(float(np.linalg.norm(ora.grad_a)), 1e-10)
        gap_grad = max(gap_grad, float(np.max(np.abs(spec_grad - ora.grad_a))) / scale)
    mid = grid.n // 2
    return gap_A, gap_grad, abs(float(coeffs.a.values[mid, mid, mid]) - (2.0 * np.pi) ** -1.5)


def maxwellian_closed_form_gap(coeffs: CoefficientSet) -> float:
    """Sup error of A over the nodes 0 < |v| <= 4 against the closed form
    of the unit Maxwellian, relative to max |A|; `coeffs` is the set of
    `maxwellian(grid)`.

    Phi = g / 8 pi with g(r) = (r + 1/r) erf(r/sqrt2) + sqrt(2/pi) e^{-r^2/2},
    and A = Phi'' rr + (Phi'/r)(I - rr), r the unit vector v/|v|
    (Rosenbluth, MacDonald & Judd, Phys. Rev. 107, 1957).
    """
    A = coeffs.A
    grid = A.grid
    r2 = grid.radius2
    ball = (r2 > 0.0) & (r2 <= 16.0)
    r2 = r2[ball]
    r = np.sqrt(r2)
    erf = np.array([math.erf(x / math.sqrt(2.0)) for x in r])
    gauss = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r2)
    radial = ((1.0 - 1.0 / r2) * erf + gauss / r) / (8.0 * math.pi * r)  # Phi'/r
    second = (2.0 * erf / r**3 - 2.0 * gauss / r2) / (8.0 * math.pi)  # Phi''
    v = [np.broadcast_to(x, grid.shape)[ball] for x in grid.coords]
    gap = 0.0
    for i, j in SYM_COMPONENTS:
        exact = (second - radial) * v[i] * v[j] / r2 + (radial if i == j else 0.0)
        gap = max(gap, float(np.max(np.abs(A.component(i, j)[ball] - exact))))
    return gap / float(np.max(np.abs(A.values)))


def conservation_drifts(trajs: Iterable[Trajectory]) -> tuple[float, float, float, float]:
    """Worst drifts over the trajectories: relative mass, momentum, relative energy, entropy rise.

    Momentum is measured absolutely, against the thermal scale, since the
    data start at zero momentum; the entropy rise is the largest increase
    between consecutive rows.
    """
    drifts = [
        (
            float(np.max(np.abs(t.mass - t.mass[0])) / t.mass[0]),
            float(np.max(np.abs(t.momentum - t.momentum[0]))),
            float(np.max(np.abs(t.energy - t.energy[0])) / t.energy[0]),
            float(np.max(np.diff(t.entropy))),
        )
        for t in trajs
    ]
    return tuple(max(column) for column in zip(*drifts))


def residual_order(extent: float) -> float:
    """Observed refinement order of the equilibrium residual max |rhs(mu)| from n = 24 to 48,
    read off the solver's cached residuals (`equilibrium_residual`)."""
    coarse, fine = (float(np.max(np.abs(equilibrium_residual(n, extent)))) for n in (24, 48))
    return float(np.log2(coarse / fine))


def exponent_residual() -> float:
    """Worst residual of the exponent identities on a 20-point (p, m) grid.

    gamma against the q route q - (p + 1), and beta1 + beta2 against 2/3;
    a grid point whose alpha leaves (0, 1) counts as residual 1.
    """
    worst = 0.0
    for p in (1.6, 1.75, 2.0, 2.5, 3.0):
        for m in (10.0, 12.0, 20.0, 55.0):
            e = exponents(p, m)
            worst = max(
                worst,
                abs((e.q - (p + 1.0)) - e.gamma),
                abs(e.beta1 + e.beta2 - 2.0 / 3.0),
                0.0 if 0.0 < e.alpha < 1.0 else 1.0,
            )
    return float(worst)


def _check_grid_ops(grid: Grid) -> CheckResult:
    mu = maxwellian(grid)
    mass_err = abs(integrate(mu) - 1.0)
    k = 2.0 * np.pi / (2.0 * grid.extent)
    v1 = grid.coords[0]
    wave = Field(grid, np.broadcast_to(np.sin(4.0 * k * v1), grid.shape).copy())
    grad = spectral_gradient(wave)
    mode_err = float(np.max(np.abs(grad.values[0] - 4.0 * k * np.cos(4.0 * k * np.asarray(v1)))))
    zero_mean = max(abs(integrate(grad.component(i))) for i in range(3))
    return CheckResult(
        "grid quadrature and spectral exactness",
        mass_err < 1e-8 and mode_err < 1e-10 and zero_mean < 1e-10,
        f"mass err {mass_err:.1e}, mode err {mode_err:.1e}, gradient mean {zero_mean:.1e}",
    )


def run_verification(n: int = 32, extent: float = 8.0) -> list[CheckResult]:
    grid = make_grid(n, extent)
    sets = [compute_coefficients(f) for f in corpus_fields(grid)]
    trace, div = structural_worst(sets)
    bounds = [coefficient_upper_bounds(coeffs, 2.0) for coeffs in sets]
    a_ratio, grad_ratio = max(b.a_ratio for b in bounds), max(b.grad_a_ratio for b in bounds)
    gap_A, gap_grad, a0_err = oracle_gaps(sets[0])  # corpus_fields(grid)[0] is the Maxwellian
    closed_gap = maxwellian_closed_form_gap(sets[0])
    # the a(0) and closed-form tolerances are calibrated at n = 48, L = 8
    # (spacing 1/3) and scale with the second- and fourth-order spacing errors
    a0_tol = 2e-4 * (grid.spacing * 3.0) ** 2
    closed_tol = 1e-3 * (grid.spacing * 3.0) ** 4
    runs = [
        run(SimConfig(n=n, extent=extent, t_end=0.5, cfl=0.25, initial=initial, snapshot_every=5))
        for initial in (Maxwellian(), AnisotropicGaussian((0.8, 1.0, 1.2)), TwoBump(2.0))
    ]
    mass, momentum, energy, entropy = conservation_drifts(runs)
    sup_drift = float(np.max(runs[0].linf_h))
    # the residual order is a property of the scheme; it is measured on a
    # fixed well-resolved pair regardless of the requested resolution
    order = residual_order(extent)
    exp_res = exponent_residual()
    return [
        _check_grid_ops(grid),
        CheckResult(
            "trace and divergence identities",
            trace <= 1e-10 and div <= 1e-8,
            f"trace residual {trace:.1e} (tol 1e-10), divergence residual {div:.1e} (tol 1e-8)",
        ),
        CheckResult(
            "coefficient oracle equivalence",
            gap_A <= 1e-3 and gap_grad <= 1e-3 and a0_err <= a0_tol,
            f"A/a gap {gap_A:.2e}, grad a gap {gap_grad:.2e} (tol 1e-3), "
            f"a(0) error {a0_err:.2e} (tol {a0_tol:.0e})",
        ),
        CheckResult(
            "conservation and entropy along short runs",
            mass <= 1e-10 and momentum <= 1e-2 and energy <= 1e-2 and entropy <= 1e-9,
            f"mass drift {mass:.1e}, momentum drift {momentum:.1e}, energy drift {energy:.1e}, "
            f"max entropy rise {entropy:.1e}",
        ),
        CheckResult(
            "equilibrium stationarity and residual refinement",
            sup_drift <= 1e-2 and order >= 1.8,
            f"sup |f - mu| {sup_drift:.1e} (tol 1e-2), residual order {order:.2f} (>= 1.8)",
        ),
        CheckResult("exponent algebra", exp_res <= 1e-12, f"worst identity residual {exp_res:.1e}"),
        # about twice the corpus maxima, 0.079 and 0.249 at n = 24, 32 and 48
        CheckResult(
            "coefficient upper bounds",
            a_ratio <= 0.16 and grad_ratio <= 0.5,
            f"p = 2: ||A||_inf ratio {a_ratio:.3f} (tol 0.16), ||grad a||_3 ratio {grad_ratio:.3f} (tol 0.5)",
        ),
        CheckResult(
            "closed-form Maxwellian diffusion matrix",
            closed_gap <= closed_tol,
            f"sup |A - A_exact| over 0 < |v| <= 4, relative to max |A|: {closed_gap:.2e} (tol {closed_tol:.1e})",
        ),
    ]
