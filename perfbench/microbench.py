"""Layer microbenchmarks and the coefficient oracle check.

Each layer is timed on one fixed anisotropic datum (temperatures
0.8, 1, 1.2) after a warm-up call, so the kernel-spectrum and
equilibrium-residual caches are full.  The oracle check compares
`compute_coefficients` with `direct_quadrature_coefficients` at random
lattice nodes of the sampled Maxwellian, with the datum, node draw and
tolerance of the repository's coefficient oracle test.  (The anisotropic
datum is not used there: at n = 24 it differs from the quadrature by
7.7e-3, the O(spacing^2) error of the oracle's skipped singular node.)
"""

from __future__ import annotations

import time

import numpy as np

from landau.coefficients import biharmonic_potential, compute_coefficients, direct_quadrature_coefficients
from landau.fields import NormRequest, lp_m_norm, maxwellian, moments, weighted_gradient_energy
from landau.grid import make_grid
from landau.solver import AnisotropicGaussian, SimConfig, initial_datum, rhs, stable_dt, step

SIZES = (24, 32, 48)
THETA = (0.8, 1.0, 1.2)
# Worst relative error the coefficient tests allow against the quadrature oracle.
ORACLE_TOLERANCE = 1e-3
ORACLE_POINTS = 10


def oracle_error(n: int) -> float:
    """Worst relative deviation of the transform coefficients from direct quadrature."""
    grid = make_grid(n, 8.0)
    f = maxwellian(grid)
    coeffs = compute_coefficients(f)
    picks = np.random.default_rng(0).integers(0, grid.n, size=(ORACLE_POINTS, 3))
    oracle = direct_quadrature_coefficients(f, [tuple(grid.axis[i] for i in pick) for pick in picks])
    worst = 0.0
    for (i, j, k), ora in zip(picks, oracle):
        worst = max(worst, abs(coeffs.a.values[i, j, k] - ora.a) / abs(ora.a))
        gmag = float(np.linalg.norm(ora.grad_a))
        for r in range(3):
            worst = max(worst, abs(coeffs.grad_a.values[r][i, j, k] - ora.grad_a[r]) / max(gmag, 1e-10))
            for c in range(r, 3):
                scale = max(abs(ora.a), abs(ora.A[r, c]))
                worst = max(worst, abs(coeffs.A.component(r, c)[i, j, k] - ora.A[r, c]) / scale)
    return worst


def _recorder(f, mu, p=2.0):
    h = f - mu
    moments(f)
    lp_m_norm(h, NormRequest(p))
    weighted_gradient_energy(h, p)


def layers(n: int, repeats: int) -> dict[str, list[float]]:
    """Per-call wall times in ms of each layer at grid size n."""
    f = initial_datum(SimConfig(n=n, initial=AnisotropicGaussian(THETA)))
    coeffs = compute_coefficients(f)
    dt = stable_dt(f, coeffs, 0.25)
    mu = maxwellian(f.grid)
    calls = {
        "coefficients.compute_coefficients": lambda: compute_coefficients(f),
        "coefficients.biharmonic_potential": lambda: biharmonic_potential(f),
        "grid.eigenvalues": lambda: coeffs.A.eigenvalues(),
        "solver.rhs": lambda: rhs(f, coeffs),
        "solver.step": lambda: step(f, dt, coeffs),
        "fields.recorder": lambda: _recorder(f, mu),
    }
    out: dict[str, list[float]] = {}
    for name, call in calls.items():
        call()
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            samples.append(1e3 * (time.perf_counter() - start))
        out[name] = samples
    return out
