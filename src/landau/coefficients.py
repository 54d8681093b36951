"""Nonlocal collision coefficients via a free-space bi-Laplacian potential.

The diffusion matrix A[f], Newtonian potential a[f], and its gradient
are all derived from one convolution:

    Phi = (|z| / 8 pi) * f,    A = hess(Phi),    a = lap(Phi) = tr A,
    grad_a = grad(a) = div(A).

The convolution is free-space (zero-padded to the doubled box with the
radially truncated kernel sampled pointwise), so periodic images never
pollute the long-range potential.  All derivatives are taken in the
doubled transform space (one forward, nine inverse transforms); a is
taken as tr A, which linearity makes equal to the Laplacian transform.
Each transform is done as pruned 1-D passes, axis by axis
(Hockney-Eastwood; `grid.rfft3`/`grid.irfft3`): the forward passes never
transform the known-zero blocks of the padding, and each inverse pass
is cropped to the original box before the next axis.
One eigen pass per set serves `lambda_max`, `c0_empirical` and
`coefficient_upper_bounds`.  `structural_residuals` checks the set
against independent symbol routes (Laplacian, divergence of A).

A direct O(n^3)-per-point quadrature of the same integrals serves as
the independent oracle, and the bound checks of the coefficient theory
(pointwise coercivity, interpolation upper bounds) are measured here.

Pure functions throughout; the cached kernel spectra are immutable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fields import NormRequest, lp_m_norm
from .grid import Field, SymTensorField, VecField, SYM_COMPONENTS, irfft3, rfft3

__all__ = [
    "CoefficientSet",
    "PointCoefficients",
    "CoefficientBoundReport",
    "biharmonic_potential",
    "compute_coefficients",
    "structural_residuals",
    "direct_quadrature_coefficients",
    "coefficient_upper_bounds",
]

# Sources should be this small near the boundary for the truncated
# free-space convolution to be trustworthy.
BOUNDARY_DENSITY_WARN = 1e-10


@lru_cache(maxsize=8)
def _kernel_spectrum(n: int, extent: float) -> np.ndarray:
    """rfftn of |z|/(8 pi) sampled on the doubled periodic lattice.

    Displacements wrap to (-2L, 2L] per axis; the kernel is truncated at
    radius 2*sqrt(3)*L, which covers every displacement reachable from
    sources and targets inside in the original box.
    """
    m = 2 * n
    dv = 2.0 * extent / n
    z = np.fft.fftfreq(m, d=1.0 / m) * dv
    r = np.sqrt(
        z[:, None, None] ** 2 + z[None, :, None] ** 2 + z[None, None, :] ** 2
    )
    kernel = r / (8.0 * np.pi)
    kernel[r > 2.0 * np.sqrt(3.0) * extent + 1e-12] = 0.0
    return rfft3(kernel, m)


@lru_cache(maxsize=8)
def _doubled_wavenumbers(n: int, extent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers of the doubled rfftn layout, broadcast as (k1, k2, k3)."""
    m = 2 * n
    dv = 2.0 * extent / n
    full = 2.0 * np.pi * np.fft.fftfreq(m, d=dv)
    half = 2.0 * np.pi * np.fft.rfftfreq(m, d=dv)
    return full[:, None, None], full[None, :, None], half[None, None, :]


def _check_boundary_decay(f: Field) -> None:
    v = f.values
    face_max = max(
        float(np.max(np.abs(v[0]))), float(np.max(np.abs(v[-1]))),
        float(np.max(np.abs(v[:, 0]))), float(np.max(np.abs(v[:, -1]))),
        float(np.max(np.abs(v[:, :, 0]))), float(np.max(np.abs(v[:, :, -1]))),
    )
    if face_max > BOUNDARY_DENSITY_WARN:
        warnings.warn(
            f"source density {face_max:.2e} at the domain boundary exceeds "
            f"{BOUNDARY_DENSITY_WARN:.0e}; the truncated convolution may be inaccurate",
            stacklevel=3,
        )


def _potential_spectrum(f: Field) -> np.ndarray:
    grid = f.grid
    return rfft3(f.values, 2 * grid.n) * _kernel_spectrum(grid.n, grid.extent) * grid.cell_volume


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """A[f], a[f], grad a[f] plus the measured coercivity statistics."""

    A: SymTensorField
    a: Field
    grad_a: VecField

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        return self.A.eigenvalues()

    @cached_property
    def lambda_max(self) -> float:
        """Largest diffusion eigenvalue over the grid (time-step control)."""
        return float(np.max(self._eigenvalues[:, 2]))

    @cached_property
    def c0_empirical(self) -> float:
        """min over |v| <= L/2 of <v>^3 lambda_min(A).

        Restricted to the half-extent ball: near the boundary the
        truncated tail of the source biases the smallest eigenvalue.
        """
        grid = self.A.grid
        mask = (grid.radius2 <= (0.5 * grid.extent) ** 2).reshape(-1)
        weight = (1.0 + grid.radius2.reshape(-1)[mask]) ** 1.5
        return float(np.min(weight * self._eigenvalues[mask, 0]))

    @cached_property
    def grad_a_max(self) -> float:
        return float(np.max(self.grad_a.magnitude()))


def biharmonic_potential(f: Field) -> Field:
    """Free-space convolution of f with |z|/(8 pi) on the original box."""
    _check_boundary_decay(f)
    n = f.grid.n
    return Field(f.grid, irfft3(_potential_spectrum(f), 2 * n, n))


def compute_coefficients(f: Field) -> CoefficientSet:
    """Diffusion matrix, potential, and drift from one padded transform."""
    _check_boundary_decay(f)
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    phat = _potential_spectrum(f)
    k = _doubled_wavenumbers(n, grid.extent)

    tensor = np.empty((6, n, n, n))
    for idx, (i, j) in enumerate(SYM_COMPONENTS):
        tensor[idx] = irfft3(-(k[i] * k[j]) * phat, m, n)
    A = SymTensorField(grid, tensor)

    ahat = -(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * phat
    grad = np.empty((3, n, n, n))
    for i in range(3):
        grad[i] = irfft3(1j * k[i] * ahat, m, n)

    return CoefficientSet(A=A, a=Field(grid, A.trace_values()), grad_a=VecField(grid, grad))


def structural_residuals(f: Field) -> tuple[float, float]:
    """Relative sup residuals of the kernel identities tr A = a and div A = grad a.

    A, a = tr A and grad a come from `compute_coefficients`, the set the
    solver uses.  They are compared with two routes built from one
    potential spectrum: a as the Laplacian-symbol transform, and
    grad a as the divergence-symbol transform of A.  The divergence is
    taken in the doubled transform space where the construction defines
    it; differentiating the extracted (non-periodic) box values would
    only measure windowing artifacts.
    """
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    coeffs = compute_coefficients(f)
    phat = _potential_spectrum(f)
    k = _doubled_wavenumbers(n, grid.extent)

    lap = irfft3(-(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * phat, m, n)
    trace_res = float(np.max(np.abs(coeffs.a.values - lap))) / coeffs.a.max_abs()

    div_res = 0.0
    for i in range(3):
        div_i = irfft3(sum(1j * k[j] * (-(k[i] * k[j]) * phat) for j in range(3)), m, n)
        div_res = max(div_res, float(np.max(np.abs(div_i - coeffs.grad_a.values[i]))))
    return trace_res, div_res / coeffs.grad_a_max


@dataclass(frozen=True)
class PointCoefficients:
    point: tuple[float, float, float]
    A: np.ndarray
    a: float
    grad_a: np.ndarray


def direct_quadrature_coefficients(f: Field, points: list[tuple[float, float, float]]) -> list[PointCoefficients]:
    """Brute-force midpoint sums of the coefficient convolutions (oracle).

    The singular node w = v is skipped (kernel value set to zero there),
    which costs O(spacing^2) accuracy proportional to the local density.
    Points must be lattice nodes; at most 64 per call.
    """
    if len(points) > 64:
        raise ValueError(f"direct quadrature accepts at most 64 points, got {len(points)}")
    grid = f.grid
    axis = grid.axis
    dv = grid.spacing
    w = grid.cell_volume
    vals = f.values
    out = []
    for point in points:
        idx = []
        for c in point:
            i = int(round((c + grid.extent) / dv))
            if not (0 <= i < grid.n) or abs(axis[i] - c) > 1e-9 * max(1.0, dv):
                raise ValueError(f"point {point} is not a lattice node")
            idx.append(i)
        z1 = axis[idx[0]] - axis[:, None, None]
        z2 = axis[idx[1]] - axis[None, :, None]
        z3 = axis[idx[2]] - axis[None, None, :]
        r2 = z1 * z1 + z2 * z2 + z3 * z3
        r = np.sqrt(r2)
        inv_r = np.zeros_like(r)
        np.divide(1.0, r, out=inv_r, where=r > 0)
        base = vals * inv_r * w

        a_val = float(np.sum(base)) / (4.0 * np.pi)

        inv_r2 = inv_r * inv_r
        zs = (z1, z2, z3)
        A = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                pi_ij = (1.0 if i == j else 0.0) - zs[i] * zs[j] * inv_r2
                A[i, j] = A[j, i] = float(np.sum(base * pi_ij)) / (8.0 * np.pi)

        grad = np.array(
            [-float(np.sum(base * inv_r2 * zs[i])) for i in range(3)]
        ) / (4.0 * np.pi)
        out.append(PointCoefficients(tuple(point), A, a_val, grad))
    return out


@dataclass(frozen=True)
class CoefficientBoundReport:
    """Measured constants of the coefficient upper bounds.

    Both bounds share the norm product ||f||_1^e1 ||f||_p^e2 with
    e1 = (2/3)(p - 3/2)/(p - 1) and e2 = (1/3) p/(p - 1); the exponents
    sum to one, so the ratios are invariant under f -> lambda f.
    """

    p: float
    a_inf: float
    grad_a_l3: float
    norm_product: float
    a_ratio: float
    grad_a_ratio: float


def coefficient_upper_bounds(f: Field, p: float) -> CoefficientBoundReport:
    """Ratios ||A[f]||_inf and ||grad a[f]||_3 against their interpolation bounds."""
    if not p > 1.5:
        raise ValueError(f"upper bounds require p > 3/2, got {p}")
    if float(np.min(f.values)) < 0.0 or f.max_abs() == 0.0:
        raise ValueError("upper bounds are stated for nonnegative, nonzero densities")
    coeffs = compute_coefficients(f)
    a_inf = float(np.max(np.abs(coeffs._eigenvalues)))
    grid = f.grid
    grad_a_l3 = (grid.cell_volume * float(np.sum(coeffs.grad_a.magnitude() ** 3))) ** (1.0 / 3.0)
    e1 = (2.0 / 3.0) * (p - 1.5) / (p - 1.0)
    e2 = (1.0 / 3.0) * p / (p - 1.0)
    product = lp_m_norm(f, NormRequest(1.0)) ** e1 * lp_m_norm(f, NormRequest(p)) ** e2
    return CoefficientBoundReport(
        p=p,
        a_inf=a_inf,
        grad_a_l3=grad_a_l3,
        norm_product=product,
        a_ratio=a_inf / product,
        grad_a_ratio=grad_a_l3 / product,
    )
