"""Nonlocal collision coefficients via a free-space bi-Laplacian potential.

The diffusion matrix A[f], Newtonian potential a[f], and its gradient
are all derived from one convolution:

    Phi = (|z| / 8 pi) * f,    A = hess(Phi),    a = lap(Phi) = tr A,
    grad_a = grad(a) = div(A).

The convolution is free-space (zero-padded to the doubled box with the
radially truncated kernel sampled pointwise), so periodic images never
pollute the long-range potential.  All derivatives are taken in the
doubled transform space; a is taken as tr A, which linearity makes
equal to the Laplacian transform.  The forward transform runs as pruned
1-D FFTs, axis by axis (Hockney-Eastwood; `grid.rfft3`), which never
transform the known-zero blocks of the padding.  The inverse runs as
matrix products (`_matrix_inverse`): at these sizes a 1-D inverse DFT
cropped to the box's n outputs and weighted by k^p is a small dense
matrix, and BLAS multiplies by it faster than an FFT walks the strided
lines.  Every output symbol is a sum of monomials k1^a k2^b k3^c, so
the axis-0 product (the largest) runs once per power a, and each
monomial takes its own axis-1 and axis-2 products; the last maps the
half spectrum straight to real values.  A set transforms only the six
components of A, which the flux reads: 15 matrix products and three
forward FFT calls.  grad a, which no step reads (the flux takes its
drift from face differences of a), is transformed from the set's
density on first read: three more forward FFT calls and 22 products.
The results agree with full inverse transforms to roundoff (2e-15
relative at n = 48), not bit for bit, and do not depend on the number
of BLAS threads.

The eigenvalues run only where they can matter: `lambda_max` on the
nodes whose Gershgorin row bound reaches the largest diagonal entry,
`c0_empirical` on the half-extent ball.  Both equal a full closed-form
pass bit for bit; the full pass serves `coefficient_upper_bounds`.
`structural_residuals` checks the set against independent,
unfactored symbol routes (Laplacian, divergence of A).

A direct O(n^3)-per-point quadrature of the same integrals serves as
the independent oracle, and the bound checks of the coefficient theory
(pointwise coercivity, interpolation upper bounds) are measured here.

Pure functions throughout; the cached kernel spectra and DFT matrices
are read-only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .fields import NormRequest, lp_m_norm
from .grid import SYM_COMPONENTS, Field, SymTensorField, VecField, rfft3

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
# Slack of the Gershgorin screen in `lambda_max`, relative to the largest entry.
_SCREEN_SLACK = 2.0**-40


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=8)
def _kernel_spectrum(n: int, extent: float) -> np.ndarray:
    """rfftn of |z|/(8 pi) sampled on the doubled periodic lattice, real part.

    Displacements wrap to (-2L, 2L] per axis; the kernel is truncated at
    radius 2*sqrt(3)*L, which covers every displacement reachable from
    sources and targets inside in the original box.  The sampled kernel
    is even, so its spectrum is real: the imaginary part is rounding
    (at most 1.4e-17 of the largest real part at n = 8 to 48) and is
    not kept.
    """
    m = 2 * n
    dv = 2.0 * extent / n
    z = np.fft.fftfreq(m, d=1.0 / m) * dv
    r = np.sqrt(
        z[:, None, None] ** 2 + z[None, :, None] ** 2 + z[None, None, :] ** 2
    )
    kernel = r / (8.0 * np.pi)
    kernel[r > 2.0 * np.sqrt(3.0) * extent + 1e-12] = 0.0
    return _read_only(np.fft.rfftn(kernel).real.copy())


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
    spectrum = rfft3(f.values, 2 * grid.n)
    spectrum *= _kernel_spectrum(grid.n, grid.extent)
    spectrum *= grid.cell_volume
    return spectrum


def _reduced_twiddles(rows: int, columns: int, m: int) -> np.ndarray:
    """exp(2 pi i j k / m) for j < rows, k < columns, the angle reduced
    modulo m in integers first: unreduced, the angles cost 1.1e-14
    relative in A and 2.9e-14 in grad a at n = 48."""
    return np.exp((2j * np.pi / m) * (np.outer(np.arange(rows), np.arange(columns)) % m))


@lru_cache(maxsize=8)
def _full_axis_matrices(n: int, extent: float) -> tuple[np.ndarray, ...]:
    """F[p] = exp(2 pi i j k / m) / m diag(k^p), p = 0..3, of shape (n, 2n):
    a full axis's spectrum times k^p, inverse-transformed and cropped to
    the box's n points."""
    m = 2 * n
    twiddle = _reduced_twiddles(n, m, m) / m
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=2.0 * extent / n)
    return tuple(_read_only(twiddle * k**p) for p in range(4))


@lru_cache(maxsize=16)
def _half_axis_matrices(n: int, extent: float, scale: complex) -> tuple[np.ndarray, ...]:
    """W[c], c = 0..3, real of shape (2(n+1), n): irfft of the half
    spectrum times scale k3^c, cropped to the box's n points.

    The rows take the spectrum's re and im interleaved, as
    `view(float64)` lays them out, and fold in the Hermitian weights
    (1, 2, ..., 2, 1) and 1/m.  At k3 = 0 and k3 = n the twiddle is
    real, so the imaginary part of the product is ignored there, as
    irfft ignores it.
    """
    m = 2 * n
    rows = _reduced_twiddles(n + 1, n, m)
    rows[[0, -1]] = rows[[0, -1]].real
    weight = np.full(n + 1, 2.0 / m)
    weight[[0, -1]] = 1.0 / m
    k = 2.0 * np.pi * np.fft.rfftfreq(m, d=2.0 * extent / n)
    matrices = []
    for c in range(4):
        rotated = (scale * weight * k**c)[:, None] * rows
        matrices.append(_read_only(np.stack((rotated.real, -rotated.imag), axis=1).reshape(2 * (n + 1), n)))
    return tuple(matrices)


def _monomial(*factors: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of k1^a k2^b k3^c, the product of k_i over the listed axes i."""
    return tuple(factors.count(axis) for axis in range(3))


# A_ij is -k_i k_j (SYM_COMPONENTS order) and grad_i a is -1j k_i |k|^2:
# a scale times a sum of monomials, listed as (a, b, c, output).
_TENSOR_TERMS = tuple((*_monomial(i, j), o) for o, (i, j) in enumerate(SYM_COMPONENTS))
_DRIFT_TERMS = tuple((*_monomial(i, j, j), i) for i in range(3) for j in range(3))


def _matrix_inverse(f: Field, scale: complex, terms: tuple) -> np.ndarray:
    """scale times the listed monomials times the potential spectrum of f,
    inverse-transformed and cropped to the box, summed per output: shape
    (outputs, n, n, n).

    Each axis is one matrix product with a cropped inverse-DFT matrix,
    so no inverse FFT runs.  The axis-0 product runs once per power a;
    each monomial with that a takes its own axis-1 product and its
    axis-2 product, which writes real values straight into the output.
    The output is allocated first, then the spectrum and one buffer per
    axis that every monomial reuses: in that order glibc's heap does not
    grow over a run.
    """
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    full = _full_axis_matrices(n, grid.extent)
    half = _half_axis_matrices(n, grid.extent, scale)
    outputs = 1 + max(o for *_, o in terms)
    out = np.empty((outputs, n * n, n))
    phat = _potential_spectrum(f).reshape(m, m * (n + 1))
    g0 = np.empty((n, m, n + 1), dtype=complex)
    g1 = np.empty((n, n, n + 1), dtype=complex)
    lines = g1.view(np.float64).reshape(n * n, 2 * (n + 1))
    written = set()
    for a, monomials in groupby(sorted(terms), key=itemgetter(0)):
        np.matmul(full[a], phat, out=g0.reshape(n, m * (n + 1)))
        for _, b, c, o in monomials:
            np.matmul(full[b], g0, out=g1)
            if o in written:
                out[o] += lines @ half[c]
            else:
                np.matmul(lines, half[c], out=out[o])
                written.add(o)
    return out.reshape(outputs, n, n, n)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """A[f] and a[f] = tr A, grad a[f] on first read, plus the measured step statistics.

    `density` is the f the set was built from, kept (not copied) for
    `grad_a`; it must not be changed while the set is in use.
    """

    A: SymTensorField
    a: Field
    density: Field

    @cached_property
    def grad_a(self) -> VecField:
        """grad a[f], transformed from `density` on first read.

        No step of a run reads it: the flux takes its drift from face
        differences of a (`drift_max`).  Verification and the bound
        checks do, and get the values an eager transform would give.
        """
        return VecField(self.density.grid, _matrix_inverse(self.density, -1j, _DRIFT_TERMS))

    @cached_property
    def lambda_max(self) -> float:
        """Largest diffusion eigenvalue over the grid (time-step control).

        A node's largest eigenvalue lies between its largest diagonal
        entry and its largest Gershgorin row sum A_ii + sum_j |A_ij|, so
        only nodes whose row bound reaches the grid's largest diagonal
        entry can hold the maximum; the closed form runs on those alone.
        The screen keeps a slack of 2^-40 times the largest entry, far
        above the rounding of the closed form and of the row sums, so
        the result equals the maximum of a full pass bit for bit.  A
        non-finite entry puts every node through the full pass.
        """
        a11, a22, a33, a12, a13, a23 = self.A.values.reshape(6, -1)
        d12, d13, d23 = np.abs(a12), np.abs(a13), np.abs(a23)
        bound = np.maximum(np.maximum(a11 + d12 + d13, a22 + d12 + d23), a33 + d13 + d23)
        top = float(np.max(self.A.values[:3]))
        scale = float(np.max(np.abs(self.A.values)))
        nodes = ~(bound < top - _SCREEN_SLACK * scale)
        return float(np.max(self.A.eigenvalues_at(nodes)[:, 2]))

    @cached_property
    def c0_empirical(self) -> float:
        """min over |v| <= L/2 of <v>^3 lambda_min(A).

        Restricted to the half-extent ball: near the boundary the
        truncated tail of the source biases the smallest eigenvalue.
        The closed form runs on the ball's nodes alone.
        """
        grid = self.A.grid
        ball = (grid.radius2 <= (0.5 * grid.extent) ** 2).reshape(-1)
        weight = (1.0 + grid.radius2.reshape(-1)[ball]) ** 1.5
        return float(np.min(weight * self.A.eigenvalues_at(ball)[:, 0]))

    @cached_property
    def drift_max(self) -> float:
        """Largest drift speed the flux reads: max |a(i + e_k) - a(i)| / dv
        over the axes and all faces, the wrap faces included."""
        a = self.a.values
        return max(float(np.max(np.abs(np.roll(a, -1, axis=k) - a))) for k in range(3)) / self.a.grid.spacing


def _cropped_irfftn(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Full irfftn of a doubled-grid spectrum, cropped to the box's n^3 corner (a view)."""
    m = 2 * n
    return np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]


def biharmonic_potential(f: Field) -> Field:
    """Free-space convolution of f with |z|/(8 pi) on the original box."""
    _check_boundary_decay(f)
    return Field(f.grid, _cropped_irfftn(_potential_spectrum(f), f.grid.n).copy())


def compute_coefficients(f: Field) -> CoefficientSet:
    """Diffusion matrix and potential from one padded transform.

    Only the six components of A are transformed (three forward FFT
    calls, 15 matrix products, no inverse FFT); a is tr A, and grad a
    waits for its first read (`CoefficientSet.grad_a`).
    """
    _check_boundary_decay(f)
    grid = f.grid
    A = SymTensorField(grid, _matrix_inverse(f, -1.0, _TENSOR_TERMS))
    return CoefficientSet(A=A, a=Field(grid, A.trace_values()), density=f)


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
    n = grid.n
    coeffs = compute_coefficients(f)
    phat = _potential_spectrum(f)
    k = _doubled_wavenumbers(n, grid.extent)

    lap = _cropped_irfftn(-(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * phat, n)
    trace_res = float(np.max(np.abs(coeffs.a.values - lap))) / coeffs.a.max_abs()

    div_res = 0.0
    for i in range(3):
        div_i = _cropped_irfftn(sum(1j * k[j] * (-(k[i] * k[j]) * phat) for j in range(3)), n)
        div_res = max(div_res, float(np.max(np.abs(div_i - coeffs.grad_a.values[i]))))
    return trace_res, div_res / float(np.max(coeffs.grad_a.magnitude()))


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
    a_inf = float(np.max(np.abs(coeffs.A.eigenvalues())))
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
