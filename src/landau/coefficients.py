"""Nonlocal collision coefficients via a free-space bi-Laplacian potential.

The diffusion matrix A[f], Newtonian potential a[f], and its gradient
are all derived from one convolution:

    Phi = (|z| / 8 pi) * f,    A = hess(Phi),    a = lap(Phi) = tr A,
    grad_a = grad(a) = div(A).

The convolution is free-space (zero-padded to the doubled box with the
radially truncated kernel sampled pointwise), so periodic images never
pollute the long-range potential.  All derivatives are taken in the
doubled transform space; a is taken as tr A, which linearity makes
equal to the Laplacian transform.  Both transforms run as matrix
products on BLAS, not FFTs: at these sizes a 1-D DFT between the box's
n points and the doubled grid is a small dense matrix, and BLAS
multiplies by it faster than an FFT walks the strided lines.  The
forward matrices fold in the zero padding, so no zero is ever
transformed (Hockney-Eastwood; `_potential_spectrum`).

The kernel depends on |z| alone, so its sampled spectrum is real and
even in each axis, and only its q >= 0 half is read
(`_kernel_spectrum`).  The two full axes are therefore carried in
parity form: each line's even part Se(q), q = 0..n, and odd part T(q),
q = 1..n-1, 2n real rows where a complex spectrum has 2n complex
entries, so every product, forward and inverse, is one real 2-D GEMM
that acts on the half axis's re and im alike, and none is batched.  The
spectrum is stored as (q2, c3, q1), c3 the half axis's re and im
interleaved.  The Nyquist row q = n of a full axis has no partner, so
under an odd power of k its term lacks the factor i of the others: it
is one extra matrix column acting on a spare slab (or column) that holds
-i Se(n), and the factor i of the odd powers goes into the scale of the
half-axis matrix (`_parity_inverse_matrices`, `_matrix_inverse`).  Each
output is one monomial k1^a k2^b k3^c times a scale: the q2 product
runs once per power b, and each output takes its own q1 and c3
products; the last writes real values.  A set transforms only the six
components of A, which the flux reads: 3 forward and 15 inverse
products, 0.81 GFLOP at n = 48 (1.45 with complex full axes).  grad a,
which no step reads (the flux takes its drift from face differences of
a), is transformed from the set's density on first read, as the
monomials -i k_i on the kernel spectrum times |k|^2: 3 more forward and
8 inverse products, 0.53 GFLOP at n = 48.  The results agree with full
irfftn of the same even kernel spectrum to roundoff (1.9e-15 relative at
n = 48), not bit for bit, and do not depend on the number of BLAS
threads.  The check routes (`biharmonic_potential`,
`structural_residuals`) take the full spectrum from rfftn of the padded
density instead (`_padded_spectrum`).

The eigenvalues run only where they can matter: `lambda_max` on the
nodes whose Gershgorin row bound reaches the largest diagonal entry,
`c0_empirical` on the cached half-extent ball.  Both equal a full
closed-form pass bit for bit; the full pass serves `coefficient_upper_bounds`.
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

import numpy as np

from .fields import NormRequest, lp_m_norm
from .grid import SYM_COMPONENTS, Field, SymTensorField, VecField, face_pairs, make_grid

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
    """The kernel's doubled-grid spectrum times the cell volume, in the
    parity layout of `_potential_spectrum`: real, shape (2n+1, n+1, 2n+1),
    indexed (q2, q3, q1), read-only.

    It is rfftn of |z|/(8 pi) sampled on the doubled periodic lattice.
    Displacements wrap to (-2L, 2L] per axis; the kernel is truncated at
    radius 2*sqrt(3)*L, which covers every displacement reachable from
    sources and targets inside in the original box.  The sampled kernel
    is even in each axis, so its spectrum is real and even: the
    imaginary part (at most 1.4e-17 of the largest real part at n = 8 to
    48) and the mirror q -> -q of the two full axes (equal to the kept
    half to 2.7e-17) are rounding.  Only the q >= 0 half is read: each
    parity row of a full axis takes it at its |q|, so
    every reader sees one even spectrum by construction, the check
    routes included (`_padded_spectrum`).
    """
    m = 2 * n
    grid = make_grid(n, extent)
    z = np.fft.fftfreq(m, d=1.0 / m) * grid.spacing
    r = np.sqrt(
        z[:, None, None] ** 2 + z[None, :, None] ** 2 + z[None, None, :] ** 2
    )
    kernel = r / (8.0 * np.pi)
    kernel[r > 2.0 * np.sqrt(3.0) * extent + 1e-12] = 0.0
    half = np.fft.rfftn(kernel).real[: n + 1, : n + 1] * grid.cell_volume
    q = np.r_[0 : n + 1, 1:n, n]  # |q| of each parity row (`_forward_matrices`)
    return _read_only(np.ascontiguousarray(half.transpose(1, 2, 0)[np.ix_(q, np.arange(n + 1), q)]))


@lru_cache(maxsize=8)
def _doubled_wavenumbers(n: int, extent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers of the doubled rfftn layout, broadcast as (k1, k2, k3)."""
    m = 2 * n
    dv = 2.0 * extent / n
    full = 2.0 * np.pi * np.fft.fftfreq(m, d=dv)
    half = 2.0 * np.pi * np.fft.rfftfreq(m, d=dv)
    return full[:, None, None], full[None, :, None], half[None, None, :]


@lru_cache(maxsize=8)
def _coercivity_ball(n: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the nodes with |v| <= L/2 and their weights
    <v>^3 = (1 + |v|^2)^1.5, read-only (`CoefficientSet.c0_empirical`)."""
    radius2 = make_grid(n, extent).radius2.reshape(-1)
    ball = radius2 <= (0.5 * extent) ** 2
    return _read_only(np.flatnonzero(ball)), _read_only((1.0 + radius2[ball]) ** 1.5)


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


def _reduced_twiddles(rows: int, columns: int, m: int) -> np.ndarray:
    """exp(2 pi i j k / m) for j < rows, k < columns (m divisible by 4).

    The angle is reduced modulo m in integers, then to its quadrant and
    octant, so that cos and sin see only angles in [0, pi/4] and the
    twiddle is exactly 1, i, -1 or -i at multiples of m/4.  At n = 48,
    exp of the unreduced angles costs 1.1e-14 relative in A and 2.9e-14
    in grad a; exp of angles reduced modulo m alone, 7e-15 in grad a.
    """
    quarter = m // 4
    quadrant, step = np.divmod(np.outer(np.arange(rows), np.arange(columns)) % m, quarter)
    upper = 2 * step > quarter
    angle = (2.0 * np.pi / m) * np.where(upper, quarter - step, step)
    cos, sin = np.cos(angle), np.sin(angle)
    twiddle = np.where(upper, sin + 1j * cos, cos + 1j * sin)
    return twiddle * np.array([1.0, 1j, -1.0, -1j])[quadrant]


@lru_cache(maxsize=8)
def _forward_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, P): the padded forward DFT of the box's n points to m = 2n.

    R is real of shape (n, 2(n+1)): a line of n values times R is its
    rfft of length m, re and im interleaved as `view(float64)` lays
    them out.  P is real of shape (2n+1, n): P times a line g is its
    full DFT of length m in parity form, the even part
    Se(q) = sum_x cos(2 pi q x / m) g(x) for q = 0..n, then the odd part
    T(q) = sum_x sin(2 pi q x / m) g(x) for q = 1..n-1 (the DFT at +-q is
    Se(q) -+ i T(q)), then Se(n) once more, the spare row that
    `_potential_spectrum` turns into -i Se(n).  The padding is folded in,
    so no zero is ever transformed.
    """
    m = 2 * n
    half = _reduced_twiddles(n, n + 1, m).conj()
    twiddle = _reduced_twiddles(n + 1, n, m)
    parity = np.concatenate((twiddle.real, twiddle.imag[1:n], twiddle.real[n:]))
    return _read_only(half.view(np.float64).copy()), _read_only(parity)


def _times_minus_i(re: np.ndarray, im: np.ndarray) -> None:
    """(re, im) <- (im, -re) in place: the complex values times -i, exactly."""
    old = re.copy()
    re[...] = im
    np.negative(old, out=im)


def _potential_spectrum(f: Field, kernel: np.ndarray) -> np.ndarray:
    """The rfftn of f zero-padded to the doubled grid, times `kernel`, in
    parity form on both full axes: real, shape (2n+1, 2(n+1), 2n+1),
    indexed (q2, c3, q1).

    q1 and q2 hold the 2n+1 parity rows of `_forward_matrices`, c3 the
    half axis's re and im interleaved.  `kernel` is an even spectrum in
    the layout of `_kernel_spectrum`, each parity row at its |q|: that
    spectrum itself, or it times |k|^2 (`CoefficientSet.grad_a`).  The
    spare slab q2 = 2n and the spare column q1 = 2n then hold -i times
    the Nyquist slab q2 = n and column q1 = n, which an odd power of k
    reads without the factor i of its other terms
    (`_parity_inverse_matrices`).  Three 2-D products, one per axis; the
    spectrum is allocated first, then the k3 and k1 buffers.  The mean
    mode is sum(f) times the kernel at q = 0, the largest entry of the
    kernel spectrum; on data of both signs the sum cancels, and the three
    nested n-term sums of the products lose up to 3.7e-15 of it at
    n = 48, where one pairwise `np.sum` keeps it within 6e-16 of rfftn.
    No output of a set reads it: every monomial has a zero there.
    """
    grid = f.grid
    n, c, p = grid.n, 2 * (grid.n + 1), 2 * grid.n + 1
    half, parity = _forward_matrices(n)
    spectrum = np.empty((p, c, p))
    g3 = np.empty((n, n, c))
    g1 = np.empty((n, c, p))
    np.matmul(f.values.reshape(n * n, n), half, out=g3.reshape(n * n, c))
    np.matmul(g3.reshape(n, n * c).T, parity.T, out=g1.reshape(n * c, p))
    np.matmul(parity, g1.reshape(n, c * p), out=spectrum.reshape(p, c * p))
    spectrum[0, 0, 0] = np.sum(f.values)
    parts = spectrum.reshape(p, n + 1, 2, p)
    parts *= kernel[:, :, None]
    _times_minus_i(parts[-1, :, 0], parts[-1, :, 1])
    _times_minus_i(parts[:, :, 0, -1], parts[:, :, 1, -1])
    return spectrum


@lru_cache(maxsize=8)
def _parity_inverse_matrices(n: int, extent: float) -> tuple[np.ndarray, ...]:
    """M[p], p = 0..2, real of shape (n, 2n+1): a full axis's spectrum in
    the parity form of `_potential_spectrum` times k^p, inverse-transformed,
    cropped to the box's n points and divided by i^(p mod 2).

    The spectrum at +-q is Se(q) -+ i T(q) with the kernel's evenness
    folded in, so the pair (q, -q) gives 2 k^p (Se cos + T sin) for even
    p and 2i k^p (Se sin - T cos) for odd p: real columns, with the
    weights (1, 2, ..., 2, 1)/m over Se.  At the Nyquist row q = n
    fftfreq puts k = -pi/dv with no partner, so an odd p gives the real
    term k^p Se(n) (-1)^x / m, without the factor i of the others: its
    column acts on the spare row, -i Se(n), and the column of Se(n)
    itself is zero.  For even p the spare column is zero.
    """
    m = 2 * n
    twiddle = _reduced_twiddles(n, n + 1, m)
    weight = np.full(n + 1, 2.0 / m)
    weight[[0, -1]] = 1.0 / m
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=2.0 * extent / n)[: n + 1]
    matrices = []
    for p in range(3):
        scaled = weight * k**p
        even, odd = (twiddle.imag, -twiddle.real) if p % 2 else (twiddle.real, twiddle.imag)
        spare = scaled[n] * twiddle.real[:, n:] if p % 2 else np.zeros((n, 1))
        matrices.append(_read_only(np.hstack((scaled * even, (scaled * odd)[:, 1:n], spare))))
    return tuple(matrices)


@lru_cache(maxsize=16)
def _half_axis_matrices(n: int, extent: float, scale: complex) -> tuple[np.ndarray, ...]:
    """W[c], c = 0..2, real of shape (2(n+1), n): irfft of the half
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
    for c in range(3):
        rotated = (scale * weight * k**c)[:, None] * rows
        matrices.append(_read_only(np.stack((rotated.real, -rotated.imag), axis=1).reshape(2 * (n + 1), n)))
    return tuple(matrices)


def _monomial(*factors: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of k1^a k2^b k3^c, the product of k_i over the listed axes i."""
    return tuple(factors.count(axis) for axis in range(3))


# A_ij is -k_i k_j on the kernel spectrum (SYM_COMPONENTS order), and
# grad_i a is -1j k_i on the kernel spectrum times |k|^2: one monomial per output.
_TENSOR_TERMS = tuple(_monomial(i, j) for i, j in SYM_COMPONENTS)
_DRIFT_TERMS = tuple(_monomial(i) for i in range(3))


def _matrix_inverse(f: Field, kernel: np.ndarray, scale: complex, terms: tuple) -> np.ndarray:
    """scale times each listed monomial times the spectrum of f under
    `kernel` (`_potential_spectrum`), inverse-transformed and cropped to
    the box: one output per monomial, shape (len(terms), n, n, n).

    Each axis is one 2-D real product, none batched, that acts on re and
    im alike.  On the (q2, c3, q1) parity spectrum the q2 product, to
    (j, c3, q1), runs once per power b; each monomial with that b takes
    its own q1 product, to (i, j, c3) lines, and c3 product, which writes
    real values straight into its output.  Even powers skip the spare
    slab or column (`_parity_inverse_matrices`), and the factor
    i^(a mod 2 + b mod 2) that the full axes leave goes into the scale
    of the half-axis matrix.  The output is allocated first, then the
    spectrum and one buffer per axis that every monomial reuses: in that
    order glibc's heap does not grow over a run.
    """
    grid = f.grid
    n, c, p = grid.n, 2 * (grid.n + 1), 2 * grid.n + 1
    full = _parity_inverse_matrices(n, grid.extent)
    out = np.empty((len(terms), n * n, n))
    spectrum = _potential_spectrum(f, kernel).reshape(p, c * p)
    y2 = np.empty((n, c, p))
    g1 = np.empty((n, n, c))
    for b in sorted({b for _, b, _ in terms}):
        rows = p - 1 + b % 2
        np.matmul(full[b][:, :rows], spectrum[:rows], out=y2.reshape(n, c * p))
        for o, (a, power, k3) in enumerate(terms):
            if power == b:
                cols = p - 1 + a % 2
                np.matmul(full[a][:, :cols], y2.reshape(n * c, p)[:, :cols].T, out=g1.reshape(n, n * c))
                half = _half_axis_matrices(n, grid.extent, scale * (1, 1j, -1)[a % 2 + b % 2])[k3]
                np.matmul(g1.reshape(n * n, c), half, out=out[o])
    return out.reshape(len(terms), n, n, n)


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

        a has the symbol -|k|^2 on the kernel spectrum, so grad_i a is the
        monomial k_i, scale -1j, on the kernel spectrum times the k^2 of
        each parity row's |q| (the row map of `_kernel_spectrum`).
        No step of a run reads it: the flux takes its drift from face
        differences of a (`drift_max`).  Verification and the bound
        checks do, and get the values an eager transform would give.
        """
        grid = self.density.grid
        n = grid.n
        full, _, half = _doubled_wavenumbers(n, grid.extent)
        k2 = full.ravel()[np.r_[0 : n + 1, 1:n, n]] ** 2
        laplacian = _kernel_spectrum(n, grid.extent) * (k2[:, None, None] + half.reshape(-1, 1) ** 2 + k2)
        return VecField(grid, _matrix_inverse(self.density, laplacian, -1j, _DRIFT_TERMS))

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
        a11, a22, a33, *_ = values = self.A.values.reshape(6, -1)
        d12, d13, d23 = off = np.abs(values[3:])
        top = float(np.max(values[:3]))
        # max |A| (NaN where any entry is); the row sums overwrite the d each reads last
        scale = float(np.max([top, -float(np.min(values[:3])), float(np.max(off))]))
        bound = np.add(a11, d12)
        bound += d13
        np.maximum(bound, np.add(np.add(a22, d12, out=d12), d23, out=d12), out=bound)
        np.maximum(bound, np.add(np.add(a33, d13, out=d13), d23, out=d13), out=bound)
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
        nodes, weight = _coercivity_ball(grid.n, grid.extent)
        return float(np.min(weight * self.A.eigenvalues_at(nodes)[:, 0]))

    @cached_property
    def drift_max(self) -> float:
        """Largest drift speed the flux reads: max |a(i + e_k) - a(i)| / dv
        over the axes and all faces, the wrap faces included."""
        a, d = self.a.values, np.empty(self.a.grid.shape)
        top = max(float(np.max(np.abs(face_pairs(np.subtract, a, k, d), out=d))) for k in range(3))
        return top / self.a.grid.spacing


def _padded_spectrum(f: Field) -> np.ndarray:
    """rfftn of f zero-padded to the doubled grid, times the kernel spectrum
    mirrored to the full axes: the (k1, k2, k3) spectrum of the check routes."""
    n = f.grid.n
    half = _kernel_spectrum(n, f.grid.extent)[: n + 1, :, : n + 1].transpose(2, 0, 1)
    mirror = np.r_[0 : n + 1, n - 1 : 0 : -1]
    return np.fft.rfftn(f.values, s=(2 * n,) * 3, axes=(0, 1, 2)) * half[np.ix_(mirror, mirror)]


def _cropped_irfftn(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Full irfftn of a doubled-grid spectrum, cropped to the box's n^3 corner (a view)."""
    m = 2 * n
    return np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]


def biharmonic_potential(f: Field) -> Field:
    """Free-space convolution of f with |z|/(8 pi) on the original box (full FFTs: a check route)."""
    _check_boundary_decay(f)
    return Field(f.grid, _cropped_irfftn(_padded_spectrum(f), f.grid.n).copy())


def compute_coefficients(f: Field) -> CoefficientSet:
    """Diffusion matrix and potential from one padded transform.

    Only the six components of A are transformed (3 forward and 15
    inverse matrix products, no FFT call); a is tr A, and grad a waits
    for its first read (`CoefficientSet.grad_a`).
    """
    _check_boundary_decay(f)
    grid = f.grid
    A = SymTensorField(grid, _matrix_inverse(f, _kernel_spectrum(grid.n, grid.extent), -1.0, _TENSOR_TERMS))
    return CoefficientSet(A=A, a=Field(grid, A.trace_values()), density=f)


def structural_residuals(coeffs: CoefficientSet) -> tuple[float, float]:
    """Relative sup residuals of the kernel identities tr A = a and div A = grad a.

    A, a = tr A and grad a are those of `coeffs`, a set as the solver
    builds it.  They are compared with two routes built from the
    potential spectrum of its density: a as the Laplacian-symbol
    transform, and grad a as the divergence-symbol transform of A.  The
    divergence is taken in the doubled transform space where the
    construction defines it; differentiating the extracted (non-periodic)
    box values would only measure windowing artifacts.
    """
    grid = coeffs.density.grid
    n = grid.n
    phat = _padded_spectrum(coeffs.density)
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


def coefficient_upper_bounds(coeffs: CoefficientSet, p: float) -> CoefficientBoundReport:
    """Ratios ||A[f]||_inf and ||grad a[f]||_3 against their interpolation bounds, f the set's density."""
    if not p > 1.5:
        raise ValueError(f"upper bounds require p > 3/2, got {p}")
    f = coeffs.density
    if float(np.min(f.values)) < 0.0 or f.max_abs() == 0.0:
        raise ValueError("upper bounds are stated for nonnegative, nonzero densities")
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
