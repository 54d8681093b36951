"""Nonlocal collision coefficients via a free-space bi-Laplacian potential.

The diffusion matrix A[f], Newtonian potential a[f], and its gradient
are all derived from one convolution:

    Phi = (|z| / 8 pi) * f,    A = hess(Phi),    a = lap(Phi) = tr A,
    grad_a = grad(a) = div(A).

The convolution is free-space (zero-padded to the doubled box, with the
kernel sampled pointwise at every displacement of the doubled lattice),
so periodic images never pollute the long-range potential.  All
derivatives are taken in the doubled transform space; a is taken as
tr A, which linearity makes equal to the Laplacian transform.  Both
transforms run as matrix products on BLAS, not FFTs: at these sizes a
1-D DFT between the box's n points and the doubled grid is a small
dense matrix, and BLAS multiplies by it faster than an FFT walks the
strided lines.  The forward matrix folds in the zero padding, so no
zero is ever transformed (Hockney-Eastwood; `_potential_spectrum`).

The kernel depends on |z| alone, so its sampled spectrum is real and
even in each axis, and only its q >= 0 half is read
(`_kernel_spectrum`): the DCT-I of the kernel's (n+1)^3 samples on one
octant, three real GEMMs in place of an rfftn of the whole doubled
lattice.  All three axes are therefore carried in one parity form: each
line's even part Se(q), q = 0..n, and odd part T(q), q = 1..n-1, 2n real
rows where a complex spectrum has 2n complex entries.  The spectrum is
real, stored as (q2, q3, q1), and every product, forward and inverse, is
one real 2-D GEMM, none batched, with one forward matrix
(`_forward_matrix`) and one family of derivative matrices
(`_derivative_matrices`) on every axis.  The Nyquist row q = n has no
partner to make an odd derivative real, so it reads k = 0 on every axis,
as `grid._derivative_matrix` does (Trefethen, Spectral Methods in
MATLAB, SIAM 2000, ch. 3); the set is then symmetric under any
permutation of the axes, to roundoff.  Each output is one monomial, the
derivative d1^a d2^b d3^c: the q2 product runs once per power b, and
each output takes its own q1 and q3 products.  A set transforms only the
six components of A, and a is their trace: 3 forward and 15 inverse
products, 0.79 GFLOP at n = 48.  grad a is transformed from the set's
density on first read, as the monomials d_i on the kernel spectrum times
-|k|^2: 3 more forward and 8 inverse products, 0.51 GFLOP at n = 48.
The results agree with full irfftn of the same even kernel spectrum and
the same k to roundoff, not bit for bit, and do not depend on the number
of BLAS threads.  The check routes (`biharmonic_potential`,
`structural_residuals`) take the full spectrum from rfftn of the padded
density instead (`_padded_spectrum`).

The eigenvalues run only where they can matter, in one LAPACK
`eigvalsh` call per set (`SymTensorField.eigenvalues_at`): `lambda_max`
on the nodes whose Gershgorin row bound reaches the largest diagonal
entry, `c0_empirical` on the ball nodes whose lower bound reaches the
ball's least weighted diagonal entry.  That is 2 nodes per set on the
seed-0 benchmark runs.  Both equal a full pass bit for bit, since LAPACK
solves each node's matrix on its own.  `coefficient_upper_bounds`
screens the same way for the nodes that can hold a negative eigenvalue
larger in size than `lambda_max`.
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
from .grid import SYM_COMPONENTS, Field, SymTensorField, VecField, make_grid

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
# Slack of the eigenvalue screens (`CoefficientSet._extremes`), relative to the largest entry:
# far above LAPACK's backward error, a small multiple of eps * ||A||, and the screens' own rounding.
_SCREEN_SLACK = 2.0**-40


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=8)
def _kernel_spectrum(n: int, extent: float) -> np.ndarray:
    """The kernel's doubled-grid spectrum times the cell volume, in the
    parity layout of `_potential_spectrum`: real, shape (2n, n+1, 2n),
    indexed (q2, q3, q1), read-only.

    It is the DFT of |z|/(8 pi) sampled on the doubled periodic lattice,
    whose displacements wrap to (-2L, 2L] per axis and so include every
    displacement between two nodes of the box.  The sampled kernel is
    even in each axis, so its spectrum is real and even, and its q >= 0
    octant is the 3-D DCT-I of the (n+1)^3 samples at z_i = 0, dv, ..,
    n dv = 2L (Martucci, IEEE Trans. Signal Process. 42, 1994): on each
    axis the (n+1) x (n+1) cosine matrix cos(2 pi q x / 2n), its interior
    columns doubled, built from `_reduced_twiddles`.  The transform runs
    on sqrt(i^2 + j^2 + k^2), exact integer squares, and dv^4 / (8 pi)
    scales its output once.  It agrees with the real part of rfftn of
    the whole (2n)^3 lattice within 1.8e-16 of the largest entry at
    n = 8 to 48, and with a long-double DCT-I within 8.7e-17, where
    rfftn is within 1.8e-16.  It takes 0.4, 0.6 and 2.5 ms at n = 24,
    32 and 48, and allocates neither the (2n)^3 kernel nor its complex
    half spectrum.  Each product is (n+1)^2 rows tall against the
    (n+1)-column matrix and appends its q as the last axis, so BLAS
    splits only the tall rows over its threads and the bits do not
    depend on the thread count; with the (n+1)-row matrix on the left,
    one and two threads gave other bits at n = 32 and 48.  A permutation
    of the axes moves an entry by up to 1.4e-16 of the largest, 1.6e-8
    of itself at n = 48.

    q1 and q2 hold each parity row at its |q|, and q3 holds q = 0..n,
    which `_potential_spectrum` applies to the even and the odd rows
    alike, so every reader sees one even spectrum by construction, the
    check routes included (`_padded_spectrum`).
    """
    grid = make_grid(n, extent)
    p = n + 1
    squares = np.arange(p, dtype=float) ** 2
    roots = np.add.outer(np.add.outer(squares, squares), squares)
    np.sqrt(roots, out=roots)
    cosine = _reduced_twiddles(p, p, 2 * n).real * np.r_[1.0, np.full(n - 1, 2.0), 1.0]
    # each product contracts the first axis and appends its q last, so the
    # symmetric samples come out as (q2, q3, q1)
    spectrum = np.matmul(roots.reshape(p * p, p), cosine.T)
    for _ in range(2):
        spectrum = np.matmul(spectrum.reshape(p, p * p).T, cosine.T)
    spectrum *= grid.spacing * grid.cell_volume / (8.0 * np.pi)
    q = np.r_[0 : n + 1, 1:n]  # |q| of each parity row (`_forward_matrix`)
    return _read_only(np.take(np.take(spectrum.reshape(p, p, p), q, axis=0), q, axis=2))


def _wavenumbers(n: int, extent: float) -> np.ndarray:
    """|k| of the doubled grid at q = 0..n, with k = 0 at the Nyquist row
    q = n, as in `grid._derivative_matrix`."""
    k = 2.0 * np.pi * np.fft.rfftfreq(2 * n, d=2.0 * extent / n)
    k[n] = 0.0
    return k


@lru_cache(maxsize=8)
def _doubled_wavenumbers(n: int, extent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers of the doubled rfftn layout, `_wavenumbers`
    mirrored on the two full axes, broadcast as (k1, k2, k3)."""
    half = _wavenumbers(n, extent)
    full = np.r_[half, -half[n - 1 : 0 : -1]]
    return full[:, None, None], full[None, :, None], half[None, None, :]


@lru_cache(maxsize=8)
def _coercivity_ball(n: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the nodes with |v| <= L/2 and their weights
    <v>^3 = (1 + |v|^2)^1.5, read-only (`CoefficientSet.c0_empirical`)."""
    radius2 = make_grid(n, extent).radius2.reshape(-1)
    ball = radius2 <= (0.5 * extent) ** 2
    return _read_only(np.flatnonzero(ball)), _read_only((1.0 + radius2[ball]) ** 1.5)


def _check_boundary_decay(f: Field) -> None:
    face_max = max(float(np.max(np.abs(f.values.take(end, axis=k)))) for k in range(3) for end in (0, -1))
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
def _forward_matrix(n: int) -> np.ndarray:
    """P, real of shape (2n, n): the padded forward DFT of the box's n
    points to m = 2n, in parity form.

    P times a line g is its even part Se(q) = sum_x cos(2 pi q x / m) g(x)
    for q = 0..n, then its odd part T(q) = sum_x sin(2 pi q x / m) g(x)
    for q = 1..n-1; the DFT at +-q is Se(q) -+ i T(q), and T vanishes at
    q = 0 and q = n.  The padding is folded in, so no zero is ever
    transformed.
    """
    twiddle = _reduced_twiddles(n + 1, n, 2 * n)
    return _read_only(np.concatenate((twiddle.real, twiddle.imag[1:n])))


def _potential_spectrum(f: Field, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DFT of f zero-padded to the doubled grid, times `kernel`, in
    parity form on all three axes: real, shape (2n, 2n, 2n), indexed
    (q2, q3, q1); and the two axis buffers its products used, of shapes
    (n, 2n, 2n) and (n, n, 2n), free for the inverse products to reuse.

    `kernel` is an even spectrum in the layout of `_kernel_spectrum`:
    that spectrum itself, or it times -|k|^2 (`CoefficientSet.grad_a`).
    Its q3 = 0..n multiply the even rows q3 = 0..n, and its q3 = 1..n-1
    the odd rows.  Three 2-D products with `_forward_matrix`, one per
    axis.  The spectrum and the buffers are views of one allocation.
    glibc serves a request from fresh pages when it exceeds its mmap
    threshold, which rises to the largest mapped block freed so far, so
    the first set's block lifts it above every later set's scratch,
    which then comes from the heap, whatever the process allocated
    before: with three separate arrays, relaxation24_long ran 13,700
    page faults a pass once the kernel spectrum stopped allocating
    (2n)^3 arrays, and 2,100 with one block (550 with the rfftn kernel,
    whose temporaries lifted the threshold first).  The mean mode is
    sum(f) times the kernel at q = 0, the largest entry of the kernel
    spectrum; on data of both signs the sum cancels, and
    the three nested n-term sums of the products lose up to 3.7e-15 of
    it at n = 48, where one pairwise `np.sum` keeps it within 6e-16 of
    rfftn.  No output of a set reads it: every monomial has a zero there.
    """
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    parity = _forward_matrix(n)
    block = np.empty(m**3 + n * m * m + n * n * m)
    spectrum = block[: m**3].reshape(m, m, m)
    g1 = block[m**3 : m**3 + n * m * m].reshape(n, m, m)
    g3 = block[m**3 + n * m * m :].reshape(n, n, m)
    np.matmul(f.values.reshape(n * n, n), parity.T, out=g3.reshape(n * n, m))
    np.matmul(g3.reshape(n, n * m).T, parity.T, out=g1.reshape(n * m, m))
    np.matmul(parity, g1.reshape(n, m * m), out=spectrum.reshape(m, m * m))
    spectrum[0, 0, 0] = np.sum(f.values)
    spectrum[:, : n + 1] *= kernel
    spectrum[:, n + 1 :] *= kernel[:, 1:n]
    return spectrum, g1, g3


@lru_cache(maxsize=8)
def _derivative_matrices(n: int, extent: float) -> tuple[np.ndarray, ...]:
    """D[p], p = 0..2, real of shape (n, 2n): an axis's spectrum in the
    parity form of `_forward_matrix` times (i k)^p, inverse-transformed
    and cropped to the box's n points.

    With the kernel's evenness folded in, the pair (q, -q) gives the
    real terms k^p (Se Re(i^p e) + T Im(i^p e)) times 2/m, where
    e = exp(2 pi i q x / m), and the same formula serves every
    q = 0..n with the weights (1, 2, ..., 2, 1)/m over Se.  At the
    Nyquist row q = n, sin(pi x) = 0 zeroes the column of an odd p, and
    k = 0 (`_wavenumbers`) that of an even p >= 2.
    """
    m = 2 * n
    twiddle = _reduced_twiddles(n, n + 1, m)
    weight = np.full(n + 1, 2.0 / m)
    weight[[0, -1]] = 1.0 / m
    k = _wavenumbers(n, extent)
    matrices = []
    for p in range(3):
        rotated = (1, 1j, -1)[p] * (weight * k**p * twiddle)
        matrices.append(_read_only(np.hstack((rotated.real, rotated.imag[:, 1:n]))))
    return tuple(matrices)


def _monomial(*factors: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of d1^a d2^b d3^c, the product of d_i over the listed axes i."""
    return tuple(factors.count(axis) for axis in range(3))


# A_ij is d_i d_j on the kernel spectrum (SYM_COMPONENTS order), and
# grad_i a is d_i on the kernel spectrum times -|k|^2: one monomial per output.
_TENSOR_TERMS = tuple(_monomial(i, j) for i, j in SYM_COMPONENTS)
_DRIFT_TERMS = tuple(_monomial(i) for i in range(3))


def _matrix_inverse(f: Field, kernel: np.ndarray, terms: tuple) -> np.ndarray:
    """Each listed monomial d1^a d2^b d3^c of the spectrum of f under
    `kernel` (`_potential_spectrum`), inverse-transformed and cropped to
    the box: one output per monomial, shape (len(terms), n, n, n).

    Each axis is one 2-D real product with `_derivative_matrices`, none
    batched.  On the (q2, q3, q1) spectrum the q2 product, to
    (j, q3, q1), runs once per power b; each monomial with that b takes
    its own q1 product, to (i, j, q3) lines, and q3 product, which
    writes straight into its output.  The spectrum and one buffer per
    axis, which every monomial reuses, come first, from the forward
    pass, and the output last: in that order glibc's heap does not grow
    over a run, where the output allocated first raised the peak RSS of
    the trio48 benchmark from 88.0 to 91.5 MiB.
    """
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    d = _derivative_matrices(n, grid.extent)
    spectrum, y2, g1 = _potential_spectrum(f, kernel)
    spectrum = spectrum.reshape(m, m * m)
    out = np.empty((len(terms), n * n, n))
    for b in sorted({b for _, b, _ in terms}):
        np.matmul(d[b], spectrum, out=y2.reshape(n, m * m))
        for o, (a, power, c) in enumerate(terms):
            if power == b:
                np.matmul(d[a], y2.reshape(n * m, m).T, out=g1.reshape(n, n * m))
                np.matmul(g1.reshape(n * n, m), d[c].T, out=out[o])
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
        monomial d_i on the kernel spectrum times -|k|^2, each parity row
        at its |q| (the row map of `_kernel_spectrum`, with k = 0 at the
        Nyquist row).  No step of a run reads it; verification and the
        bound checks do, and get the values an eager transform would give.
        """
        grid = self.density.grid
        n = grid.n
        k2 = _wavenumbers(n, grid.extent) ** 2
        rows = k2[np.r_[0 : n + 1, 1:n]]
        laplacian = _kernel_spectrum(n, grid.extent) * -(rows[:, None, None] + k2[:, None] + rows)
        return VecField(grid, _matrix_inverse(self.density, laplacian, _DRIFT_TERMS))

    @cached_property
    def _extremes(self) -> tuple[float, float]:
        """`lambda_max` and `c0_empirical` from one `eigvalsh` call on their
        screened nodes.  A non-finite entry fails every comparison, so it
        keeps every node, as does an all-zero field."""
        values = self.A.values.reshape(6, -1)
        a11, a22, a33 = values[:3]
        d12, d13, d23 = off = np.abs(values[3:])
        top = float(np.max(values[:3]))
        # max |A| (NaN where any entry is); the row sums overwrite the d each reads last
        scale = float(np.max([top, -float(np.min(values[:3])), float(np.max(off))]))
        bound = np.add(a11, d12)
        bound += d13
        np.maximum(bound, np.add(np.add(a22, d12, out=d12), d23, out=d12), out=bound)
        np.maximum(bound, np.add(np.add(a33, d13, out=d13), d23, out=d13), out=bound)
        peak = np.flatnonzero(~(bound < top - _SCREEN_SLACK * scale))
        ball, weight = _coercivity_ball(self.A.grid.n, self.A.grid.extent)
        gathered = values[:, ball]
        largest, exponent = np.frexp(np.max(np.abs(gathered)))
        b11, b22, b33, b12, b13, b23 = comps = np.ldexp(gathered, -exponent)
        q = (b11 + b22 + b33) / 3.0
        j2 = 0.5 * ((b11 - q) ** 2 + (b22 - q) ** 2 + (b33 - q) ** 2) + b12**2 + b13**2 + b23**2
        upper = np.min(weight * np.min(comps[:3], axis=0))
        keep = ~(weight * (q - 2.0 * np.sqrt(j2 / 3.0)) > upper + _SCREEN_SLACK * largest * np.max(weight))
        eig = self.A.eigenvalues_at(np.concatenate((peak, ball[keep])))
        return float(np.max(eig[: len(peak), 2])), float(np.min(weight[keep] * eig[len(peak) :, 0]))

    @cached_property
    def lambda_max(self) -> float:
        """Largest diffusion eigenvalue over the grid (time-step control).

        A node's largest eigenvalue lies between its largest diagonal
        entry and its largest Gershgorin row sum A_ii + sum_j |A_ij|, so
        only nodes whose row bound reaches the grid's largest diagonal
        entry can hold the maximum; LAPACK runs on those alone.  The
        screen keeps a slack of 2^-40 times the largest entry, far above
        LAPACK's backward error, a small multiple of eps ||A||, and the
        rounding of the row sums.
        """
        return self._extremes[0]

    @cached_property
    def c0_empirical(self) -> float:
        """min over |v| <= L/2 of <v>^3 lambda_min(A).

        Restricted to the half-extent ball: near the boundary the
        truncated tail of the source biases the smallest eigenvalue.
        A node's lambda_min lies between q - 2 sqrt(J2/3), with q = tr A / 3
        and J2 = tr B^2 / 2 of the deviator B = A - q I (a traceless
        symmetric 3x3 matrix has no eigenvalue beyond that radius), and
        its smallest diagonal entry,
        so only nodes whose weighted lower bound reaches U = min over the
        ball of <v>^3 min_i A_ii can hold the minimum.  The screen works
        on the ball scaled by one exact power of two, so J2 neither
        overflows nor underflows, with a slack of 2^-40 times the largest
        entry and weight: LAPACK's eigenvalues are within a small multiple
        of eps times a node's largest entry, and the bound and U within a
        few ulps.
        """
        return self._extremes[1]


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
    A = SymTensorField(grid, _matrix_inverse(f, _kernel_spectrum(grid.n, grid.extent), _TENSOR_TERMS))
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


def _sup_eigenvalue_magnitude(coeffs: CoefficientSet) -> float:
    """||A||_inf, the largest |eigenvalue| over the grid: max(`lambda_max`, -lambda_min).

    A node's eigenvalues lie at or above its Gershgorin lower bound
    min_i (A_ii - sum_j |A_ij|), so only nodes whose bound reaches below
    -`lambda_max` can hold a larger |lambda_min|; LAPACK runs on those
    alone, with the slack of `CoefficientSet._extremes`.  LAPACK solves
    each node on its own, so this equals the largest |eigenvalue| of a
    full pass bit for bit.  A non-finite entry fails every comparison and
    keeps its node, which reads NaN.
    """
    values = coeffs.A.values.reshape(6, -1)
    d12, d13, d23 = np.abs(values[3:])
    scale = float(np.max(np.abs(values)))
    lower = np.minimum(np.minimum(values[0] - d12 - d13, values[1] - d12 - d23), values[2] - d13 - d23)
    top = coeffs.lambda_max
    nodes = np.flatnonzero(~(lower > -top + _SCREEN_SLACK * scale))
    return float(np.max(np.concatenate(([top], -coeffs.A.eigenvalues_at(nodes)[:, 0]))))


def coefficient_upper_bounds(coeffs: CoefficientSet, p: float) -> CoefficientBoundReport:
    """Ratios ||A[f]||_inf and ||grad a[f]||_3 against their interpolation bounds, f the set's density."""
    if not p > 1.5:
        raise ValueError(f"upper bounds require p > 3/2, got {p}")
    f = coeffs.density
    if float(np.min(f.values)) < 0.0 or f.max_abs() == 0.0:
        raise ValueError("upper bounds are stated for nonnegative, nonzero densities")
    a_inf = _sup_eigenvalue_magnitude(coeffs)
    grad_a_l3 = lp_m_norm(Field(f.grid, coeffs.grad_a.magnitude()), NormRequest(3.0))
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
