import hashlib
import itertools
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import one_blas_thread_stdout, stacked_matrices
from landau import coefficients
from landau.coefficients import (
    CoefficientSet,
    biharmonic_potential,
    coefficient_upper_bounds,
    compute_coefficients,
    direct_quadrature_coefficients,
    structural_residuals,
)
from landau.fields import maxwellian
from landau.grid import SYM_COMPONENTS, Field, SymTensorField, _derivative_matrix, make_grid, spectral_gradient
from landau.solver import AnisotropicGaussian, Maxwellian, SimConfig, TwoBump, initial_datum, rhs
from landau.verify import corpus_fields, maxwellian_closed_form_gap, maxwellian_drift_closed_form_gap


@pytest.fixture(scope="module")
def grid48():
    return make_grid(48, 8.0)


@pytest.fixture(scope="module")
def mu48(grid48):
    return maxwellian(grid48)


@pytest.fixture(scope="module")
def coeffs48(mu48):
    return compute_coefficients(mu48)


class TestPaddedForwardTransform:
    """The matrix forward transform of the padded density, its twiddles and the kernel spectrum, against full rfftn."""

    @pytest.mark.parametrize("n", [8, 24, 48])
    def test_potential_spectrum_matches_padded_rfftn(self, n):
        grid = make_grid(n, 8.0)
        f = Field(grid, np.random.default_rng(n).standard_normal(grid.shape))
        padded = np.zeros((2 * n,) * 3)
        padded[:n, :n, :n] = f.values
        expected = np.fft.rfftn(padded) * even_kernel_spectrum(grid)
        parity, *_ = coefficients._potential_spectrum(f, coefficients._kernel_spectrum(n, 8.0))
        assert parity.shape == (2 * n,) * 3 and parity.dtype == np.float64
        got = unfold_parity(unfold_parity(unfold_parity(parity, 0), 1), 2).transpose(2, 0, 1)[:, :, : n + 1]
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [8, 24, 32, 48])
    def test_kernel_spectrum_keeps_the_real_part_of_a_real_spectrum(self, n):
        extent = 8.0
        grid = make_grid(n, extent)
        m, dv = 2 * n, grid.spacing
        z = np.fft.fftfreq(m, d=1.0 / m) * dv
        r = np.sqrt(z[:, None, None] ** 2 + z[None, :, None] ** 2 + z[None, None, :] ** 2)
        full = np.fft.rfftn(r / (8.0 * np.pi))
        cached = coefficients._kernel_spectrum(n, extent)
        assert not np.iscomplexobj(cached) and cached.shape == (m, n + 1, m)
        # the q >= 0 half times the cell volume, each parity row at its |q|; the octant DCT-I
        # is within 1.82e-16 of the largest entry at n = 24, 32 and 48 (7.1e-17 at n = 8)
        q = np.r_[0 : n + 1, 1:n]
        kept = (full.real[: n + 1, : n + 1] * grid.cell_volume).transpose(1, 2, 0)[np.ix_(q, np.arange(n + 1), q)]
        assert np.max(np.abs(cached - kept)) <= 2.5e-16 * np.max(np.abs(kept))
        # the kernel is even, so the dropped imaginary part and the dropped mirror q -> -q are rounding
        top = np.max(np.abs(full.real))
        assert np.max(np.abs(full.imag)) <= 1e-15 * top
        negative = -np.arange(m) % m
        assert np.max(np.abs(full.real[negative] - full.real)) <= 1e-16 * top
        assert np.max(np.abs(full.real[:, negative] - full.real)) <= 1e-16 * top

    def test_kernel_spectrum_does_not_depend_on_blas_threads(self):
        # each product is (n+1)^2 rows tall; with the (n+1)-row cosine matrix on the left,
        # one and two threads gave other bits at n = 32 and 48
        sizes = (24, 32, 48)
        script = (
            "import hashlib; from landau.coefficients import _kernel_spectrum; "
            f"print(*(hashlib.sha256(_kernel_spectrum(n, 8.0).tobytes()).hexdigest() for n in {sizes}))"
        )
        here = [hashlib.sha256(coefficients._kernel_spectrum(n, 8.0).tobytes()).hexdigest() for n in sizes]
        assert one_blas_thread_stdout(script).split() == here

    @pytest.mark.parametrize("m", [32, 48, 96])
    def test_twiddles_are_exact_at_quarter_turns(self, m):
        twiddle = coefficients._reduced_twiddles(m, m, m)
        turns = np.outer(np.arange(m), np.arange(m)) % m
        for quarter, exact in enumerate((1.0, 1j, -1.0, -1j)):
            at = twiddle[turns == quarter * m // 4]
            assert at.size and np.all(at.real == exact.real) and np.all(at.imag == exact.imag)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="needs an extended-precision long double")
    @pytest.mark.parametrize("m", [20, 48, 96])
    def test_twiddles_are_within_an_ulp(self, m):
        twiddle = coefficients._reduced_twiddles(m, m, m)
        angle = (2 * np.longdouble("3.14159265358979323846264338327950288") / m) * np.outer(np.arange(m), np.arange(m))
        assert np.max(np.abs(twiddle.real - np.cos(angle))) <= np.finfo(float).eps
        assert np.max(np.abs(twiddle.imag - np.sin(angle))) <= np.finfo(float).eps


def even_kernel_spectrum(grid):
    """The full (k1, k2, k3) kernel spectrum, times the cell volume, as the mirror of the cached q >= 0 half."""
    n = grid.n
    half = coefficients._kernel_spectrum(n, grid.extent)[: n + 1, :, : n + 1].transpose(2, 0, 1)
    mirror = np.r_[0 : n + 1, n - 1 : 0 : -1]
    return half[np.ix_(mirror, mirror)]


def unfold_parity(parity, axis):
    """The 2n full-axis rows of a spectrum in parity form along `axis`:
    Se(q) - i T(q) at q = 0..n, Se(q) + i T(q) at -q, from the rows Se(0..n), T(1..n-1)."""
    n = parity.shape[axis] // 2
    even = np.take(parity, np.r_[0 : n + 1, n - 1 : 0 : -1], axis=axis)
    odd = np.take(parity, np.r_[n, n + 1 : 2 * n, n, 2 * n - 1 : n : -1], axis=axis)
    shape = [1] * parity.ndim
    shape[axis] = 2 * n
    factor = np.r_[0.0, np.full(n - 1, -1j), 0.0, np.full(n - 1, 1j)].reshape(shape)
    return even + factor * odd


def oracle_coefficients(f):
    """A, a and grad a from nine full doubled-grid irfftn of the symbol products, cropped,
    with k = 0 at the Nyquist row of every axis."""
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    padded = np.zeros((m, m, m))
    padded[:n, :n, :n] = f.values
    phat = np.fft.rfftn(padded) * even_kernel_spectrum(grid)
    full = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    half = 2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing)
    full[n] = half[n] = 0.0
    k = (full[:, None, None], full[None, :, None], half[None, None, :])

    def inverse(spectrum):
        return np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]

    A = np.stack([inverse(-(k[i] * k[j]) * phat) for i, j in SYM_COMPONENTS])
    lap = -(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * phat
    grad = np.stack([inverse(1j * k[i] * lap) for i in range(3)])
    return A, A[0] + A[1] + A[2], grad


@lru_cache(maxsize=None)
def oracle_case(n, datum):
    f = initial_datum(SimConfig(n=n, initial=datum))
    return f, oracle_coefficients(f)


DATA = [AnisotropicGaussian((0.8, 1.0, 1.2)), TwoBump(2.0), Maxwellian()]


class TestFactoredTransforms:
    """The matrix inverse transforms against nine full irfftn."""

    # at n = 8 the data reach the faces; the warning does not bear on the transforms
    @pytest.mark.filterwarnings("ignore:source density")
    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("datum", DATA)
    def test_matches_full_inverse_transforms(self, n, datum):
        f, oracle = oracle_case(n, datum)
        got = compute_coefficients(f)
        for value, expected in zip((got.A.values, got.a.values, got.grad_a.values), oracle):
            assert np.max(np.abs(value - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [24, 48])
    @pytest.mark.parametrize("datum", DATA)
    def test_matches_full_inverse_transforms_to_a_few_ulps(self, n, datum):
        # octant-reduced twiddles (`_reduced_twiddles`); at n = 48, exp of the angles reduced modulo m
        # alone reads 7e-15 in grad a, and exp of the unreduced angles 1.1e-14 in A and 2.9e-14 in grad a
        f, (A, _, grad) = oracle_case(n, datum)
        got = compute_coefficients(f)
        for value, expected in ((got.A.values, A), (got.grad_a.values, grad)):
            assert np.max(np.abs(value - expected)) <= 3e-15 * np.max(np.abs(expected))

    # random data reach the faces; the warning does not bear on the transforms
    @pytest.mark.filterwarnings("ignore:source density")
    @pytest.mark.parametrize("n, bound", [(8, 1e-14), (24, 3e-15)])
    def test_rough_data_reach_the_nyquist_terms(self, n, bound):
        # rough data carry the Nyquist rows, where every axis reads k = 0; against an oracle with fftfreq's
        # k = -pi/dv there, A reads 0.73 and grad a 0.23 here at n = 8 (0.30 and 0.077 at n = 24)
        f = Field(make_grid(n, 8.0), np.random.default_rng(n).standard_normal((n, n, n)))
        A, _, grad = oracle_coefficients(f)
        got = compute_coefficients(f)
        for value, expected in ((got.A.values, A), (got.grad_a.values, grad)):
            assert np.max(np.abs(value - expected)) <= bound * np.max(np.abs(expected))

    # random data reach the faces; the warning does not bear on the transforms
    @pytest.mark.filterwarnings("ignore:source density")
    @pytest.mark.parametrize("n", [8, 24])
    def test_symmetric_under_swapping_v1_and_v3(self, n):
        # random data at n = 8 (2.2e-14 of max |A| and 2.1e-14 of max |grad a|), the anisotropic datum at
        # n = 24 (5.0e-15 and 9.3e-15); with irfftn's Nyquist rows, whose k differs between the full and the
        # half axes, the swap moved A by 0.14 and 6.6e-7, and grad a by 0.23 and 5.2e-5
        if n == 8:
            f = Field(make_grid(n, 8.0), np.random.default_rng(n).standard_normal((n, n, n)))
        else:
            f = initial_datum(SimConfig(n=n, initial=AnisotropicGaussian((0.8, 1.0, 1.2))))
        coeffs = compute_coefficients(f)
        swapped = compute_coefficients(Field(f.grid, np.ascontiguousarray(f.values.transpose(2, 1, 0))))
        axis = (2, 1, 0)  # axis i of f is axis axis[i] of the swapped field
        A = np.stack([swapped.A.component(axis[i], axis[j]).transpose(2, 1, 0) for i, j in SYM_COMPONENTS])
        grad = swapped.grad_a.values[list(axis)].transpose(0, 3, 2, 1)
        assert np.max(np.abs(A - coeffs.A.values)) <= 1e-13 * np.max(np.abs(coeffs.A.values))
        assert np.max(np.abs(grad - coeffs.grad_a.values)) <= 1e-13 * np.max(np.abs(coeffs.grad_a.values))

    @pytest.mark.parametrize("n", [8, 48])
    def test_cached_matrices_are_read_only(self, n):
        cached = [
            coefficients._kernel_spectrum(n, 8.0),
            *coefficients._derivative_matrices(n, 8.0),
            coefficients._forward_matrix(n),
            _derivative_matrix(n, 16.0 / n),
        ]
        for matrix in cached:
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0] = 0.0


def rough_two_bump(n):
    """two_bump with weights (0.3, 0.7), not even in v1, times 1 + 0.2 noise, and zero on the
    planes i = 0, which have no mirror in the box: a reflection only permutes its nodes."""
    f = initial_datum(SimConfig(n=n, initial=TwoBump(2.0, (0.3, 0.7))))
    values = f.values * (1.0 + 0.2 * np.random.default_rng(n).standard_normal(f.grid.shape))
    values[0] = values[:, 0] = values[:, :, 0] = 0.0
    return Field(f.grid, values)


class TestCubeSymmetry:
    """The set and `rhs` commute with the permutations and reflections of the velocity axes."""

    @pytest.mark.parametrize("n", [16, 24])
    def test_a_set_commutes_with_every_permutation_of_the_axes(self, n):
        # measured: 6.8e-15 of max |A| and 1.9e-14 of max |grad a| at n = 16, 6.5e-15 and 1.8e-14 at n = 24
        f = rough_two_bump(n)
        coeffs = compute_coefficients(f)
        for perm in itertools.permutations(range(3)):
            moved = compute_coefficients(Field(f.grid, np.ascontiguousarray(f.values.transpose(perm))))
            back = np.argsort(perm)  # axis i of f is axis back[i] of the moved field
            A = np.stack([moved.A.component(back[i], back[j]).transpose(back) for i, j in SYM_COMPONENTS])
            grad = np.stack([moved.grad_a.values[back[i]].transpose(back) for i in range(3)])
            assert np.max(np.abs(A - coeffs.A.values)) <= 1e-13 * np.max(np.abs(coeffs.A.values))
            assert np.max(np.abs(grad - coeffs.grad_a.values)) <= 1e-13 * np.max(np.abs(coeffs.grad_a.values))

    @pytest.mark.parametrize("n, rhs_bound", [(16, 4e-12), (24, 3e-13)])
    def test_a_set_and_rhs_commute_with_each_axis_reflection(self, n, rhs_bound):
        # node i of the reflection along k is node n - i, off the plane i = 0.  Measured: A and grad a
        # within 4.0e-16 and 5.0e-16 of their largest entries; rhs within 2.7e-12 of max |rhs| at n = 16
        # and 1.5e-13 at n = 24, where the wrap face next to the plane reads A at v = -L, not its mirror
        f = rough_two_bump(n)
        coeffs = compute_coefficients(f)
        collision = rhs(f, coeffs).values
        mirror = np.r_[0, n - 1 : 0 : -1]
        for k in range(3):
            reflected = compute_coefficients(Field(f.grid, np.take(f.values, mirror, axis=k)))
            off = (slice(None),) * (k + 1) + (slice(1, None),)
            sign = np.array([(-1.0) ** ((i == k) + (j == k)) for i, j in SYM_COMPONENTS])
            A = sign[:, None, None, None] * np.take(reflected.A.values, mirror, axis=k + 1)
            grad = np.where(np.arange(3) == k, -1.0, 1.0)[:, None, None, None] * np.take(
                reflected.grad_a.values, mirror, axis=k + 1
            )
            assert np.max(np.abs(A - coeffs.A.values)[off]) <= 1e-14 * np.max(np.abs(coeffs.A.values))
            assert np.max(np.abs(grad - coeffs.grad_a.values)[off]) <= 1e-14 * np.max(np.abs(coeffs.grad_a.values))
            back = np.take(rhs(reflected.density, reflected).values, mirror, axis=k)
            assert np.max(np.abs(back - collision)[off[1:]]) <= rhs_bound * np.max(np.abs(collision))


class TestTransformOnRead:
    """A set transforms the six components of A; grad a waits for its first read."""

    def test_a_set_and_its_grad_a_make_no_fft_call(self, fft_calls):
        f = initial_datum(SimConfig(n=16, initial=AnisotropicGaussian((0.8, 1.0, 1.2))))
        compute_coefficients(f)  # the kernel spectrum is built and cached outside the count
        fft_calls.clear()
        coeffs = compute_coefficients(f)
        coeffs.grad_a
        # every forward and inverse pass is a matrix product
        assert fft_calls == []

    def test_every_inverse_product_is_one_gemm(self, matmul_shapes):
        n = 16
        m = 2 * n
        f = initial_datum(SimConfig(n=n, initial=AnisotropicGaussian((0.8, 1.0, 1.2))))
        compute_coefficients(f)  # the cached matrices are built outside the count
        matmul_shapes.clear()
        coeffs = compute_coefficients(f)
        of_the_set = list(matmul_shapes)
        matmul_shapes.clear()
        coeffs.grad_a
        # the forward pass: x3, x1 and x2 in parity form, each one 2-D product
        forward = [((n * n, n), (n, m)), ((n * m, n), (n, m)), ((m, n), (n, m * m))]
        for shapes, per_axis in ((of_the_set, (3, 6, 6)), (matmul_shapes, (2, 3, 3))):
            assert [(x, y) for x, y, *_ in shapes[:3]] == forward
            # then per power of d2 one q2 product, per monomial one q1 and one q3 product
            inverse = shapes[3:]
            q2 = [(x, y) for x, y, *_ in inverse if (x, y) == ((n, m), (m, m * m))]
            q1 = [(x, y) for x, y, *_ in inverse if (x, y) == ((n, m), (m, n * m))]
            q3 = [(x, y) for x, y, *_ in inverse if (x, y) == ((n * n, m), (m, n))]
            assert (len(q2), len(q1), len(q3)) == per_axis and len(inverse) == sum(per_axis)
            # every product is 2-D float64 and contracts the box's n points or the 2n parity rows
            assert all(len(x) == len(y) == 2 and dx == dy == np.float64 for x, y, dx, dy in shapes)
            assert all(x[1] == y[0] == n for x, y, *_ in shapes[:3]) and all(x[1] == y[0] == m for x, y, *_ in inverse)

    def test_a_set_is_at_most_0_79_gflop_at_n48(self, matmul_shapes):
        # 148 n^4: 28 forward, 3 q2 products of 16, 6 q1 of 8 and 6 q3 of 4
        f = initial_datum(SimConfig(n=48, initial=TwoBump(2.0)))
        compute_coefficients(f)
        matmul_shapes.clear()
        compute_coefficients(f)
        flop = sum(2 * x[0] * x[1] * y[1] for x, y, *_ in matmul_shapes)
        assert 0.78e9 <= flop <= 0.79e9

    def test_grad_a_is_11_products_of_0_51_gflop_at_n48(self, matmul_shapes):
        # one monomial d_i per output on the kernel spectrum times -|k|^2: 3 forward, 2 q2, 3 q1 and 3 q3 products
        coeffs = compute_coefficients(initial_datum(SimConfig(n=48, initial=TwoBump(2.0))))
        matmul_shapes.clear()
        coeffs.grad_a
        flop = sum(2 * x[0] * x[1] * y[1] for x, y, *_ in matmul_shapes)
        assert len(matmul_shapes) == 11 and 0.50e9 <= flop <= 0.51e9

    def test_grad_a_is_built_once_per_set(self, monkeypatch):
        coeffs = compute_coefficients(initial_datum(SimConfig(n=16, initial=TwoBump(2.0))))
        builds = []
        real = coefficients._matrix_inverse

        def counting(f, kernel, terms):
            builds.append(terms)
            return real(f, kernel, terms)

        monkeypatch.setattr(coefficients, "_matrix_inverse", counting)
        first = coeffs.grad_a
        assert coeffs.grad_a is first and builds == [coefficients._DRIFT_TERMS]

    def test_one_blas_thread_gives_the_same_bits(self):
        # the matrix products, the gradient's included, must not depend on how BLAS splits them over threads
        script = (
            "import hashlib; from landau.coefficients import compute_coefficients; "
            "from landau.solver import SimConfig, TwoBump, initial_datum; "
            "from landau.grid import spectral_gradient; "
            "f = initial_datum(SimConfig(n=48, initial=TwoBump(2.0))); c = compute_coefficients(f); "
            "print(hashlib.sha256(c.A.values.tobytes() + c.grad_a.values.tobytes() "
            "+ spectral_gradient(f).values.tobytes()).hexdigest())"
        )
        single = one_blas_thread_stdout(script)
        f = initial_datum(SimConfig(n=48, initial=TwoBump(2.0)))
        coeffs = compute_coefficients(f)
        grad = spectral_gradient(f).values
        here = hashlib.sha256(coeffs.A.values.tobytes() + coeffs.grad_a.values.tobytes() + grad.tobytes()).hexdigest()
        assert single == here

    def test_boundary_warning_fires_once_per_set(self):
        # at n = 8 the data reach the faces
        f = initial_datum(SimConfig(n=8, initial=TwoBump(2.0)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compute_coefficients(f).grad_a
        assert len([w for w in caught if "source density" in str(w.message)]) == 1

    def test_drift_max_is_the_largest_face_difference(self):
        grid = make_grid(8, 8.0)
        a = np.random.default_rng(8).uniform(-1.0, 1.0, grid.shape)
        coeffs = CoefficientSet(
            A=SymTensorField(grid, np.zeros((6, *grid.shape))), a=Field(grid, a), density=Field(grid, np.zeros(grid.shape))
        )
        faces = []
        for node in np.ndindex(grid.shape):
            for k in range(3):
                ahead = list(node)
                ahead[k] = (ahead[k] + 1) % grid.n  # the wrap faces included
                faces.append(abs(a[tuple(ahead)] - a[node]) / grid.spacing)
        assert coeffs.drift_max == max(faces)


def full_pass(tensor: SymTensorField) -> tuple[float, float]:
    """lambda_max and c0_empirical read off the full eigenvalue pass at every node."""
    eig = tensor.eigenvalues()
    grid = tensor.grid
    ball = (grid.radius2 <= (0.5 * grid.extent) ** 2).reshape(-1)
    weight = (1.0 + grid.radius2.reshape(-1)[ball]) ** 1.5
    return float(np.max(eig[:, 2])), float(np.min(weight * eig[ball, 0]))


def screened(values: np.ndarray) -> CoefficientSet:
    grid = make_grid(values.shape[1], 4.0)
    return CoefficientSet(
        A=SymTensorField(grid, values), a=Field(grid, np.zeros(grid.shape)), density=Field(grid, np.zeros(grid.shape))
    )


def assert_screen_exact(values: np.ndarray) -> CoefficientSet:
    coeffs = screened(values)
    # equal bit for bit, a NaN matching a NaN
    assert np.array_equal((coeffs.lambda_max, coeffs.c0_empirical), full_pass(coeffs.A), equal_nan=True)
    return coeffs


class TestScreenedEigenvalues:
    """lambda_max and c0 on their screened nodes equal a full pass bit for bit."""

    def test_coefficient_data(self):
        for datum in (AnisotropicGaussian((0.8, 1.0, 1.2)), TwoBump(2.0), Maxwellian()):
            assert_screen_exact(compute_coefficients(initial_datum(SimConfig(n=24, initial=datum))).A.values)

    def test_many_nodes_tied_at_the_largest_diagonal(self):
        rng = np.random.default_rng(0)
        values = 1e-3 * rng.standard_normal((6, 8, 8, 8))
        values[0, ::2] = 1.0
        values[1, 1::2] = 1.0
        assert_screen_exact(values)

    def test_maximum_away_from_the_largest_diagonal(self):
        values = np.zeros((6, 8, 8, 8))
        values[:3] = 1.0
        values[:3, 5, 2, 6] = (0.9, 0.9, 0.0)
        values[3, 5, 2, 6] = 0.5
        coeffs = assert_screen_exact(values)
        assert coeffs.lambda_max == pytest.approx(1.4, rel=1e-15)

    def test_zero_field(self):
        assert assert_screen_exact(np.zeros((6, 8, 8, 8))).lambda_max == 0.0

    def test_non_finite_entry_reaches_lambda_max(self):
        values = np.random.default_rng(1).standard_normal((6, 8, 8, 8))
        values[4, 1, 2, 3] = np.nan
        assert np.isnan(full_pass(SymTensorField(make_grid(8, 4.0), values))[0])
        assert np.isnan(screened(values).lambda_max)

    def test_c0_away_from_the_centre_and_the_smallest_diagonal(self):
        # on the 8^3 grid of extent 4 the ball |v| <= 2 holds the nodes 2..6 of each axis, v = 0 at 4
        values = np.zeros((6, 8, 8, 8))
        values[:3] = 1.0
        values[1, 4, 5, 4] = 0.2  # the smallest <v>^3 A_ii of the ball: 2^1.5 * 0.2 at |v| = 1
        values[3, 5, 4, 4] = 0.9  # lambda_min 0.1 at |v| = 1, far below its diagonal
        coeffs = assert_screen_exact(values)
        assert coeffs.c0_empirical == pytest.approx(2.0**1.5 * 0.1, rel=1e-14)

    def test_many_ball_nodes_tied_at_the_minimum(self):
        # one matrix over <v>^3 at every node: <v>^3 lambda_min ties exactly on each shell
        # of equal |v| and to within rounding across the ball
        grid = make_grid(8, 4.0)
        matrix = np.array([2.0, 1.5, 1.0, 0.3, -0.2, 0.4])
        assert_screen_exact(matrix[:, None, None, None] / grid.bracket_power(3.0))

    def test_non_finite_entry_in_the_ball_reaches_c0(self):
        values = np.random.default_rng(2).standard_normal((6, 8, 8, 8))
        values[4, 4, 4, 5] = np.nan
        assert np.isnan(assert_screen_exact(values).c0_empirical)

    def test_non_finite_entry_outside_the_ball_leaves_c0(self):
        values = np.random.default_rng(3).standard_normal((6, 8, 8, 8))
        values[4, 0, 0, 0] = np.nan
        assert np.isfinite(assert_screen_exact(values).c0_empirical)

    @pytest.mark.parametrize("exponent", [700, -700])
    def test_extreme_scales(self, exponent):
        base = compute_coefficients(initial_datum(SimConfig(n=24, initial=TwoBump(2.0)))).A.values
        assert_screen_exact(np.ldexp(base, exponent))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        pool=arrays(np.float64, (4, 6), elements=st.floats(-1.0, 1.0)),
        seed=st.integers(0, 2**16),
        jitter=st.sampled_from([0.0, 1e-16, 1e-13, 1e-8]),
        exponent=st.integers(-700, 700),
    )
    def test_property_matches_full_pass(self, pool, seed, jitter, exponent):
        # a few matrices shared by many nodes, so exact and near ties abound
        rng = np.random.default_rng(seed)
        values = pool[rng.integers(0, len(pool), size=512)].T * (1.0 + jitter * rng.standard_normal((6, 512)))
        assert_screen_exact(np.ldexp(values, exponent).reshape(6, 8, 8, 8))


class TestBiharmonicPotential:
    def test_zero_source(self, grid48):
        phi = biharmonic_potential(Field(grid48, np.zeros(grid48.shape)))
        assert phi.max_abs() == 0.0

    def test_linearity(self):
        grid = make_grid(32, 8.0)
        fields = corpus_fields(grid)[:2]
        combo = Field(grid, 2.0 * fields[0].values - 0.5 * fields[1].values)
        lhs = biharmonic_potential(combo).values
        rhs = 2.0 * biharmonic_potential(fields[0]).values - 0.5 * biharmonic_potential(fields[1]).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_boundary_warning(self):
        grid = make_grid(16, 4.0)
        wide = Field(grid, np.exp(-0.05 * grid.radius2) + np.zeros(grid.shape))
        with pytest.warns(UserWarning, match="boundary"):
            biharmonic_potential(wide)

    def test_laplacian_matches_newtonian_potential_at_origin(self, coeffs48, grid48):
        # the potential's Laplacian is the a-field by construction; its
        # value at v = 0 for the equilibrium is (2 pi)^(-3/2)
        mid = grid48.n // 2
        a0 = coeffs48.a.values[mid, mid, mid]
        assert a0 == pytest.approx((2.0 * np.pi) ** -1.5, abs=4e-5)

    def test_gaussian_potential_closed_form(self, mu48, grid48):
        # the |z|-kernel convolution of the standard Gaussian is the
        # mean-distance function ((r + 1/r) erf(r/sqrt2) + sqrt(2/pi) e^{-r^2/2}) / 8 pi
        phi = biharmonic_potential(mu48)
        mid = grid48.n // 2
        for i, tol in ((mid + 12, 1e-6), (mid + 18, 1e-10)):
            r = grid48.axis[i]
            exact = ((r + 1.0 / r) * math.erf(r / math.sqrt(2.0))
                     + math.sqrt(2.0 / np.pi) * math.exp(-0.5 * r * r)) / (8.0 * np.pi)
            assert phi.values[i, mid, mid] == pytest.approx(exact, rel=tol)


class TestComputeCoefficients:
    def test_equilibrium_diffusion_at_origin(self, coeffs48, grid48):
        # isotropy at the peak plus the kernel trace identity tr A = a
        # force A(0) = (a(0)/3) Id
        mid = grid48.n // 2
        a0 = coeffs48.a.values[mid, mid, mid]
        for i in range(3):
            assert coeffs48.A.component(i, i)[mid, mid, mid] == pytest.approx(a0 / 3.0, rel=1e-12)
            assert coeffs48.A.component(i, i)[mid, mid, mid] == pytest.approx(
                (2.0 * np.pi) ** -1.5 / 3.0, abs=2e-5
            )
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(coeffs48.A.component(i, j)[mid, mid, mid]) < 1e-12

    def test_positive_semidefinite(self, coeffs48):
        eigs = coeffs48.A.eigenvalues()
        floor = -1e-12 * coeffs48.lambda_max
        assert float(np.min(eigs[:, 0])) >= floor

    def test_coercivity_positive(self, coeffs48, grid48):
        assert coeffs48.c0_empirical > 0.0
        # c0 is min over |v| <= L/2 of <v>^3 lambda_min(A), with LAPACK's eigenvalues on the ball
        ball = (grid48.radius2 <= (0.5 * grid48.extent) ** 2).reshape(-1)
        lam = np.linalg.eigvalsh(stacked_matrices(coeffs48.A)[ball])
        weight = (1.0 + grid48.radius2.reshape(-1)[ball]) ** 1.5
        assert coeffs48.c0_empirical == np.min(weight * lam[:, 0])

    def test_coercivity_equals_the_full_pass(self, coeffs48):
        # the property the ball's screen promises: its nodes hold the full pass's minimum
        assert coeffs48.c0_empirical == full_pass(coeffs48.A)[1]

    def test_potential_is_trace_of_diffusion(self):
        grid = make_grid(32, 8.0)
        coeffs = compute_coefficients(corpus_fields(grid)[2])
        assert np.array_equal(coeffs.a.values, coeffs.A.trace_values())

    def test_structural_residuals_catch_broken_trace(self):
        grid = make_grid(32, 8.0)
        f = corpus_fields(grid)[2]
        good = compute_coefficients(f)
        broken = CoefficientSet(A=good.A, a=Field(grid, good.a.values * (1.0 + 1e-6)), density=f)
        trace_res, div_res = structural_residuals(broken)
        assert trace_res > 1e-10
        assert div_res <= 1e-8

    def test_coercivity_uniform_over_corpus(self):
        # the weighted smallest eigenvalue stays above one positive
        # constant across normalized densities (pointwise lower bound)
        grid = make_grid(32, 8.0)
        c0s = [compute_coefficients(f).c0_empirical for f in corpus_fields(grid)[:4]]
        assert min(c0s) > 0.01

    def test_newtonian_potential_closed_form_along_axis(self, coeffs48, grid48):
        # a[mu](v) = erf(|v|/sqrt2) / (4 pi |v|): the free-space solve
        # must reproduce the Coulomb field of a unit Gaussian with no
        # periodic-image contamination
        mid = grid48.n // 2
        worst = 0.0
        for i in range(grid48.n):
            r = abs(grid48.axis[i])
            if not 0.75 <= r <= 6.0:
                continue
            exact = math.erf(r / math.sqrt(2.0)) / (4.0 * np.pi * r)
            worst = max(worst, abs(coeffs48.a.values[i, mid, mid] - exact) / exact)
        assert worst <= 5e-4

    def test_maxwellian_closed_form_over_the_grid(self, coeffs48):
        # A against the closed form over 0 < |v| <= 4, relative to max |A|: 5.3e-3 at n = 24, 3.8e-4 at n = 48
        coarse = maxwellian_closed_form_gap(compute_coefficients(maxwellian(make_grid(24, 8.0))))
        fine = maxwellian_closed_form_gap(coeffs48)
        assert fine <= 1e-3 and math.log2(coarse / fine) >= 3.5

    def test_maxwellian_drift_closed_form_over_the_grid(self, coeffs48):
        # grad a against the closed form over 0 < |v| <= 4, relative to max |grad a|: 2.0e-2 at n = 24, 1.2e-3 at n = 48
        coarse = maxwellian_drift_closed_form_gap(compute_coefficients(maxwellian(make_grid(24, 8.0))))
        fine = maxwellian_drift_closed_form_gap(coeffs48)
        assert fine <= 3e-3 and math.log2(coarse / fine) >= 3.5

    def test_drift_matches_enclosed_charge_along_axis(self, coeffs48, grid48):
        # grad a[mu](v) = -v_hat Q(|v|) / (4 pi |v|^2) with Q the
        # standard-normal mass enclosed within radius |v|
        mid = grid48.n // 2
        worst = 0.0
        for i in range(grid48.n):
            v = grid48.axis[i]
            r = abs(v)
            if not 0.75 <= r <= 6.0:
                continue
            q = math.erf(r / math.sqrt(2.0)) - math.sqrt(2.0 / np.pi) * r * math.exp(-0.5 * r * r)
            exact = -math.copysign(1.0, v) * q / (4.0 * np.pi * r * r)
            worst = max(worst, abs(coeffs48.grad_a.values[0][i, mid, mid] - exact) / abs(exact))
        assert worst <= 3e-3


class TestDirectQuadratureOracle:
    def test_zero_source(self, grid48):
        pts = [(0.0, 0.0, 0.0)]
        out = direct_quadrature_coefficients(Field(grid48, np.zeros(grid48.shape)), pts)
        assert out[0].a == 0.0
        assert np.all(out[0].A == 0.0)
        assert np.all(out[0].grad_a == 0.0)

    def test_rejects_off_lattice_points(self, mu48):
        with pytest.raises(ValueError):
            direct_quadrature_coefficients(mu48, [(0.1234, 0.0, 0.0)])

    def test_rejects_too_many_points(self, mu48):
        pts = [(0.0, 0.0, 0.0)] * 65
        with pytest.raises(ValueError):
            direct_quadrature_coefficients(mu48, pts)

    def test_origin_value_and_lattice_defect(self, mu48):
        # omitting the singular node biases the sum by about
        # -0.226 dv^2 f(v) (the simple-cubic lattice-sum defect of the
        # Coulomb kernel); second-order in the spacing
        exact = (2.0 * np.pi) ** -1.5
        errs = {}
        for n in (24, 48):
            grid = make_grid(n, 8.0)
            out = direct_quadrature_coefficients(maxwellian(grid), [(0.0, 0.0, 0.0)])
            errs[n] = out[0].a - exact
        assert abs(errs[48]) < 2.5e-3
        assert errs[48] < 0.0
        assert errs[24] / errs[48] > 3.0  # second-order decay


class TestUpperBounds:
    def test_rejects_bad_exponent_and_sign(self, coeffs48, grid48):
        with pytest.raises(ValueError):
            coefficient_upper_bounds(coeffs48, 1.5)
        with pytest.raises(ValueError):
            coefficient_upper_bounds(compute_coefficients(Field(grid48, -maxwellian(grid48).values)), 2.0)

    def test_equilibrium_baseline(self):
        grid = make_grid(32, 8.0)
        rep = coefficient_upper_bounds(compute_coefficients(maxwellian(grid)), 2.0)
        # pinned regression values for n=32, L=8
        assert rep.a_ratio == pytest.approx(0.0752, abs=2e-3)
        assert rep.grad_a_ratio == pytest.approx(0.2445, abs=5e-3)

    def test_scale_invariance(self):
        grid = make_grid(32, 8.0)
        mu = maxwellian(grid)
        base = coefficient_upper_bounds(compute_coefficients(mu), 2.0)
        scaled = coefficient_upper_bounds(compute_coefficients(Field(grid, 7.0 * mu.values)), 2.0)
        assert scaled.a_ratio == pytest.approx(base.a_ratio, abs=1e-10)
        assert scaled.grad_a_ratio == pytest.approx(base.grad_a_ratio, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # theta=2 tail grazes the boundary
    def test_dilated_family_stays_near_baseline(self):
        grid = make_grid(32, 8.0)
        base = coefficient_upper_bounds(compute_coefficients(maxwellian(grid)), 2.0)
        for theta in (0.5, 2.0):
            vals = (2.0 * np.pi * theta) ** -1.5 * np.exp(-0.5 * grid.radius2 / theta)
            rep = coefficient_upper_bounds(compute_coefficients(Field(grid, vals + np.zeros(grid.shape))), 2.0)
            assert rep.a_ratio <= 3.0 * base.a_ratio
            assert rep.grad_a_ratio <= 3.0 * base.grad_a_ratio

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_corpus_worst_ratios(self, n):
        # pinned regression values; `landau verify` bounds them at 0.16 and 0.5, twice these
        reports = [coefficient_upper_bounds(compute_coefficients(f), 2.0) for f in corpus_fields(make_grid(n, 8.0))]
        assert 0.07 <= max(r.a_ratio for r in reports) <= 0.08
        assert 0.24 <= max(r.grad_a_ratio for r in reports) <= 0.25
