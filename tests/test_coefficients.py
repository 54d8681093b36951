import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
from landau.grid import SYM_COMPONENTS, Field, SymTensorField, VecField, irfft3, make_grid, rfft3
from landau.solver import AnisotropicGaussian, Maxwellian, SimConfig, TwoBump, initial_datum


@pytest.fixture(scope="module")
def grid48():
    return make_grid(48, 8.0)


@pytest.fixture(scope="module")
def mu48(grid48):
    return maxwellian(grid48)


@pytest.fixture(scope="module")
def coeffs48(mu48):
    return compute_coefficients(mu48)


def corpus_fields(grid):
    """Smooth, decaying probe densities for the structural identities."""
    v1, v2, v3 = grid.coords
    norm = (2.0 * np.pi) ** -1.5
    shapes = [
        maxwellian(grid).values,
        0.5 * norm * (np.exp(-0.5 * ((v1 - 1.0) ** 2 + v2**2 + v3**2))
                      + np.exp(-0.5 * ((v1 + 1.0) ** 2 + v2**2 + v3**2))),
        norm * np.exp(-0.5 * (v1**2 / 0.8 + v2**2 + v3**2 / 1.2)) / np.sqrt(0.96),
        norm * np.exp(-0.5 * (v1**2 + v2**2 + v3**2)) * (1.0 + 0.3 * np.cos(np.pi * v1 / grid.extent)),
        (2.0 * np.pi * 0.5) ** -1.5 * np.exp(-grid.radius2),
    ]
    return [Field(grid, s + np.zeros(grid.shape)) for s in shapes]


class TestPrunedTransforms:
    """The axis-by-axis doubled-grid transforms against the full zero-padded ones."""

    @pytest.mark.parametrize("n", [8, 24, 48])
    def test_potential_spectrum_matches_padded_rfftn(self, n):
        grid = make_grid(n, 8.0)
        f = Field(grid, np.random.default_rng(n).standard_normal(grid.shape))
        padded = np.zeros((2 * n,) * 3)
        padded[:n, :n, :n] = f.values
        expected = np.fft.rfftn(padded) * coefficients._kernel_spectrum(n, grid.extent) * grid.cell_volume
        got = coefficients._potential_spectrum(f)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [8, 24, 48])
    def test_forward_of_full_array_matches_rfftn(self, n):
        # the kernel spectrum and spectral_gradient take this path: no padding
        full = np.random.default_rng(n).standard_normal((2 * n,) * 3)
        expected = np.fft.rfftn(full)
        assert np.max(np.abs(rfft3(full, 2 * n) - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n, m", [(8, 16), (24, 48), (48, 96), (24, 24)])
    def test_inverse_matches_cropped_irfftn(self, n, m):
        rng = np.random.default_rng(n)
        spectrum = rng.standard_normal((m, m, m // 2 + 1)) + 1j * rng.standard_normal((m, m, m // 2 + 1))
        expected = np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]
        got = irfft3(spectrum, m, n)
        assert got.shape == (n, n, n) and got.flags.c_contiguous
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def oracle_coefficients(f):
    """A, a and grad a from nine full doubled-grid irfftn of the symbol products, cropped."""
    grid = f.grid
    n, m = grid.n, 2 * grid.n
    padded = np.zeros((m, m, m))
    padded[:n, :n, :n] = f.values
    phat = np.fft.rfftn(padded) * coefficients._kernel_spectrum(n, grid.extent) * grid.cell_volume
    full = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    k = (full[:, None, None], full[None, :, None], 2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing)[None, None, :])

    def inverse(spectrum):
        return np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]

    A = np.stack([inverse(-(k[i] * k[j]) * phat) for i, j in SYM_COMPONENTS])
    lap = -(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * phat
    grad = np.stack([inverse(1j * k[i] * lap) for i in range(3)])
    return A, A[0] + A[1] + A[2], grad


class TestFactoredTransforms:
    """The axis-0-factored inverse transforms against nine full irfftn."""

    # at n = 8 the data reach the faces; the warning does not bear on the transforms
    @pytest.mark.filterwarnings("ignore:source density")
    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("datum", [AnisotropicGaussian((0.8, 1.0, 1.2)), TwoBump(2.0), Maxwellian()])
    def test_matches_full_inverse_transforms(self, n, datum):
        f = initial_datum(SimConfig(n=n, initial=datum))
        got = compute_coefficients(f)
        for value, expected in zip((got.A.values, got.a.values, got.grad_a.values), oracle_coefficients(f)):
            assert np.max(np.abs(value - expected)) <= 1e-14 * np.max(np.abs(expected))


def full_pass(tensor: SymTensorField) -> tuple[float, float]:
    """lambda_max and c0_empirical read off the closed form at every node."""
    eig = tensor.eigenvalues()
    grid = tensor.grid
    ball = (grid.radius2 <= (0.5 * grid.extent) ** 2).reshape(-1)
    weight = (1.0 + grid.radius2.reshape(-1)[ball]) ** 1.5
    return float(np.max(eig[:, 2])), float(np.min(weight * eig[ball, 0]))


def screened(values: np.ndarray) -> CoefficientSet:
    grid = make_grid(values.shape[1], 4.0)
    return CoefficientSet(
        A=SymTensorField(grid, values), a=Field(grid, grid.zeros()), grad_a=VecField(grid, np.zeros((3, *grid.shape)))
    )


def assert_screen_exact(values: np.ndarray) -> CoefficientSet:
    coeffs = screened(values)
    lam, c0 = full_pass(coeffs.A)
    assert (coeffs.lambda_max, coeffs.c0_empirical) == (lam, c0)
    return coeffs


class TestScreenedEigenvalues:
    """lambda_max on the Gershgorin-screened nodes and c0 on the ball equal a full pass bit for bit."""

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

    def test_structural_identities_on_corpus(self):
        grid = make_grid(32, 8.0)
        for f in corpus_fields(grid):
            trace_res, div_res = structural_residuals(f)
            assert trace_res <= 1e-10
            assert div_res <= 1e-8

    def test_positive_semidefinite(self, coeffs48):
        eigs = coeffs48.A.eigenvalues()
        floor = -1e-12 * coeffs48.lambda_max
        assert float(np.min(eigs[:, 0])) >= floor

    def test_coercivity_positive(self, coeffs48, grid48):
        assert coeffs48.c0_empirical > 0.0
        # c0 is min over |v| <= L/2 of <v>^3 lambda_min(A), read off the one eigen pass
        ball = (grid48.radius2 <= (0.5 * grid48.extent) ** 2).reshape(-1)
        lam_min = np.linalg.eigvalsh(coeffs48.A.matrices()[ball])[:, 0]
        weight = (1.0 + grid48.radius2.reshape(-1)[ball]) ** 1.5
        assert coeffs48.c0_empirical == float(np.min(weight * lam_min))

    def test_potential_is_trace_of_diffusion(self):
        grid = make_grid(32, 8.0)
        coeffs = compute_coefficients(corpus_fields(grid)[2])
        assert np.array_equal(coeffs.a.values, coeffs.A.trace_values())

    def test_structural_residuals_catch_broken_trace(self, monkeypatch):
        grid = make_grid(32, 8.0)
        f = corpus_fields(grid)[2]
        good = compute_coefficients(f)
        broken = CoefficientSet(A=good.A, a=Field(grid, good.a.values * (1.0 + 1e-6)), grad_a=good.grad_a)
        monkeypatch.setattr(coefficients, "compute_coefficients", lambda _: broken)
        trace_res, div_res = structural_residuals(f)
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

    def test_oracle_equivalence_away_from_peak(self, grid48, mu48, coeffs48):
        rng = np.random.default_rng(0)
        picks = rng.integers(0, grid48.n, size=(10, 3))
        points = [tuple(grid48.axis[i] for i in pick) for pick in picks]
        oracle = direct_quadrature_coefficients(mu48, points)
        worst = 0.0
        for pick, ora in zip(picks, oracle):
            i, j, k = (int(x) for x in pick)
            worst = max(worst, abs(coeffs48.a.values[i, j, k] - ora.a) / abs(ora.a))
            gmag = float(np.linalg.norm(ora.grad_a))
            for r in range(3):
                worst = max(
                    worst,
                    abs(coeffs48.grad_a.values[r][i, j, k] - ora.grad_a[r]) / max(gmag, 1e-10),
                )
                for c in range(r, 3):
                    spec = coeffs48.A.component(r, c)[i, j, k]
                    scale = max(abs(ora.a), abs(ora.A[r, c]))
                    worst = max(worst, abs(spec - ora.A[r, c]) / scale)
        assert worst <= 1e-3


class TestUpperBounds:
    def test_rejects_bad_exponent_and_sign(self, mu48, grid48):
        with pytest.raises(ValueError):
            coefficient_upper_bounds(mu48, 1.5)
        with pytest.raises(ValueError):
            coefficient_upper_bounds(Field(grid48, -maxwellian(grid48).values), 2.0)

    def test_equilibrium_baseline(self):
        grid = make_grid(32, 8.0)
        rep = coefficient_upper_bounds(maxwellian(grid), 2.0)
        # pinned regression values for n=32, L=8
        assert rep.a_ratio == pytest.approx(0.0752, abs=2e-3)
        assert rep.grad_a_ratio == pytest.approx(0.2445, abs=5e-3)

    def test_scale_invariance(self):
        grid = make_grid(32, 8.0)
        mu = maxwellian(grid)
        base = coefficient_upper_bounds(mu, 2.0)
        scaled = coefficient_upper_bounds(Field(grid, 7.0 * mu.values), 2.0)
        assert scaled.a_ratio == pytest.approx(base.a_ratio, abs=1e-10)
        assert scaled.grad_a_ratio == pytest.approx(base.grad_a_ratio, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # theta=2 tail grazes the boundary
    def test_dilated_family_stays_near_baseline(self):
        grid = make_grid(32, 8.0)
        base = coefficient_upper_bounds(maxwellian(grid), 2.0)
        for theta in (0.5, 2.0):
            vals = (2.0 * np.pi * theta) ** -1.5 * np.exp(-0.5 * grid.radius2 / theta)
            rep = coefficient_upper_bounds(Field(grid, vals + np.zeros(grid.shape)), 2.0)
            assert rep.a_ratio <= 3.0 * base.a_ratio
            assert rep.grad_a_ratio <= 3.0 * base.grad_a_ratio
