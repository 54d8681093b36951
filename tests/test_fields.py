import math

import numpy as np
import pytest

from landau.fields import (
    NormRequest,
    boltzmann_entropy,
    level_set_plus,
    lp_m_norm,
    maxwellian,
    moments,
    sobolev_ratio,
    weighted_gradient_energy,
)
from landau.grid import Field, make_grid, spectral_gradient


@pytest.fixture(scope="module")
def grid48():
    return make_grid(48, 8.0)


@pytest.fixture(scope="module")
def mu48(grid48):
    return maxwellian(grid48)


class TestNormRequest:
    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            NormRequest(0.5)

    def test_rejects_weighted_sup(self):
        with pytest.raises(ValueError):
            NormRequest(math.inf, 2.0)

    def test_accepts_plain_sup(self):
        NormRequest(math.inf, 0.0)


class TestLpmNorm:
    def test_zero_field(self, grid48):
        zero = Field(grid48, np.zeros(grid48.shape))
        for req in (NormRequest(1.0), NormRequest(2.0, 3.0), NormRequest(math.inf)):
            assert lp_m_norm(zero, req) == 0.0

    def test_gaussian_mass(self, mu48):
        assert lp_m_norm(mu48, NormRequest(1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_l2(self, mu48):
        # closed form: (int mu^2)^(1/2) = (4 pi)^(-3/4)
        assert lp_m_norm(mu48, NormRequest(2.0)) == pytest.approx((4.0 * np.pi) ** -0.75, abs=1e-6)

    def test_homogeneity(self, mu48):
        base = lp_m_norm(mu48, NormRequest(2.5, 1.0))
        scaled = lp_m_norm(-3.0 * mu48, NormRequest(2.5, 1.0))
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_sup_norm(self, grid48):
        vals = np.zeros(grid48.shape)
        vals[3, 4, 5] = -7.5
        assert lp_m_norm(Field(grid48, vals), NormRequest(math.inf)) == 7.5


class TestMoments:
    def test_equilibrium_triple(self, mu48):
        mom = moments(mu48)
        assert mom.mass == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(mom.momentum)) < 1e-6
        assert mom.energy == pytest.approx(3.0, abs=1e-6)

    def test_linearity(self, mu48):
        mom = moments(2.0 * mu48)
        assert mom.mass == pytest.approx(2.0, abs=2e-6)
        assert mom.energy == pytest.approx(6.0, abs=2e-6)

    def test_shifted_gaussian(self):
        grid = make_grid(48, 10.0)
        v1, v2, v3 = grid.coords
        vals = (2.0 * np.pi) ** -1.5 * np.exp(-0.5 * ((v1 - 1.0) ** 2 + v2**2 + v3**2))
        mom = moments(Field(grid, vals + np.zeros(grid.shape)))
        assert mom.mass == pytest.approx(1.0, abs=1e-5)
        assert mom.momentum[0] == pytest.approx(1.0, abs=1e-5)
        assert abs(mom.momentum[1]) < 1e-5 and abs(mom.momentum[2]) < 1e-5
        assert mom.energy == pytest.approx(4.0, abs=1e-5)


class TestEntropy:
    def test_gaussian_closed_form(self, mu48):
        expected = -1.5 * (1.0 + math.log(2.0 * math.pi))
        assert boltzmann_entropy(mu48) == pytest.approx(expected, abs=1e-5)

    def test_unit_cube_indicator(self):
        # density 1 on a set of unit volume: f log f vanishes identically
        grid = make_grid(32, 8.0)
        vals = np.zeros(grid.shape)
        mid = grid.n // 2
        vals[mid - 1 : mid + 1, mid - 1 : mid + 1, mid - 1 : mid + 1] = 1.0
        field = Field(grid, vals)
        assert moments(field).mass == pytest.approx(1.0, rel=1e-14)
        assert boltzmann_entropy(field) == 0.0

    def test_scaling_identity(self, mu48):
        lhs = boltzmann_entropy(2.0 * mu48)
        rhs = 2.0 * boltzmann_entropy(mu48) + 2.0 * math.log(2.0)
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_rejects_material_negativity(self, grid48, mu48):
        vals = mu48.values.copy()
        vals[0, 0, 0] = -1e-3
        with pytest.raises(ValueError):
            boltzmann_entropy(Field(grid48, vals))

    def test_tolerates_roundoff_negativity(self, grid48, mu48):
        vals = mu48.values.copy()
        vals[0, 0, 0] = -1e-14 * np.max(vals)
        boltzmann_entropy(Field(grid48, vals))

    def test_absolute_variant_dominates(self, mu48):
        assert boltzmann_entropy(mu48, absolute=True) >= abs(boltzmann_entropy(mu48))


class TestLevelSets:
    def test_zero_level_is_positive_part(self, grid48):
        rng = np.random.default_rng(3)
        h = Field(grid48, rng.standard_normal(grid48.shape))
        cut = level_set_plus(h, 0.0)
        np.testing.assert_array_equal(cut.values, np.maximum(h.values, 0.0))

    def test_level_above_sup_empties(self, mu48):
        cut = level_set_plus(mu48, 2.0 * mu48.max_abs())
        assert cut.max_abs() == 0.0

    def test_rejects_negative_level(self, mu48):
        with pytest.raises(ValueError):
            level_set_plus(mu48, -0.1)

    def test_monotone_in_level(self, grid48):
        rng = np.random.default_rng(4)
        h = Field(grid48, rng.standard_normal(grid48.shape))
        low = level_set_plus(h, 0.2)
        high = level_set_plus(h, 0.7)
        assert np.all(high.values <= low.values)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_level_gap_inequality(self, alpha):
        # h_l^+ <= (l - k)^(-alpha) (h_k^+)^(1+alpha) pointwise for k < l
        grid = make_grid(16, 4.0)
        rng = np.random.default_rng(5)
        h = Field(grid, 2.0 * rng.standard_normal(grid.shape))
        for _ in range(5):
            k = float(rng.uniform(0.0, 1.0))
            level = k + float(rng.uniform(0.05, 1.0))
            lhs = level_set_plus(h, level).values
            rhs = (level - k) ** -alpha * level_set_plus(h, k).values ** (1.0 + alpha)
            assert np.all(lhs <= rhs + 1e-12)


class TestWeightedGradientEnergy:
    def test_zero_and_constant(self, grid48):
        assert weighted_gradient_energy(Field(grid48, np.zeros(grid48.shape)), 2.0) == 0.0
        const = Field(grid48, np.full(grid48.shape, 1.3))
        assert weighted_gradient_energy(const, 2.0) < 1e-20

    def test_gaussian_against_analytic_gradient(self, grid48, mu48):
        # grad mu = -v mu exactly; quadrature of <v>^-3 |v|^2 mu^2
        weight = grid48.bracket_power(-3.0)
        exact = grid48.cell_volume * float(np.sum(weight * grid48.radius2 * mu48.values**2))
        assert weighted_gradient_energy(mu48, 2.0) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_matches_the_explicit_formula(self, grid48, mu48, p):
        h = Field(grid48, mu48.values * (1.0 + 0.3 * np.sin(grid48.coords[0] + 2.0 * grid48.coords[2])))
        base = h.values if p == 2.0 else np.abs(h.values) ** (0.5 * p)
        grad = spectral_gradient(Field(grid48, base)).values
        exact = grid48.cell_volume * float(np.sum(grid48.bracket_power(-3.0) * np.sum(grad**2, axis=0)))
        assert weighted_gradient_energy(h, p) == pytest.approx(exact, rel=1e-14)

    def test_sign_irrelevant_for_p2(self, grid48, mu48):
        assert weighted_gradient_energy(-1.0 * mu48, 2.0) == pytest.approx(
            weighted_gradient_energy(mu48, 2.0), rel=1e-12
        )


class TestWeightedInterpolation:
    """Weighted Lebesgue interpolation as a property of the norm family.

    With 1/q = theta/p1 + (1-theta)/p2 and beta = theta a1 + (1-theta) a2,
    the weighted q-norm is dominated by the product of the weighted
    p1/p2-norms; the midpoint-quadrature norms inherit this exactly.
    """

    CASES = [
        # (theta, p1, p2, a1, a2)
        (0.5, 1.0, 3.0, 2.0, -1.0),
        (0.25, 2.0, 4.0, 0.0, 3.0),
        (0.75, 1.0, 2.0, 4.0, 0.0),
    ]

    @pytest.mark.parametrize("theta,p1,p2,a1,a2", CASES)
    def test_interpolation_inequality(self, theta, p1, p2, a1, a2):
        grid = make_grid(24, 8.0)
        q = 1.0 / (theta / p1 + (1.0 - theta) / p2)
        beta = theta * a1 + (1.0 - theta) * a2
        rng = np.random.default_rng(11)
        probes = [
            maxwellian(grid).values,
            np.exp(-0.4 * grid.radius2) * (1.0 + 0.5 * np.cos(np.pi * grid.coords[0] / 8.0)),
            np.abs(rng.standard_normal(grid.shape)) * np.exp(-0.5 * grid.radius2),
        ]
        for vals in probes:
            f = Field(grid, vals + np.zeros(grid.shape))
            lhs = lp_m_norm(f, NormRequest(q, q * beta))
            rhs = (
                lp_m_norm(f, NormRequest(p1, p1 * a1)) ** theta
                * lp_m_norm(f, NormRequest(p2, p2 * a2)) ** (1.0 - theta)
            )
            assert lhs <= rhs * (1.0 + 1e-12)


class TestSobolevRatio:
    def test_rejects_zero_field_and_bad_exponent(self, grid48, mu48):
        with pytest.raises(ValueError):
            sobolev_ratio(Field(grid48, np.zeros(grid48.shape)), 2.0)
        with pytest.raises(ValueError):
            sobolev_ratio(mu48, 0.5)
        with pytest.raises(ValueError):
            sobolev_ratio(mu48, 6.5)

    def test_gaussian_baseline(self, mu48):
        ratio = sobolev_ratio(mu48, 2.0)
        assert 0.0 < ratio < 0.3

    def test_scale_invariance(self, mu48):
        base = sobolev_ratio(mu48, 2.0)
        for lam in (2.0**-4, 2.0**4):
            assert sobolev_ratio(lam * mu48, 2.0) == pytest.approx(base, abs=1e-10)

    def test_far_translate_stays_bounded(self):
        grid = make_grid(32, 8.0)
        v1, v2, v3 = grid.coords
        vals = np.exp(-0.5 * ((v1 - 4.0) ** 2 + v2**2 + v3**2))
        translated = Field(grid, vals + np.zeros(grid.shape))
        assert sobolev_ratio(translated, 2.0) < 0.3
