import math

import numpy as np
import pytest

from landau.fields import (
    ENTROPY_FLOOR,
    NEGATIVITY_SLACK,
    NormRequest,
    boltzmann_entropy,
    box_gradient_energy,
    box_lp_norm,
    lp_m_norm,
    maxwellian,
    moments,
    sobolev_ratio,
    support_box,
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
    """Cuts (h - level)^+, written out with np.maximum, through the support-box route of the norms."""

    def test_zero_level_is_positive_part(self, grid48):
        # the box of h^+ bounds exactly the nodes where h > 0
        rng = np.random.default_rng(3)
        h = rng.standard_normal(grid48.shape) * (grid48.radius2 < 4.0)
        nodes = np.nonzero(h > 0.0)
        assert support_box(np.maximum(h, 0.0)) == tuple(slice(int(i.min()), int(i.max()) + 1) for i in nodes)

    def test_level_above_sup_empties(self, grid48, mu48):
        cut = Field(grid48, np.maximum(mu48.values - 2.0 * mu48.max_abs(), 0.0))
        assert support_box(cut.values) is None
        assert lp_m_norm(cut, NormRequest(2.0)) == weighted_gradient_energy(cut, 2.0) == 0.0

    def test_monotone_in_level(self, grid48, mu48):
        h = mu48.values / mu48.max_abs()
        low, high = (Field(grid48, np.maximum(h - level, 0.0)) for level in (0.2, 0.7))
        low_box, high_box = support_box(low.values), support_box(high.values)
        assert all(a.start < b.start and b.stop < a.stop for a, b in zip(low_box, high_box))
        for p in (1.0, 2.0, 3.0):
            assert lp_m_norm(high, NormRequest(p)) < lp_m_norm(low, NormRequest(p))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_level_gap_inequality(self, alpha):
        # h_l^+ <= (l - k)^(-alpha) (h_k^+)^(1+alpha) pointwise for k < l, so integrated as well
        grid = make_grid(16, 4.0)
        rng = np.random.default_rng(5)
        h = 2.0 * rng.standard_normal(grid.shape) * (grid.radius2 < 9.0)
        for _ in range(5):
            k = float(rng.uniform(0.0, 1.0))
            level = k + float(rng.uniform(0.05, 1.0))
            lhs = lp_m_norm(Field(grid, np.maximum(h - level, 0.0)), NormRequest(1.0))
            rhs = lp_m_norm(Field(grid, np.maximum(h - k, 0.0)), NormRequest(1.0 + alpha)) ** (1.0 + alpha)
            assert 0.0 < lhs <= (level - k) ** -alpha * rhs * (1.0 + 1e-12)


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


# The reductions are einsum contractions; each reference below is the np.sum formula it
# replaced.  The two add the same products in another order, so they may differ by rounding,
# bounded here by SUM_TOL, 64 eps of the sum of the terms' magnitudes; on these data the
# largest difference is about 5 eps of it.
SUM_TOL = 64 * np.finfo(np.float64).eps


def _signed_field(n: int) -> Field:
    grid = make_grid(n, 8.0)
    return Field(grid, np.random.default_rng(n).standard_normal(grid.shape))


def squared_gradient(field: Field) -> np.ndarray:
    """|grad f|^2 per node: the spectral gradient's components squared and added."""
    return np.sum(spectral_gradient(field).values ** 2, axis=0)


def _close_in_sum(got: float, terms: np.ndarray) -> bool:
    return abs(got - float(np.sum(terms))) <= SUM_TOL * float(np.sum(np.abs(terms)))


@pytest.mark.parametrize("n", [8, 24, 48])
class TestReductionsMatchTheSumFormulas:
    def test_moments(self, n):
        field = _signed_field(n)
        grid, vals = field.grid, field.values
        v1, v2, v3 = grid.coords
        mom = moments(field)
        got = (mom.mass, *mom.momentum, mom.energy)
        for value, weight in zip(got, (1.0, v1, v2, v3, grid.radius2)):
            assert _close_in_sum(value, grid.cell_volume * weight * vals)

    def test_lp_m_norm(self, n):
        field = _signed_field(n)
        grid, vals = field.grid, field.values
        for m in (0.0, 3.0):
            for p in (1.0, 2.0):
                terms = grid.cell_volume * np.abs(vals) ** p * grid.bracket_power(m)
                assert _close_in_sum(lp_m_norm(field, NormRequest(p, m)) ** p, terms)
            # the general path is still the np.sum formula, bit for bit
            total = float(np.sum(np.abs(vals) ** 3.0 * grid.bracket_power(m)))
            assert lp_m_norm(field, NormRequest(3.0, m)) == (grid.cell_volume * total) ** (1.0 / 3.0)

    def test_boltzmann_entropy(self, n):
        field = _signed_field(n)
        vals = np.abs(field.values)
        vals.reshape(-1)[:3] = (0.0, ENTROPY_FLOOR, 0.5 * ENTROPY_FLOOR)  # under the floor: no f log f term
        vals.reshape(-1)[3] = -0.5 * NEGATIVITY_SLACK * np.max(vals)  # within the slack, and under the floor
        pos = vals[vals > ENTROPY_FLOOR]
        signed = field.grid.cell_volume * pos * np.log(pos)
        assert _close_in_sum(boltzmann_entropy(Field(field.grid, vals)), signed)
        assert _close_in_sum(boltzmann_entropy(Field(field.grid, vals), absolute=True), np.abs(signed))
        vals.reshape(-1)[3] = -2.0 * NEGATIVITY_SLACK * np.max(vals)
        with pytest.raises(ValueError, match="negative values"):
            boltzmann_entropy(Field(field.grid, vals))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_weighted_gradient_energy(self, n, p):
        h = _signed_field(n)
        base = h.values if p == 2.0 else np.abs(h.values) ** (0.5 * p)
        terms = h.grid.cell_volume * squared_gradient(Field(h.grid, base)) * h.grid.bracket_power(-3.0)
        assert _close_in_sum(weighted_gradient_energy(h, p), terms)


def _sparse_field(n: int, case: str) -> Field:
    """Standard-normal values on a sparse support of the n^3 grid, or the zero field."""
    grid = make_grid(n, 8.0)
    rng = np.random.default_rng(n)
    vals = np.zeros(grid.shape)
    if case == "inside":
        vals[1 : n // 2, 2 : n - 2, n // 2 - 1 : n // 2 + 1] = rng.standard_normal((n // 2 - 1, n - 4, 2))
    elif case == "one_face":
        vals[:3, 1 : n - 1, 2 : n // 2] = rng.standard_normal((3, n - 2, n // 2 - 2))
    elif case == "corner":  # one corner non-zero, the opposite one zero
        vals[:3, :2, : n // 2] = rng.standard_normal((3, 2, n // 2))
    elif case == "single_node":
        vals[n // 2, 1, n - 2] = 1.7
    elif case == "end_planes":
        vals[0, 1 : n // 2, 2 : n - 1] = rng.standard_normal((n // 2 - 1, n - 3))
        vals[n - 1, 2 : n - 2, 1:3] = rng.standard_normal((n - 4, 2))
    return Field(grid, vals)


@pytest.mark.parametrize("n", [8, 24, 48])
class TestSupportBoxRoute:
    """A field that misses a face is normed and differentiated on its support box alone."""

    @pytest.mark.parametrize("case", ["inside", "one_face", "corner", "single_node", "end_planes"])
    def test_matches_the_full_grid_sums(self, n, case):
        field = _sparse_field(n, case)
        grid, vals = field.grid, field.values
        box = support_box(vals)
        nodes = np.nonzero(vals)
        assert box == tuple(slice(int(i.min()), int(i.max()) + 1) for i in nodes) != (slice(0, n),) * 3
        for p in (1.0, 2.0, 3.0):
            for m in (0.0, 3.0):
                terms = grid.cell_volume * np.abs(vals) ** p * grid.bracket_power(m)
                assert _close_in_sum(lp_m_norm(field, NormRequest(p, m)) ** p, terms)
                assert box_lp_norm(grid, box, vals[box].copy(), NormRequest(p, m)) == lp_m_norm(field, NormRequest(p, m))
        for p in (2.0, 3.0):
            base = vals if p == 2.0 else np.abs(vals) ** (0.5 * p)
            terms = grid.cell_volume * squared_gradient(Field(grid, base)) * grid.bracket_power(-3.0)
            assert _close_in_sum(weighted_gradient_energy(field, p), terms)
            assert box_gradient_energy(grid, box, vals[box].copy(), p) == weighted_gradient_energy(field, p)

    def test_zero_field_gives_zero(self, n):
        field = _sparse_field(n, "zero")
        assert support_box(field.values) is None
        for p in (1.0, 2.0, 3.0):
            assert lp_m_norm(field, NormRequest(p, 3.0)) == 0.0
        for p in (2.0, 3.0):
            assert weighted_gradient_energy(field, p) == 0.0

    @pytest.mark.parametrize("zero_corners", [False, True])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_a_field_on_every_face_keeps_the_stacked_gradient(self, n, p, zero_corners):
        field = _signed_field(n)
        grid, vals = field.grid, field.values.copy()
        if zero_corners:  # the box is then found by a pass, and is still the whole grid
            vals[0, 0, 0] = vals[-1, -1, -1] = 0.0
        assert support_box(vals) == (slice(0, n),) * 3
        base = vals if p == 2.0 else np.abs(vals) ** (0.5 * p)
        grad = spectral_gradient(Field(grid, base)).values
        stacked = grid.cell_volume * float(np.einsum("kijl,kijl,ijl->", grad, grad, grid.bracket_power(-3.0)))
        assert weighted_gradient_energy(Field(grid, vals), p) == stacked


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
