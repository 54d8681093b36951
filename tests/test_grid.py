import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from landau.fields import maxwellian
from landau.grid import (
    SYM_COMPONENTS,
    Field,
    SymTensorField,
    VecField,
    finite_difference_gradient,
    integrate,
    make_grid,
    spectral_gradient,
)


class TestMakeGrid:
    def test_basic_spacing(self):
        grid = make_grid(8, 4.0)
        assert grid.spacing == 1.0
        np.testing.assert_allclose(grid.axis, np.arange(-4.0, 4.0))

    def test_spacing_32(self):
        assert make_grid(32, 8.0).spacing == 0.5

    def test_origin_is_a_node(self):
        grid = make_grid(12, 5.0)
        assert grid.axis[grid.n // 2] == 0.0

    @pytest.mark.parametrize("n", [7, 9, 31])
    def test_rejects_odd(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 4.0)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(ValueError):
            make_grid(6, 4.0)
        with pytest.raises(ValueError):
            make_grid(16, 0.0)
        with pytest.raises(ValueError):
            make_grid(16, -2.0)

    def test_one_zero_wavenumber_per_axis(self):
        grid = make_grid(16, 4.0)
        assert np.count_nonzero(grid.wavenumbers == 0.0) == 1


class TestFieldContainers:
    def test_shape_validation(self):
        grid = make_grid(8, 4.0)
        with pytest.raises(ValueError):
            Field(grid, np.zeros((8, 8, 7)))
        with pytest.raises(ValueError):
            VecField(grid, np.zeros((2, 8, 8, 8)))
        with pytest.raises(ValueError):
            SymTensorField(grid, np.zeros((5, 8, 8, 8)))

    def test_arithmetic_requires_same_grid(self):
        a = Field(make_grid(8, 4.0), np.ones((8, 8, 8)))
        b = Field(make_grid(8, 5.0), np.ones((8, 8, 8)))
        with pytest.raises(ValueError):
            a + b

    def test_arithmetic(self):
        grid = make_grid(8, 4.0)
        a = Field(grid, np.full(grid.shape, 2.0))
        b = Field(grid, np.full(grid.shape, 1.0))
        assert np.all((a - b).values == 1.0)
        assert np.all((a + b).values == 3.0)
        assert np.all((3.0 * a).values == 6.0)

    def test_symmetric_component_lookup(self):
        grid = make_grid(8, 4.0)
        vals = np.arange(6 * 8**3, dtype=float).reshape(6, 8, 8, 8)
        tensor = SymTensorField(grid, vals)
        assert np.all(tensor.component(0, 1) == tensor.component(1, 0))
        assert np.all(tensor.trace_values() == vals[0] + vals[1] + vals[2])
        mats = tensor.matrices()
        np.testing.assert_array_equal(mats[:, 0, 2], mats[:, 2, 0])


def tensor_with_eigenvalues(eigenvalues, rotations) -> SymTensorField:
    """Node matrices Q diag(eigenvalues) Q^T on an 8^3 grid, one rotation Q per node."""
    grid = make_grid(8, 4.0)
    count = grid.n**3
    q, _ = np.linalg.qr(np.broadcast_to(rotations, (count, 3, 3)))
    lam = np.broadcast_to(eigenvalues, (count, 3))
    mats = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
    return SymTensorField(grid, np.stack([mats[:, i, j] for i, j in SYM_COMPONENTS]).reshape(6, *grid.shape))


def assert_matches_eigvalsh(tensor: SymTensorField, reference=None) -> None:
    got = tensor.eigenvalues()
    ref = np.linalg.eigvalsh(tensor.matrices()) if reference is None else reference
    assert got.shape == ref.shape
    assert np.all(np.diff(got, axis=1) >= 0.0)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.max(np.abs(ref), axis=1, keepdims=True))


class TestSymTensorEigenvalues:
    """The closed form against LAPACK on the cases that break acos(det B / 2)."""

    def rotations(self, seed):
        return np.random.default_rng(seed).standard_normal((512, 3, 3))

    def test_random_matrices(self):
        rng = np.random.default_rng(0)
        assert_matches_eigvalsh(SymTensorField(make_grid(8, 4.0), rng.standard_normal((6, 8, 8, 8))))

    @pytest.mark.parametrize("eigenvalues", [(1.0, 1.0, 3.0), (-2.0, 5.0, 5.0), (1.5, 1.5, 1.5), (-1.0, -1.0, -1.0)])
    def test_repeated_eigenvalues_under_rotation(self, eigenvalues):
        assert_matches_eigvalsh(tensor_with_eigenvalues(eigenvalues, self.rotations(1)))

    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
    def test_nearly_equal_eigenvalues(self, gap):
        assert_matches_eigvalsh(tensor_with_eigenvalues((1.0, 1.0 + gap, 2.0), self.rotations(2)))
        assert_matches_eigvalsh(tensor_with_eigenvalues((-3.0, 0.5, 0.5 + gap), self.rotations(3)))

    def test_zero_and_diagonal_matrices(self):
        grid = make_grid(8, 4.0)
        assert np.array_equal(SymTensorField(grid, np.zeros((6, *grid.shape))).eigenvalues(), np.zeros((512, 3)))
        values = np.zeros((6, *grid.shape))
        values[:3] = np.random.default_rng(4).standard_normal((3, *grid.shape))
        assert_matches_eigvalsh(SymTensorField(grid, values), np.sort(values[:3].reshape(3, -1).T, axis=1))

    def test_selected_nodes_match_full_pass(self):
        # 24^3 nodes fill two blocks; the selections straddle the block boundary
        grid = make_grid(24, 4.0)
        tensor = SymTensorField(grid, np.random.default_rng(7).standard_normal((6, *grid.shape)))
        full = tensor.eigenvalues()
        mask = np.random.default_rng(8).random(grid.n**3) < 0.3
        assert np.array_equal(tensor.eigenvalues_at(mask), full[mask])
        indices = np.arange(8000, 8400)
        assert np.array_equal(tensor.eigenvalues_at(indices), full[indices])

    @pytest.mark.parametrize("exponent", [700, -700])
    def test_extreme_scales(self, exponent):
        # scaling by a power of two is exact, so the eigenvalues scale exactly
        base = tensor_with_eigenvalues(np.random.default_rng(5).standard_normal((512, 3)), self.rotations(6))
        scaled = SymTensorField(base.grid, np.ldexp(base.values, exponent))
        assert_matches_eigvalsh(scaled, np.ldexp(np.linalg.eigvalsh(base.matrices()), exponent))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        eigenvalues=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
        rotation=arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)),
        exponent=st.integers(-700, 700),
    )
    def test_property_matches_eigvalsh(self, eigenvalues, rotation, exponent):
        base = tensor_with_eigenvalues(eigenvalues, rotation)
        scaled = SymTensorField(base.grid, np.ldexp(base.values, exponent))
        assert_matches_eigvalsh(scaled, np.ldexp(np.linalg.eigvalsh(base.matrices()), exponent))


class TestIntegrate:
    def test_constant_field_volume(self):
        grid = make_grid(8, 4.0)
        assert integrate(Field(grid, np.ones(grid.shape))) == pytest.approx(512.0)

    def test_zero_field(self):
        grid = make_grid(8, 4.0)
        assert integrate(Field(grid, np.zeros(grid.shape))) == 0.0

    def test_gaussian_mass(self):
        grid = make_grid(48, 8.0)
        assert integrate(maxwellian(grid)) == pytest.approx(1.0, abs=1e-8)

    def test_linearity(self):
        grid = make_grid(16, 4.0)
        rng = np.random.default_rng(0)
        f = Field(grid, rng.standard_normal(grid.shape))
        g = Field(grid, rng.standard_normal(grid.shape))
        lhs = integrate(Field(grid, 2.5 * f.values - 1.25 * g.values))
        rhs = 2.5 * integrate(f) - 1.25 * integrate(g)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestSpectralGradient:
    def test_constant_field(self):
        grid = make_grid(16, 4.0)
        grad = spectral_gradient(Field(grid, np.full(grid.shape, 3.7)))
        assert np.max(np.abs(grad.values)) < 1e-13

    def test_single_mode_exact(self):
        grid = make_grid(32, 8.0)
        k = np.pi / grid.extent
        v1 = grid.coords[0]
        field = Field(grid, np.broadcast_to(np.sin(k * v1), grid.shape).copy())
        grad = spectral_gradient(field)
        expected = k * np.cos(k * np.asarray(v1))
        err = np.max(np.abs(grad.values[0] - expected))
        assert err < 1e-12
        assert np.max(np.abs(grad.values[1])) < 1e-12
        scale = np.max(np.abs(expected))
        assert err / scale < 1e-10  # relative exactness on a grid mode

    def test_gaussian_gradient_vanishes_at_origin(self):
        grid = make_grid(48, 8.0)
        grad = spectral_gradient(maxwellian(grid))
        mid = grid.n // 2
        assert np.max(np.abs(grad.values[:, mid, mid, mid])) < 1e-6

    def test_gradient_components_have_zero_mean(self):
        grid = make_grid(32, 8.0)
        rng = np.random.default_rng(1)
        field = Field(grid, rng.standard_normal(grid.shape))
        grad = spectral_gradient(field)
        for k in range(3):
            assert abs(integrate(grad.component(k))) < 1e-10


class TestFiniteDifferenceGradient:
    def test_constant_field(self):
        grid = make_grid(16, 4.0)
        grad = finite_difference_gradient(Field(grid, np.full(grid.shape, 2.0)))
        assert np.max(np.abs(grad.values)) == 0.0

    def test_linear_ramp_interior(self):
        grid = make_grid(16, 4.0)
        v1 = grid.coords[0]
        field = Field(grid, np.broadcast_to(0.75 * v1, grid.shape).copy())
        grad = finite_difference_gradient(field)
        # away from the periodic wrap seam the slope is exact
        interior = grad.values[0][2:-2]
        np.testing.assert_allclose(interior, 0.75, atol=1e-12)

    def test_matches_spectral_on_gaussian(self):
        # Central differences carry error (dv^2 / 6) * max|f'''|; for
        # exp(-|v|^2/2) at dv = 1/3 that is about 2.6e-2, and it must
        # shrink by ~4x per grid doubling.
        errs = {}
        for n in (48, 96):
            grid = make_grid(n, 8.0)
            field = Field(grid, np.exp(-0.5 * grid.radius2) + np.zeros(grid.shape))
            fd = finite_difference_gradient(field)
            sp = spectral_gradient(field)
            interior = np.asarray(grid.radius2) + np.zeros(grid.shape) <= 36.0
            errs[n] = max(
                float(np.max(np.abs((fd.values[k] - sp.values[k])[interior]))) for k in range(3)
            )
        bound = (make_grid(48, 8.0).spacing ** 2 / 6.0) * 1.38
        assert errs[48] <= 1.3 * bound
        assert errs[48] / errs[96] > 3.5
