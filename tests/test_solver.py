import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import one_blas_thread_stdout
import landau.solver as solver_mod
from landau.coefficients import CoefficientSet, compute_coefficients
from landau.fields import NormRequest, boltzmann_entropy, lp_m_norm, maxwellian, moments, weighted_gradient_energy
from landau.grid import Field, SymTensorField, integrate, make_grid
from landau.solver import (
    SCALAR_COLUMNS,
    AnisotropicGaussian,
    Maxwellian,
    PerturbedMaxwellian,
    SimConfig,
    TwoBump,
    initial_datum,
    rhs,
    run,
    stable_dt,
    step,
)
from landau.verify import conservation_drifts


class TestSimConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SimConfig(p=1.4)
        with pytest.raises(ValueError):
            SimConfig(t_end=0.0)
        with pytest.raises(ValueError):
            SimConfig(cfl=1.5)
        with pytest.raises(ValueError):
            SimConfig(snapshot_every=0)
        with pytest.raises(ValueError):
            SimConfig(m=-1.0)

    def test_datum_validation(self):
        with pytest.raises(ValueError):
            PerturbedMaxwellian(1.2, 4)
        with pytest.raises(ValueError):
            AnisotropicGaussian((1.0, -0.5, 1.0))
        with pytest.raises(ValueError):
            TwoBump(separation=4.0)  # w1 w2 d^2 = 4 > 3 leaves no thermal spread
        for bad in (lambda: PerturbedMaxwellian(math.nan), lambda: AnisotropicGaussian((1.0, math.nan, 1.0)),
                    lambda: TwoBump(math.nan), lambda: TwoBump(1.0, weights=(1.0, math.nan))):
            with pytest.raises(ValueError):
                bad()

    def test_datum_tuples_have_their_length(self):
        # the messages name the config keys
        with pytest.raises(ValueError, match="theta"):
            AnisotropicGaussian((1.0, 2.0))
        with pytest.raises(ValueError, match="theta"):
            AnisotropicGaussian((1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="weights"):
            TwoBump(1.0, weights=(1.0,))
        with pytest.raises(ValueError, match="weights"):
            TwoBump(1.0, weights=(1.0, 1.0, 1.0))

    def test_grid_is_checked_on_construction(self):
        with pytest.raises(ValueError, match="n=7"):
            SimConfig(n=7)
        with pytest.raises(ValueError, match="extent"):
            SimConfig(extent=-1.0)


class TestInitialDatum:
    def test_maxwellian_is_equilibrium(self):
        cfg = SimConfig(n=32)
        f0 = initial_datum(cfg)
        mu = maxwellian(make_grid(32, 8.0))
        assert (f0 - mu).max_abs() < 1e-12
        mom = moments(f0)
        assert mom.mass == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mom.momentum)) < 1e-6
        assert mom.energy == pytest.approx(3.0, abs=1e-6)

    def test_zero_amplitude_matches_maxwellian_bitwise(self):
        plain = initial_datum(SimConfig(n=24))
        perturbed = initial_datum(SimConfig(n=24, initial=PerturbedMaxwellian(0.0, 4)))
        np.testing.assert_array_equal(plain.values, perturbed.values)

    @pytest.mark.parametrize(
        "datum",
        [
            PerturbedMaxwellian(0.3, 4),
            AnisotropicGaussian((0.8, 1.0, 1.2)),
            AnisotropicGaussian((0.5, 1.0, 2.0)),
            TwoBump(2.0),
            TwoBump(1.5, weights=(0.7, 0.3)),
        ],
    )
    def test_normalized_moments(self, datum):
        f0 = initial_datum(SimConfig(n=32, initial=datum))
        assert float(np.min(f0.values)) >= 0.0
        mom = moments(f0)
        assert mom.mass == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(mom.momentum)) < 1e-6
        assert mom.energy == pytest.approx(3.0, abs=1e-6)

    def test_unresolvable_mode_rejected(self):
        with pytest.raises(ValueError):
            initial_datum(SimConfig(n=16, initial=PerturbedMaxwellian(0.1, 8)))

    def test_datum_sampled_to_zero_rejected(self):
        # w1 w2 d^2 rounds to just below 3: a thermal share of 1.5e-16 underflows every sample to 0
        datum = TwoBump(math.sqrt(12.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="not resolved"):
            initial_datum(SimConfig(n=16, initial=datum))


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


def _shares(values) -> list[float]:
    scaled = [v / max(values) for v in values]
    return [v / sum(scaled) for v in scaled]


@st.composite
def _two_bumps(draw) -> TwoBump:
    weights = draw(st.tuples(_POSITIVE, _POSITIVE))
    w1, w2 = _shares(weights)
    # the separation bound w1 w2 d^2 < 3; no bound once w1 w2 underflows
    bound = math.sqrt(3.0 / (w1 * w2)) if w1 * w2 > 0.0 else math.inf
    fraction = st.floats(-1.0, 1.0).map(lambda x: x * bound)
    separation = draw(fraction if bound < math.inf else st.floats(allow_nan=False, allow_infinity=False))
    try:
        return TwoBump(separation, weights)
    except ValueError:  # past the bound by its rounding
        reject()


# every datum family over the whole range its __post_init__ accepts
_DATA = st.one_of(
    st.just(Maxwellian()),
    st.builds(PerturbedMaxwellian, st.floats(-1.0, 1.0), st.integers(min_value=1)),
    st.builds(AnisotropicGaussian, st.tuples(_POSITIVE, _POSITIVE, _POSITIVE)),
    _two_bumps(),
)


def _narrowest_temperature(datum) -> float:
    """An upper bound on the datum's smallest axis temperature at energy 3 (inf for the others)."""
    if isinstance(datum, AnisotropicGaussian):
        return 3.0 * min(datum.temperatures) / max(datum.temperatures)
    if isinstance(datum, TwoBump):
        w1, w2 = _shares(datum.weights)
        return (3.0 - w1 * w2 * datum.separation**2) / 3.0
    return math.inf


@settings(derandomize=True, max_examples=150, deadline=None)
@given(datum=_DATA)
def test_property_datum_normalized_or_rejected(datum):
    try:
        f0 = initial_datum(SimConfig(n=16, initial=datum))
    except ValueError as exc:
        # only a datum the n = 16 grid (spacing 1) cannot carry is rejected, and by name
        assert "not resolv" in str(exc)
        if isinstance(datum, PerturbedMaxwellian):
            assert datum.mode >= 8
        else:
            assert _narrowest_temperature(datum) < 0.25
        return
    mom = moments(f0)
    assert abs(mom.mass - 1.0) <= 1e-12
    assert max(abs(x) for x in mom.momentum) <= 1e-12
    assert abs(mom.energy - 3.0) <= 1e-12
    assert float(np.min(f0.values)) >= 0.0


class TestRhs:
    def test_equilibrium_residual_small(self):
        grid = make_grid(48, 8.0)
        mu = maxwellian(grid)
        residual = rhs(mu, compute_coefficients(mu)).max_abs()
        assert residual <= 5e-3  # stationarity envelope
        assert residual <= 5e-5  # regression: measured 9.5e-6 at n=48

    def test_cached_equilibrium_residual_is_read_only(self):
        # a write would reach every later run on the grid through the cache
        with pytest.raises(ValueError):
            solver_mod.equilibrium_residual(16, 8.0)[0, 0, 0] = 1.0

    def test_maxwellian_is_one_read_only_field_per_grid(self):
        # every run and diagnosis on the grid reads this one equilibrium
        mu = maxwellian(make_grid(16, 8.0))
        assert mu is maxwellian(make_grid(16, 8.0))
        assert not mu.values.flags.writeable

    def test_mass_free(self):
        cfg = SimConfig(n=24, initial=TwoBump(2.0))
        f0 = initial_datum(cfg)
        out = rhs(f0, compute_coefficients(f0))
        assert abs(integrate(out)) <= 1e-12 * integrate(f0)

    def test_two_bump_entropy_decreases_after_one_step(self):
        cfg = SimConfig(n=32, initial=TwoBump(2.0))
        f0 = initial_datum(cfg)
        coeffs = compute_coefficients(f0)
        assert rhs(f0, coeffs).max_abs() > 0.0
        # dt small enough that far-tail undershoot stays below the
        # entropy routine's roundoff tolerance
        f1 = step(f0, 0.02, coeffs)
        assert boltzmann_entropy(f1) < boltzmann_entropy(f0)

    @pytest.mark.parametrize("n", [8, 24])
    def test_matches_the_two_point_stencil(self, n):
        # random coefficients reach every wrap face and off-diagonal term that smooth data leave near zero
        grid = make_grid(n, 8.0)
        rng = np.random.default_rng(n)
        f = Field(grid, rng.uniform(0.5, 1.5, grid.shape))
        A = SymTensorField(grid, rng.uniform(-1.0, 1.0, (6, *grid.shape)))
        a = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
        coeffs = CoefficientSet(A=A, a=a, density=Field(grid, np.zeros(grid.shape)))
        out = rhs(f, coeffs).values
        reference = _two_point_rhs(f.values, A, a.values, grid.spacing)
        assert np.max(np.abs(out - reference)) <= 1e-14 * np.max(np.abs(reference))
        assert abs(integrate(Field(grid, out))) <= 1e-12 * integrate(f)


    @pytest.mark.parametrize("n", [8, 24, 48])
    def test_views_give_the_rolled_stencil_bit_for_bit(self, n):
        # the same operations in the same order on np.roll copies; random weights reach every wrap plane
        grid = make_grid(n, 8.0)
        rng = np.random.default_rng(n)
        vals, weights = rng.standard_normal(grid.shape), rng.standard_normal((3, 4, *grid.shape))
        ahead = [np.roll(vals, -1, axis=k) for k in range(3)]
        spread = [ahead[j] - np.roll(vals, 1, axis=j) for j in range(3)]
        expected = np.zeros(grid.shape)
        for k, (w_kk, w_j1, w_j2, d_k) in enumerate(weights):
            flux = (vals + ahead[k]) * d_k
            flux = (ahead[k] - vals) * w_kk - flux
            for w, j in zip((w_j1, w_j2), solver_mod._TRANSVERSE[k]):
                flux += (np.roll(spread[j], -1, axis=k) + spread[j]) * w
            expected += flux
            expected -= np.roll(flux, 1, axis=k)
        got = rhs(Field(grid, vals), solver_mod.FrozenCoefficients(weights, 0.0, 0.0, 0.0)).values
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [8, 24])
    def test_centred_difference_is_the_rolled_one_bit_for_bit(self, n):
        # the flat shift crosses into the neighbouring line on both wrap planes of axes 1 and 2
        vals = np.random.default_rng(n).standard_normal((n, n, n))
        for j in range(3):
            expected = np.roll(vals, -1, axis=j) - np.roll(vals, 1, axis=j)
            np.testing.assert_array_equal(solver_mod._centred_difference(vals, j), expected)


def _two_point_rhs(f: np.ndarray, A: SymTensorField, a: np.ndarray, dv: float) -> np.ndarray:
    """The flux divergence with face averages and compact differences written out, one roll at a time."""

    def average(x, k):
        return 0.5 * (x + np.roll(x, -1, axis=k))

    def difference(x, k):
        return (np.roll(x, -1, axis=k) - x) / dv

    centred = [(np.roll(f, -1, axis=j) - np.roll(f, 1, axis=j)) / (2.0 * dv) for j in range(3)]
    out = np.zeros_like(f)
    for k in range(3):
        flux = -difference(a, k) * average(f, k)
        for j in range(3):
            gradient = difference(f, k) if j == k else average(centred[j], k)
            flux += average(A.component(k, j), k) * gradient
        out += (flux - np.roll(flux, 1, axis=k)) / dv
    return out


def _synthetic_coeffs(grid, diag: float) -> CoefficientSet:
    tensor = np.zeros((6, *grid.shape))
    tensor[0] = tensor[1] = tensor[2] = diag
    return CoefficientSet(
        A=SymTensorField(grid, tensor),
        a=Field(grid, np.full(grid.shape, 3.0 * diag)),
        density=Field(grid, np.zeros(grid.shape)),
    )


def _linearized(h: Field) -> np.ndarray:
    """L h = rhs(h, A[mu]) + rhs(mu, A[h]): the balanced right-hand side linearized at mu, exactly, since A is linear."""
    mu = maxwellian(h.grid)
    return rhs(h, compute_coefficients(mu)).values + rhs(mu, compute_coefficients(h)).values


class TestLinearizedOperator:
    # percent error of the discrete isotropization rate at L = 8, measured at n = 24, 32 and 48
    RATE_ERRORS = {24: -7.848, 32: -4.474, 48: -2.005}
    RATE_BAND = 0.1  # percentage points either side

    def test_relaxation_clock_without_a_run(self):
        # the small-anisotropy rate of phi = v1^2 - v3^2 is exactly 1/(10 pi^(3/2)) = 0.0179587
        exact = 1.0 / (10.0 * math.pi**1.5)
        errors = {}
        for n in self.RATE_ERRORS:
            grid = make_grid(n, 8.0)
            v1, _, v3 = grid.coords
            phi = v1 * v1 - v3 * v3
            mu = maxwellian(grid).values
            rate = -float(np.sum(phi * _linearized(Field(grid, phi * mu)))) / float(np.sum(phi * phi * mu))
            errors[n] = 100.0 * (rate / exact - 1.0)
        for n, measured in self.RATE_ERRORS.items():
            assert abs(errors[n] - measured) <= self.RATE_BAND, (n, errors[n])
        for coarse, fine in ((24, 32), (32, 48)):
            assert math.log(errors[coarse] / errors[fine]) / math.log(fine / coarse) >= 1.8


class TestStableDt:
    def test_quarter_scaling_under_refinement(self):
        coarse = make_grid(16, 8.0)
        fine = make_grid(32, 8.0)
        dt_c = stable_dt(Field(coarse, np.zeros(coarse.shape)), _synthetic_coeffs(coarse, 10.0), 0.5)
        dt_f = stable_dt(Field(fine, np.zeros(fine.shape)), _synthetic_coeffs(fine, 10.0), 0.5)
        assert dt_c == pytest.approx(4.0 * dt_f, rel=1e-12)

    def test_vanishing_coefficients_leave_only_snapshots_and_horizon(self, monkeypatch):
        grid = make_grid(16, 8.0)
        assert stable_dt(Field(grid, np.zeros(grid.shape)), _synthetic_coeffs(grid, 0.0), 0.5) > 1e20
        # a run on vanishing coefficients steps from snapshot time to snapshot time, then to t_end;
        # the grid's equilibrium residual is cached first, so that it is not cached as zero
        solver_mod.equilibrium_residual(grid.n, grid.extent)
        monkeypatch.setattr(solver_mod, "compute_coefficients", lambda f: _synthetic_coeffs(f.grid, 0.0))
        traj = run(SimConfig(n=16, t_end=0.5, snapshot_every=2, initial=TwoBump(2.0)))
        np.testing.assert_allclose(traj.times, [0.0, 0.2, 0.4, 0.5], rtol=0.0, atol=1e-15)
        assert traj.snapshot_times == list(traj.times)

    def test_equilibrium_baseline(self):
        # pinned: uncapped, the equilibrium's diffusion scale allows dt = 0.92 at n = 32
        grid = make_grid(32, 8.0)
        mu = maxwellian(grid)
        dt = stable_dt(mu, compute_coefficients(mu), 0.5)
        assert dt == pytest.approx(0.9215, rel=1e-3)

    @pytest.mark.parametrize("datum", [AnisotropicGaussian((0.8, 1.0, 1.2)), TwoBump(2.0)])
    def test_a_set_and_its_frozen_form_give_one_bound(self, datum):
        f = initial_datum(SimConfig(n=16, initial=datum))
        coeffs = compute_coefficients(f)
        frozen = solver_mod.FrozenCoefficients.of(coeffs)
        assert stable_dt(f, coeffs, 0.5) == stable_dt(f, frozen, 0.5)
        # the drift term is the flux's own: 2 dv |D_k| of the face weights
        drift = 2.0 * f.grid.spacing * float(np.max(np.abs(frozen.weights[:, 3])))
        assert frozen.drift_max == pytest.approx(drift, rel=1e-14)

    def test_face_weights_and_drift_match_the_rolled_formula(self):
        # random A and a at n = 8, so that every wrap plane carries its own values
        grid = make_grid(8, 8.0)
        rng = np.random.default_rng(8)
        A = SymTensorField(grid, rng.uniform(-1.0, 1.0, (6, *grid.shape)))
        a = rng.uniform(-1.0, 1.0, grid.shape)
        coeffs = CoefficientSet(A=A, a=Field(grid, a), density=Field(grid, np.zeros(grid.shape)))
        inv_dv2 = 1.0 / grid.spacing**2
        expected = np.empty((3, 4, *grid.shape))
        for k, (j1, j2) in enumerate(((1, 2), (0, 2), (0, 1))):
            for slot, (j, scale) in enumerate(((k, 0.5), (j1, 0.125), (j2, 0.125))):
                component = A.component(k, j)
                expected[k, slot] = (component + np.roll(component, -1, axis=k)) * (scale * inv_dv2)
            expected[k, 3] = (np.roll(a, -1, axis=k) - a) * (0.5 * inv_dv2)
        weights, drift = solver_mod._face_weights(coeffs)
        np.testing.assert_array_equal(weights, expected)
        assert drift == max(float(np.max(np.abs(np.roll(a, -1, axis=k) - a))) for k in range(3)) / grid.spacing

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
        # with the weights, and alone in one scratch array, as `stable_dt` takes it of a bare set
        assert solver_mod._face_weights(coeffs)[1] == max(faces)
        assert solver_mod._drift_max(coeffs.a, [np.empty(grid.shape)] * 3) == max(faces)

    @pytest.mark.parametrize("bad, dt", [(math.nan, math.nan), (math.inf, 0.0)])
    def test_a_non_finite_node_of_a_stays_in_the_bound(self, bad, dt):
        # NaN stays NaN, in the drift and the step; an infinite drift leaves no step
        f = initial_datum(SimConfig(n=16, initial=TwoBump(2.0)))
        fine = compute_coefficients(f)
        a = fine.a.values.copy()
        a[5, 9, 7] = bad
        coeffs = CoefficientSet(A=fine.A, a=Field(f.grid, a), density=f)
        frozen = solver_mod.FrozenCoefficients.of(coeffs)
        np.testing.assert_equal(frozen.drift_max, bad)
        np.testing.assert_equal(solver_mod._drift_max(coeffs.a, [np.empty(f.grid.shape)] * 3), bad)
        np.testing.assert_equal([stable_dt(f, coeffs, 0.5), stable_dt(f, frozen, 0.5)], [dt, dt])

    def test_frozen_form_takes_the_statistics_before_the_weights(self, monkeypatch):
        # their full-grid temporaries must be gone before the weights are allocated
        coeffs = compute_coefficients(initial_datum(SimConfig(n=16, initial=TwoBump(2.0))))
        build = solver_mod._face_weights

        def checked(c):
            assert {"lambda_max", "c0_empirical"} <= vars(c).keys()
            return build(c)

        monkeypatch.setattr(solver_mod, "_face_weights", checked)
        frozen = solver_mod.FrozenCoefficients.of(coeffs)
        assert (frozen.lambda_max, frozen.drift_max, frozen.c0_empirical) == (
            coeffs.lambda_max, build(coeffs)[1], coeffs.c0_empirical)


class TestStep:
    def test_zero_dt_is_identity(self):
        grid = make_grid(24, 8.0)
        mu = maxwellian(grid)
        out = step(mu, 0.0, compute_coefficients(mu))
        np.testing.assert_array_equal(out.values, mu.values)

    def test_mass_preserved(self):
        cfg = SimConfig(n=24, initial=TwoBump(2.0))
        f0 = initial_datum(cfg)
        coeffs = compute_coefficients(f0)
        f1 = step(f0, stable_dt(f0, coeffs, 0.5), coeffs)
        assert integrate(f1) == pytest.approx(integrate(f0), rel=1e-12)

    def test_equilibrium_step_stays_within_residual_envelope(self):
        grid = make_grid(32, 8.0)
        mu = maxwellian(grid)
        coeffs = compute_coefficients(mu)
        dt = stable_dt(mu, coeffs, 0.25)
        drift = (step(mu, dt, coeffs) - mu).max_abs()
        assert drift <= dt * 5e-3


class TestRun:
    def test_series_shapes_and_snapshot_cadence(self):
        cfg = SimConfig(n=16, t_end=0.3, cfl=0.25, snapshot_every=2, initial=PerturbedMaxwellian(0.1, 3))
        traj = run(cfg)
        steps = len(traj.times) - 1
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(0.3)
        for series in (traj.dt, traj.mass, traj.energy, traj.entropy, traj.lp_p, traj.linf_h, traj.grad_energy, traj.c0):
            assert len(series) == steps + 1
        assert traj.momentum.shape == (steps + 1, 3)
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == pytest.approx(0.3)
        assert not traj.aborted
        # each column holds the quantity it names, bit for bit, at every snapshot row
        mu = maxwellian(traj.grid)
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            row = traj.table[list(traj.times).index(t)]
            h = snap - mu
            mom = moments(snap)
            expected = {
                "time": t,
                "mass": mom.mass,
                "momentum_x": mom.momentum[0],
                "momentum_y": mom.momentum[1],
                "momentum_z": mom.momentum[2],
                "energy": mom.energy,
                "entropy": boltzmann_entropy(Field(traj.grid, np.maximum(snap.values, 0.0))),
                "lp_p": lp_m_norm(h, NormRequest(cfg.p)) ** cfg.p,
                "linf_h": h.max_abs(),
                "grad_energy": weighted_gradient_energy(h, cfg.p),
                "c0": compute_coefficients(snap).c0_empirical,  # coefficient_refresh is 1
            }
            for name, value in expected.items():
                assert row[SCALAR_COLUMNS.index(name)] == value, name
        # the series are views of the one table, which cannot be reassigned
        assert np.shares_memory(traj.mass, traj.table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.table = traj.table.copy()

    def test_conservation_and_entropy_short_run(self):
        traj = run(SimConfig(n=24, t_end=0.3, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2))))
        mass, _, energy, entropy = conservation_drifts([traj])
        assert mass <= 1e-12 and energy <= 1e-2 and entropy <= 1e-9

    def test_equilibrium_run_stays_put(self):
        traj = run(SimConfig(n=24, t_end=0.3, cfl=0.25, initial=Maxwellian()))
        assert np.max(traj.linf_h) <= 1e-2
        assert np.max(traj.linf_h) <= 1e-10  # equilibrium-balanced: roundoff only

    def test_asymmetric_datum_conserves_momentum(self):
        traj = run(SimConfig(n=24, t_end=0.4, cfl=0.25, initial=TwoBump(1.5, weights=(0.7, 0.3))))
        _, momentum, _, entropy = conservation_drifts([traj])
        assert momentum <= 1e-5 and entropy <= 1e-9

    def test_coefficient_refresh_cadence(self):
        traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, coefficient_refresh=3, initial=TwoBump(2.0)))
        assert not traj.aborted
        assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12

    def test_frozen_coefficients_step_at_the_cfl_bound(self, monkeypatch):
        # the lag of 25 frozen steps, divided by 25, does not limit the steps: each is
        # the CFL bound of its (frozen) set, or a landing on the next snapshot time
        cfg = SimConfig(n=32, t_end=1.0, cfl=0.011, coefficient_refresh=25, snapshot_every=1,
                        initial=PerturbedMaxwellian(0.05, 8))
        bounds = []
        cfl_bound = solver_mod.stable_dt

        def recording_bound(f, coeffs, cfl):
            bounds.append(cfl_bound(f, coeffs, cfl))
            return bounds[-1]

        monkeypatch.setattr(solver_mod, "stable_dt", recording_bound)
        traj = run(cfg)
        steps = len(traj.times) - 1
        assert len(bounds) == steps and steps <= 55
        for k in range(steps):
            gap = 0.1 * (math.floor(traj.times[k] / 0.1 + 1e-9) + 1) - traj.times[k]
            assert traj.dt[k + 1] in (bounds[k], pytest.approx(gap), pytest.approx(gap / 2))

    def test_eigenvalues_only_at_ball_and_screened_nodes(self, monkeypatch):
        cfg = SimConfig(n=16, t_end=0.3, cfl=0.25, initial=TwoBump(2.0))
        solver_mod.equilibrium_residual(cfg.n, cfg.extent)  # its set never needs eigenvalues
        sets, full_passes, nodes = [], [], {}
        build, eigenvalues, eigenvalues_at = (
            solver_mod.compute_coefficients, SymTensorField.eigenvalues, SymTensorField.eigenvalues_at
        )

        def counting_build(f):
            sets.append(build(f))
            return sets[-1]

        def counting_eigenvalues(tensor):
            full_passes.append(tensor)
            return eigenvalues(tensor)

        def counting_eigenvalues_at(tensor, selection):
            out = eigenvalues_at(tensor, selection)
            nodes[id(tensor)] = nodes.get(id(tensor), 0) + len(out)
            return out

        monkeypatch.setattr(solver_mod, "compute_coefficients", counting_build)
        monkeypatch.setattr(SymTensorField, "eigenvalues", counting_eigenvalues)
        monkeypatch.setattr(SymTensorField, "eigenvalues_at", counting_eigenvalues_at)
        traj = run(cfg)
        # every set feeds lambda_max (dt) or c0 (the recorder), and neither takes a full pass
        assert len(sets) == len(traj.times) > 1
        assert full_passes == []
        grid = sets[0].A.grid
        ball = (grid.radius2 <= (0.5 * grid.extent) ** 2).reshape(-1)
        weight = (1.0 + grid.radius2.reshape(-1)[ball]) ** 1.5
        for coeffs in sets:
            a11, a22, a33, a12, a13, a23 = coeffs.A.values.reshape(6, -1)
            d12, d13, d23 = np.abs(a12), np.abs(a13), np.abs(a23)
            # each screen with a slack of 1e-12 of the largest entry (times the largest weight for
            # c0): wider than the program's, so a superset of its screen.  lambda_max: the nodes
            # whose Gershgorin row bound reaches the largest diagonal entry
            row_bound = np.max([a11 + d12 + d13, a22 + d12 + d23, a33 + d13 + d23], axis=0)
            top, scale = np.max(coeffs.A.values[:3]), np.max(np.abs(coeffs.A.values))
            screen = int(np.count_nonzero(row_bound >= top - 1e-12 * scale))
            # c0: the ball nodes whose <v>^3 (q - 2 sqrt(J2/3)) reaches min <v>^3 min_i A_ii
            b = coeffs.A.values.reshape(6, -1)[:, ball]
            q = (b[0] + b[1] + b[2]) / 3.0
            j2 = 0.5 * ((b[0] - q) ** 2 + (b[1] - q) ** 2 + (b[2] - q) ** 2) + b[3] ** 2 + b[4] ** 2 + b[5] ** 2
            upper = np.min(weight * np.min(b[:3], axis=0)) + 1e-12 * np.max(np.abs(b)) * np.max(weight)
            ball_screen = int(np.count_nonzero(weight * (q - 2.0 * np.sqrt(j2 / 3.0)) <= upper))
            assert screen + ball_screen <= grid.n**3 // 100
            assert 0 < nodes[id(coeffs.A)] <= screen + ball_screen

    def test_one_eigenvalue_call_per_set(self, monkeypatch):
        cfg = SimConfig(n=24, t_end=0.2, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2)))
        solver_mod.equilibrium_residual(cfg.n, cfg.extent)  # its set never needs eigenvalues
        calls, frozen = [], []
        eigenvalues_at, of = SymTensorField.eigenvalues_at, solver_mod.FrozenCoefficients.of.__func__

        def counting_eigenvalues_at(tensor, selection):
            calls.append(tensor)
            return eigenvalues_at(tensor, selection)

        def checked_of(cls, coeffs):
            frozen.append(of(cls, coeffs))
            # lambda_max and c0 from one call on this set's A, each cached on the set
            assert len(calls) == 1 and calls[0] is coeffs.A
            assert {"lambda_max", "c0_empirical"} <= vars(coeffs).keys()
            calls.clear()
            return frozen[-1]

        monkeypatch.setattr(SymTensorField, "eigenvalues_at", counting_eigenvalues_at)
        monkeypatch.setattr(solver_mod.FrozenCoefficients, "of", classmethod(checked_of))
        traj = run(cfg)
        assert len(frozen) == len(traj.times) > 1 and calls == []

    @pytest.mark.parametrize("refresh, snapshot_every", [(1, 20), (3, 1)])
    def test_weights_built_once_per_set_and_sets_released(self, monkeypatch, refresh, snapshot_every):
        # cfl = 1: with a rebuild per step and no snapshot before t_end the first trial step
        # is rejected and retried; with one rebuild per three steps each set serves several
        cfg = SimConfig(n=16, t_end=0.6, cfl=1.0, snapshot_every=snapshot_every, coefficient_refresh=refresh,
                        initial=TwoBump(2.0))
        solver_mod.equilibrium_residual(cfg.n, cfg.extent)  # its set is built outside the run
        sets, builds = [], []
        build, weights = solver_mod.compute_coefficients, solver_mod._face_weights

        def tracking_build(f):
            # the run keeps the weights of a set, never the set itself
            assert all(ref() is None for ref in sets)
            coeffs = build(f)
            sets.append(weakref.ref(coeffs))
            return coeffs

        def counting_weights(coeffs):
            assert coeffs is sets[-1]()  # the newest set's weights, built right after it
            builds.append(len(sets))
            return weights(coeffs)

        monkeypatch.setattr(solver_mod, "compute_coefficients", tracking_build)
        monkeypatch.setattr(solver_mod, "_face_weights", counting_weights)
        traj = run(cfg)
        steps = len(traj.times) - 1
        assert not traj.aborted
        assert len(sets) > steps + 1 if refresh == 1 else len(sets) < steps
        assert builds == list(range(1, len(sets) + 1))
        assert all(ref() is None for ref in sets)

    def test_run_never_reads_grad_a(self, monkeypatch):
        def unread(coeffs):
            raise AssertionError("a run read grad a")

        monkeypatch.setattr(CoefficientSet, "grad_a", property(unread))
        # snapshots every 0.1: at least six steps, each on a rebuilt set
        traj = run(SimConfig(n=16, t_end=0.6, snapshot_every=1, initial=TwoBump(2.0)))
        assert not traj.aborted and len(traj.times) >= 7

    def test_one_blas_thread_gives_the_same_row_bits(self):
        # the rows' sums must not depend on how many threads BLAS has: a BLAS dot product splits its sum by thread
        script = (
            "import hashlib; from landau.solver import SimConfig, TwoBump, run; "
            "traj = run(SimConfig(n=24, t_end=0.1, initial=TwoBump(2.0))); "
            "print(hashlib.sha256(traj.table.tobytes() + traj.snapshots[-1].values.tobytes()).hexdigest())"
        )
        traj = run(SimConfig(n=24, t_end=0.1, initial=TwoBump(2.0)))
        here = hashlib.sha256(traj.table.tobytes() + traj.snapshots[-1].values.tobytes()).hexdigest()
        assert one_blas_thread_stdout(script) == here

    def test_blowup_is_surfaced(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "BLOWUP_SUP", 1e-3)
        traj = run(SimConfig(n=16, t_end=0.5, cfl=0.25, initial=TwoBump(2.0)))
        assert traj.aborted
        assert traj.abort_time is not None
        assert "sup norm" in traj.abort_reason

    def test_non_finite_iterate_is_surfaced(self):
        grid = make_grid(16, 8.0)
        mu = maxwellian(grid)
        values = mu.values.copy()
        values[3, 4, 5] = np.nan
        with pytest.raises(solver_mod.BlowUpError, match="non-finite"):
            step(Field(grid, values), 0.01, compute_coefficients(mu))


class TestStepControl:
    def test_error_falls_with_the_tolerance(self, monkeypatch):
        # cfl = 1 and one snapshot interval longer than the run: only the controller limits
        # the steps, the first one included.  Reference: 100 fixed steps of 0.01, whose own
        # error (~1e-7 of the peak) is 5% of the smallest error measured here.
        cfg = SimConfig(n=24, t_end=1.0, cfl=1.0, snapshot_every=20, initial=AnisotropicGaussian((0.8, 1.0, 1.2)))
        ref = initial_datum(cfg)
        for _ in range(100):
            ref = step(ref, 0.01, compute_coefficients(ref))
        peak = float(np.max(ref.values))
        tolerances = (3e-5, 1e-5, 3e-6)
        errors = []
        for tol in tolerances:
            monkeypatch.setattr(solver_mod, "LAG_TOLERANCE", tol)
            traj = run(cfg)
            assert traj.times[-1] == 1.0 and not traj.aborted
            errors.append((traj.snapshots[-1] - ref).max_abs() / peak)
        # measured 2.4e-5 / 7.7e-6 / 2.3e-6; an uncontrolled first step (dt = 1) stalls near 2.4e-5
        order = math.log(errors[0] / errors[-1]) / math.log(tolerances[0] / tolerances[-1])
        assert order >= 0.8
        assert traj.dt[1] < 0.2  # the first trial, the whole run, was rejected and retried
