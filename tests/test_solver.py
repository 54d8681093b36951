import numpy as np
import pytest

import landau.solver as solver_mod
from landau.coefficients import CoefficientSet, compute_coefficients
from landau.fields import boltzmann_entropy, maxwellian, moments
from landau.grid import Field, SymTensorField, VecField, integrate, make_grid
from landau.solver import (
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


class TestRhs:
    def test_equilibrium_residual_small(self):
        grid = make_grid(48, 8.0)
        mu = maxwellian(grid)
        residual = rhs(mu, compute_coefficients(mu)).max_abs()
        assert residual <= 5e-3  # stationarity envelope
        assert residual <= 5e-5  # regression: measured 9.5e-6 at n=48

    def test_refinement_order(self):
        res = {}
        for n in (24, 48):
            grid = make_grid(n, 8.0)
            mu = maxwellian(grid)
            res[n] = rhs(mu, compute_coefficients(mu)).max_abs()
        order = np.log2(res[24] / res[48])
        assert order >= 1.8

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


def _synthetic_coeffs(grid, diag: float) -> CoefficientSet:
    tensor = np.zeros((6, *grid.shape))
    tensor[0] = tensor[1] = tensor[2] = diag
    return CoefficientSet(
        A=SymTensorField(grid, tensor),
        a=Field(grid, np.full(grid.shape, 3.0 * diag)),
        grad_a=VecField(grid, np.zeros((3, *grid.shape))),
    )


class TestStableDt:
    def test_quarter_scaling_under_refinement(self):
        coarse = make_grid(16, 8.0)
        fine = make_grid(32, 8.0)
        dt_c = stable_dt(Field(coarse, np.zeros(coarse.shape)), _synthetic_coeffs(coarse, 10.0), 0.5)
        dt_f = stable_dt(Field(fine, np.zeros(fine.shape)), _synthetic_coeffs(fine, 10.0), 0.5)
        assert dt_c == pytest.approx(4.0 * dt_f, rel=1e-12)

    def test_vanishing_coefficients_hit_the_cap(self):
        grid = make_grid(16, 8.0)
        dt = stable_dt(Field(grid, np.zeros(grid.shape)), _synthetic_coeffs(grid, 0.0), 0.5)
        assert dt == 0.1

    def test_equilibrium_baseline(self):
        # pinned: the diffusion scale is weak enough that the cap binds
        grid = make_grid(32, 8.0)
        mu = maxwellian(grid)
        dt = stable_dt(mu, compute_coefficients(mu), 0.5)
        assert dt == 0.1


class TestStep:
    def test_zero_dt_is_identity(self):
        grid = make_grid(24, 8.0)
        mu = maxwellian(grid)
        out = step(mu, 0.0)
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

    def test_conservation_and_entropy_short_run(self):
        traj = run(SimConfig(n=24, t_end=0.3, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2))))
        assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12 * traj.mass[0]
        assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-2 * traj.energy[0]
        assert np.max(np.diff(traj.entropy)) <= 1e-9

    def test_equilibrium_run_stays_put(self):
        traj = run(SimConfig(n=24, t_end=0.3, cfl=0.25, initial=Maxwellian()))
        assert np.max(traj.linf_h) <= 1e-2
        assert np.max(traj.linf_h) <= 1e-10  # equilibrium-balanced: roundoff only

    def test_asymmetric_datum_conserves_momentum(self):
        traj = run(SimConfig(n=24, t_end=0.4, cfl=0.25, initial=TwoBump(1.5, weights=(0.7, 0.3))))
        assert np.max(np.abs(traj.momentum - traj.momentum[0])) <= 1e-5
        assert np.max(np.diff(traj.entropy)) <= 1e-9

    def test_coefficient_refresh_cadence(self):
        traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, coefficient_refresh=3, initial=TwoBump(2.0)))
        assert not traj.aborted
        assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12

    def test_clipping_preserves_mass(self):
        traj = run(SimConfig(n=16, t_end=0.3, cfl=0.25, clip_negatives=True, initial=TwoBump(2.0)))
        assert traj.clipped_mass >= 0.0
        assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12

    def test_eigenvalues_only_at_ball_and_screened_nodes(self, monkeypatch):
        cfg = SimConfig(n=16, t_end=0.3, cfl=0.25, initial=TwoBump(2.0))
        solver_mod._equilibrium_residual(cfg.n, cfg.extent)  # its set never needs eigenvalues
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
        ball = int(np.count_nonzero(grid.radius2 <= (0.5 * grid.extent) ** 2))
        for coeffs in sets:
            a11, a22, a33, a12, a13, a23 = coeffs.A.values.reshape(6, -1)
            d12, d13, d23 = np.abs(a12), np.abs(a13), np.abs(a23)
            # nodes whose Gershgorin row bound reaches the largest diagonal entry, less a slack
            # of 1e-12 of the largest entry: wider than the program's, so a superset of its screen
            row_bound = np.max([a11 + d12 + d13, a22 + d12 + d23, a33 + d13 + d23], axis=0)
            top, scale = np.max(coeffs.A.values[:3]), np.max(np.abs(coeffs.A.values))
            screen = int(np.count_nonzero(row_bound >= top - 1e-12 * scale))
            assert screen <= grid.n**3 // 100
            assert 0 < nodes[id(coeffs.A)] <= ball + screen

    def test_blowup_is_surfaced(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "BLOWUP_SUP", 1e-3)
        traj = run(SimConfig(n=16, t_end=0.5, cfl=0.25, initial=TwoBump(2.0)))
        assert traj.aborted
        assert traj.abort_time is not None
        assert "sup norm" in traj.abort_reason
