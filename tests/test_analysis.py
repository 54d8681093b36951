import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from landau.analysis import (
    degiorgi_iterate,
    energy_E0,
    exponents,
    h1_smallness,
    level_set_energy,
    level_set_recurrence_check,
    moment_bound_check,
    ode_barrier_check,
    predict_K,
    q_ltheta,
    smoothing_fit,
)
from landau.fields import NormRequest, lp_m_norm, maxwellian, weighted_gradient_energy
from landau.grid import Field


class TestExponents:
    def test_reference_values_p2_m55(self):
        e = exponents(2.0, 55.0)
        assert e.gamma == pytest.approx(float(Fraction(46, 165)), abs=1e-12)
        assert e.beta0 == pytest.approx(float(Fraction(1, 3)), abs=1e-12)
        assert e.beta1 == pytest.approx(float(Fraction(101, 165)), abs=1e-12)
        assert e.beta2 == pytest.approx(float(Fraction(3, 55)), abs=1e-12)
        assert e.alpha == pytest.approx(float(Fraction(5, 6)), abs=1e-12)
        assert not e.degenerate

    def test_threshold_boundary_degenerates(self):
        e = exponents(2.0, 9.0)
        assert e.m_threshold == pytest.approx(9.0, abs=1e-12)
        assert e.gamma == pytest.approx(0.0, abs=1e-12)
        assert e.degenerate

    def test_cross_check_p3_m18(self):
        e = exponents(3.0, 18.0)
        assert e.q == pytest.approx(float(Fraction(14, 3)), abs=1e-12)
        assert e.gamma == pytest.approx(float(Fraction(2, 3)), abs=1e-12)

    def test_threshold_max_form(self):
        # for p > 3 the inner ratio p(p - 3/2)/(p^2 - 2p + 3/2) exceeds one
        e = exponents(4.0, 20.0)
        assert e.m_threshold == pytest.approx(float(Fraction(108, 19)), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exponents(1.5, 10.0)
        with pytest.raises(ValueError):
            exponents(2.0, 0.0)

    def test_structural_identities(self):
        for p in (1.7, 2.0, 2.8):
            for m in (11.0, 30.0):
                e = exponents(p, m)
                assert e.beta1 + e.beta2 == pytest.approx(2.0 / 3.0, abs=1e-14)
                assert 0.0 < e.alpha < 1.0
                assert e.gamma < (2.0 / 3.0) * (p - 1.5)


class TestQLTheta:
    def test_reference_value(self):
        assert q_ltheta(10.0, 0.0) == pytest.approx(-7.0 / 144.0, abs=1e-14)

    def test_endpoint_is_one(self):
        for l in (10.0, 12.0, 55.0):
            assert q_ltheta(l, l) == pytest.approx(1.0, abs=1e-14)

    def test_pinned_55_2(self):
        expected = -Fraction(2 * 55**2 - 25 * 55 + 57, 18 * 53) * (1 - Fraction(2, 55)) + Fraction(2, 55)
        assert q_ltheta(55.0, 2.0) == pytest.approx(float(expected), abs=1e-12)

    def test_monotone_in_theta(self):
        values = [q_ltheta(12.0, th) for th in np.linspace(0.0, 12.0, 13)]
        assert np.all(np.diff(values) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            q_ltheta(9.5, 0.0)
        with pytest.raises(ValueError):
            q_ltheta(12.0, 13.0)
        with pytest.raises(ValueError):
            q_ltheta(12.0, -1.0)


class TestPredictK:
    def test_zero_energy(self):
        assert predict_K(0.0, 1.0, 2.0, 2.0, 55.0, 1.0) == 0.0

    def test_reference_value(self):
        expected = 3.0 ** float(Fraction(87, 23))
        assert predict_K(1.0, 1.0, 2.0, 2.0, 55.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_small_time_scaling(self):
        e = exponents(2.0, 55.0)
        k1 = predict_K(1.0, 1e-6, 2.0, 2.0, 55.0, 1.0)
        k2 = predict_K(1.0, 1e-8, 2.0, 2.0, 55.0, 1.0)
        assert k2 / k1 == pytest.approx(100.0 ** (1.0 / (1.0 + e.gamma)), rel=1e-12)

    def test_rejects_degenerate_exponents(self):
        with pytest.raises(ValueError):
            predict_K(1.0, 1.0, 2.0, 2.0, 8.0, 1.0)
        with pytest.raises(ValueError):
            predict_K(-1.0, 1.0, 2.0, 2.0, 55.0, 1.0)
        with pytest.raises(ValueError):
            predict_K(1.0, 3.0, 2.0, 2.0, 55.0, 1.0)


class TestEnergyE0:
    def test_noise_floor_on_equilibrium_run(self, maxwellian32):
        assert energy_E0(maxwellian32, (0.0, 1.0)) <= 1e-4

    def test_monotone_in_window(self, twobump32):
        e_small = energy_E0(twobump32, (0.0, 0.5))
        e_large = energy_E0(twobump32, (0.0, 1.0))
        assert e_large >= e_small

    def test_amplitude_response(self, h1_sweep24):
        windows = {amp: energy_E0(traj, (0.0, 0.5)) for amp, traj in h1_sweep24}
        ratio = windows[0.1] / windows[0.05]
        assert 2.0 <= ratio <= 8.0  # near-quadratic response at small amplitude

    def test_rejects_empty_window(self, twobump32):
        with pytest.raises(ValueError):
            energy_E0(twobump32, (5.0, 6.0))


def direct_level_energy(traj, level, c0):
    """(sup term, dissipation term) at p = 2 over every snapshot, each cut differentiated afresh."""
    times = np.asarray(traj.snapshot_times)
    mu = maxwellian(traj.grid)
    req = NormRequest(2.0)
    sup = 0.0
    diss = []
    for snap in traj.snapshots:
        plus = Field(traj.grid, np.maximum((snap - mu).values - level, 0.0))
        sup = max(sup, lp_m_norm(plus, req) ** 2)
        diss.append(weighted_gradient_energy(plus, 2.0))
    return sup, c0 * float(np.trapezoid(diss, times))


class TestLevelSetEnergy:
    def test_zero_level_matches_direct_computation(self, twobump32):
        report = level_set_energy(twobump32, 0.0, (0.0, 1.0), c0=0.0168)
        assert report.total == pytest.approx(sum(direct_level_energy(twobump32, 0.0, 0.0168)), rel=1e-12)

    def test_empty_cut_boundary_matches_direct_computation(self, twobump32):
        # at a snapshot's max h its cut is empty and skipped; one ulp below, its top node is in the cut
        mu = maxwellian(twobump32.grid)
        tops = sorted(float(np.max((snapshot - mu).values)) for snapshot in twobump32.snapshots)
        at = tops[len(tops) // 2]
        assert tops[0] < at < tops[-1]  # both the skipped and the computed path run
        for level in (at, float(np.nextafter(at, 0.0))):
            report = level_set_energy(dataclasses.replace(twobump32), level, (0.0, 1.0), c0=0.0168)
            sup, dissipation = direct_level_energy(twobump32, level, 0.0168)
            assert (report.sup_term, report.dissipation_term, report.total) == (sup, dissipation, sup + dissipation)

    def test_an_empty_cut_reads_no_snapshot_once_its_max_h_is_known(self, twobump32):
        traj = dataclasses.replace(twobump32, snapshots=list(twobump32.snapshots))
        level_set_energy(traj, 0.0, (0.0, 1.0), c0=0.02)
        traj.snapshots[:] = [None] * len(traj.snapshots)  # any read of a snapshot now fails
        top = float(np.max(twobump32.linf_h))
        assert level_set_energy(traj, 2.0 * top, (0.0, 1.0), c0=0.02).total == 0.0

    def test_call_order_does_not_change_totals(self, twobump32):
        top = float(np.max(twobump32.linf_h))
        probes = [(frac * top, window) for frac in (0.0, 0.25, 0.5, 0.9, 2.0) for window in ((0.0, 1.0), (0.3, 1.0))]

        def totals(traj, order):
            return {probe: level_set_energy(traj, probe[0], probe[1], c0=0.02).total for probe in order}

        forward = totals(dataclasses.replace(twobump32), probes)
        assert totals(dataclasses.replace(twobump32), probes[::-1]) == forward

    @pytest.mark.parametrize("level", [math.nan, -1.0, -math.inf])
    def test_rejects_bad_level(self, twobump32, level):
        top = float(np.max(twobump32.linf_h))
        level_set_energy(twobump32, 2.0 * top, (0.0, 1.0), c0=0.02)  # every cut is empty and memoized
        for window in ((0.0, 1.0), (0.31, 0.32)):  # the second holds no snapshot
            with pytest.raises(ValueError, match="level must be nonnegative"):
                level_set_energy(twobump32, level, window, c0=0.02)

    def test_level_above_sup_vanishes(self, twobump32):
        top = float(np.max(twobump32.linf_h))
        report = level_set_energy(twobump32, 2.0 * top, (0.0, 1.0), c0=0.02)
        assert report.total == 0.0

    def test_monotone_in_level(self, twobump32):
        top = float(np.max(twobump32.linf_h))
        totals = [
            level_set_energy(twobump32, lev, (0.0, 1.0), c0=0.02).total
            for lev in (0.0, 0.25 * top, 0.5 * top, 0.9 * top)
        ]
        assert all(totals[i + 1] <= totals[i] for i in range(len(totals) - 1))

    def test_rejects_out_of_range_window(self, twobump32):
        with pytest.raises(ValueError):
            level_set_energy(twobump32, 0.0, (0.0, 5.0), c0=0.02)


class TestRecurrence:
    def test_rejects_degenerate_probes(self, twobump32):
        with pytest.raises(ValueError):
            level_set_recurrence_check(twobump32, 0.1, 0.1, 0.0, 0.25, 1.0, 0.02)
        with pytest.raises(ValueError):
            level_set_recurrence_check(twobump32, 0.0, 0.1, 0.25, 0.25, 1.0, 0.02)

    def test_empty_top_level(self, twobump32):
        top = float(np.max(twobump32.linf_h))
        rep = level_set_recurrence_check(twobump32, 0.0, 2.0 * top, 0.0, 0.25, 1.0, 0.02)
        assert rep.lhs == 0.0
        assert rep.ratio == 0.0

    def test_finite_ratio_on_probes(self, twobump32):
        c0 = float(np.min(twobump32.c0))
        top = float(np.max(twobump32.linf_h))
        ratios = []
        for k, frac in ((0.0, 0.5), (0.0, 0.25), (0.005, 0.5)):
            rep = level_set_recurrence_check(twobump32, k, frac * top, 0.0, 0.25, 1.0, c0)
            ratios.append(rep.ratio)
        assert max(ratios) <= 1e-4  # calibrated headroom; measured ~4.5e-5

    def test_gap_doubling_shrinks_bound(self, twobump32):
        c0 = float(np.min(twobump32.c0))
        gamma = exponents(2.0, 12.0).gamma
        top = float(np.max(twobump32.linf_h))
        narrow = level_set_recurrence_check(twobump32, 0.0, 0.25 * top, 0.0, 0.25, 1.0, c0)
        wide = level_set_recurrence_check(twobump32, 0.0, 0.5 * top, 0.0, 0.25, 1.0, c0)
        assert wide.rhs_unit <= narrow.rhs_unit / 2.0**gamma * (1.0 + 1e-12)


class TestDeGiorgi:
    def test_large_ceiling_terminates_immediately(self, perturbed_corpus):
        _, traj = perturbed_corpus[1]
        c0 = float(np.min(traj.c0))
        K = 2.0 * float(np.max(traj.linf_h))
        rep = degiorgi_iterate(traj, K, 0.25, 1.0, c0)
        assert rep.energies[-1] == 0.0
        assert len(rep.energies) <= 3
        assert rep.verdict

    def test_equilibrium_run_verifies_any_ceiling(self, maxwellian32):
        c0 = float(np.min(maxwellian32.c0))
        rep = degiorgi_iterate(maxwellian32, 0.5, 0.25, 1.0, c0)
        assert rep.verdict
        assert rep.energies[-1] < 1e-14

    def test_verdict_monotone_in_ceiling(self, perturbed_corpus):
        _, traj = perturbed_corpus[2]
        c0 = float(np.min(traj.c0))
        K = 2.0 * float(np.max(traj.linf_h))
        low = degiorgi_iterate(traj, K, 0.25, 1.0, c0)
        high = degiorgi_iterate(traj, 2.0 * K, 0.25, 1.0, c0)
        assert low.verdict
        assert high.verdict

    def test_levels_and_times_increase_toward_limits(self, perturbed_corpus):
        _, traj = perturbed_corpus[0]
        rep = degiorgi_iterate(traj, 0.05, 0.25, 1.0, float(np.min(traj.c0)))
        levels = np.asarray(rep.levels)
        times = np.asarray(rep.level_times)
        assert np.all(np.diff(levels) > 0) and np.all(levels < 0.05)
        assert np.all(np.diff(times) > 0) and np.all(times < 0.25)

    def test_rejects_bad_window(self, maxwellian32):
        with pytest.raises(ValueError):
            degiorgi_iterate(maxwellian32, 0.5, 0.0, 1.0, 0.02)
        with pytest.raises(ValueError):
            degiorgi_iterate(maxwellian32, -0.5, 0.25, 1.0, 0.02)

    def test_calibration_bisects_to_a_verifying_constant(self, perturbed_corpus):
        from landau.analysis import calibrate_degiorgi_constant, predict_K
        from landau.analysis import level_set_energy

        _, traj = perturbed_corpus[0]
        c0 = float(np.min(traj.c0))
        c_cal = calibrate_degiorgi_constant([traj], 0.25, 1.0, c0)
        assert 0.0 < c_cal < 1.0
        e0 = level_set_energy(traj, 0.0, (0.0, 1.0), c0).total
        ceiling = predict_K(e0, 0.25, 1.0, 2.0, 12.0, c_cal)
        rep = degiorgi_iterate(traj, ceiling, 0.25, 1.0, c0)
        assert rep.verdict and rep.sup_measured <= ceiling


class TestMomentBound:
    def test_equilibrium_noise_floor(self, maxwellian32):
        rep = moment_bound_check(maxwellian32, 2.0)
        assert rep.c3 <= 1e-9

    @pytest.mark.parametrize("theta", [0.0, 2.0, 4.0])
    def test_envelope_holds_on_relaxing_run(self, twobump32, theta):
        rep = moment_bound_check(twobump32, theta)
        assert math.isfinite(rep.c3) and rep.c3 > 0

    def test_rejects_weight_above_run_order(self, twobump32):
        with pytest.raises(ValueError):
            moment_bound_check(twobump32, 13.0)


class TestOdeBarrier:
    def test_equilibrium_run_never_exits(self, maxwellian32):
        rep = ode_barrier_check(maxwellian32, eps=1e-6)
        assert rep.barrier_held
        assert rep.exit_time is None

    def test_rejects_large_initial_data(self, perturbed_corpus):
        eps, traj = perturbed_corpus[0]
        with pytest.raises(ValueError):
            ode_barrier_check(traj, eps=float(traj.lp_p[0]))

    @pytest.mark.parametrize("case", ["perturbed", "equilibrium"])
    def test_duhamel_constant_is_the_largest_needed_ratio(self, case, request):
        # every ratio of the perturbed run is <= 0, so it reads the clamp at 0.0;
        # the equilibrium run's round-off level y needs a small positive constant
        if case == "perturbed":
            eps, traj = request.getfixturevalue("perturbed_corpus")[1]
        else:
            eps, traj = 1e-6, request.getfixturevalue("maxwellian32")
        rep = ode_barrier_check(traj, eps)
        # the constant each sample needs, from the rows with a trapezoid of this test's own
        y, t = traj.lp_p, traj.times
        growth = (rep.m_bar + 1.0) * y + y ** exponents(traj.p, traj.m).alpha
        c0 = float(np.min(traj.c0))
        ratios = []
        growth_int = g_int = 0.0
        for k in range(1, len(t)):
            dt = t[k] - t[k - 1]
            growth_int += 0.5 * dt * (growth[k] + growth[k - 1])
            g_int += 0.5 * dt * (traj.grad_energy[k] + traj.grad_energy[k - 1])
            ratios.append((y[k] - y[0] + 0.5 * c0 * g_int) / growth_int if growth_int > 0 else 0.0)
        assert rep.c_tilde_min == pytest.approx(max(max(ratios), 0.0), rel=1e-9, abs=0.0)


class TestSmoothingFit:
    def test_rough_datum_fit(self, smoothing32):
        fit = smoothing_fit(smoothing32)
        assert fit.samples >= 6
        assert fit.holds
        assert fit.envelope_c > 0
        # pinned regression band for this configuration
        assert -0.3 < fit.slope < 0.0

    def test_refinement_stability(self, smoothing32, smoothing48):
        coarse = smoothing_fit(smoothing32)
        fine = smoothing_fit(smoothing48)
        assert abs(coarse.slope - fine.slope) <= 0.1

    def test_envelope_for_smooth_datum(self, maxwellian32):
        # a smooth datum keeps the sup bounded; the envelope holds with
        # the calibrated constant by construction
        fit = smoothing_fit(maxwellian32, t_min=0.4, t_max=1.0)
        assert fit.envelope_c <= float(np.max(maxwellian32.linf_h))

    def test_rejects_sparse_window(self, maxwellian32):
        with pytest.raises(ValueError):
            smoothing_fit(maxwellian32, t_min=0.9, t_max=1.0)


class TestH1Smallness:
    def test_equilibrium_noise_floor(self, maxwellian32):
        l2_1, grad = h1_smallness(maxwellian32, 0.5)
        assert l2_1 <= 1e-8
        assert grad <= 1e-8

    def test_monotone_in_amplitude(self, h1_sweep24):
        pairs = [h1_smallness(traj, 0.25) for _, traj in h1_sweep24]
        assert all(pairs[i][0] < pairs[i + 1][0] for i in range(len(pairs) - 1))
        assert all(pairs[i][1] < pairs[i + 1][1] for i in range(len(pairs) - 1))

    def test_gradient_envelope_constant_finite(self, h1_sweep24):
        # sup_{t<s<T} |grad h|^2_{L^2_2} <= C eps (1 + 1/t) with one C
        worst = 0.0
        for _, traj in h1_sweep24:
            eps = float(np.max(traj.linf_h))
            t_floor = 0.1
            sup_grad = 0.0
            for i, t in enumerate(traj.snapshot_times):
                if t >= t_floor:
                    sup_grad = max(sup_grad, h1_smallness(traj, t)[1] ** 2)
            worst = max(worst, sup_grad / (eps * (1.0 + 1.0 / t_floor)))
        assert worst < 1.0
