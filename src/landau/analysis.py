"""Diagnostics that evaluate the regularity machinery on trajectories.

Exponent arithmetic, the perturbation energy functional, the ODE
barrier for short-time norm propagation, level-set energies and their
geometric iteration toward a sup bound, moment-growth envelopes, and
smoothing-rate fits.  All non-explicit constants of the underlying
estimates are calibrated empirically against run corpora; this module
measures, it does not prove.

Time integrals over trajectories use the trapezoid rule on the recorded
cadence; suprema over time are maxima over samples.  Everything here is
a pure function of immutable trajectories, and each reads the Lebesgue
exponent p and the moment order m off the trajectory it measures.  The
perturbation h = f - mu is built one snapshot at a time, against the
grid's cached, read-only equilibrium `fields.maxwellian`.  The level-set
terms are computed at most once per level on a trajectory and memoized
on it, with three profiles per snapshot: the max of h over each plane of
each axis.  The box of {h > level} is read off those with no pass over
the grid, so an empty cut costs nothing, and any other cut is built,
normed and differentiated on its box alone: at the levels l >= sup h/8
of the seed-0 benchmark runs that box covers 0.25-0.6% of the grid on
average, 2.2% at most.  A trajectory must not be mutated after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import NormRequest, box_gradient_energy, box_lp_norm, lp_m_norm, maxwellian, plane_box
from .grid import spectral_gradient
from .solver import Trajectory

__all__ = [
    "ExponentSet",
    "LevelSetEnergyReport",
    "RecurrenceReport",
    "DeGiorgiReport",
    "MomentBoundReport",
    "OdeBarrierReport",
    "SmoothingFitReport",
    "exponents",
    "q_ltheta",
    "moment_bound_check",
    "energy_E0",
    "ode_barrier_check",
    "level_set_energy",
    "level_set_recurrence_check",
    "degiorgi_iterate",
    "calibrate_degiorgi_constant",
    "predict_K",
    "smoothing_fit",
    "h1_smallness",
]

# Levels past the first in the geometric iteration, at most
DEGIORGI_N_MAX = 12
# Added to q_{l,theta} in the moment envelope's exponent
MOMENT_MARGIN = 0.01
# How much steeper than -1/(1+gamma) a fitted smoothing slope may be
SLOPE_TOLERANCE = 0.15


@dataclass(frozen=True)
class ExponentSet:
    """Derived exponents of the smoothing and propagation estimates."""

    p: float
    m: float
    gamma: float
    beta0: float
    beta1: float
    beta2: float
    alpha: float
    q: float
    m_threshold: float

    @property
    def degenerate(self) -> bool:
        """True when m is too small for a positive smoothing exponent."""
        return self.gamma <= 0.0


def exponents(p: float, m: float) -> ExponentSet:
    """All exponents for given (p, m).

    gamma > 0 iff m > (9/2)(p-1)/(p-3/2); that case is flagged via
    ``degenerate`` rather than rejected.
    """
    if not p > 1.5:
        raise ValueError(f"exponents require p > 3/2, got {p}")
    if not m > 0.0:
        raise ValueError(f"exponents require m > 0, got {m}")
    gamma = (2.0 * (p - 1.5) / (3.0 * m)) * (m - 4.5 * (p - 1.0) / (p - 1.5))
    q = (5.0 / 3.0) * p - 3.0 * (p - 1.0) / m
    inner = max(1.0, p * (p - 1.5) / (p * p - 2.0 * p + 1.5))
    return ExponentSet(
        p=p,
        m=m,
        gamma=gamma,
        beta0=1.0 / (3.0 * (p - 1.0)),
        beta1=2.0 / 3.0 - 3.0 / m,
        beta2=3.0 / m,
        alpha=1.0 - 1.0 / p + 1.0 / (3.0 * (p - 1.0)),
        q=q,
        m_threshold=4.5 * (p - 1.0) / (p - 1.5) * inner,
    )


def _nondegenerate_exponents(p: float, m: float) -> ExponentSet:
    """`exponents(p, m)`, rejecting the degenerate case that the smoothing estimates exclude."""
    exps = exponents(p, m)
    if exps.degenerate:
        raise ValueError(f"smoothing exponent is not positive for (p={p}, m={m})")
    return exps


def q_ltheta(l: float, theta: float) -> float:
    """Admissible moment-growth exponent for the weighted L^1 norm of h."""
    if not l > 9.5:
        raise ValueError(f"moment order must exceed 19/2, got {l}")
    if not 0.0 <= theta <= l:
        raise ValueError(f"weight exponent must lie in [0, {l}], got {theta}")
    return -(2.0 * l * l - 25.0 * l + 57.0) / (18.0 * (l - 2.0)) * (1.0 - theta / l) + theta / l


# --------------------------------------------------------------------------
# trajectory access helpers


def _window_indices(times: np.ndarray, t_a: float, t_b: float) -> np.ndarray:
    idx = np.nonzero((times >= t_a - 1e-12) & (times <= t_b + 1e-12))[0]
    return idx


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    if len(times) < 2:
        return 0.0
    return float(np.trapezoid(values, times))


# --------------------------------------------------------------------------
# energies


def energy_E0(traj: Trajectory, window: tuple[float, float]) -> float:
    """sup of ||h||_p^p plus the time-integrated weighted gradient energy,
    read off the per-step scalar series."""
    idx = _window_indices(traj.times, *window)
    if idx.size == 0:
        raise ValueError(f"window {window} contains no samples")
    return float(np.max(traj.lp_p[idx])) + _trapezoid(traj.grad_energy[idx], traj.times[idx])


@dataclass(frozen=True)
class LevelSetEnergyReport:
    level: float
    window: tuple[float, float]
    sup_term: float
    dissipation_term: float
    total: float


def level_set_energy(traj: Trajectory, level: float, window: tuple[float, float], c0: float) -> LevelSetEnergyReport:
    """sup_t ||h_l^+||_p^p + c0 int ||<v>^{-3/2} grad (h_l^+)^{p/2}||_2^2 dt.

    Both per-snapshot terms are memoized on `traj` by (level, snapshot),
    and each snapshot's plane maxima of h by its index.  Read off those,
    the box of {h > level} costs no pass over the grid: an empty cut
    (max h <= level) gives exactly 0.0 for both terms, and any other cut
    is built, normed and differentiated on its box alone
    (`fields.box_lp_norm`, `fields.box_gradient_energy`).
    """
    t_a, t_b = window
    if t_a > t_b:
        raise ValueError(f"bad window {window}")
    if not level >= 0.0:
        raise ValueError(f"level must be nonnegative, got {level}")
    times = np.asarray(traj.snapshot_times)
    if times.size == 0 or t_a < times[0] - 1e-12 or t_b > times[-1] + 1e-12:
        raise ValueError(f"window {window} outside the recorded range")
    idx = _window_indices(times, t_a, t_b)
    p = traj.p
    req = NormRequest(p)
    grid, memo, mu = traj.grid, traj.level_terms, maxwellian(traj.grid).values
    sup_term = 0.0
    diss = np.empty(idx.size)
    for out_i, i in enumerate(idx.tolist()):
        key = (level, i)
        if key not in memo:
            if i not in memo:  # the snapshot's plane maxima, so that a cut's box costs no pass
                memo[i] = _plane_maxima(np.subtract(traj.snapshots[i].values, mu))
            box = plane_box([profile > level for profile in memo[i]])  # the box of {h > level}
            if box is None:
                memo[key] = (0.0, 0.0)
            else:
                # the cut (f - mu - level)^+ on its box only
                cut = np.subtract(traj.snapshots[i].values[box], mu[box])
                cut -= level
                np.maximum(cut, 0.0, out=cut)
                memo[key] = (box_lp_norm(grid, box, cut, req) ** p, box_gradient_energy(grid, box, cut, p))
        lp_term, diss[out_i] = memo[key]
        sup_term = max(sup_term, lp_term)
    dissipation = c0 * _trapezoid(diss, times[idx])
    return LevelSetEnergyReport(
        level=level,
        window=(t_a, t_b),
        sup_term=sup_term,
        dissipation_term=dissipation,
        total=sup_term + dissipation,
    )


def _plane_maxima(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max of h over each plane i_k = const, for k = 0, 1, 2: three length-n profiles."""
    across = h.max(axis=0)
    return h.reshape(h.shape[0], -1).max(axis=1), across.max(axis=1), across.max(axis=0)


@dataclass(frozen=True)
class RecurrenceReport:
    """One probe of the energy recurrence between nested levels/windows."""

    k: float
    level: float
    windows: tuple[float, float, float]
    lhs: float
    rhs_unit: float  # right side evaluated with constant 1
    ratio: float  # calibrated constant must dominate this


def level_set_recurrence_check(
    traj: Trajectory, k: float, level: float, t1: float, t2: float, t3: float, c0: float
) -> RecurrenceReport:
    """Measure E_l(T2,T3) against the nested-level bound from E_k(T1,T3).

    The returned ratio is LHS / RHS(with constant 1); a single finite
    constant dominating the ratios over a probe corpus evidences the
    recurrence discretely.
    """
    if not (0.0 <= t1 < t2 <= t3):
        raise ValueError(f"windows must satisfy 0 <= T1 < T2 <= T3, got {(t1, t2, t3)}")
    if not 0.0 <= k < level:
        raise ValueError(f"levels must satisfy 0 <= k < l, got {(k, level)}")
    exps = exponents(traj.p, traj.m)
    lhs = level_set_energy(traj, level, (t2, t3), c0).total
    e_k = level_set_energy(traj, k, (t1, t3), c0).total
    e_0 = level_set_energy(traj, 0.0, (t1, t3), c0).total
    gap = level - k
    bracket = (
        1.0 / ((t2 - t1) * gap ** (1.0 + exps.gamma))
        + 1.0 / gap**exps.gamma
        + (1.0 + level) / gap ** (1.0 + exps.gamma)
        + (1.0 + level + level**2 + e_0**exps.beta0) / gap ** (2.0 + exps.gamma)
    )
    rhs_unit = (1.0 + t3) ** (1.0 + exps.beta2) * e_k ** (1.0 + exps.beta1) * bracket
    ratio = lhs / rhs_unit if rhs_unit > 0 else (0.0 if lhs == 0.0 else math.inf)
    return RecurrenceReport(k=k, level=level, windows=(t1, t2, t3), lhs=lhs, rhs_unit=rhs_unit, ratio=ratio)


# --------------------------------------------------------------------------
# the geometric level iteration


def predict_K(e0: float, t: float, t_end: float, p: float, m: float, c: float) -> float:
    """Level ceiling implied by the iteration, for calibration constant c."""
    if e0 < 0.0:
        raise ValueError(f"energy must be nonnegative, got {e0}")
    if not 0.0 < t <= t_end:
        raise ValueError(f"need 0 < t <= T, got t={t}, T={t_end}")
    exps = _nondegenerate_exponents(p, m)
    g, b0, b1, b2 = exps.gamma, exps.beta0, exps.beta1, exps.beta2
    if e0 == 0.0:
        return 0.0
    powers = max(
        e0 ** (b1 / g),
        e0 ** (b1 / (1.0 + g)),
        e0 ** (b1 / (2.0 + g)),
        e0 ** ((b0 + b1) / (2.0 + g)),
        e0 ** (b1 / (1.0 + g)) * t ** (-1.0 / (1.0 + g)),
    )
    return c * powers * (1.0 + t_end) ** ((1.0 + b2) / g)


@dataclass(frozen=True)
class DeGiorgiReport:
    K: float
    t: float
    t_end: float
    levels: tuple[float, ...]
    level_times: tuple[float, ...]
    energies: tuple[float, ...]
    comparison: tuple[float, ...]  # E_0 * Q^-n
    q_factor: float
    verdict: bool
    sup_measured: float


def degiorgi_iterate(traj: Trajectory, K: float, t: float, t_end: float, c0: float) -> DeGiorgiReport:
    """Nested level-set energies E_n at levels K(1 - 2^-n), times t(1 - 2^-n).

    The verdict is whether every computed E_n stays below the geometric
    comparison sequence E_0 Q^-n with Q = 2^((gamma+2)/beta1) for
    n <= DEGIORGI_N_MAX; the iteration stops early once the energy falls
    below 1e-14.
    """
    if not (0.0 < t < t_end):
        raise ValueError(f"need 0 < t < T within the trajectory, got t={t}, T={t_end}")
    if not K > 0.0:
        raise ValueError(f"level ceiling must be positive, got {K}")
    exps = _nondegenerate_exponents(traj.p, traj.m)
    q_factor = 2.0 ** ((exps.gamma + 2.0) / exps.beta1)

    levels, level_times, energies = [], [], []
    for n_i in range(DEGIORGI_N_MAX + 1):
        scale = 1.0 - 2.0**-n_i
        levels.append(K * scale)
        level_times.append(t * scale)
        energies.append(level_set_energy(traj, levels[-1], (level_times[-1], t_end), c0).total)
        if energies[-1] < 1e-14:
            break
    e0 = energies[0]
    comparison = [e0 * q_factor**-n_i for n_i in range(len(energies))]
    verdict = all(e <= cmp * (1.0 + 1e-12) for e, cmp in zip(energies, comparison))

    idx = _window_indices(traj.times, t, t_end)
    sup_measured = float(np.max(traj.linf_h[idx])) if idx.size else math.nan
    return DeGiorgiReport(
        K=K,
        t=t,
        t_end=t_end,
        levels=tuple(levels),
        level_times=tuple(level_times),
        energies=tuple(energies),
        comparison=tuple(comparison),
        q_factor=q_factor,
        verdict=verdict,
        sup_measured=sup_measured,
    )


def calibrate_degiorgi_constant(trajs: list[Trajectory], t: float, t_end: float, c0: float) -> float:
    """Smallest calibration constant whose predicted ceiling verifies every run.

    Verification means: the geometric decay verdict holds and the ceiling
    dominates the measured sup of |h| over the window.  Monotone in the
    constant (larger ceilings only shrink level sets), so bisection.
    """

    def verifies(c: float) -> bool:
        for traj in trajs:
            e0 = level_set_energy(traj, 0.0, (0.0, t_end), c0).total
            K = predict_K(e0, t, t_end, traj.p, traj.m, c)
            if K <= 0.0:
                return False
            rep = degiorgi_iterate(traj, K, t, t_end, c0)
            if not rep.verdict or rep.sup_measured > K:
                return False
        return True

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if verifies(hi):
            break
        hi *= 4.0
    else:
        raise RuntimeError("calibration did not converge")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if verifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


# --------------------------------------------------------------------------
# moment envelopes


@dataclass(frozen=True)
class MomentBoundReport:
    l: float
    theta: float
    exponent: float  # q_{l,theta} + MOMENT_MARGIN
    c3: float  # max over samples of norm / (1+t)^exponent, so the envelope holds by construction


def moment_bound_check(traj: Trajectory, theta: float) -> MomentBoundReport:
    """Fit the envelope ||h(t)||_{L^1_theta} <= C3 (1+t)^(q_{l,theta}+MOMENT_MARGIN) with l = m."""
    l = traj.m
    if theta > l + 1e-12:
        raise ValueError(f"weight exponent {theta} exceeds the run's moment order m={l}")
    exponent = q_ltheta(l, theta) + MOMENT_MARGIN
    times = np.asarray(traj.snapshot_times)
    req = NormRequest(1.0, theta)
    mu = maxwellian(traj.grid)
    norms = np.array([lp_m_norm(f - mu, req) for f in traj.snapshots])
    c3 = float(np.max(norms / (1.0 + times) ** exponent))
    return MomentBoundReport(l=l, theta=theta, exponent=exponent, c3=c3)


# --------------------------------------------------------------------------
# the ODE barrier


@dataclass(frozen=True)
class OdeBarrierReport:
    eps: float
    exit_time: float | None  # first time y exceeds eps; None if never
    barrier_held: bool  # y <= eps through the whole run
    c_tilde_min: float  # smallest constant closing the integral inequality
    m_bar: float


def ode_barrier_check(traj: Trajectory, eps: float) -> OdeBarrierReport:
    """Barrier and integral-inequality check for y(t) = ||h(t)||_p^p.

    Verifies y stays below eps, and measures the smallest constant C for
    which the integral form

        y(t) <= y(0) + C int_0^t ((Mbar + 1) y + y^alpha) ds - (c0/2) int_0^t G ds

    holds at every sample, where G is the weighted gradient energy
    series, Mbar the sup of the weighted L^1 norm of h over the
    snapshots and c0 the minimum of the recorded c0 series: the
    inequality closes at C exactly when C >= `c_tilde_min`, which is 0.0
    when no sample needs a positive constant.  The run should start with
    y(0) < eps/3.
    """
    y = traj.lp_p
    if y[0] >= eps / 3.0:
        raise ValueError(f"barrier check needs y(0) < eps/3, got y0={y[0]:.3e}, eps={eps:.3e}")
    exps = exponents(traj.p, traj.m)
    times = traj.times
    above = y > eps
    exit_time = float(times[np.argmax(above)]) if bool(np.any(above)) else None

    req = NormRequest(1.0, traj.m)
    mu = maxwellian(traj.grid)
    m_bar = max(lp_m_norm(f - mu, req) for f in traj.snapshots)
    c0 = float(np.min(traj.c0))

    growth = (m_bar + 1.0) * y + y**exps.alpha
    growth_int = np.concatenate([[0.0], np.cumsum(0.5 * (growth[1:] + growth[:-1]) * np.diff(times))])
    g_int = np.concatenate([[0.0], np.cumsum(0.5 * (traj.grad_energy[1:] + traj.grad_energy[:-1]) * np.diff(times))])

    lhs = y - y[0] + 0.5 * c0 * g_int
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.where(growth_int > 0, lhs / growth_int, 0.0)
    c_min = max(float(np.max(needed[1:])), 0.0) if len(needed) > 1 else 0.0
    return OdeBarrierReport(eps=eps, exit_time=exit_time, barrier_held=exit_time is None, c_tilde_min=c_min, m_bar=m_bar)


# --------------------------------------------------------------------------
# smoothing fit


@dataclass(frozen=True)
class SmoothingFitReport:
    slope: float
    slope_bound: float  # -1/(1+gamma) - SLOPE_TOLERANCE
    envelope_c: float  # calibrated so sup <= C (1 + t^{-1/(1+gamma)}) on the window
    window: tuple[float, float]
    samples: int
    holds: bool


def smoothing_fit(traj: Trajectory, t_min: float | None = None, t_max: float = 0.5) -> SmoothingFitReport:
    """Least-squares decay rate of log ||h||_inf against log t.

    The envelope constant is the smallest C with
    ||h(t)||_inf <= C (1 + t^{-1/(1+gamma)}) over the fit window, and
    the fitted slope must not be steeper than -1/(1+gamma) by more than
    SLOPE_TOLERANCE (the estimate is an upper envelope, so faster decay at
    the fitted-window scale would only flag measurement trouble).
    """
    exps = _nondegenerate_exponents(traj.p, traj.m)
    if t_min is None:
        t_min = float(traj.times[5]) if len(traj.times) > 5 else 0.0
    idx = _window_indices(traj.times, t_min, t_max)
    idx = idx[traj.times[idx] > 0]
    if idx.size < 6:
        raise ValueError(f"need at least 6 samples in [{t_min}, {t_max}], found {idx.size}")
    if idx[0] < 4:
        raise ValueError("fit window must start at or after the fourth step")
    t_w = traj.times[idx]
    y_w = traj.linf_h[idx]
    if np.any(y_w <= 0.0):
        raise ValueError("sup norm vanished inside the fit window")
    slope = float(np.polyfit(np.log(t_w), np.log(y_w), 1)[0])
    rate = -1.0 / (1.0 + exps.gamma)
    envelope_c = float(np.max(y_w / (1.0 + t_w**rate)))
    bound = rate - SLOPE_TOLERANCE
    return SmoothingFitReport(
        slope=slope,
        slope_bound=bound,
        envelope_c=envelope_c,
        window=(float(t_w[0]), float(t_w[-1])),
        samples=int(idx.size),
        holds=slope >= bound,
    )


# --------------------------------------------------------------------------
# weighted H^1 smallness


def h1_smallness(traj: Trajectory, t_query: float) -> tuple[float, float]:
    """(||h||_{L^2_1}, ||grad h||_{L^2_2}) at the snapshot nearest t_query."""
    times = np.asarray(traj.snapshot_times)
    if times.size == 0:
        raise ValueError("trajectory has no snapshots")
    h = traj.snapshots[int(np.argmin(np.abs(times - t_query)))] - maxwellian(traj.grid)
    grad = spectral_gradient(h).values
    energy = np.einsum("kijl,kijl,ijl->", grad, grad, h.grid.bracket_power(2.0))
    return lp_m_norm(h, NormRequest(2.0, 1.0)), math.sqrt(h.grid.cell_volume * float(energy))
