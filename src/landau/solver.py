"""Time integration of the homogeneous Landau-Coulomb evolution.

The equation is advanced in conservative flux form,

    d/dt f = div( A[f] grad f - grad a[f] f ),

with face-centered fluxes (so the discrete mass is conserved to
roundoff) and an explicit two-stage strong-stability-preserving
Runge-Kutta update.  Coefficients are rebuilt from the current state
every `coefficient_refresh` steps and frozen across the two stages of a
step, which makes the scheme first order in time.

The step size is error-controlled.  The local error of a step is the
lag of its frozen coefficients, measured at each rebuild as
1/2 max |rhs(f, C_new) - rhs(f, C_old)| / max f per unit time (divided
by the steps the old set served), where rhs(f, C_new) is the next
step's first stage anyway.  A first-order controller keeps it at
LAG_TOLERANCE, so the global error is proportional to the tolerance; a
step built on fresh coefficients whose lag exceeds it is retried from
the old state with a smaller step.  The parabolic CFL bound is a hard
ceiling.  Steps land exactly on the snapshot times, every
`snapshot_every` * DT_CAP time units, and on t_end; a last stretch too
long for one step is split in two equal steps rather than leaving a
sliver.

Each coefficient set is reduced once to the 12 face weights its flux
reads, with every stencil constant folded in, and to the largest face
drift, the CFL bound's advective term, read off the differences of a
that the drift weights scale (`_face_weights`); every face of the flux
is read through `_face_pairs`.  A run keeps only those weights and the
three statistics a step reads, `lambda_max`, `drift_max` and
`c0_empirical` (`FrozenCoefficients`), and lets the node-valued A and a
go as soon as the weights exist, so that the weights add nothing to the
peak memory of a run.  No step reads the spectral grad a, so a run never
transforms it.

The integrator is equilibrium-balanced: the (order Delta v^3) residual
of the raw flux divergence at the sampled Maxwellian is subtracted from
every stage derivative.  The correction vanishes under refinement, is
exactly mass-free, keeps the discrete equilibrium stationary to
roundoff, and removes the spurious entropy production the raw residual
would otherwise pump into near-equilibrium states.  The raw operator
remains available as :func:`rhs`.

A run records a row of the time, step, conserved moments, entropy,
perturbation norms and coercivity constant at every step, plus full
snapshots at a configurable cadence and at the last row, so that a run
that aborts between snapshot times still ends on one.  `run` keeps the
rows and snapshots itself; the perturbation h = f - mu of a row is taken
against the grid's cached equilibrium `fields.maxwellian`.  The rows are
the `table` of the resulting Trajectory, whose series are its column
views; `scalars.csv` is that table as text.  An undershoot below zero
is kept as it is, so the mass stays exact; the entropy reads the
positive part.  One run mutates only its own state, so independent runs
can execute concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .coefficients import CoefficientSet, compute_coefficients
from .fields import NormRequest, lp_m_norm, maxwellian, moments, positive_part_entropy, weighted_gradient_energy
from .grid import Field, Grid, make_grid

__all__ = [
    "Maxwellian",
    "PerturbedMaxwellian",
    "AnisotropicGaussian",
    "TwoBump",
    "InitialDatum",
    "SimConfig",
    "FrozenCoefficients",
    "Trajectory",
    "SCALAR_COLUMNS",
    "BlowUpError",
    "initial_datum",
    "rhs",
    "stable_dt",
    "equilibrium_residual",
    "step",
    "run",
]

# Time unit of `snapshot_every`: the state is stored every
# snapshot_every * DT_CAP time units.  Steps are not capped; the name
# is kept for code that imports it.
DT_CAP = 0.1
# Frozen-coefficient lag allowed per unit time, relative to max f.
LAG_TOLERANCE = 1e-4
# The controller aims at this share of the tolerance and grows a step
# by at most MAX_GROWTH.
SAFETY = 0.9
MAX_GROWTH = 2.0
# `initial_datum` brings the momentum and energy this close to (0, 3) in at most this many passes.
MOMENT_TOLERANCE = 1e-12
NORMALIZATION_PASSES = 50
# Sup-norm threshold treated as finite-time blow-up.
BLOWUP_SUP = 1e6


class BlowUpError(RuntimeError):
    """Raised when the iterate leaves the regime the scheme can represent."""


def _fractions(values: tuple[float, ...], total: float = 1.0) -> tuple[float, ...]:
    """total * v / sum(values) for positive values, bit for bit, but scaled first by a power
    of 2 (exactly) to put the largest in [1/2, 1), so the sum neither overflows nor vanishes."""
    exponent = math.frexp(max(values))[1]
    scaled = [math.ldexp(v, -exponent) for v in values]
    return tuple(total * x / sum(scaled) for x in scaled)


@dataclass(frozen=True)
class Maxwellian:
    kind: str = "maxwellian"


@dataclass(frozen=True)
class PerturbedMaxwellian:
    """Equilibrium modulated by a product-cosine mode of given amplitude."""

    amplitude: float
    mode: int = 4
    kind: str = "perturbed_maxwellian"

    def __post_init__(self) -> None:
        if not abs(self.amplitude) <= 1.0:
            raise ValueError(f"|amplitude| must be <= 1 to keep the datum nonnegative, got {self.amplitude}")
        if self.mode < 1:
            raise ValueError(f"mode must be a positive integer, got {self.mode}")


@dataclass(frozen=True)
class AnisotropicGaussian:
    temperatures: tuple[float, float, float]
    kind: str = "anisotropic_gaussian"

    def __post_init__(self) -> None:
        if len(self.temperatures) != 3:
            raise ValueError(f"theta takes 3 axis temperatures, got {self.temperatures}")
        if not all(0.0 < t < math.inf for t in self.temperatures):
            raise ValueError(f"theta temperatures must be finite and positive, got {self.temperatures}")


@dataclass(frozen=True)
class TwoBump:
    """Two Maxwellian bumps separated along the first axis."""

    separation: float
    weights: tuple[float, float] = (0.5, 0.5)
    kind: str = "two_bump"

    def __post_init__(self) -> None:
        if len(self.weights) != 2:
            raise ValueError(f"weights takes 2 bump weights, got {self.weights}")
        if not all(0.0 < w < math.inf for w in self.weights):
            raise ValueError(f"bump weights must be finite and positive, got {self.weights}")
        w1, w2 = _fractions(self.weights)
        # x * x, not x**2, which raises OverflowError on a huge separation
        if not 3.0 - w1 * w2 * (self.separation * self.separation) > 0.0:
            raise ValueError(
                f"separation {self.separation} leaves no thermal energy for the bumps "
                "(requires w1*w2*separation^2 < 3)"
            )


InitialDatum = Union[Maxwellian, PerturbedMaxwellian, AnisotropicGaussian, TwoBump]


@dataclass(frozen=True)
class SimConfig:
    """All run parameters; the initial datum is normalized on construction of the run.

    The fields are config keys (`io_cli.parse_config`), checked here
    alone: `n` and `extent` by the `Grid` they make, the datum by its class.
    """

    n: int = 32
    extent: float = 8.0
    t_end: float = 0.5
    cfl: float = 0.5
    initial: InitialDatum = Maxwellian()
    p: float = 2.0
    m: float = 12.0
    snapshot_every: int = 5
    coefficient_refresh: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        make_grid(self.n, self.extent)
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 1.5 < self.p < math.inf:
            raise ValueError(f"p must be finite and exceed 3/2, got {self.p}")
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"m must be finite and positive, got {self.m}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.coefficient_refresh < 1:
            raise ValueError(f"coefficient_refresh must be >= 1, got {self.coefficient_refresh}")


def _datum_closure(datum: InitialDatum, grid: Grid) -> Callable[..., np.ndarray]:
    """Analytic datum; all but the perturbed family have continuum moments (1, 0, 3)."""
    norm = (2.0 * np.pi) ** -1.5
    if isinstance(datum, Maxwellian):
        return lambda v1, v2, v3: norm * np.exp(-0.5 * (v1**2 + v2**2 + v3**2))
    if isinstance(datum, PerturbedMaxwellian):
        if datum.mode >= grid.n // 2:
            raise ValueError(f"mode {datum.mode} is not resolvable on an n={grid.n} grid")
        kappa = np.pi * datum.mode / grid.extent
        amp = datum.amplitude

        def perturbed(v1, v2, v3):
            bump = 1.0 + amp * np.cos(kappa * v1) * np.cos(kappa * v2) * np.cos(kappa * v3)
            return norm * np.exp(-0.5 * (v1**2 + v2**2 + v3**2)) * bump

        return perturbed
    if isinstance(datum, AnisotropicGaussian):
        thetas = _fractions(datum.temperatures, 3.0)
        if min(thetas) == 0.0:
            raise ValueError(f"theta {datum.temperatures} is not resolvable: its smallest share underflows to 0")
        pref = np.prod([(2.0 * np.pi * t) ** -0.5 for t in thetas])

        def anisotropic(v1, v2, v3):
            return pref * np.exp(
                -0.5 * (v1**2 / thetas[0] + v2**2 / thetas[1] + v3**2 / thetas[2])
            )

        return anisotropic
    if isinstance(datum, TwoBump):
        w1, w2 = _fractions(datum.weights)
        u1, u2 = -w2 * datum.separation, w1 * datum.separation
        theta = (3.0 - w1 * w2 * datum.separation**2) / 3.0
        pref = (2.0 * np.pi * theta) ** -1.5

        def two_bump(v1, v2, v3):
            r2 = v2**2 + v3**2
            return pref * (
                w1 * np.exp(-0.5 * ((v1 - u1) ** 2 + r2) / theta)
                + w2 * np.exp(-0.5 * ((v1 - u2) ** 2 + r2) / theta)
            )

        return two_bump
    raise TypeError(f"unknown initial datum {datum!r}")


def initial_datum(config: SimConfig) -> Field:
    """Sample the configured datum with discrete moments driven to (1, 0, 3).

    Affine correction passes (shift to zero mean, dilate to energy 3,
    scale to unit mass, in that order, from the discrete moments of the
    last pass, then an exact rescale of the mass) until the momentum and
    energy are within MOMENT_TOLERANCE of (0, 3): one pass on a resolved
    grid; a datum that needs more than NORMALIZATION_PASSES is rejected.
    """
    grid = make_grid(config.n, config.extent)
    v1, v2, v3 = grid.coords
    shift, scale = np.zeros(3), 1.0
    # a datum too narrow or too wide for the grid samples to inf or nan and is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        closure = _datum_closure(config.initial, grid)
        mom = moments(Field(grid, closure(v1, v2, v3)))
        for _ in range(NORMALIZATION_PASSES):
            if not mom.mass > 0.0:  # every sample underflowed
                break
            u = np.array(mom.momentum) / mom.mass
            energy_centered = mom.energy / mom.mass - float(u @ u)
            if not 0.0 < energy_centered < math.inf:
                break
            lam = math.sqrt(energy_centered / 3.0)
            # the last pass sampled closure(shift + scale v); re-center and dilate that
            shift, scale = shift + scale * u, scale * lam
            vals = closure(shift[0] + scale * v1, shift[1] + scale * v2, shift[2] + scale * v3)
            f = Field(grid, vals * (lam**3 / mom.mass))
            f = f * (1.0 / moments(f).mass)
            mom = moments(f)
            if max(abs(x) for x in (*mom.momentum, mom.energy - 3.0)) <= MOMENT_TOLERANCE:
                if float(np.min(f.values)) < 0.0:
                    raise ValueError("initial datum is negative after normalization")
                return f
    raise ValueError(f"initial datum {config.initial} is not resolved on an n={grid.n} grid: its moments do not reach (1, 0, 3)")


# The two transverse axes of each axis, in the order of its weight slots.
_TRANSVERSE = ((1, 2), (0, 2), (0, 1))


def _along(k: int, index: int | slice) -> tuple[int | slice, ...]:
    """The index of `index` along axis k of an (n, n, n) array."""
    return (slice(None),) * k + (index,)


def _face_pairs(ufunc: np.ufunc, x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """out(i) = ufunc(x(i + e_k), x(i)) on every face of axis k, the wrap
    faces included, for (n, n, n) arrays (out C-contiguous), with no
    shifted copy of x: one ufunc over the flat arrays shifted by n^(2-k),
    then the wrap plane i_k = n - 1."""
    shift = x.shape[0] ** (2 - k)
    ufunc(x.reshape(-1)[shift:], x.reshape(-1)[:-shift], out=out.reshape(-1)[:-shift])
    ufunc(x[_along(k, 0)], x[_along(k, -1)], out=out[_along(k, -1)])
    return out


def _drift_max(a: Field, faces: Sequence[np.ndarray]) -> float:
    """The flux's largest drift speed, max |a(i + e_k) - a(i)| / dv over the
    axes and their faces, leaving axis k's differences in `faces[k]` (one
    array may serve all three).  max |d| is max(max d, -min d), and np.max
    folds the axes, keeping a NaN that Python's max can drop."""
    extremes = []
    for k, d in enumerate(faces):
        _face_pairs(np.subtract, a.values, k, d)
        extremes += (np.max(d), -np.min(d))
    return float(np.max(extremes)) / a.grid.spacing


def _face_weights(coeffs: CoefficientSet) -> tuple[np.ndarray, float]:
    """The flux's face weights of one coefficient set, shape (3, 4, n, n, n),
    and its largest face drift (`_drift_max`), read off the differences of
    a before they are scaled into D_k.

    Slot k holds, on the faces between node i and node i + e_k,
    W_kk = avg_k(A_kk)/dv^2, W_kj = avg_k(A_kj)/(4 dv^2) for the two
    transverse j in `_TRANSVERSE` order, and D_k = (a(i + e_k) - a(i))/(2 dv^2),
    where avg_k is the mean of the two nodes.  The scales fold in every
    constant of the stencil, so `rhs` multiplies node differences only.
    """
    grid = coeffs.a.grid
    inv_dv2 = 1.0 / (grid.spacing * grid.spacing)
    out = np.empty((3, 4, *grid.shape))
    drift = _drift_max(coeffs.a, out[:, 3])
    for k, (w_kk, w_j1, w_j2, d_k) in enumerate(out):
        j1, j2 = _TRANSVERSE[k]
        for w, j, scale in ((w_kk, k, 0.5), (w_j1, j1, 0.125), (w_j2, j2, 0.125)):
            _face_pairs(np.add, coeffs.A.component(k, j), k, w)
            w *= scale * inv_dv2
        d_k *= 0.5 * inv_dv2
    return out, drift


@dataclass(frozen=True, eq=False)
class FrozenCoefficients:
    """What a step of `run` reads of one coefficient set.

    The face weights of the flux, the largest face drift that comes with
    them, and the two eigenvalue statistics behind the step bound and
    the rows.  Holding these instead of the set lets the run drop the
    node-valued A and a as soon as the weights exist.
    """

    weights: np.ndarray
    lambda_max: float
    drift_max: float
    c0_empirical: float

    @classmethod
    def of(cls, coeffs: CoefficientSet) -> FrozenCoefficients:
        # the statistics first: their full-grid temporaries are freed before the weights exist
        lambda_max, c0_empirical = coeffs.lambda_max, coeffs.c0_empirical
        weights, drift = _face_weights(coeffs)
        return cls(weights, lambda_max, drift, c0_empirical)


def _centred_difference(x: np.ndarray, j: int) -> np.ndarray:
    """x(i + e_j) - x(i - e_j), periodic in axis j: one subtraction over the flat
    arrays shifted by n^(2-j) each way, then the two wrap planes it got wrong."""
    out = np.empty(x.shape)
    shift = x.shape[0] ** (2 - j)
    np.subtract(x.reshape(-1)[2 * shift :], x.reshape(-1)[: -2 * shift], out=out.reshape(-1)[shift:-shift])
    np.subtract(x[_along(j, 1)], x[_along(j, -1)], out=out[_along(j, 0)])
    np.subtract(x[_along(j, 0)], x[_along(j, -2)], out=out[_along(j, -1)])
    return out


def rhs(f: Field, coeffs: CoefficientSet | FrozenCoefficients) -> Field:
    """Discrete flux divergence of A grad f - grad a f.

    Fluxes live on cell faces: the normal gradient is the compact
    two-point difference, transverse gradients and coefficients are
    averaged from the adjacent nodes, and the drift uses the compact
    difference of the potential a.  With the face weights of
    `_face_weights`, the axis-k flux divided by dv is

        F_k = W_kk (f+ - f) + sum_j W_kj (g_j + g_j+) - D_k (f + f+),

    where + is the neighbour along k and g_j = f(i + e_j) - f(i - e_j),
    and the result is the sum over k of F_k(i) - F_k(i - e_k).  The
    divergence telescopes, so the integral of the result vanishes to
    machine precision.  Every shift is a view, none a copy: each of g_j,
    the face sums and differences (`_face_pairs`) and the in-place
    subtraction of F_k(i - e_k) is one ufunc over the flat arrays shifted
    by n^(2-k), plus the wrap planes the flat shift gets wrong.  For the
    subtraction, the i_k = 0 plane is saved first and rewritten after,
    so every element sees the same operations in the same order, and the
    result is bit for bit that of the same stencil on rolled copies.  A
    call allocates six full arrays and no shifted copy, in about 4.2,
    0.77 and 0.35 ms at n = 48, 32 and 24 on a 2-core host.  Given a
    `CoefficientSet` rather than its `FrozenCoefficients`, a call first
    builds the weights, about 1.6, 0.4 and 0.3 ms more; `run` builds
    them once per set.
    """
    weights = coeffs.weights if isinstance(coeffs, FrozenCoefficients) else _face_weights(coeffs)[0]
    grid = f.grid
    vals = f.values
    spread = [_centred_difference(vals, j) for j in range(3)]
    out = np.zeros(grid.shape)
    flux, term = np.empty(grid.shape), np.empty(grid.shape)
    flat_out, flat_flux = out.reshape(-1), flux.reshape(-1)
    for k, (w_kk, w_j1, w_j2, d_k) in enumerate(weights):
        _face_pairs(np.add, vals, k, flux)
        flux *= d_k
        normal = _face_pairs(np.subtract, vals, k, term)
        normal *= w_kk
        np.subtract(normal, flux, out=flux)
        for w, j in zip((w_j1, w_j2), _TRANSVERSE[k]):
            _face_pairs(np.add, spread[j], k, term)
            term *= w
            flux += term
        out += flux
        # F_k(i - e_k) is the flat neighbour n^(2-k) back, except on the plane i_k = 0
        shift = grid.n ** (2 - k)
        first = out[_along(k, 0)].copy()
        flat_out[shift:] -= flat_flux[:-shift]
        np.subtract(first, flux[_along(k, -1)], out=out[_along(k, 0)])
    return Field(grid, out)


def stable_dt(f: Field, coeffs: CoefficientSet | FrozenCoefficients, cfl: float) -> float:
    """Parabolic/advective explicit step bound (the CFL ceiling of `run`).

    The advective term is the flux's largest face drift (`_drift_max`),
    which a bare set takes in one scratch array without the weights, so
    a set and its `FrozenCoefficients` give one bound bit for bit.
    Uncapped: where the coefficients vanish it is unbounded, and a run
    is limited by its snapshot times and horizon.
    """
    dv = f.grid.spacing
    frozen = isinstance(coeffs, FrozenCoefficients)
    drift = coeffs.drift_max if frozen else _drift_max(coeffs.a, [np.empty(f.grid.shape)] * 3)
    denom = 2.0 * 3.0 * coeffs.lambda_max + dv * drift + 1e-30
    return cfl * dv * dv / denom


@lru_cache(maxsize=8)
def equilibrium_residual(n: int, extent: float) -> np.ndarray:
    """Raw flux-divergence residual at the sampled equilibrium (cached per grid, read-only)."""
    grid = make_grid(n, extent)
    mu = maxwellian(grid)
    residual = rhs(mu, compute_coefficients(mu)).values
    residual.flags.writeable = False
    return residual


def _check_state(values: np.ndarray) -> None:
    # max |x| as max(max x, -min x), with no |x| temporary; both are NaN when some entry is
    top, bottom = float(np.max(values)), float(np.min(values))
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise BlowUpError("non-finite values in the iterate")
    if max(top, -bottom) > BLOWUP_SUP:
        raise BlowUpError(f"sup norm exceeded {BLOWUP_SUP:.0e}")


def _ssp_step(f: Field, dt: float, coeffs: FrozenCoefficients, slope: np.ndarray, base: np.ndarray) -> Field:
    """Two-stage SSP Runge-Kutta update with frozen coefficients.

    `slope` is rhs(f, coeffs).values, the raw first-stage divergence; it
    is consumed, as the first stage's buffer.  Stage derivatives are the
    equilibrium-balanced flux divergence, the raw one less `base`, the
    grid's `equilibrium_residual`.
    """
    grid = f.grid
    f1 = slope
    f1 -= base
    f1 *= dt
    f1 += f.values
    _check_state(f1)
    new_vals = rhs(Field(grid, f1), coeffs).values
    new_vals -= base
    new_vals *= dt
    new_vals += f1
    new_vals += f.values
    new_vals *= 0.5
    _check_state(new_vals)
    return Field(grid, new_vals)


def step(f: Field, dt: float, coeffs: CoefficientSet) -> Field:
    """One SSP-RK2 update of the state on the coefficient set `coeffs`."""
    # the residual first, so that its coefficient set is not built beside the weights
    base = equilibrium_residual(f.grid.n, f.grid.extent)
    weights, drift = _face_weights(coeffs)
    # the stages read the weights alone, so the eigenvalue statistics are left unmeasured
    frozen = FrozenCoefficients(weights, math.nan, drift, math.nan)
    return _ssp_step(f, dt, frozen, rhs(f, frozen).values, base)


# The columns of a trajectory's scalar table, one row per recorded step.
SCALAR_COLUMNS = ("time", "dt", "mass", "momentum_x", "momentum_y", "momentum_z",
                  "energy", "entropy", "lp_p", "linf_h", "grad_energy", "c0")


def _column(first: str, last: str | None = None) -> property:
    """The view of `Trajectory.table` at column `first`, or at columns `first` to `last`."""
    start = SCALAR_COLUMNS.index(first)
    index = start if last is None else slice(start, SCALAR_COLUMNS.index(last) + 1)
    return property(lambda traj: traj.table[:, index])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One row of scalars per recorded step, `table`, plus snapshots at cadence.

    Every series is a view of the table's columns (SCALAR_COLUMNS):
    `momentum` has shape (steps + 1, 3), `lp_p` is ||h||_p^p and
    `grad_energy` the integral of <v>^-3 |grad |h|^{p/2}|^2.  Nothing is
    to be mutated: `level_terms` is the memo of the diagnostics, whose
    keys `landau.analysis` defines.  A run that stopped early holds the
    reason of its abort, at its last row.
    """

    grid: Grid
    p: float
    m: float
    table: np.ndarray
    snapshot_times: list[float]
    snapshots: list[Field]
    abort_reason: str | None = None
    level_terms: dict = field(default_factory=dict, init=False, repr=False)

    times = _column("time")
    dt = _column("dt")
    mass = _column("mass")
    momentum = _column("momentum_x", "momentum_z")
    energy = _column("energy")
    entropy = _column("entropy")
    lp_p = _column("lp_p")
    linf_h = _column("linf_h")
    grad_energy = _column("grad_energy")
    c0 = _column("c0")

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def abort_time(self) -> float | None:
        """The last recorded time of an aborted run, else None: an abort records no row."""
        return float(self.times[-1]) if self.aborted else None

    def scalar_table(self) -> np.ndarray:
        """`table` itself; kept because `perfbench/run.py` calls it."""
        return self.table


def _row(t: float, dt_used: float, f: Field, coeffs: FrozenCoefficients, p: float) -> tuple[float, ...]:
    """The row of state f, in SCALAR_COLUMNS order."""
    h = f - maxwellian(f.grid)
    mom = moments(f)
    return (t, dt_used, mom.mass, *mom.momentum, mom.energy, positive_part_entropy(f, False),
            lp_m_norm(h, NormRequest(p)) ** p, h.max_abs(), weighted_gradient_energy(h, p), coeffs.c0_empirical)


def _next_dt(dt: float, remaining: float) -> float:
    """dt, or the remaining stretch in one step or two equal ones."""
    if dt >= remaining * (1.0 - 1e-9):
        return remaining
    return min(dt, 0.5 * remaining)


def run(config: SimConfig) -> Trajectory:
    """Integrate the configured problem to t_end, recording diagnostics.

    Steps are error-controlled under the CFL ceiling (module docstring).
    Blow-up (sup norm past the abort threshold, or non-finite values)
    stops the run and is reported on the returned trajectory rather
    than raised.
    """
    f = initial_datum(config)
    grid = f.grid
    base = equilibrium_residual(grid.n, grid.extent)  # before the run's first set, not beside it
    # each set lives only until its weights and statistics exist
    coeffs = FrozenCoefficients.of(compute_coefficients(f))
    rows = [_row(0.0, 0.0, f, coeffs, config.p)]
    snapshot_times, snapshots = [0.0], [f]
    slope = rhs(f, coeffs).values

    t = 0.0
    since_rebuild = 0
    dt_control = math.inf
    abort_reason = None
    while t < config.t_end * (1.0 - 1e-12):
        target = min(len(snapshots) * config.snapshot_every * DT_CAP, config.t_end)
        dt = _next_dt(min(dt_control, stable_dt(f, coeffs, config.cfl)), target - t)
        try:
            f_new = _ssp_step(f, dt, coeffs, slope, base)
        except BlowUpError as exc:
            abort_reason = str(exc)
            break
        since_rebuild += 1
        slope = rhs(f_new, coeffs).values
        if since_rebuild == config.coefficient_refresh:
            lagged = slope
            coeffs = None  # one set of weights alive at a time
            coeffs = FrozenCoefficients.of(compute_coefficients(f_new))
            slope = rhs(f_new, coeffs).values
            lag = float(np.max(np.abs(np.subtract(slope, lagged, out=lagged), out=lagged)))
            lag *= 0.5 / (float(np.max(f_new.values)) * since_rebuild)
            lagged = None
            ratio = SAFETY * LAG_TOLERANCE / lag if lag > 0.0 else math.inf
            if since_rebuild == 1 and lag > LAG_TOLERANCE:
                # retry from the old state on its own coefficients, rebuilt
                dt_control = dt * ratio
                if dt_control < 1e-12 * config.t_end:
                    abort_reason = f"step size underflow at dt {dt:.1e}"
                    break
                coeffs = None
                coeffs = FrozenCoefficients.of(compute_coefficients(f))
                slope = rhs(f, coeffs).values
                since_rebuild = 0
                continue
            dt_control = dt * min(ratio, MAX_GROWTH)
            since_rebuild = 0
        f = f_new
        landed = dt == target - t
        t = target if landed else t + dt
        rows.append(_row(t, dt, f, coeffs, config.p))
        if landed:
            snapshot_times.append(t)
            snapshots.append(f)

    if snapshot_times[-1] != t:  # an abort off a snapshot time: the last recorded state is one
        snapshot_times.append(t)
        snapshots.append(f)
    return Trajectory(grid, config.p, config.m, np.array(rows), snapshot_times, snapshots, abort_reason)
