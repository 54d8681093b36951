"""Uniform velocity grid, field containers, quadrature, and discrete gradients.

Everything downstream lives on a uniform cubic lattice covering
[-L, L)^3 with periodic transform conventions.  The domain is meant to
be chosen large enough that all fields of interest decay below roundoff
at the faces, so the periodic wrap never carries physical information.

All operations here are pure functions of immutable inputs and are safe
to call concurrently; grids cache their coordinate arrays lazily and
never mutate them afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "VecField",
    "SymTensorField",
    "make_grid",
    "integrate",
    "spectral_gradient",
    "finite_difference_gradient",
]


@dataclass(frozen=True)
class Grid:
    """Uniform n^3 lattice on [-extent, extent)^3.

    Node i of each axis sits at ``-extent + i * spacing`` with
    ``spacing = 2 * extent / n``.  n must be even so that v = 0 is a
    lattice node; the singular convolution kernels and the equilibrium
    peak are centered there.
    """

    n: int
    extent: float

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid needs an even point count >= 8 per axis, got n={self.n}")
        if not self.extent > 0:
            raise ValueError(f"grid extent must be positive, got {self.extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis."""
        return -self.extent + self.spacing * np.arange(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Spectral frequencies in numpy FFT layout; exactly one zero mode."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (v1, v2, v3) node coordinates (axis v1 slowest)."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij", sparse=True)

    @cached_property
    def radius2(self) -> np.ndarray:
        v1, v2, v3 = self.coords
        return v1 * v1 + v2 * v2 + v3 * v3

    def bracket_power(self, exponent: float) -> np.ndarray:
        """(1 + |v|^2)^(exponent/2), the polynomial weight on the lattice."""
        if exponent == 0.0:
            return np.ones(self.shape)
        return (1.0 + self.radius2) ** (0.5 * exponent)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


def _same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"fields live on different grids: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar samples on a Grid, stored row-major with axis v1 slowest."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(f"field shape {values.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scale: float) -> "Field":
        return Field(self.grid, self.values * float(scale))

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


@dataclass(frozen=True, eq=False)
class VecField:
    """Three scalar components on one grid, stacked as values[k, i1, i2, i3]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (3, *self.grid.shape):
            raise ValueError(f"vector field shape {values.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", values)

    def component(self, k: int) -> Field:
        return Field(self.grid, self.values[k])

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values * self.values, axis=0))


# storage order of the six independent components of a symmetric matrix
SYM_COMPONENTS: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (0, 1): 3, (1, 0): 3, (0, 2): 4, (2, 0): 4, (1, 2): 5, (2, 1): 5}


@dataclass(frozen=True, eq=False)
class SymTensorField:
    """Symmetric 3x3 matrix per node; components (11, 22, 33, 12, 13, 23)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (6, *self.grid.shape):
            raise ValueError(f"tensor field shape {values.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", values)

    def component(self, i: int, j: int) -> np.ndarray:
        return self.values[_SYM_INDEX[(i, j)]]

    def trace_values(self) -> np.ndarray:
        return self.values[0] + self.values[1] + self.values[2]

    def matrices(self) -> np.ndarray:
        """Stack the per-node matrices as (N, 3, 3) for batched linear algebra."""
        comps = self.values.reshape(6, -1)
        out = np.empty((comps.shape[1], 3, 3))
        for idx, (i, j) in enumerate(SYM_COMPONENTS):
            out[:, i, j] = comps[idx]
            if i != j:
                out[:, j, i] = comps[idx]
        return out

    def eigenvalues(self) -> np.ndarray:
        """Per-node eigenvalues, ascending, shape (N, 3)."""
        return np.linalg.eigvalsh(self.matrices())


def make_grid(n: int, extent: float) -> Grid:
    return Grid(int(n), float(extent))


def integrate(field: Field) -> float:
    """Midpoint-rule integral over the box: spacing^3 times the sample sum."""
    return field.grid.cell_volume * float(np.sum(field.values))


def _derivative_wavenumbers(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    # Nyquist mode zeroed for odd derivatives of real data.
    full = grid.wavenumbers.copy()
    full[grid.n // 2] = 0.0
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)
    half[-1] = 0.0
    return full, half


def spectral_gradient(field: Field) -> VecField:
    """Gradient via the periodic Fourier interpolant; exact on grid modes."""
    grid = field.grid
    spec = np.fft.rfftn(field.values)
    kfull, khalf = _derivative_wavenumbers(grid)
    out = np.empty((3, *grid.shape))
    out[0] = np.fft.irfftn(1j * kfull[:, None, None] * spec, s=grid.shape, axes=(0, 1, 2))
    out[1] = np.fft.irfftn(1j * kfull[None, :, None] * spec, s=grid.shape, axes=(0, 1, 2))
    out[2] = np.fft.irfftn(1j * khalf[None, None, :] * spec, s=grid.shape, axes=(0, 1, 2))
    return VecField(grid, out)


def finite_difference_gradient(field: Field) -> VecField:
    """Second-order central differences with periodic wrap (test oracle)."""
    grid = field.grid
    v = field.values
    inv2h = 1.0 / (2.0 * grid.spacing)
    out = np.empty((3, *grid.shape))
    for k in range(3):
        out[k] = (np.roll(v, -1, axis=k) - np.roll(v, 1, axis=k)) * inv2h
    return VecField(grid, out)
