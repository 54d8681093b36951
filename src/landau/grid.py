"""Uniform velocity grid, field containers, quadrature, and discrete gradients.

Everything downstream lives on a uniform cubic lattice covering
[-L, L)^3 with periodic transform conventions.  The domain is meant to
be chosen large enough that all fields of interest decay below roundoff
at the faces, so the periodic wrap never carries physical information.

All operations here are pure functions of immutable inputs and are safe
to call concurrently; grids cache their coordinate arrays and weights
lazily and never mutate them afterwards, and the spectral
differentiation matrices are cached per (n, spacing), read-only.  A field
that vanishes off a box of the lattice is differentiated on that box
alone (`box_gradient`).  The eigenvalues of a symmetric tensor field come
from LAPACK's `eigvalsh` on the selected nodes
(`SymTensorField.eigenvalues_at`), the package's one eigenvalue routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "VecField",
    "SymTensorField",
    "make_grid",
    "integrate",
    "face_pairs",
    "spectral_gradient",
    "box_gradient",
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
        if not 0.0 < self.extent < math.inf:
            raise ValueError(f"grid extent L must be finite and positive, got {self.extent}")

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
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (v1, v2, v3) node coordinates (axis v1 slowest)."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij", sparse=True)

    @cached_property
    def radius2(self) -> np.ndarray:
        v1, v2, v3 = self.coords
        return v1 * v1 + v2 * v2 + v3 * v3

    @cached_property
    def _bracket_powers(self) -> dict[float, np.ndarray]:
        return {}

    def bracket_power(self, exponent: float) -> np.ndarray:
        """(1 + |v|^2)^(exponent/2), the polynomial weight on the lattice.

        Built once per grid and exponent; the shared array is read-only.
        """
        weight = self._bracket_powers.get(exponent)
        if weight is None:
            weight = np.ones(self.shape) if exponent == 0.0 else (1.0 + self.radius2) ** (0.5 * exponent)
            weight.flags.writeable = False
            self._bracket_powers[exponent] = weight
        return weight


@dataclass(frozen=True, eq=False)
class _GridValues:
    """Samples on a Grid, float64 of shape `leading` + grid.shape, axis v1 slowest."""

    grid: Grid
    values: np.ndarray
    leading = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (*self.leading, *self.grid.shape):
            raise ValueError(f"{type(self).__name__} shape {values.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", values)


class Field(_GridValues):
    """Scalar samples on a Grid, stored row-major with axis v1 slowest."""

    def __sub__(self, other: "Field") -> "Field":
        if self.grid != other.grid:
            raise ValueError(f"fields live on different grids: {self.grid} vs {other.grid}")
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scale: float) -> "Field":
        return Field(self.grid, self.values * float(scale))

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class VecField(_GridValues):
    """Three scalar components on one grid, stacked as values[k, i1, i2, i3]."""

    leading = (3,)

    def component(self, k: int) -> Field:
        return Field(self.grid, self.values[k])

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values * self.values, axis=0))


# storage order of the six independent components of a symmetric matrix
SYM_COMPONENTS: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = {key: slot for slot, (i, j) in enumerate(SYM_COMPONENTS) for key in ((i, j), (j, i))}
# the slots of the 3x3 matrix's entries among the six stored components
_MATRIX_SLOTS = np.array([[_SYM_INDEX[(i, j)] for j in range(3)] for i in range(3)])


class SymTensorField(_GridValues):
    """Symmetric 3x3 matrix per node; components (11, 22, 33, 12, 13, 23)."""

    leading = (6,)

    def component(self, i: int, j: int) -> np.ndarray:
        return self.values[_SYM_INDEX[(i, j)]]

    def trace_values(self) -> np.ndarray:
        return self.values[0] + self.values[1] + self.values[2]

    def eigenvalues(self) -> np.ndarray:
        """Per-node eigenvalues, ascending, shape (N, 3)."""
        return self.eigenvalues_at(slice(None))

    def eigenvalues_at(self, nodes: np.ndarray | slice) -> np.ndarray:
        """Eigenvalues at the flat node selection `nodes` (mask, indices or slice), shape (K, 3).

        LAPACK's `eigvalsh` on the gathered node matrices.  It solves
        each matrix on its own, so these are exactly the selected rows of
        `eigenvalues()`.  A node with a non-finite entry, which LAPACK
        rejects, reads NaN.
        """
        comps = self.values.reshape(6, -1)[:, nodes]
        finite = np.all(np.isfinite(comps), axis=0)
        out = np.full((comps.shape[1], 3), np.nan)
        out[finite] = np.linalg.eigvalsh(comps.T[finite][:, _MATRIX_SLOTS])
        return out


def make_grid(n: int, extent: float) -> Grid:
    return Grid(int(n), float(extent))


def integrate(field: Field) -> float:
    """Midpoint-rule integral over the box: spacing^3 times the sample sum."""
    return field.grid.cell_volume * float(np.sum(field.values))


def face_pairs(ufunc: np.ufunc, x: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """out(i) = ufunc(x(i + e_k), x(i)), periodic in axis k, for (n, n, n)
    arrays (out C-contiguous), with no shifted copy of x: one ufunc over
    the flat arrays shifted by n^(2-k), then the wrap plane i_k = n - 1."""
    shift = x.shape[0] ** (2 - k)
    ufunc(x.reshape(-1)[shift:], x.reshape(-1)[:-shift], out=out.reshape(-1)[:-shift])
    last, first = (slice(None),) * k + (-1,), (slice(None),) * k + (0,)
    ufunc(x[first], x[last], out=out[last])
    return out


@lru_cache(maxsize=8)
def _derivative_matrix(n: int, spacing: float) -> np.ndarray:
    """Periodic spectral differentiation matrix D, real (n, n), read-only.

    D = irfft(i k * rfft(I)) column by column, with the Nyquist mode
    zeroed, so D v carries exactly the symbol of the Fourier interpolant
    (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3).
    """
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=spacing)
    ik[-1] = 0.0  # Nyquist mode zeroed for odd derivatives of real data
    matrix = np.fft.irfft(ik[:, None] * np.fft.rfft(np.eye(n), axis=0), n=n, axis=0)
    matrix.flags.writeable = False
    return matrix


def spectral_gradient(field: Field) -> VecField:
    """Gradient via the periodic Fourier interpolant; exact on grid modes.

    The symbol i k_j of derivative j depends on axis j alone, so each
    derivative is one product with the cached differentiation matrix D
    (`_derivative_matrix`): D v on axes 0 and 1, v D^T on axis 2.
    """
    grid = field.grid
    n = grid.n
    d, v = _derivative_matrix(n, grid.spacing), field.values
    out = np.empty((3, *grid.shape))
    np.matmul(d, v.reshape(n, n * n), out=out[0].reshape(n, n * n))
    np.matmul(d, v, out=out[1])
    np.matmul(v.reshape(n * n, n), d.T, out=out[2].reshape(n * n, n))
    return VecField(grid, out)


def box_gradient(grid: Grid, box: tuple[slice, slice, slice], values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Spectral gradient of the field that is `values` on `box` and zero elsewhere.

    Derivative k mixes nodes along axis k only, so it vanishes off the
    box's lines along k: component k is returned on those lines alone,
    shape (n, e1, e2), (e0, n, e2) and (e0, e1, n) for a box of extents
    (e0, e1, e2), and each product with D contracts only the box's
    extent.  On the whole grid these are the components of
    `spectral_gradient`, up to the order of the products' sums.
    """
    n = grid.n
    d = _derivative_matrix(n, grid.spacing)
    e0, e1, e2 = values.shape
    return (
        np.matmul(d[:, box[0]], values.reshape(e0, e1 * e2)).reshape(n, e1, e2),
        np.matmul(d[:, box[1]], values),
        np.matmul(values.reshape(e0 * e1, e2), d[:, box[2]].T).reshape(e0, e1, n),
    )
