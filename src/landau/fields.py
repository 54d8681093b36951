"""Weighted norms, moments, entropy, and support boxes.

The measurement vocabulary shared by the solver and the diagnostics:
weighted Lebesgue norms ||f||_{L^p_m}, the conserved moment triple,
Boltzmann entropy, and the weighted gradient energies that drive the
regularity estimates.

The norms and the gradient energy run on the support box of their field
(`support_box`): a field that misses a face, such as a level-set cut
(h - level)^+, is summed and differentiated on its box alone, and the
diagnostics, which read a cut's box off per-plane maxima of h, pass the
box and the cut on it (`box_lp_norm`, `box_gradient_energy`) for the
same bits.  A field whose two opposite corners are non-zero reaches
every face, as every row of a run does: that is read off two nodes, and
it keeps the whole-grid sums.  The diagnostics and the checks take every
weighted norm and gradient energy from these functions, except the
<v>^2-weighted gradient norm of `landau.analysis.h1_smallness`.

All functions are pure; quadrature is everywhere the same midpoint rule
as :func:`landau.grid.integrate`.  The sums of the run's rows (the
moments, the L^2 norm, the entropy, the weighted gradient energy) are
`np.einsum` contractions: one pass each with no product temporary, in
numpy's own loops rather than BLAS, so their bits do not depend on the
BLAS thread count.  The equilibrium mu of :func:`maxwellian`
is a per-grid constant like the grid's weights: built once per grid and
shared read-only, and every h = f - mu in the program is taken against it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, box_gradient, spectral_gradient

__all__ = [
    "MomentVector",
    "NormRequest",
    "maxwellian",
    "support_box",
    "plane_box",
    "lp_m_norm",
    "box_lp_norm",
    "moments",
    "boltzmann_entropy",
    "positive_part_entropy",
    "weighted_gradient_energy",
    "box_gradient_energy",
    "sobolev_ratio",
]

# Nodes at or below this density contribute zero to f*log(f).
ENTROPY_FLOOR = 1e-300
# Negative values beyond this fraction of max|f| signal solver failure.
NEGATIVITY_SLACK = 1e-12


@lru_cache(maxsize=8)
def maxwellian(grid: Grid) -> Field:
    """The unit-mass, zero-mean, unit-temperature Gaussian equilibrium (cached per grid, read-only)."""
    mu = Field(grid, (2.0 * np.pi) ** -1.5 * np.exp(-0.5 * grid.radius2))
    mu.values.flags.writeable = False
    return mu


@dataclass(frozen=True)
class MomentVector:
    mass: float
    momentum: tuple[float, float, float]
    energy: float


@dataclass(frozen=True)
class NormRequest:
    """Lebesgue exponent p in [1, inf] and polynomial weight exponent m."""

    p: float
    m: float = 0.0

    def __post_init__(self) -> None:
        if not self.p >= 1.0:
            raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {self.p}")
        if math.isinf(self.p) and self.m != 0.0:
            raise ValueError("weighted sup norms (p = inf with m != 0) are not supported")


def support_box(values: np.ndarray) -> tuple[slice, slice, slice] | None:
    """Bounding box of the non-zero nodes of an (n, n, n) array, None if there are none.

    Two opposite corners lie on all six faces, so when both are non-zero
    the box is the whole grid, read off two nodes; only a field with a
    zero corner pays the pass that finds its box.
    """
    n = values.shape[0]
    if values[0, 0, 0] != 0.0 and values[-1, -1, -1] != 0.0:
        return (slice(0, n),) * 3
    nonzero = values != 0.0
    across = nonzero.any(axis=0)
    return plane_box((nonzero.reshape(n, -1).any(axis=1), across.any(axis=1), across.any(axis=0)))


def plane_box(occupied: Sequence[np.ndarray]) -> tuple[slice, slice, slice] | None:
    """Bounding box of the planes marked True along each of the three axes, None if none is."""
    box = []
    for planes in occupied:
        where = np.flatnonzero(planes)
        if where.size == 0:
            return None
        box.append(slice(int(where[0]), int(where[-1]) + 1))
    return tuple(box)


def lp_m_norm(field: Field, req: NormRequest) -> float:
    """(integral of |f|^p <v>^m)^(1/p); plain sup norm when p = inf.

    Summed on the support box of f (`support_box`, `box_lp_norm`): the
    zero field gives exactly 0.0.
    """
    if math.isinf(req.p):
        return field.max_abs()
    box = support_box(field.values)
    return 0.0 if box is None else box_lp_norm(field.grid, box, field.values[box], req)


def box_lp_norm(grid: Grid, box: tuple[slice, slice, slice], values: np.ndarray, req: NormRequest) -> float:
    """`lp_m_norm` (finite p) of the field that is `values` on `box` and zero elsewhere.

    The sum runs over the box alone, on a C-ordered copy of `values`, so a
    field and its box give the same bits.  p = 2 and p = 1 are one einsum
    of x x or |x| against <v>^m (a plain sum at m = 0); other p sum
    |x|^p <v>^m with np.sum.
    """
    x = np.ascontiguousarray(values)
    weight = None if req.m == 0.0 else grid.bracket_power(req.m)[box]
    if req.p == 2.0:  # |x|^2 is x x, so the sum is a dot product
        total = np.einsum("ijk,ijk->", x, x) if weight is None else np.einsum("ijk,ijk,ijk->", x, x, weight)
    elif req.p == 1.0:
        magnitude = np.abs(x)
        total = np.sum(magnitude) if weight is None else np.einsum("ijk,ijk->", magnitude, weight)
    else:
        weighted = np.abs(x) ** req.p
        if weight is not None:
            weighted = weighted * weight
        total = np.sum(weighted)
    return (grid.cell_volume * float(total)) ** (1.0 / req.p)


def moments(field: Field) -> MomentVector:
    """Mass, momentum, and energy integrals (the conserved triple).

    The weights 1, v_k and |v|^2 are sums of products of (1, v, v^2) on
    single axes, so f is contracted against (1, v, v^2) one axis at a
    time, to m[a, b, c] = sum f v1^a v2^b v3^c.
    """
    grid = field.grid
    axis = grid.axis
    powers = np.stack((np.ones(grid.n), axis, axis * axis))
    m = np.einsum("ijk,ai->ajk", field.values, powers)
    m = np.einsum("ajk,bj->abk", m, powers)
    m = np.einsum("abk,ck->abc", m, powers).tolist()
    w = grid.cell_volume
    momentum = (w * m[1][0][0], w * m[0][1][0], w * m[0][0][1])
    return MomentVector(w * m[0][0][0], momentum, w * (m[2][0][0] + m[0][2][0] + m[0][0][2]))


def boltzmann_entropy(field: Field, *, absolute: bool = False) -> float:
    """Integral of f log f (or f |log f|) with the 0 log 0 = 0 convention.

    Rejects fields whose negative excursions exceed roundoff scale:
    those signal a failed solve, not a density.
    """
    vals = field.values
    low = float(np.min(vals))
    # max |f| is max(max f, -min f)
    if low < -NEGATIVITY_SLACK * max(float(np.max(vals)), -low):
        raise ValueError("field has negative values beyond roundoff tolerance; entropy undefined")
    return positive_part_entropy(field, absolute)


def positive_part_entropy(field: Field, absolute: bool) -> float:
    """Integral of f^+ log f^+ (or f^+ |log f^+|), unchecked, as the rows and
    reports take it: nodes at or below ENTROPY_FLOOR, undershoots included, add nothing."""
    vals = field.values
    pos = vals[vals > ENTROPY_FLOOR]
    logs = np.log(pos)
    if absolute:
        np.abs(logs, out=logs)
    return field.grid.cell_volume * float(np.einsum("i,i->", pos, logs))


def weighted_gradient_energy(h: Field, p: float) -> float:
    """Integral of <v>^-3 |grad(|h|^(p/2))|^2 via the spectral gradient.

    For p = 2 the gradient of h itself is used: |grad|h|| = |grad h|
    almost everywhere, and differentiating the smooth representative
    avoids spurious ringing from the kink of |h| at sign changes.
    Differentiated on the support box of h (`support_box`,
    `box_gradient_energy`): the zero field gives exactly 0.0.
    """
    if not p > 0.0:
        raise ValueError(f"exponent must be positive, got {p}")
    box = support_box(h.values)
    return 0.0 if box is None else box_gradient_energy(h.grid, box, h.values[box], p)


def box_gradient_energy(grid: Grid, box: tuple[slice, slice, slice], values: np.ndarray, p: float) -> float:
    """`weighted_gradient_energy` of the field that is `values` on `box` and zero elsewhere.

    On the whole grid, the stacked `spectral_gradient` against <v>^-3 in
    one einsum.  On a smaller box, each component of `grid.box_gradient`
    against <v>^-3 on its slab, the three sums added: the work scales
    with the box, not the grid.  |h|^(p/2) is taken on a C-ordered copy
    of `values`, so a field and its box give the same bits.
    """
    base = np.ascontiguousarray(values) if p == 2.0 else np.abs(values) ** (0.5 * p)
    weight = grid.bracket_power(-3.0)
    if all(s.stop - s.start == grid.n for s in box):
        grad = spectral_gradient(Field(grid, base)).values
        return grid.cell_volume * float(np.einsum("kijl,kijl,ijl->", grad, grad, weight))
    slabs = ((slice(None), box[1], box[2]), (box[0], slice(None), box[2]), (box[0], box[1], slice(None)))
    total = 0.0
    for component, slab in zip(box_gradient(grid, box, base), slabs):
        total += float(np.einsum("ijk,ijk,ijk->", component, component, weight[slab]))
    return grid.cell_volume * total


def sobolev_ratio(g: Field, s: float) -> float:
    """Measured constant of the weighted Sobolev inequality.

    Returns LHS / RHS for
    (int |g|^6 <v>^-9)^(1/3)  <=  C1 int |grad g|^2 <v>^-3  +  C2 (int |g|^s)^(2/s)
    with C1 = C2 = 1.  Boundedness of this ratio over a corpus evidences
    a finite inequality constant; both sides are homogeneous of degree 2
    in g, so the ratio is invariant under g -> lambda*g.
    """
    if not 1.0 <= s <= 6.0:
        raise ValueError(f"exponent s must lie in [1, 6], got {s}")
    if g.max_abs() == 0.0:
        raise ValueError("ratio undefined for the zero field")
    lhs = lp_m_norm(g, NormRequest(6.0, -9.0)) ** 2
    return lhs / (weighted_gradient_energy(g, 2.0) + lp_m_norm(g, NormRequest(s)) ** 2)
