"""Age-period-cohort index algebra, identifiability group, and the canonical
full-rank design matrix.

An APC log-rate surface ``mu[i, j] = delta + alpha_i + beta_j + gamma_k`` with
``k = A - i + j`` is invariant under level shifts of the three effect vectors
and under transfers of linear trend between them.  The identifiable content is
three baseline log rates (anchoring the linear part of the surface) plus all
second differences (curvatures) of the effect vectors, a vector of length
``2(A + T) - 4``.  This module provides the group action, the canonical
coordinates, and the design matrix mapping canonical coordinates to the
vectorized surface.

Index conventions: public operations use the demographic 1-based indices
(age ``i`` in 1..A, period ``j`` in 1..T, cohort ``k`` in 1..A+T-1); arrays
are 0-based internally.  Surfaces vectorize column-major by period (all ages
for period 1, then period 2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Literal

import numpy as np

Coordinates = Literal["age-cohort", "age-period"]
BaselineForm = Literal["three-points", "point-plus-two-slopes"]
BLOCKS = ("baseline", "age", "period", "cohort")  # the canonical vector's blocks, in order


class CollinearBaselineError(ValueError):
    """The three baseline cells lie on a line, so they cannot anchor the
    linear content of the surface."""


@dataclass(frozen=True)
class GridSpec:
    """Dimensions of an age x period rate surface.

    Cohort count is derived: ``n_cohort = n_age + n_period - 1``.  Both axes
    use the same interval width (in years).
    """

    n_age: int
    n_period: int
    interval_width: float = 5.0

    def __post_init__(self) -> None:
        if self.n_age < 3 or self.n_period < 3:
            raise ValueError(
                "need n_age >= 3 and n_period >= 3: second differences "
                f"require at least 3 points (got {self.n_age}, {self.n_period})"
            )
        if self.interval_width <= 0:
            raise ValueError("interval_width must be positive")

    @property
    def n_cohort(self) -> int:
        return self.n_age + self.n_period - 1

    @property
    def n_cells(self) -> int:
        return self.n_age * self.n_period

    @property
    def n_canonical(self) -> int:
        """Length of the identifiable parameter vector, 2(A+T) - 4."""
        return 2 * (self.n_age + self.n_period) - 4

    @property
    def block_slices(self) -> dict[str, slice]:
        """Where each of ``BLOCKS`` sits in the canonical vector."""
        lengths = (3, self.n_age - 2, self.n_period - 2, self.n_cohort - 2)
        return {name: slice(end - n, end) for name, n, end in zip(BLOCKS, lengths, accumulate(lengths))}


@dataclass(frozen=True)
class APCEffects:
    """Overparameterized effects for one stratum: level plus age, period and
    cohort vectors.  Used for algebra and testing, never fit directly."""

    delta: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    def validate_against(self, grid: GridSpec) -> None:
        if self.alpha.shape != (grid.n_age,):
            raise ValueError(f"alpha must have length {grid.n_age}")
        if self.beta.shape != (grid.n_period,):
            raise ValueError(f"beta must have length {grid.n_period}")
        if self.gamma.shape != (grid.n_cohort,):
            raise ValueError(f"gamma must have length {grid.n_cohort}")


@dataclass(frozen=True)
class GroupElement:
    """One element of the identifiability group: level shifts (a, b, c) of
    the age, period, cohort effects and a linear-trend transfer d."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0


@dataclass(frozen=True)
class BaselineSpec:
    """Placement of the three baseline coordinates.

    ``triple`` holds three 1-based index pairs in the chosen coordinate
    system: ``(i, k)`` pairs for age-cohort coordinates, ``(i, j)`` pairs for
    age-period.  The three cells must form a triangle (be affinely
    independent), not a line.

    ``form`` selects how the three coordinates enter the canonical vector:
    either the three log rates themselves ("three-points") or one log rate
    plus two successive differences ("point-plus-two-slopes").  The two forms
    share identical curvature columns in the design matrix.  The default is
    the slopes form, the one fits take: the baseline prior is stated in it.
    """

    coordinates: Coordinates
    triple: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    form: BaselineForm = "point-plus-two-slopes"

    def cells_age_period(self, grid: GridSpec) -> list[tuple[int, int]]:
        """The three baseline cells as 0-based (age, period) pairs."""
        cells = []
        for pair in self.triple:
            i, second = pair
            if self.coordinates == "age-cohort":
                k = second
                if not (1 <= k <= grid.n_cohort):
                    raise ValueError(f"cohort index {k} outside 1..{grid.n_cohort}")
                j = k + i - grid.n_age
            else:
                j = second
            if not (1 <= i <= grid.n_age):
                raise ValueError(f"age index {i} outside 1..{grid.n_age}")
            if not (1 <= j <= grid.n_period):
                raise ValueError(f"period index {j} outside 1..{grid.n_period}")
            cells.append((i - 1, j - 1))
        det = _affine_det(cells)
        if abs(det) < 0.5:
            raise CollinearBaselineError(
                f"baseline triple {self.triple} is collinear; the three cells "
                "must define a triangle rather than a line"
            )
        return cells


def _affine_det(cells: list[tuple[int, int]]) -> float:
    m = np.array([[1.0, c[0], c[1]] for c in cells])
    return float(np.linalg.det(m))


@dataclass(frozen=True)
class CanonicalParams:
    """Identifiable coordinates of one stratum's surface: three baseline
    values plus the curvature (second-difference) vectors."""

    baseline: np.ndarray
    curv_age: np.ndarray
    curv_period: np.ndarray
    curv_cohort: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate(
            [self.baseline, self.curv_age, self.curv_period, self.curv_cohort]
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid: GridSpec) -> "CanonicalParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (grid.n_canonical,):
            raise ValueError(f"expected length {grid.n_canonical}, got {vec.shape}")
        return cls(*(vec[cols] for cols in grid.block_slices.values()))  # fields in BLOCKS order


def cohort_index(i: int, j: int, n_age: int) -> int:
    """Cohort index k = A - i + j for 1-based age i and period j."""
    if not 1 <= i <= n_age:
        raise IndexError(f"age index {i} outside 1..{n_age}")
    if j < 1:
        raise IndexError(f"period index {j} must be >= 1")
    return n_age - i + j


def middle_index(n_age: int) -> int:
    """Middle age index U = (A+1)/2 for odd A."""
    if n_age % 2 == 0:
        raise ValueError(
            f"n_age={n_age} is even and has no middle index; pass an explicit "
            "BaselineSpec instead of relying on the middle-cell default"
        )
    return (n_age + 1) // 2


def default_baseline_spec(
    grid: GridSpec, form: BaselineForm = "point-plus-two-slopes"
) -> BaselineSpec:
    """Default baseline placement.

    Odd A: the middle age-cohort triple {(U,U), (U+1,U), (U,U+1)}, which puts
    the anchor cells in the earliest periods of the middle age group.  Even A:
    the corner age-period triple {(A,1), (A-1,1), (A,2)}.
    """
    if grid.n_age % 2 == 1:
        u = middle_index(grid.n_age)
        return BaselineSpec(
            coordinates="age-cohort",
            triple=((u, u), (u + 1, u), (u, u + 1)),
            form=form,
        )
    a = grid.n_age
    return BaselineSpec(
        coordinates="age-period",
        triple=((a, 1), (a - 1, 1), (a, 2)),
        form=form,
    )


def log_rates(effects: APCEffects, grid: GridSpec) -> np.ndarray:
    """Log-rate surface mu[i, j] = delta + alpha_i + beta_j + gamma_{A-i+j},
    returned as an (n_age, n_period) array."""
    effects.validate_against(grid)
    a, t = grid.n_age, grid.n_period
    i0 = np.arange(a)[:, None]
    j0 = np.arange(t)[None, :]
    k0 = (a - 1) - i0 + j0
    return effects.delta + effects.alpha[:, None] + effects.beta[None, :] + effects.gamma[k0]


def apply_group(effects: APCEffects, g: GroupElement, grid: GridSpec) -> APCEffects:
    """Act on the effects with a group element, leaving log_rates unchanged.

    The level delta absorbs the shifts and the trend so that the surface is
    invariant:  delta' = delta - a - b - c - (A-1) d.
    """
    effects.validate_against(grid)
    a_len, t_len, k_len = grid.n_age, grid.n_period, grid.n_cohort
    return APCEffects(
        delta=effects.delta - g.a - g.b - g.c - (a_len - 1) * g.d,
        alpha=effects.alpha + g.a + g.d * np.arange(a_len),
        beta=effects.beta + g.b - g.d * np.arange(t_len),
        gamma=effects.gamma + g.c + g.d * np.arange(k_len),
    )


def second_differences(v: np.ndarray) -> np.ndarray:
    """Second differences out[m] = v[m+2] - 2 v[m+1] + v[m], length n-2."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 3:
        raise ValueError("second differences need a 1-d vector of length >= 3")
    return v[2:] - 2.0 * v[1:-1] + v[:-2]


def curvature_basis(n: int) -> np.ndarray:
    """Basis H (n x (n-2)) reconstructing a vector from its curvatures.

    With v anchored at zero level and slope, v = H @ second_differences(v)
    plus an affine sequence; H[t, m] = max(t - m - 1, 0) for 0-based t, m.
    """
    t = np.arange(n)[:, None]
    m = np.arange(n - 2)[None, :]
    return np.maximum(t - m - 1, 0).astype(float)


@dataclass(frozen=True)
class DesignParts:
    """Internals of the canonical design: the linear-content columns, the
    curvature columns, the baseline-cell rows used to re-anchor them, and the
    design's factorization ``matrix = Y @ loadings`` by effect.

    Every design column is additive in an age, a period and a cohort effect,
    so a cell's row is the sum of three rows of ``loadings``: its age row
    ``i0``, its period row ``A + j0`` and its cohort row ``A + T + k0``, the
    three entries of ``effect_rows``.  Y is the one-hot (age | period |
    cohort) indicator of ``effect_rows``.  The sum reproduces ``matrix``
    exactly when B^-1 is exact in binary (as for both default triples, where
    det B = +-1), and to rounding otherwise.
    """

    grid: GridSpec
    spec: BaselineSpec
    x_lin: np.ndarray       # (n_cells, 3): rows (1, i0, j0)
    x_curv: np.ndarray      # (n_cells, n_canonical - 3)
    baseline_rows: np.ndarray  # (3,) vec indices of the baseline cells
    b_matrix: np.ndarray    # (3, 3) = x_lin[baseline_rows]
    matrix: np.ndarray      # the assembled design, (n_cells, n_canonical)
    loadings: np.ndarray    # F, (n_age + n_period + n_cohort, n_canonical)
    effect_rows: np.ndarray  # (n_cells, 3) int: each cell's age, period and cohort row of F


def design_parts(grid: GridSpec, spec: BaselineSpec) -> DesignParts:
    """Build the design matrix together with its reusable internals.

    Every surface decomposes as ``mu = X_lin @ (c0, s_age, s_period) +
    X_curv @ curvatures`` where the linear coordinates are the value at cell
    (1, 1) and the slopes along age and period.  Re-anchoring the linear part
    on the three baseline cells gives the canonical design
    ``M = [X_lin B^-1 | X_curv - X_lin B^-1 X_curv[baseline rows]]``
    with ``B = X_lin[baseline rows]``.

    The same map applied to one row per age, period and cohort effect gives
    the loadings F with ``M = Y F``: the age rows carry (1, i0, 0) and the age
    ramps, the period rows (0, 0, j0) and the period ramps, the cohort rows
    the cohort ramps.
    """
    a, t, k = grid.n_age, grid.n_period, grid.n_cohort
    cells = spec.cells_age_period(grid)

    # column-major by period: all ages for period 0, then period 1, ...
    i0 = np.tile(np.arange(a), t)
    j0 = np.repeat(np.arange(t), a)
    effect_rows = np.column_stack([i0, a + j0, a + t + (a - 1) - i0 + j0])

    # the linear and curvature content per effect row: age rows, then
    # period rows, then cohort rows; a cell's row is the sum of its three
    e_lin = np.zeros((a + t + k, 3))
    e_lin[:a, 0] = 1.0
    e_lin[:a, 1] = np.arange(a)
    e_lin[a : a + t, 2] = np.arange(t)
    e_curv = np.zeros((a + t + k, grid.n_canonical - 3))
    e_curv[:a, : a - 2] = curvature_basis(a)
    e_curv[a : a + t, a - 2 : a + t - 4] = curvature_basis(t)
    e_curv[a + t :, a + t - 4 :] = curvature_basis(k)
    x_lin = e_lin[effect_rows].sum(axis=1)  # integer entries: the sums are exact
    x_curv = e_curv[effect_rows].sum(axis=1)

    ages, periods = np.array(cells).T
    b_rows = cell_index(ages, periods, a)
    b = x_lin[b_rows]

    b_inv = np.linalg.inv(b)
    m_lin = x_lin @ b_inv
    m_curv = x_curv - m_lin @ x_curv[b_rows]
    # the baseline rows are unit selectors by construction; remove float fuzz
    m_lin[b_rows] = np.eye(3)
    m_curv[b_rows] = 0.0
    matrix = np.concatenate([m_lin, m_curv], axis=1)
    f_lin = e_lin @ b_inv
    loadings = np.concatenate([f_lin, e_curv - f_lin @ x_curv[b_rows]], axis=1)

    if spec.form == "point-plus-two-slopes":
        # baseline coordinates become (mu1, mu2 - mu1, mu3 - mu1); curvature
        # columns are reused as-is so the two forms share them bit for bit
        slope_map = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        matrix = np.concatenate([matrix[:, :3] @ slope_map, m_curv], axis=1)
        loadings[:, :3] = loadings[:, :3] @ slope_map

    return DesignParts(
        grid=grid,
        spec=spec,
        x_lin=x_lin,
        x_curv=x_curv,
        baseline_rows=b_rows,
        b_matrix=b,
        matrix=matrix,
        loadings=loadings,
        effect_rows=effect_rows,
    )


def build_design_matrix(grid: GridSpec, spec: BaselineSpec | None = None) -> np.ndarray:
    """Full-rank design M (n_cells x n_canonical) with M @ xi = vec(mu)."""
    if spec is None:
        spec = default_baseline_spec(grid)
    return design_parts(grid, spec).matrix


def canonical_from_effects(
    effects: APCEffects, grid: GridSpec, spec: BaselineSpec | None = None
) -> CanonicalParams:
    """Project overparameterized effects onto the identifiable coordinates."""
    if spec is None:
        spec = default_baseline_spec(grid)
    mu = log_rates(effects, grid)
    cells = spec.cells_age_period(grid)
    baseline = np.array([mu[ci, cj] for (ci, cj) in cells])
    if spec.form == "point-plus-two-slopes":
        baseline = np.array(
            [baseline[0], baseline[1] - baseline[0], baseline[2] - baseline[0]]
        )
    return CanonicalParams(
        baseline=baseline,
        curv_age=second_differences(effects.alpha),
        curv_period=second_differences(effects.beta),
        curv_cohort=second_differences(effects.gamma),
    )


def linear_coordinates(
    canonical: np.ndarray, parts: DesignParts
) -> np.ndarray:
    """Recover (c0, s_age, s_period) of a surface from canonical coordinates.

    c0 is the linear-content value at cell (1, 1); s_age and s_period are the
    linear slopes of the surface along the age and period axes.  Accepts a
    single canonical vector or a (n, n_canonical) batch; returns matching
    shape with 3 columns.
    """
    canonical = np.atleast_2d(np.asarray(canonical, dtype=float))
    baseline = canonical[:, :3]
    if parts.spec.form == "point-plus-two-slopes":
        baseline = np.column_stack(
            [baseline[:, 0], baseline[:, 0] + baseline[:, 1], baseline[:, 0] + baseline[:, 2]]
        )
    curv = canonical[:, 3:]
    rhs = baseline - curv @ parts.x_curv[parts.baseline_rows].T
    out = np.linalg.solve(parts.b_matrix, rhs.T).T
    return out[0] if out.shape[0] == 1 else out


def cell_index(ages, periods, n_age: int):
    """Position of the 0-based cells (ages, periods) in a vectorized
    surface (see ``flatten_surface``); array-wise."""
    return np.asarray(periods) * n_age + np.asarray(ages)


def flatten_surface(surfaces: np.ndarray) -> np.ndarray:
    """Vectorize the (n_age, n_period) surfaces on the last two axes,
    column-major by period: (..., A, T) -> (..., A * T).  The package's one
    cell order; a stack of strata flattens stratum-major."""
    surfaces = np.asarray(surfaces)
    return surfaces.swapaxes(-1, -2).reshape(*surfaces.shape[:-2], -1)


def unflatten_surface(vec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Inverse of flatten_surface: (..., A * T) -> (..., A, T), a view
    where the reshape allows one."""
    vec = np.asarray(vec)
    return vec.reshape(*vec.shape[:-1], grid.n_period, grid.n_age).swapaxes(-1, -2)
