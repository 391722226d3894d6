"""Grid-based surplus conjugation and convexity checks.

The conjugate of a tabulated potential V with respect to a surplus
family is computed by exhaustive scan over the opposing grid:
V^zeta(eps) = max_z [zeta(x, eps, z) - V(z)].  Double conjugation gives
the surplus-convex envelope, which never exceeds V; equality (up to a
tolerance) is the zeta-convexity test.  The classical Legendre-Fenchel
transform is the bilinear special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import (
    DiscreteMeasure,
    coordinate_header,
    from_samples,
    product_grid,
    read_float_table,
    write_float_table,
)
from .surplus import SurplusFamily

# Gains this many ulps of max(|S| + |V|) below a boundary argmax still tie
# with it: such an interior quality clears the truncation warning.
_TIE_ULPS = 4
# Tolerance of is_zeta_convex.
_ZETA_CONVEX_TOL = 1e-7

__all__ = [
    "GridFunction",
    "zeta_conjugate",
    "double_conjugate",
    "is_zeta_convex",
    "legendre",
    "eps_grid_from_gradients",
    "write_grid_function_csv",
    "read_grid_function_csv",
]


@dataclass(frozen=True)
class GridFunction:
    """Function tabulated on the points of a grid (weights ignored).

    Conjugation results carry the per-point argmax index into the
    scanned grid and a flag marking argmaxes on the scanned grid's
    bounding box (a truncation warning: the true sup may lie outside).
    """

    grid: DiscreteMeasure
    values: np.ndarray
    argmax: Optional[np.ndarray] = None
    boundary_hit: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True).ravel()
        if vals.shape[0] != self.grid.n:
            raise ValueError("values must align with grid points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.grid.n


def _as_points(grid) -> np.ndarray:
    pts = grid.points if hasattr(grid, "points") else grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    return pts


def bounding_box_mask(points: np.ndarray) -> np.ndarray:
    """True where a point has any coordinate on the grid's bounding box."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    on_face = (points == lo[None, :]) | (points == hi[None, :])
    return on_face.any(axis=1)


def zeta_conjugate(
    v: GridFunction, f: SurplusFamily, x, eps_grid
) -> GridFunction:
    """V^zeta over eps_grid by exhaustive scan of V's quality grid.

    Ties break to the lowest scanned index.  An argmax on the quality
    grid's bounding box is flagged as a truncation warning unless an
    interior quality's gain is within _TIE_ULPS ulps of max(|S| + |V|)
    of the max.
    """
    eps_pts = _as_points(eps_grid)
    z_pts = v.grid.points
    s = f.pairwise(x, eps_pts, z_pts)  # (n_eps, n_z)
    gains = s - v.values[None, :]
    arg = np.argmax(gains, axis=1)  # first max -> lowest index
    vals = np.take_along_axis(gains, arg[:, None], axis=1)[:, 0]
    on_box = bounding_box_mask(z_pts)
    boundary = on_box[arg]
    if boundary.any() and not on_box.all():
        # an interior quality within rounding of the max clears the flag, so
        # last-digit changes in V cannot move the warning count
        scale = np.abs(s[boundary]).max(axis=1) + np.abs(v.values).max()
        interior = gains[np.ix_(boundary, ~on_box)].max(axis=1)
        boundary[boundary] = interior < vals[boundary] - _TIE_ULPS * np.spacing(scale)
    return GridFunction(from_samples(eps_pts), vals, arg, boundary)


def double_conjugate(
    v: GridFunction, f: SurplusFamily, x, eps_grid
) -> GridFunction:
    """V^{zeta zeta} on V's own grid; satisfies V^{zeta zeta} <= V pointwise."""
    conj = zeta_conjugate(v, f, x, eps_grid)
    eps_pts = conj.grid.points
    s = f.pairwise(x, eps_pts, v.grid.points)  # (n_eps, n_z)
    gains = s - conj.values[:, None]
    arg = np.argmax(gains, axis=0)
    vals = np.take_along_axis(gains, arg[None, :], axis=0)[0]
    boundary = bounding_box_mask(eps_pts)[arg]
    return GridFunction(v.grid, vals, arg, boundary)


def is_zeta_convex(v: GridFunction, f: SurplusFamily, x, eps_grid):
    """True iff the surplus-convex envelope matches V within _ZETA_CONVEX_TOL.

    Returns (flag, max deviation); the deviation is max |V^{zz} - V|
    over the grid.
    """
    env = double_conjugate(v, f, x, eps_grid)
    dev = float(np.abs(env.values - v.values).max())
    return dev <= _ZETA_CONVEX_TOL, dev


def legendre(v: GridFunction, eps_grid) -> GridFunction:
    """Convex (Legendre-Fenchel) conjugate: the bilinear-surplus case."""
    f = SurplusFamily.bilinear(v.grid.dim)
    return zeta_conjugate(v, f, np.zeros(0), eps_grid)


def eps_grid_from_gradients(
    gradients: np.ndarray, resolution: int = 50, padding: float = 0.1
) -> np.ndarray:
    """Taste grid covering observed quality-gradient values.

    Builds a regular lattice over the bounding box of the supplied
    gradient vectors, padded by `padding` per side; conjugates are only
    trustworthy where the sup is attained inside such a box.
    """
    g = np.atleast_2d(np.asarray(gradients, dtype=float))
    lo = g.min(axis=0)
    hi = g.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    lo = lo - padding * span
    hi = hi + padding * span
    return product_grid([np.linspace(lo[k], hi[k], resolution) for k in range(g.shape[1])])


def write_grid_function_csv(gf: GridFunction, path) -> None:
    """Header c_1..c_d,value."""
    write_float_table(path, coordinate_header(gf.grid.dim) + ["value"], gf.grid.points, gf.values)


def read_grid_function_csv(path) -> GridFunction:
    """Inverse of write_grid_function_csv: the header must be exactly
    c_1..c_d,value."""
    header, arr = read_float_table(path, "grid-function")
    if header != coordinate_header(len(header) - 1) + ["value"]:
        raise ValueError(f"unrecognized grid-function header {header}")
    return GridFunction(from_samples(arr[:, :-1]), arr[:, -1])
