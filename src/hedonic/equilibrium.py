"""Construct discrete hedonic equilibria from known primitives.

A market with sampled consumer types (x, eps) and producer types y
trades the quality that maximizes joint surplus over a fixed finite
quality grid; the matching solves the exact transport problem on the
maximized pairwise surplus, and prices split each matched pair's
surplus according to the dual potentials (pinned so the lowest-index
producer earns zero profit).  The emitted dataset feeds the
identification pipelines for round-trip validation; certify_dataset
checks such a dataset against the market of its seed without solving
the market again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .conjugate import bounding_box_mask
from .measures import (
    DistributionSpec,
    MarketDataset,
    from_samples,
    product_grid,
    row_blocks,
    write_json,
)
from .ot import DualPair, TransportPlan, solve_exact
from .surplus import _UNIT, AxisSplit, StructuralSpec

__all__ = [
    "EquilibriumOutcome",
    "EquilibriumReport",
    "GridBoundaryError",
    "build_z_grid",
    "simulate_market",
    "verify_equilibrium",
    "atomlessness_diagnostic",
    "write_equilibrium_report",
]

# Tolerance of verify_equilibrium; certify_dataset cuts tight arcs at half of
# it per side so that the pairs it joins meet support equality within it.
_TOL = 1e-7


class GridBoundaryError(RuntimeError):
    """Too many matched pairs maximize on the quality grid's boundary."""


def build_z_grid(lo, hi, resolution) -> np.ndarray:
    """Regular lattice over a box, endpoints included."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("grid box must satisfy lo < hi per axis")
    res = np.broadcast_to(np.asarray(resolution, dtype=int).ravel(), lo.shape)
    if np.any(res < 2):
        raise ValueError("grid resolution must be at least 2 per axis")
    return product_grid([np.linspace(lo[k], hi[k], res[k]) for k in range(lo.shape[0])])


@dataclass(frozen=True)
class EquilibriumOutcome:
    """One market: samples, matching, prices, and dataset view.

    consumer_gain and producer_cost hold U(x_i, eps_i, z_g) and C(y_j, z_g)
    on every point of z_grid, the market's only evaluation of U and C; the
    matched pair t trades the quality z_grid[traded_index[t]] at prices[t].
    """

    consumer_x: np.ndarray
    consumer_eps: np.ndarray
    producer_y: np.ndarray
    z_grid: np.ndarray
    consumer_gain: np.ndarray
    producer_cost: np.ndarray
    matching: TransportPlan
    duals: DualPair
    traded_index: np.ndarray
    prices: np.ndarray
    boundary_fraction: float
    maxplus: Optional[dict]  # path, grid_points, cells_dense (n m G), cells_evaluated

    @property
    def traded_z(self) -> np.ndarray:
        return self.z_grid[self.traded_index]

    @property
    def indirect_v(self) -> np.ndarray:
        return self.duals.w_source

    @property
    def indirect_w(self) -> np.ndarray:
        return self.duals.v_target

    @property
    def pair_source(self) -> np.ndarray:
        """Consumer index of each matched pair (the plan's support rows)."""
        return self.matching.support()[0]

    @property
    def n_pairs(self) -> int:
        return self.pair_source.shape[0]

    @property
    def dataset(self) -> MarketDataset:
        return MarketDataset(
            self.consumer_x[self.pair_source], self.traded_z, self.prices
        )


def _max_plus(consumer_gain: np.ndarray, producer_cost: np.ndarray, strides: list):
    """Max-plus product S_ij = max_g (gain[i, g] - cost[j, g]), and the
    number of cells it evaluated.

    Each consumer row is evaluated only on the grid points that a
    dominance certificate cannot exclude for any producer; S is
    bit-identical to the dense product.

    Partners: every point g is paired with g + s for each of the strides s
    (_partner_strides: the axis neighbours on a lattice, the next index on
    any other grid).  The partner choice sets only how much is pruned,
    never the result.

    Mask: point g leaves consumer row i's mask when, for some partner g',
    the rounded step gain[i, g'] - gain[i, g] is above every producer's
    rounded step cost[j, g'] - cost[j, g].  Each step is one rounded
    subtraction of exact inputs, and rounding is monotone, so a rounded
    step above another means a strictly larger real step: no tolerance is
    needed.  A dropped point therefore has a strictly larger real surplus
    at g' for every producer, and (again by monotone rounding) a float
    surplus at g' at least as large.  Real values rise strictly along a
    chain of drops, so every chain ends at a point kept for that row, and
    the max over the kept points is the dense max.  Zero entries are redone
    by _dense_entries.  The mask is a boolean built in row blocks
    (measures.row_blocks).

    Scan: each consumer row gathers its kept gain values once, and the
    same columns of the producer costs in row blocks (measures.row_blocks:
    about BLOCK_CELLS cells, or one producer row when the row keeps more
    columns); each block is subtracted and maxed in place.
    """
    n = consumer_gain.shape[0]
    m = producer_cost.shape[0]
    s = np.empty((n, m))
    if n == 0 or m == 0:
        return s, 0
    mask = _consumer_mask(consumer_gain, producer_cost, strides)
    cells = 0
    for i in range(n):
        kept = np.flatnonzero(mask[i])
        gain = consumer_gain[i, kept]
        for b in row_blocks(m, kept.size):
            diff = producer_cost[b][:, kept]
            np.subtract(gain, diff, out=diff)
            diff.max(axis=1, out=s[i, b])
        cells += m * kept.size
    return s, cells + _dense_entries(s, consumer_gain, producer_cost, *np.nonzero(s == 0))


def _dense_entries(s, consumer_gain, producer_cost, ii, jj) -> int:
    """Redo the entries (ii, jj) of s as the dense product computes them,
    one max over all G differences in grid order, in row blocks of pairs;
    returns the number of cells evaluated.

    _max_plus redoes every zero entry: numpy's max takes the sign of a
    zero reached as both +0.0 and -0.0 from the zeros' positions, which a
    partial scan changes."""
    g = consumer_gain.shape[1]
    for b in row_blocks(ii.size, g):
        s[ii[b], jj[b]] = (consumer_gain[ii[b]] - producer_cost[jj[b]]).max(axis=1)
    return ii.size * g


def _lattice_axes(grid: np.ndarray) -> Optional[list]:
    """Sorted unique values of each grid axis when the grid is exactly
    their row-major product (as build_z_grid makes it), else None."""
    axes = [np.unique(column) for column in grid.T]
    if grid.shape[0] == 0 or math.prod(t.size for t in axes) != grid.shape[0]:
        return None
    return axes if np.array_equal(product_grid(axes), grid) else None


def _lattice_strides(axes) -> np.ndarray:
    """Index step of each axis in the row-major product of axes."""
    sizes = [t.size for t in axes]
    return math.prod(sizes) // np.cumprod(sizes)


def _partner_strides(axes) -> list:
    """Partner strides of the pruned max-plus scan: the lattice strides of
    the axes of more than one value, or [1] (consecutive indices) when
    there are none or the grid is no lattice (axes None)."""
    if axes is None:
        return [1]
    return [int(s) for s, t in zip(_lattice_strides(axes), axes) if t.size > 1] or [1]


@dataclass(frozen=True)
class _AxisHull:
    """Upper hull of the points (t_r, f_r) of one lattice axis.

    point holds the axis index of each hull vertex, left to right, and
    neg_slopes minus the slope of each hull segment, strictly increasing.
    For each vertex v, right_slope bounds from above the exact slope
    (f_r - f_v) / (t_r - t_v) to every point r right of v, and right_gap
    is the distance to the nearest such point; left_slope bounds the
    slopes to the points left of v from below, and left_gap is the
    distance to the nearest of them.  A side without points has slope
    bound -inf (right) or inf (left) and gap inf, so it always passes.
    """

    point: np.ndarray
    neg_slopes: np.ndarray
    right_slope: np.ndarray
    right_gap: np.ndarray
    left_slope: np.ndarray
    left_gap: np.ndarray


def _axis_hull(t: np.ndarray, f: np.ndarray) -> _AxisHull:
    """Upper hull by a monotone chain over t (strictly increasing), with
    the slope bounds of every vertex.  A computed slope c = fl(fl(f_r -
    f_v) / fl(t_r - t_v)) is within 3 roundings of the exact slope, so
    c + 8u|c| bounds it from above and c - 8u|c| from below.

    Each vertex v first bounds the slopes to the points up to the next
    vertex w (right) or from the previous one (left).  The slope from v to
    a point r beyond w averages those from v to w and from w to r, weighted
    by t_w - t_v and t_r - t_w, so it is at most the larger of the two: a
    running max over the vertices, right to left, bounds every right
    slope, and a running min, left to right, every left slope.  Every
    point is taken once per side, so the bounds cost O(R)."""
    ts, fs = t.tolist(), f.tolist()
    hull = []
    for r in range(len(ts)):
        while len(hull) >= 2 and (
            (fs[hull[-1]] - fs[hull[-2]]) / (ts[hull[-1]] - ts[hull[-2]])
            <= (fs[r] - fs[hull[-1]]) / (ts[r] - ts[hull[-1]])
        ):
            hull.pop()
        hull.append(r)
    v = np.array(hull)
    neg_slopes = -(f[v[1:]] - f[v[:-1]]) / (t[v[1:]] - t[v[:-1]])
    # the chain runs from point 0 to point R - 1: up holds the slopes of
    # points 1 .. R - 1 from the vertex on their left, down those of points
    # 0 .. R - 2 from the vertex on their right, and in both the run of
    # segment q starts at index v[q]
    right_of = np.repeat(v[:-1], np.diff(v))
    left_of = np.repeat(v[1:], np.diff(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        up = (f[1:] - f[right_of]) / (t[1:] - t[right_of])
        down = (f[:-1] - f[left_of]) / (t[:-1] - t[left_of])
    right = np.full(v.size, -np.inf)
    left = np.full(v.size, np.inf)
    if v.size > 1:
        right[:-1] = np.maximum.reduceat(up + 8 * _UNIT * np.abs(up), v[:-1])
        left[1:] = np.minimum.reduceat(down - 8 * _UNIT * np.abs(down), v[:-1])
    after = np.append(t, np.inf)[v + 1] - t[v]
    before = t[v] - np.insert(t, 0, -np.inf)[v]
    return _AxisHull(v, neg_slopes, np.maximum.accumulate(right[::-1])[::-1], after,
                     np.minimum.accumulate(left), before)


def _axis_hull_max_plus(consumer_gain, producer_cost, axes, split: AxisSplit):
    """Max-plus product on a lattice whose U - C is an AxisSplit, and the
    number of cells it evaluated; S is bit-identical to _max_plus.

    With a_ijk = fl(alpha_ik + beta_jk) and gamma_ijk > 0 the axis-k
    scale (the product of the split's consumer and producer scales, 1 on
    a type-free axis), the structured value of pair (i, j) at grid point
    g is the sum over axes k of a_ijk t + gamma_ijk f_k(t) at g's axis-k
    value t, so its max over the lattice is the sum of the per-axis
    maxima.  On axis k that max is gamma times the max of (a / gamma) t +
    f_k(t) over the points (t_r, f_k(t_r)), which lies at the upper-hull
    vertex v whose segments to its neighbours have slopes on either side
    of -a / gamma: one searchsorted of a_hat = fl(a / gamma) against the
    negated segment slopes.  With gamma = 1, a_hat = a and every product
    with gamma is exact, so a type-free axis computes the same floats as
    a product without gamma.

    Certificate: let delta bound the rounding of the tensor difference
    T_ij(g) = gain[i, g] - cost[j, g] against the exact sum E_ij(g) of the
    expanded terms, and delta_k that of a t + gamma f_k(t) against its
    exact value (AxisSplit's errors bound delta + delta_k).  A tensor
    argmax g* has E(g*) >= max E - 2 delta, and since max E is the sum of
    the per-axis maxima, every axis of g* is within 2 delta of its exact
    axis max, and within 2 (delta + delta_k) of v's computed value.  A
    point r right of v trails v by gamma (t_r - t_v)(-a / gamma -
    slope(v, r)) >= gamma * right_gap * (-a / gamma - right_slope), and a
    point left of v by gamma * left_gap * (a / gamma + left_slope).  When
    both, computed with a_hat for a / gamma, exceed twice the bound
    2 (delta + delta_k), v is the only axis-k candidate: the factor 2
    covers the rounding of these few operations and that of a_hat, which
    moves a margin by at most gamma * gap * u |a / gamma| <= 2u t_max |a|
    (t_max the largest |t| on the axis), under a seventieth of the bound,
    since AxisSplit's errors hold gamma_K |slopes| t_max with K >= 36.
    When every axis of a pair passes, the tensor argmax is unique and is
    the product of the vertices, and S_ij is the gathered gain[i, g*] -
    cost[j, g*]: the same float the dense max returns, zero signs
    included, since every other point is strictly below it.  Pairs
    with an axis that fails (ties, near-ties, near-hull points inside the
    bound, or an a_hat that overflows) are redone over all G by
    _dense_entries.  Pairs run in row blocks of about BLOCK_CELLS pairs, so
    no temporary exceeds a few of them.
    """
    n, g = consumer_gain.shape
    m = producer_cost.shape[0]
    hulls = [_axis_hull(t, f) for t, f in zip(axes, split.axis_values)]
    strides = _lattice_strides(axes)
    s = np.empty((n, m))
    redo = np.empty((n, m), dtype=bool)
    cols = np.arange(m)
    # searchsorted runs two to three times faster on keys that grow along
    # memory.  a_hat grows with the consumer slope for each producer on an
    # axis whose scale the producers carry, and with the producer slope for
    # each consumer on the others, so each axis takes its pairs sorted on
    # that side (side 0 or 1 of the block) and puts its results back.
    by_consumer = [np.any(p_scale != 1.0) for _, p_scale in split.axis_scale]
    producer_order = [np.argsort(split.producer_slope[:, k], kind="stable") for k in range(len(axes))]
    for b in row_blocks(n, m):
        rows = np.arange(b.start, b.stop)
        index = np.zeros((rows.size, m), dtype=np.intp)
        ok = np.ones((rows.size, m), dtype=bool)
        for k, (hull, stride, (c_scale, p_scale)) in enumerate(
                zip(hulls, strides, split.axis_scale)):
            if by_consumer[k]:
                order = np.argsort(split.consumer_slope[rows, k], kind="stable")
                ii, jj, side = rows[order], cols, 0
            else:
                order = producer_order[k]
                ii, jj, side = rows, order, 1
            a = split.consumer_slope[ii, k, None] + split.producer_slope[None, jj, k]
            bound = 4.0 * (split.consumer_error[ii, k, None] + split.producer_error[None, jj, k])
            gamma = c_scale[ii, None] * p_scale[None, jj]
            # an a_hat that overflows to +-inf gets a nan or -inf margin, so
            # its pair is redone
            with np.errstate(over="ignore", invalid="ignore"):
                a_hat = a / gamma
                keys = np.moveaxis(a_hat, side, -1)
                q = np.moveaxis(np.searchsorted(hull.neg_slopes, keys), -1, side)
                passed = gamma * hull.right_gap[q] * (-a_hat - hull.right_slope[q]) > bound
                passed &= gamma * hull.left_gap[q] * (a_hat + hull.left_slope[q]) > bound
            back = np.argsort(order)
            ok &= np.take(passed, back, axis=side)
            index += np.take(hull.point[q] * stride, back, axis=side)
        s[rows] = consumer_gain[rows[:, None], index] - producer_cost[cols, index]
        redo[rows] = ~ok
    return s, n * m + _dense_entries(s, consumer_gain, producer_cost, *np.nonzero(redo))


def _joint_surplus(spec, x, eps, y, grid, consumer_gain, producer_cost):
    """S_ij = max_g (U_i - C_j)(z_g) by the per-axis hull route when the
    grid is a lattice and spec.axis_split applies, by _max_plus otherwise;
    and the maxplus facts of the simulate report."""
    axes = _lattice_axes(grid)
    split = None if axes is None else spec.axis_split(x, eps, y, axes)
    if split is None:
        surplus, cells = _max_plus(consumer_gain, producer_cost, _partner_strides(axes))
    else:
        surplus, cells = _axis_hull_max_plus(consumer_gain, producer_cost, axes, split)
    n, g = consumer_gain.shape
    return surplus, {
        "path": "pruned" if split is None else "axis-hull",
        "grid_points": g,
        "cells_dense": n * producer_cost.shape[0] * g,
        "cells_evaluated": cells,
    }


def _steps(block: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Steps v[:, k + s] - v[:, k] of the rows v of block, written into
    out.  One subtraction over the flattened rows does every row at once;
    the differences across row ends land in out's last s columns, which
    the returned view leaves out."""
    flat = np.ascontiguousarray(block).reshape(-1)
    out = out[: block.shape[0]]
    np.subtract(flat[s:], flat[:-s], out=out.reshape(-1)[:-s])
    return out[:, : block.shape[1] - s]


def _step_range(values: np.ndarray, strides: list) -> list:
    """(max, min) over rows of each partner step, per stride."""
    blocks = row_blocks(*values.shape)
    buf = np.empty((blocks[0].stop, values.shape[1]))
    ranges = []
    for s in strides:
        high = np.full(values.shape[1] - s, -np.inf)
        low = np.full(values.shape[1] - s, np.inf)
        for b in blocks:
            step = _steps(values[b], s, buf)
            np.maximum(high, step.max(axis=0), out=high)
            np.minimum(low, step.min(axis=0), out=low)
        ranges.append((high, low))
    return ranges


def _consumer_mask(consumer_gain: np.ndarray, producer_cost: np.ndarray, strides: list):
    """Grid points each consumer row keeps (see _max_plus): with (up, down)
    the (max, min) over producers of the cost step of a stride s, a row
    drops point k when its gain step to k + s is above up[k], and point
    k + s when that step is below down[k]."""
    n, g = consumer_gain.shape
    keep = np.ones((n, g), dtype=bool)
    limits = _step_range(producer_cost, strides)
    blocks = row_blocks(n, g)
    buf = np.empty((blocks[0].stop, g))
    drop = np.empty((blocks[0].stop, g), dtype=bool)
    for b in blocks:
        kept = keep[b]
        dropped = drop[: kept.shape[0]]
        for s, (up, down) in zip(strides, limits):
            step = _steps(consumer_gain[b], s, buf)
            np.greater(step, up, out=dropped[:, :-s])
            dropped[:, -s:] = False
            dropped[:, s:] |= step < down
            kept &= ~dropped
    return keep


def sample_types(
    x_spec: DistributionSpec,
    eps_spec: DistributionSpec,
    producer_spec: DistributionSpec,
    n_consumers: int,
    n_producers: int,
    seed: int = 0,
):
    """The consumer types (x, eps) and producer types y that `seed` draws,
    from three child streams of SeedSequence(seed)."""
    seeds = np.random.SeedSequence(seed).spawn(3)
    x = x_spec.sample(n_consumers, np.random.default_rng(seeds[0]))
    eps = eps_spec.sample(n_consumers, np.random.default_rng(seeds[1]))
    y = producer_spec.sample(n_producers, np.random.default_rng(seeds[2]))
    return x, eps, y


def _grid_tensors(spec: StructuralSpec, x, eps, y, grid):
    """U(x_i, eps_i, z_g) and C(y_j, z_g) on every grid point; must be finite."""
    consumer_gain = spec.u_bar.pairwise_grid(x, grid) + spec.zeta.pairwise_consumer_grid(
        x, eps, grid
    )
    producer_cost = spec.cost.pairwise_grid(y, grid)
    if not (np.all(np.isfinite(consumer_gain)) and np.all(np.isfinite(producer_cost))):
        raise ValueError("surplus is not finite on the quality grid")
    return consumer_gain, producer_cost


def _outcome(x, eps, y, grid, consumer_gain, producer_cost, plan, duals, traded_index,
             prices, maxplus, boundary_threshold) -> EquilibriumOutcome:
    """The outcome in which matched pair t of `plan` trades the quality
    grid[traded_index[t]] at prices[t].  Aborts when the share of matched
    mass trading a quality on the grid's bounding box exceeds
    `boundary_threshold`: stability on the grid says nothing about
    qualities beyond it."""
    mass = plan.support()[2]
    boundary_fraction = 0.0  # a certificate whose maximum flow is 0 matches no mass
    if mass.size:
        boundary_fraction = float(mass[bounding_box_mask(grid)[traded_index]].sum() / mass.sum())
    if boundary_fraction > boundary_threshold:
        raise GridBoundaryError(
            f"{boundary_fraction:.1%} of matched mass maximizes on the quality grid boundary "
            f"(threshold {boundary_threshold:.1%}); enlarge the grid box"
        )
    return EquilibriumOutcome(
        consumer_x=x,
        consumer_eps=eps,
        producer_y=y,
        z_grid=grid,
        consumer_gain=consumer_gain,
        producer_cost=producer_cost,
        matching=plan,
        duals=duals,
        traded_index=traded_index,
        prices=prices,
        boundary_fraction=boundary_fraction,
        maxplus=maxplus,
    )


def _pair_argmax(consumer_gain, producer_cost, ii, jj) -> np.ndarray:
    """Grid argmax of gain[i] - cost[j] for each pair (i, j) of (ii, jj),
    taken over row blocks of pairs."""
    arg = np.empty(ii.size, dtype=np.intp)
    for b in row_blocks(ii.size, consumer_gain.shape[1]):
        arg[b] = np.argmax(consumer_gain[ii[b]] - producer_cost[jj[b]], axis=1)
    return arg


def simulate_market(
    spec: StructuralSpec,
    x_spec: DistributionSpec,
    eps_spec: DistributionSpec,
    producer_spec: DistributionSpec,
    n_consumers: int,
    n_producers: int,
    z_grid,
    seed: int = 0,
    boundary_threshold: float = 0.01,
) -> EquilibriumOutcome:
    """Sample types, match them optimally, and split surplus into prices.

    The traded quality of a matched pair is the grid argmax of the
    pair's joint surplus; prices are C(y, z*) + W(y) with the producer
    potentials pinned so producer 0 earns zero, and the consumer side
    of the split then holds by complementary slackness.  Aborts when
    the mass of boundary-argmax matched pairs exceeds
    `boundary_threshold`.
    """
    if n_consumers < 1 or n_producers < 1:
        raise ValueError("need at least one consumer and one producer")
    grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    x, eps, y = sample_types(x_spec, eps_spec, producer_spec, n_consumers, n_producers, seed)
    consumer_gain, producer_cost = _grid_tensors(spec, x, eps, y, grid)
    surplus, maxplus = _joint_surplus(spec, x, eps, y, grid, consumer_gain, producer_cost)

    mu = from_samples(np.column_stack([x, eps]))
    nu = from_samples(y)
    plan, duals = solve_exact(mu, nu, surplus)
    # re-pin: lowest-index producer earns zero profit
    shift = duals.v_target[0]
    duals = DualPair(duals.w_source + shift, duals.v_target - shift, 0)

    # the quality argmax is only needed on the matched pairs
    ii, jj, _ = plan.support()
    pair_arg = _pair_argmax(consumer_gain, producer_cost, ii, jj)
    prices = producer_cost[jj, pair_arg] + duals.v_target[jj]
    return _outcome(x, eps, y, grid, consumer_gain, producer_cost, plan, duals, pair_arg,
                    prices, maxplus, boundary_threshold)


def _row_index(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Index in `table` of each row of z (the first, if a row repeats), -1
    for a row that is not in the table.  Rows compare exactly, as ==
    compares floats: a dataset written by simulate holds the grid's and the
    types' floats as exact repr strings."""
    index = {}
    for k, point in enumerate(map(tuple, table.tolist())):
        index.setdefault(point, k)
    return np.array([index.get(tuple(row), -1) for row in z.tolist()], dtype=np.intp)


def _tight_arcs(consumer_gain, producer_cost, row_grid, p, consumer_x, row_x):
    """(v, ci, ck) and (w, pj, pk) of certify_dataset: each consumer's and
    each producer's best row value, and the tight consumer -> row arcs
    (ci, ck) and row -> producer arcs (pj, pk) in row-major order.  Row k
    trades grid point row_grid[k] at p[k], and consumer i may buy it when
    consumer_x[i] == row_x[k].  Taken over row blocks, in row order."""
    v, w = np.empty(consumer_gain.shape[0]), np.empty(producer_cost.shape[0])
    ci, ck, pj, pk = [], [], [], []
    for b in row_blocks(v.size, row_grid.size):
        net = consumer_gain[b][:, row_grid] - p
        v[b] = net.max(axis=1)
        i, k = np.nonzero((consumer_x[b, None] == row_x) & (net >= v[b, None] - _TOL / 2))
        ci.append(i + b.start)
        ck.append(k)
    for b in row_blocks(w.size, row_grid.size):
        profit = p - producer_cost[b][:, row_grid]
        w[b] = profit.max(axis=1)
        j, k = np.nonzero(profit >= w[b, None] - _TOL / 2)
        pj.append(j + b.start)
        pk.append(k)
    return (v, *map(np.concatenate, (ci, ck))), (w, *map(np.concatenate, (pj, pk)))


def certify_dataset(
    spec: StructuralSpec,
    x_spec: DistributionSpec,
    eps_spec: DistributionSpec,
    producer_spec: DistributionSpec,
    n_consumers: int,
    n_producers: int,
    z_grid,
    dataset: MarketDataset,
    seed: int = 0,
    boundary_threshold: float = 0.01,
):
    """An equilibrium of the market that `seed` draws, built from the
    posted prices of `dataset` without a max-plus product or a transport
    solve, for verify_equilibrium to check.

    Returns (outcome, facts).  When the dataset cannot belong to this
    market (its x or z widths differ from the config's, a z row is no
    grid point, or an x row is none of this seed's consumer draws),
    outcome is None and facts["dataset_matches_replay"] is False.
    Otherwise, with rows k = 1..K of (x_k, z_k, p_k) and the types that
    sample_types draws:

    - every consumer buys its best row and every producer sells its best
      row: v_i = max_k U_i(z_k) - p_k and w_j = max_k p_k - C_j(z_k);
    - an arc i -> k is tight when x_i = x_k and U_i(z_k) - p_k is within
      _TOL / 2 of v_i, and an arc k -> j when p_k - C_j(z_k) is within
      _TOL / 2 of w_j, so a pair joined through a row meets support
      equality within verify_equilibrium's tolerance _TOL;
    - one maximum flow source -> consumer -> row -> producer -> sink on
      the tight arcs, with capacity L / n out of the source and L / m into
      the sink for L = lcm(n, m), looks for a clearing plan: each
      consumer and producer then trades mass flow / L.  The flow through
      a row is split over its consumers and producers in order (north-west
      corner); a pair joined through several rows trades the quality of
      the first.

    facts counts the dataset rows, the tight arcs, and the flow value
    against L; a flow below L leaves some mass unmatched, which
    verify_equilibrium reports as a clearing failure.  As simulate_market
    does, aborts when the plan's mass trading on the grid's bounding box
    exceeds `boundary_threshold`.

    Memory: no n x K or m x K array is built.  Consumers and producers are
    taken in row blocks of about BLOCK_CELLS cells: each block
    gathers its U or C at the K rows' qualities, takes v or w and its
    tight arcs, and is dropped.  A consumer shares x with a row when both
    map to the same first consumer with that x.  Blocks run in row order,
    so the arcs come out in the row-major order of one np.nonzero over the
    whole n x K and m x K tests, and the flow and the facts are those of
    that one-shot form.
    """
    if n_consumers < 1 or n_producers < 1:
        raise ValueError("need at least one consumer and one producer")
    n, m, rows = n_consumers, n_producers, dataset.n
    lcm = math.lcm(n, m)
    if lcm > np.iinfo(np.int32).max:
        raise ValueError(f"lcm({n}, {m}) = {lcm} exceeds the flow capacity range")
    grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    x, eps, y = sample_types(x_spec, eps_spec, producer_spec, n, m, seed)
    facts = {"dataset_rows": rows, "dataset_matches_replay": False}
    if dataset.d_x != x.shape[1] or dataset.d_z != grid.shape[1]:
        return None, facts
    row_grid = _row_index(grid, dataset.z)
    # consumer i and row k share x when their x's first consumer is the same
    consumer_x, row_x = _row_index(x, x), _row_index(x, dataset.x)
    if np.any(row_grid < 0) or np.any(row_x < 0):
        return None, facts
    facts["dataset_matches_replay"] = True

    consumer_gain, producer_cost = _grid_tensors(spec, x, eps, y, grid)
    (v, ci, ck), (w, pj, pk) = _tight_arcs(
        consumer_gain, producer_cost, row_grid, dataset.p, consumer_x, row_x
    )

    # nodes: source 0, consumers 1..n, rows n+1..n+K, producers, sink
    first_row, first_producer = 1 + n, 1 + n + rows
    sink = first_producer + m
    arc_tail = np.concatenate([np.zeros(n, np.intp), 1 + ci, first_row + pk,
                               first_producer + np.arange(m)])
    arc_head = np.concatenate([1 + np.arange(n), first_row + ck, first_producer + pj,
                               np.full(m, sink)])
    cap = np.repeat([lcm // n, lcm // n, lcm // m, lcm // m], [n, ci.size, pj.size, m])
    graph = csr_matrix(
        (cap.astype(np.int32), (arc_tail, arc_head)), shape=(sink + 1, sink + 1)
    )
    result = maximum_flow(graph, 0, sink)
    facts.update(
        tight_arcs=int(ci.size + pj.size),
        flow_value=int(result.flow_value),
        flow_lcm=lcm,
    )

    # the flow's arcs out of consumers and out of rows, each ordered by row,
    # carry intervals of one running total that meet at every row end (a
    # row passes on what it receives); pairing the intervals that overlap
    # splits each row's flow north-west corner
    flow = result.flow.tocoo()
    moved = flow.data > 0
    tail, head, units = flow.row[moved], flow.col[moved], flow.data[moved]
    buy = np.flatnonzero((tail >= 1) & (tail < first_row))
    buy = buy[np.lexsort((tail[buy], head[buy]))]
    sell = np.flatnonzero((tail >= first_row) & (tail < first_producer))
    sell = sell[np.lexsort((head[sell], tail[sell]))]
    buy_end = np.cumsum(units[buy])
    sell_end = np.cumsum(units[sell])
    ends = np.union1d(buy_end, sell_end)
    buy = buy[np.searchsorted(buy_end, ends)]
    sell = sell[np.searchsorted(sell_end, ends)]
    keys, first, inverse = np.unique(
        (tail[buy] - 1) * m + head[sell] - first_producer,
        return_index=True, return_inverse=True,
    )
    buyers, sellers = keys // m, keys % m
    mass = np.bincount(inverse.ravel(), np.diff(ends, prepend=0), minlength=keys.size) / lcm
    pair_row = head[buy][first] - first_row
    traded_index = row_grid[pair_row]
    objective = float(
        mass @ (consumer_gain[buyers, traded_index] - producer_cost[sellers, traded_index])
    )
    plan = TransportPlan(buyers, sellers, mass, (n, m), objective)
    outcome = _outcome(x, eps, y, grid, consumer_gain, producer_cost, plan, DualPair(v, w, 0),
                       traded_index, dataset.p[pair_row], None, boundary_threshold)
    return outcome, facts


@dataclass(frozen=True)
class EquilibriumReport:
    passed: bool
    stability_min_margin: float
    support_equality_max_dev: float
    price_split_max_dev: float
    clearing_max_dev: float
    consumer_deviation_max_gain: float
    producer_deviation_max_gain: float
    boundary_fraction: float
    failures: list

    def to_dict(self) -> dict:
        return asdict(self)


def _envelope_margin(consumer_gain, producer_cost, v, w):
    """Stability margin min_z [min_j (C_jz + w_j) - max_i (U_iz - v_i)] over
    the grid (see verify_equilibrium), with its grid point g and the
    consumer i and producer j that attain it there: (margin, g, i, j).

    Both sides are running maxima and minima over row blocks; a max or min
    returns one of its inputs, so blocking changes no value."""
    points = consumer_gain.shape[1]
    upper = np.full(points, -np.inf)
    for b in row_blocks(v.shape[0], points):
        np.maximum(upper, (consumer_gain[b] - v[b, None]).max(axis=0), out=upper)
    lower = np.full(points, np.inf)
    for b in row_blocks(w.shape[0], points):
        np.minimum(lower, (producer_cost[b] + w[b, None]).min(axis=0), out=lower)
    gap = lower - upper
    g = int(np.argmin(gap))
    i = int(np.argmax(consumer_gain[:, g] - v))
    j = int(np.argmin(producer_cost[:, g] + w))
    return float(gap[g]), g, i, j


def _best_trades(consumer_gain, producer_cost, traded_index, prices):
    """Each consumer's best net utility, max_k fl(U(z_k) - p_k), and each
    producer's best profit, max_k fl(p_k - C(z_k)), over the trades k at
    grid points traded_index with prices p, scanned over the distinct traded
    qualities at their lowest and highest price (see verify_equilibrium), a
    row block at a time."""
    quality, at = np.unique(traded_index, return_inverse=True)
    low = np.full(quality.size, np.inf)
    high = np.full(quality.size, -np.inf)
    np.minimum.at(low, at, prices)
    np.maximum.at(high, at, prices)
    best_net = np.empty(consumer_gain.shape[0])
    for b in row_blocks(best_net.size, quality.size):
        best_net[b] = (consumer_gain[b][:, quality] - low).max(axis=1)
    best_profit = np.empty(producer_cost.shape[0])
    for b in row_blocks(best_profit.size, quality.size):
        best_profit[b] = (high - producer_cost[b][:, quality]).max(axis=1)
    return best_net, best_profit


def verify_equilibrium(outcome: EquilibriumOutcome) -> EquilibriumReport:
    """Check stability, the two-sided price split, market clearing, and
    the no-profitable-deviation conditions on traded qualities.

    Stability is checked on the hedonic price envelope, in O((n + m) G)
    work and without the n x m joint surplus S_ij = max_z (U_iz - C_jz)
    over the grid points z.  Stability asks v_i + w_j >= S_ij for every
    consumer i and producer j, that is v_i + w_j >= U_iz - C_jz for every
    (i, j, z), or C_jz + w_j >= U_iz - v_i.  For fixed z the smallest left
    side and the largest right side are taken independently, so stability
    holds if and only if

        max_i (U_iz - v_i) <= min_j (C_jz + w_j)    at every grid point z,

    and min_z of the difference equals min_ij (v_i + w_j - S_ij) up to
    rounding (Chiappori, McCann & Nesheim, Econ. Theory 42, 2010).  A
    violation names the consumer and producer that attain the two sides
    at the worst z.  Support equality v_i + w_j = U_iz - C_jz is checked
    on each matched pair at its traded quality z.  Every check reads U and C
    from the outcome's grid tensors, the values the market was solved on,
    and every check but clearing allows _TOL.

    Memory: beside the grid tensors, every scan holds one block of about
    BLOCK_CELLS cells and O(n + m + G) vectors.  The envelope
    takes its maxima and minima over row blocks.  The deviation scans run
    over the D distinct traded qualities, not the n_pairs trades: rounding
    is monotone, so fl(U_iz - p) does not increase as p grows, and the
    best trade of consumer i at quality z, max_k fl(U_iz - p_k) over the
    trades k at z, is fl(U_iz - min_k p_k); a producer's best is
    fl(max_k p_k - C_jz) in the same way.  So the n x D and m x D scans,
    in row blocks, give the floats of the n x n_pairs and m x n_pairs
    ones; only a best of zero reached both as -0.0 - (+0.0) and as +0.0
    may keep the other zero's sign.
    """
    failures = []
    v = outcome.indirect_v
    w = outcome.indirect_w
    n = v.shape[0]
    m = w.shape[0]
    src, tgt, _ = outcome.matching.support()
    n_pairs = src.shape[0]

    stability_min, g, i, j = _envelope_margin(
        outcome.consumer_gain, outcome.producer_cost, v, w
    )
    if stability_min < -_TOL:
        failures.append(
            f"stability violated by consumer {i} with producer {j} at grid point "
            f"{g}: margin {stability_min:.3e}"
        )

    # U and C of each matched pair at its traded quality
    u_pairs = outcome.consumer_gain[src, outcome.traded_index]
    c_pairs = outcome.producer_cost[tgt, outcome.traded_index]

    pair_margin = v[src] + w[tgt] - (u_pairs - c_pairs)
    sup_dev = float(np.abs(pair_margin).max(initial=0.0))
    if sup_dev > _TOL:
        failures.append(f"support pairs miss surplus equality by {sup_dev:.3e}")

    # both sides of the split must reproduce the price
    consumer_price = u_pairs - v[src]
    producer_price = c_pairs + w[tgt]
    split_dev = float(
        max(
            np.abs(consumer_price - outcome.prices).max(initial=0.0),
            np.abs(producer_price - outcome.prices).max(initial=0.0),
        )
    )
    if split_dev > _TOL:
        failures.append(f"price split inconsistent by {split_dev:.3e}")

    clearing = outcome.matching.marginal_error(
        np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    )
    if clearing > 1e-9:
        failures.append(f"market clearing violated by {clearing:.3e}")

    # deviations to other traded qualities at their posted prices
    consumer_dev = -np.inf
    producer_dev = -np.inf
    if n_pairs > 1:
        best_net, best_profit = _best_trades(
            outcome.consumer_gain, outcome.producer_cost, outcome.traded_index, outcome.prices
        )
        gain = best_net[src] - (u_pairs - outcome.prices)
        consumer_dev = float(gain.max())
        if consumer_dev > _TOL:
            t = int(np.argmax(gain))
            failures.append(
                f"consumer {int(src[t])} gains "
                f"{consumer_dev:.3e} by switching traded quality"
            )
        gain_p = best_profit[tgt] - (outcome.prices - c_pairs)
        producer_dev = float(gain_p.max())
        if producer_dev > _TOL:
            t = int(np.argmax(gain_p))
            failures.append(
                f"producer {int(tgt[t])} gains "
                f"{gain_p.max():.3e} by switching traded quality"
            )

    return EquilibriumReport(
        passed=not failures,
        stability_min_margin=stability_min,
        support_equality_max_dev=sup_dev,
        price_split_max_dev=split_dev,
        clearing_max_dev=clearing,
        consumer_deviation_max_gain=consumer_dev,
        producer_deviation_max_gain=producer_dev,
        boundary_fraction=outcome.boundary_fraction,
        failures=failures,
    )


def atomlessness_diagnostic(outcome: EquilibriumOutcome) -> dict:
    """Advisory duplicate scan over traded qualities.

    With an absolutely continuous taste law and a fine grid, matched
    pairs with distinct taste draws should rarely trade the same
    quality; coincidences are reported and attributed to grid
    quantization or to atoms in the inputs.
    """
    if outcome.n_pairs < 2:
        return {"n_pairs": int(outcome.n_pairs), "applicable": False}
    uniq, inverse, counts = np.unique(
        outcome.traded_z, axis=0, return_inverse=True, return_counts=True
    )
    # one row per distinct (quality group, taste) combination
    combos = np.unique(
        np.column_stack([inverse, outcome.consumer_eps[outcome.pair_source]]), axis=0
    )
    distinct_eps = np.bincount(combos[:, 0].astype(int), minlength=uniq.shape[0])
    extra = counts - 1
    quantization = int(extra[distinct_eps > 1].sum())
    input_driven = int(extra[distinct_eps == 1].sum())
    return {
        "applicable": True,
        "n_pairs": int(outcome.n_pairs),
        "n_distinct_qualities": int(uniq.shape[0]),
        "duplicates_from_grid_quantization": quantization,
        "duplicates_from_atomic_inputs": input_driven,
        "note": "coincidences among distinct tastes reflect grid resolution",
    }


def write_equilibrium_report(report: EquilibriumReport, extra: dict, path) -> None:
    payload = dict(extra)
    payload["verification"] = report.to_dict()
    write_json(payload, path)
