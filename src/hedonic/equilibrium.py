"""Construct discrete hedonic equilibria from known primitives.

A market with sampled consumer types (x, eps) and producer types y
trades the quality that maximizes joint surplus over a fixed finite
quality grid; the matching solves the exact transport problem on the
maximized pairwise surplus, and prices split each matched pair's
surplus according to the dual potentials (pinned so the lowest-index
producer earns zero profit).  The emitted dataset feeds the
identification pipelines for round-trip validation.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conjugate import bounding_box_mask
from .measures import DistributionSpec, MarketDataset, from_samples, write_json
from .ot import DualPair, TransportPlan, solve_exact
from .surplus import StructuralSpec

__all__ = [
    "EquilibriumOutcome",
    "EquilibriumReport",
    "GridBoundaryError",
    "build_z_grid",
    "joint_surplus",
    "simulate_market",
    "verify_equilibrium",
    "atomlessness_diagnostic",
    "write_equilibrium_report",
]

# Cells per producer block of the max-plus product: 2^15 doubles (256 KB)
# keep the difference buffer in cache.
_MAXPLUS_BLOCK_CELLS = 32768
# Consumers x producers per tile of the pruned max-plus product: each tile
# gathers its candidate columns once, and its 16 consumer rows share them.
_MAXPLUS_TILE = (16, 128)
# Dense cells n * m * G below which the max-plus product runs on the calling
# thread: on smaller products the GIL hand-offs between many small numpy
# calls cost more than splitting the rows saves.
_MAXPLUS_THREAD_CELLS = 1 << 22


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
    axes = [np.linspace(lo[k], hi[k], res[k]) for k in range(lo.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def joint_surplus(spec: StructuralSpec, x_tilde, y_tilde, z_grid):
    """Maximized joint surplus of one consumer-producer pair.

    Returns (value, argmax quality, interior flag); ties break to the
    lowest grid index, and argmaxes touching the grid's bounding box
    clear the interior flag.
    """
    x, eps = x_tilde
    grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    gains = (
        spec.u_bar.pairwise_grid(np.atleast_2d(x), grid)[0]
        + spec.zeta.pairwise_consumer_grid(
            np.atleast_2d(x), np.atleast_2d(eps), grid
        )[0]
        - spec.cost.pairwise_grid(np.atleast_2d(y_tilde), grid)[0]
    )
    if not np.all(np.isfinite(gains)):
        raise ValueError("joint surplus is not finite on the grid")
    arg = int(np.argmax(gains))
    interior = not bool(bounding_box_mask(grid)[arg])
    return float(gains[arg]), grid[arg].copy(), interior


@dataclass(frozen=True)
class EquilibriumOutcome:
    """One simulated market: samples, matching, prices, and dataset view."""

    spec: StructuralSpec
    consumer_x: np.ndarray
    consumer_eps: np.ndarray
    producer_y: np.ndarray
    matching: TransportPlan
    duals: DualPair
    surplus: np.ndarray
    traded_z: np.ndarray
    prices: np.ndarray
    boundary_fraction: float
    maxplus: dict  # grid_points, cells_dense (n m G), cells_evaluated

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
    def pair_target(self) -> np.ndarray:
        """Producer index of each matched pair (the plan's support columns)."""
        return self.matching.support()[1]

    @property
    def n_pairs(self) -> int:
        return self.pair_source.shape[0]

    @property
    def dataset(self) -> MarketDataset:
        return MarketDataset(
            self.consumer_x[self.pair_source], self.traded_z, self.prices
        )

    def consumer_utilities_at(self, z_points: np.ndarray) -> np.ndarray:
        """U(x_i, eps_i, z_k) for every consumer i and quality row k."""
        return self.spec.u_bar.pairwise_grid(
            self.consumer_x, z_points
        ) + self.spec.zeta.pairwise_consumer_grid(
            self.consumer_x, self.consumer_eps, z_points
        )

    def producer_costs_at(self, z_points: np.ndarray) -> np.ndarray:
        """C(y_j, z_k) for every producer j and quality row k."""
        return self.spec.cost.pairwise_grid(self.producer_y, z_points)


def _maxplus_workers(n: int) -> int:
    """Threads for an n-row max-plus product: one per CPU this process may
    run on, at most one per row."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n))


def _pairwise_max_surplus(consumer_gain: np.ndarray, producer_cost: np.ndarray, grid=None):
    """Max-plus product S_ij = max_g (gain[i, g] - cost[j, g]).

    Each pair is evaluated only on the grid points that a dominance
    certificate cannot exclude; S is bit-identical to the dense product.

    Partners: for each grid axis, every point is paired with its previous
    and next point in a lexsort along that axis (the axis neighbours on a
    build_z_grid lattice; consecutive indices when no grid is given).  The
    partner choice sets only how much is pruned, never the result, so any
    grid works, scattered or with duplicate points.

    Masks: point g leaves consumer row i's mask when, for some partner g',
    the rounded step gain[i, g'] - gain[i, g] is above every producer's
    rounded step cost[j, g'] - cost[j, g]; it leaves producer row j's mask
    when j's rounded cost step is below every consumer's gain step.  Each
    step is one rounded subtraction of exact inputs, and rounding is
    monotone, so a rounded step above another means a strictly larger real
    step: no tolerance is needed.  A dropped point therefore has a strictly
    larger real surplus at g' for every pair it was dropped for, and (again
    by monotone rounding) a float surplus at g' at least as large.  Real
    values rise strictly along a chain of drops, so every chain ends at a
    point kept for that pair, and the max over the kept points is the dense
    max, bit for bit.  The masks are booleans built in row chunks of about
    _MAXPLUS_BLOCK_CELLS cells.

    Tiles: consumers and producers are ordered by the mean kept grid index
    of their masks and cut into tiles of _MAXPLUS_TILE rows; a tile is
    evaluated on the union of its consumers' masks intersected with the
    union of its producers' masks.  It gathers those gain columns once, and
    those cost columns in blocks of at most _MAXPLUS_BLOCK_CELLS cells (one
    producer row when a tile keeps more columns); every consumer row of the
    tile then runs np.subtract and max(axis=1) on a block into a reused
    buffer of the same size.  Row tiles are split into contiguous ranges
    over _maxplus_workers threads; numpy's subtract and max release the
    GIL.  With one worker, or below _MAXPLUS_THREAD_CELLS dense cells, the
    tiles run on the calling thread.  There is no flag: every entry is the
    max of the same float values for any split or order.
    """
    return _max_plus(consumer_gain, producer_cost, grid)[0]


def _max_plus(consumer_gain: np.ndarray, producer_cost: np.ndarray, grid):
    """_pairwise_max_surplus, and the number of cells it evaluated."""
    n, g = consumer_gain.shape
    m = producer_cost.shape[0]
    s = np.empty((n, m))
    if n == 0 or m == 0:
        return s, 0
    (cmask, ckey), (dmask, dkey) = _candidate_masks(consumer_gain, producer_cost, grid)

    tile_rows, tile_cols = _MAXPLUS_TILE
    corder = np.argsort(ckey, kind="stable")
    dorder = np.argsort(dkey, kind="stable")
    row_tiles = [corder[i:i + tile_rows] for i in range(0, n, tile_rows)]
    col_tiles = [dorder[j:j + tile_cols] for j in range(0, m, tile_cols)]
    col_unions = [dmask[cols].any(axis=0) for cols in col_tiles]

    def fill(tiles):
        buf = np.empty(max(_MAXPLUS_BLOCK_CELLS, g))
        out = np.empty((tile_rows, tile_cols))
        cells = 0
        for rows in tiles:
            row_union = cmask[rows].any(axis=0)
            for cols, col_union in zip(col_tiles, col_unions):
                kept = np.flatnonzero(row_union & col_union)
                k = kept.size
                gain = consumer_gain[np.ix_(rows, kept)]
                block = max(1, _MAXPLUS_BLOCK_CELLS // k)
                res = out[: rows.size, : cols.size]
                for j0 in range(0, cols.size, block):
                    part = cols[j0:j0 + block]
                    cost = producer_cost[np.ix_(part, kept)]
                    diff = buf[: part.size * k].reshape(part.size, k)
                    for r in range(rows.size):
                        np.subtract(gain[r], cost, out=diff)
                        diff.max(axis=1, out=res[r, j0:j0 + part.size])
                s[np.ix_(rows, cols)] = res
                cells += rows.size * cols.size * k
        return cells

    workers = _maxplus_workers(len(row_tiles))
    if workers == 1 or n * m * g < _MAXPLUS_THREAD_CELLS:
        return s, fill(row_tiles)
    bounds = [len(row_tiles) * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fill, row_tiles[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        cells = sum(future.result() for future in futures)
    return s, cells


def _candidate_masks(consumer_gain: np.ndarray, producer_cost: np.ndarray, grid):
    """(mask, key) of the consumer rows and of the producer rows: the grid
    points each row keeps (see _pairwise_max_surplus) and its mean kept
    grid index."""
    g = consumer_gain.shape[1]
    chunk = max(1, _MAXPLUS_BLOCK_CELLS // g)
    orders = _grid_orders(grid, g)
    gain_range = _step_range(consumer_gain, orders, chunk)
    cost_range = _step_range(producer_cost, orders, chunk)
    # a consumer drops a point when its gain step to a partner is above
    # every producer's cost step, and a producer when its cost step is
    # below every consumer's gain step; producer steps are negated so that
    # both compare as "above up, or below down"
    return (
        _row_mask(consumer_gain, orders, cost_range, 1.0, chunk),
        _row_mask(
            producer_cost, orders, [(-low, -high) for high, low in gain_range], -1.0, chunk
        ),
    )


def _grid_orders(grid, g: int) -> list:
    """Partner orders of the max-plus masks, one per grid axis: a lexsort
    whose last key is that axis, so consecutive points are the axis
    neighbours on a build_z_grid lattice.  None stands for the identity
    order, which is also the only order without a grid."""
    if grid is None:
        return [None]
    points = np.asarray(grid).reshape(g, -1)
    orders = []
    for a in range(points.shape[1]):
        keys = [points[:, a]] + [points[:, b] for b in range(points.shape[1]) if b != a]
        order = np.lexsort(keys)
        orders.append(None if np.array_equal(order, np.arange(g)) else order)
    return orders


def _steps(block: np.ndarray, order, out: np.ndarray) -> np.ndarray:
    """Steps v[:, k + 1] - v[:, k] of the columns v of block in `order`,
    written into out.  One subtraction over the flattened rows does every
    row at once; the differences across row ends land in out's last
    column, which the returned view leaves out."""
    v = np.ascontiguousarray(block) if order is None else np.take(block, order, axis=1)
    flat = v.reshape(-1)
    out = out[: block.shape[0]]
    np.subtract(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    return out[:, :-1]


def _step_range(values: np.ndarray, orders: list, chunk: int) -> list:
    """(max, min) over rows of each partner step, per order."""
    buf = np.empty((min(chunk, values.shape[0]), values.shape[1]))
    ranges = []
    for order in orders:
        high = np.full(values.shape[1] - 1, -np.inf)
        low = np.full(values.shape[1] - 1, np.inf)
        for r0 in range(0, values.shape[0], chunk):
            step = _steps(values[r0:r0 + chunk], order, buf)
            np.maximum(high, step.max(axis=0), out=high)
            np.minimum(low, step.min(axis=0), out=low)
        ranges.append((high, low))
    return ranges


def _row_mask(values, orders, limits, sign, chunk):
    """Grid points each row keeps, and each row's mean kept grid index.

    With step = sign * (partner step) and (up, down) the limits of an
    order, a row drops point k of the order when its step to k + 1 is
    above up[k], and point k + 1 when that step is below down[k].
    """
    n, g = values.shape
    inverses = [None if order is None else np.argsort(order) for order in orders]
    keep = np.ones((n, g), dtype=bool)
    key = np.empty(n)
    index = np.arange(g, dtype=float)
    buf = np.empty((min(chunk, n), g))
    drop = np.empty((min(chunk, n), g), dtype=bool)
    for r0 in range(0, n, chunk):
        block = values[r0:r0 + chunk]
        kept = keep[r0:r0 + chunk]
        rows = kept.shape[0]
        for order, inverse, (up, down) in zip(orders, inverses, limits):
            step = _steps(block, order, buf)
            if sign < 0:
                np.negative(step, out=step)
            dropped = drop[:rows]
            np.greater(step, up, out=dropped[:, :-1])
            dropped[:, -1] = False
            dropped[:, 1:] |= step < down
            if inverse is not None:
                dropped = np.take(dropped, inverse, axis=1)
            kept &= ~dropped
        key[r0:r0 + chunk] = kept.dot(index) / np.count_nonzero(kept, axis=1)
    return keep, key


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
    seeds = np.random.SeedSequence(seed).spawn(3)
    x = x_spec.sample(n_consumers, np.random.default_rng(seeds[0]))
    eps = eps_spec.sample(n_consumers, np.random.default_rng(seeds[1]))
    y = producer_spec.sample(n_producers, np.random.default_rng(seeds[2]))

    consumer_gain = spec.u_bar.pairwise_grid(x, grid) + spec.zeta.pairwise_consumer_grid(
        x, eps, grid
    )
    producer_cost = spec.cost.pairwise_grid(y, grid)
    if not (np.all(np.isfinite(consumer_gain)) and np.all(np.isfinite(producer_cost))):
        raise ValueError("surplus is not finite on the quality grid")
    surplus, maxplus_cells = _max_plus(consumer_gain, producer_cost, grid)

    mu = from_samples(np.column_stack([x, eps]))
    nu = from_samples(y)
    plan, duals = solve_exact(mu, nu, surplus)
    # re-pin: lowest-index producer earns zero profit
    shift = duals.v_target[0]
    duals = DualPair(duals.w_source + shift, duals.v_target - shift, 0)

    # the quality argmax is only needed on the matched pairs
    ii, jj, mass = plan.support()
    pair_arg = np.argmax(consumer_gain[ii] - producer_cost[jj], axis=1)
    boundary_mask = bounding_box_mask(grid)
    boundary_fraction = float(mass[boundary_mask[pair_arg]].sum() / mass.sum())
    if boundary_fraction > boundary_threshold:
        raise GridBoundaryError(
            f"{boundary_fraction:.1%} of matched mass maximizes on the quality "
            f"grid boundary (threshold {boundary_threshold:.1%}); enlarge the grid box"
        )
    traded_z = grid[pair_arg]
    cost_at_traded = spec.cost.eval_rows(y[jj], traded_z)
    prices = cost_at_traded + duals.v_target[jj]

    return EquilibriumOutcome(
        spec=spec,
        consumer_x=x,
        consumer_eps=eps,
        producer_y=y,
        matching=plan,
        duals=duals,
        surplus=surplus,
        traded_z=traded_z,
        prices=prices,
        boundary_fraction=boundary_fraction,
        maxplus={
            "grid_points": grid.shape[0],
            "cells_dense": n_consumers * n_producers * grid.shape[0],
            "cells_evaluated": maxplus_cells,
        },
    )


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
        return {
            "passed": bool(self.passed),
            "stability_min_margin": float(self.stability_min_margin),
            "support_equality_max_dev": float(self.support_equality_max_dev),
            "price_split_max_dev": float(self.price_split_max_dev),
            "clearing_max_dev": float(self.clearing_max_dev),
            "consumer_deviation_max_gain": float(self.consumer_deviation_max_gain),
            "producer_deviation_max_gain": float(self.producer_deviation_max_gain),
            "boundary_fraction": float(self.boundary_fraction),
            "failures": list(self.failures),
        }


def verify_equilibrium(outcome: EquilibriumOutcome, tol: float = 1e-7) -> EquilibriumReport:
    """Check stability, the two-sided price split, market clearing, and
    the no-profitable-deviation conditions on traded qualities."""
    failures = []
    v = outcome.indirect_v
    w = outcome.indirect_w
    n = v.shape[0]
    m = w.shape[0]
    src, tgt, _ = outcome.matching.support()
    n_pairs = src.shape[0]

    margin = v[:, None] + w[None, :] - outcome.surplus
    stability_min = float(margin.min())
    if stability_min < -tol:
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        failures.append(
            f"stability violated by consumer {i} with producer {j}: "
            f"margin {stability_min:.3e}"
        )

    sup_dev = float(np.abs(margin[src, tgt]).max()) if n_pairs else 0.0
    if sup_dev > tol:
        failures.append(f"support pairs miss surplus equality by {sup_dev:.3e}")

    # both sides of the split must reproduce the price
    u_at_pairs = (
        outcome.spec.u_bar.eval_rows(outcome.consumer_x[src], outcome.traded_z)
        + outcome.spec.zeta.eval_rows(
            outcome.consumer_x[src], outcome.consumer_eps[src], outcome.traded_z
        )
    )
    consumer_price = u_at_pairs - v[src]
    cost_at_pairs = outcome.spec.cost.eval_rows(
        outcome.producer_y[tgt], outcome.traded_z
    )
    producer_price = cost_at_pairs + w[tgt]
    split_dev = float(
        max(
            np.abs(consumer_price - outcome.prices).max(),
            np.abs(producer_price - outcome.prices).max(),
        )
    )
    if split_dev > tol:
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
        u_all = outcome.consumer_utilities_at(outcome.traded_z)  # (n, K)
        net_all = u_all - outcome.prices[None, :]
        own_net = net_all[src, np.arange(n_pairs)]
        gain = net_all[src].max(axis=1) - own_net
        consumer_dev = float(gain.max())
        if consumer_dev > tol:
            t = int(np.argmax(gain))
            failures.append(
                f"consumer {int(src[t])} gains "
                f"{consumer_dev:.3e} by switching traded quality"
            )
        c_all = outcome.producer_costs_at(outcome.traded_z)  # (m, K)
        profit_all = outcome.prices[None, :] - c_all
        own_profit = profit_all[tgt, np.arange(n_pairs)]
        gain_p = profit_all[tgt].max(axis=1) - own_profit
        producer_dev = float(gain_p.max())
        if producer_dev > tol:
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
