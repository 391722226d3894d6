"""Discrete probability measures, market observations, and conditioning.

Everything downstream works with weighted point clouds: reference taste
distributions are discretized into `DiscreteMeasure` objects (seeded draws,
or an n-point rank-1 lattice through the per-axis quantiles), observed
markets are `MarketDataset` rows (x, z, p), and identification runs on
`ConditionalSlice` objects obtained by grouping rows on the observable
type x.  All containers are immutable after construction.  Every config
mapping is read once, by `read_config`, the one place that converts a
config value to its key's type or refuses it, naming its dotted path.
"""

from __future__ import annotations

import csv
import json
import sys
import typing
from dataclasses import dataclass
from types import UnionType
from typing import Annotated, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "DiscreteMeasure",
    "MarketDataset",
    "ConditionalSlice",
    "DistributionSpec",
    "product_grid",
    "PriceConflictError",
    "from_samples",
    "partition_by_x",
    "sample_reference",
    "reference_lattice",
    "empirical_cdf_quantile",
    "empirical_cdf",
    "read_dataset_csv",
    "write_dataset_csv",
    "read_measure_csv",
    "write_measure_csv",
    "read_config",
    "config_kind",
]

# Tolerance for two observed prices of the *same* quality to count as one
# price schedule; a single market cannot quote two prices for one good.
PRICE_MERGE_TOL = 1e-9
# Working memory: every scan over agents, grid points, pairs or dataset rows
# takes its rows from row_blocks, in blocks of about this many cells.  2^14
# doubles (128 KB) stay in cache; 2^15 raised peak RSS by about 1 MB on every
# benchmark workload, through the hull route's several temporaries per pair.
BLOCK_CELLS = 1 << 14


def row_blocks(n: int, width: int) -> list:
    """Slices of consecutive rows of an n-row scan, each about BLOCK_CELLS
    cells of `width` columns (one row at least)."""
    step = max(1, BLOCK_CELLS // max(1, width))
    return [slice(r, min(n, r + step)) for r in range(0, n, step)]


class PriceConflictError(ValueError):
    """Duplicate quality rows carry incompatible prices."""


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; keeps CSV output byte-stable."""
    return repr(float(x))


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(payload, path) -> None:
    """Sorted, indented JSON report with numpy scalars and arrays as plain values."""
    with open(path, "w") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_config(cfg, where: str, **keys) -> dict:
    """The config mapping at dotted path `where` ("" at the top) as a new
    dict of its `keys`.  A key's entry is its default (an int, float or
    str), a (type, default) pair such as `(Annotated[int, 2], 8)`, a mapping
    of a sub-section's keys, or, for a key that is required or null by
    default, its type (`int`, `list[float]`, `str | None`).  A non-mapping,
    a missing required key, an unknown key and a value not of the key's
    type (see `_read_value`) are errors naming the path."""
    name, prefix = where or "the config", f"{where}." if where else ""
    if not isinstance(cfg, dict):
        raise ValueError(f"{name} must be a mapping, got {type(cfg).__name__}")
    for key in cfg:
        if key not in keys:
            raise ValueError(f"unknown key {prefix}{key}: {name} takes {sorted(keys)}, "
                             f"got {sorted(cfg)}")
    resolved = dict.fromkeys(keys)
    for key, kind in keys.items():
        at = prefix + key
        if isinstance(kind, dict):
            resolved[key] = read_config(cfg.get(key, {}), at, **kind)
        elif isinstance(kind, (int, float, str, tuple)):
            kind, default = kind if isinstance(kind, tuple) else (type(kind), kind)
            resolved[key] = _read_value(cfg[key], kind, at) if key in cfg else default
        elif key in cfg:
            resolved[key] = _read_value(cfg[key], kind, at)
        elif type(None) not in typing.get_args(kind):
            raise ValueError(f"{at} is required")
    return resolved


def _read_value(value, kind, where: str):
    """`value` read as type `kind`: int a whole number (an integral float
    too) of at least 0, or k under `Annotated[int, k]`; float a finite
    number; a bool is neither.  str, dict (a mapping, read later by its own
    reader) and None are taken as they are, list[T] is read item by item,
    and a union by the first of its types that fits the value's shape."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    whole = number and (isinstance(value, int) or value.is_integer())
    union = typing.get_origin(kind) in (typing.Union, UnionType)
    wanted = []
    for arm in typing.get_args(kind) if union else (kind,):
        arm, least = typing.get_args(arm) if typing.get_origin(arm) is Annotated else (arm, 0)
        base = typing.get_origin(arm) or arm
        if base is list and isinstance(value, list):
            (item,) = typing.get_args(arm)
            return [_read_value(v, item, f"{where}[{k}]") for k, v in enumerate(value)]
        if base is int and whole and value >= least:
            return int(value)
        if base is float and number and abs(value) <= sys.float_info.max:
            return float(value)
        if base in (str, dict, type(None)) and isinstance(value, base):
            return value
        wanted.append({int: f"a whole number of at least {least}", float: "a finite number",
                       str: "a string", dict: "a mapping", list: "a list"}.get(base))
    got = type(value).__name__ if isinstance(value, (str, list, dict)) else repr(value)
    raise ValueError(f"{where} must be {' or '.join(filter(None, wanted))}, got {got}")


def config_kind(cfg, where: str, kinds: Sequence[str], key: str = "kind", default=None) -> str:
    """The `key` entry (kind, pipeline, mode or scheme) of a config mapping,
    one of `kinds`: it decides the keys that read_config reads it under."""
    kind = cfg.get(key, default) if isinstance(cfg, dict) else None
    if kind not in kinds:
        raise ValueError(f"unknown {where}.{key} {kind!r}: {where} must be a mapping "
                         f"whose {key} is one of {list(kinds)}")
    return kind


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud on R^d with weights summing to one.

    Weights are renormalized on construction (tolerant ingestion);
    negative weights and zero total mass are rejected.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty n x d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        w = np.array(self.weights, dtype=float, copy=True).ravel()
        if w.shape[0] != pts.shape[0]:
            raise ValueError(
                f"weights length {w.shape[0]} != number of points {pts.shape[0]}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("negative weight")
        total = w.sum()
        if total <= 0:
            raise ValueError("zero total mass")
        w /= total
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def from_samples(points, weights=None) -> DiscreteMeasure:
    """Build a DiscreteMeasure; weights default to uniform 1/n."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("points must be non-empty")
    if pts.ndim == 1:
        pts = pts[:, None]
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return DiscreteMeasure(pts, weights)


@dataclass(frozen=True)
class MarketDataset:
    """Observed rows (x, z, p) from a single market."""

    x: np.ndarray
    z: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        z = np.array(self.z, dtype=float, copy=True)
        p = np.array(self.p, dtype=float, copy=True).ravel()
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        n = x.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one row")
        if z.shape[0] != n or p.shape[0] != n:
            raise ValueError("x, z, p must share the row count")
        if z.shape[1] < 1:
            raise ValueError("quality dimension must be >= 1")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.all(np.isfinite(p))):
            raise ValueError("dataset entries must be finite")
        for arr in (x, z, p):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_z(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class ConditionalSlice:
    """One x-cell of a market: qualities, prices, and source row ids.

    `z_measure` is the empirical measure of the cell's qualities with
    duplicates merged (weights summed); `prices` aligns with the merged
    quality points.
    """

    x_value: np.ndarray
    z_measure: DiscreteMeasure
    prices: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self):
        xv = np.array(self.x_value, dtype=float, copy=True).ravel()
        pr = np.array(self.prices, dtype=float, copy=True).ravel()
        rid = np.array(self.row_ids, dtype=int, copy=True).ravel()
        if pr.shape[0] != self.z_measure.n:
            raise ValueError("prices must align with z_measure points")
        for arr in (xv, pr, rid):
            arr.setflags(write=False)
        object.__setattr__(self, "x_value", xv)
        object.__setattr__(self, "prices", pr)
        object.__setattr__(self, "row_ids", rid)

    @property
    def n_rows(self) -> int:
        return self.row_ids.shape[0]


def _merge_duplicate_z(z_rows: np.ndarray, p_rows: np.ndarray):
    """Merge exactly-coincident quality rows, summing their mass.

    Prices of merged rows must agree within PRICE_MERGE_TOL.
    Returns (unique z, weights, prices) with z in lexicographic order.
    """
    uniq, inverse = np.unique(z_rows, axis=0, return_inverse=True)
    n = z_rows.shape[0]
    weights = np.bincount(inverse, minlength=uniq.shape[0]).astype(float) / n
    order, starts = _group_order(inverse)
    sorted_p = p_rows[order]
    p_min = np.minimum.reduceat(sorted_p, starts)
    p_max = np.maximum.reduceat(sorted_p, starts)
    conflicts = np.nonzero(p_max - p_min > PRICE_MERGE_TOL)[0]
    if conflicts.size:
        k = conflicts[0]
        raise PriceConflictError(
            f"quality {uniq[k]} observed with conflicting prices "
            f"{p_min[k]} and {p_max[k]}"
        )
    return uniq, weights, sorted_p[starts]


def _group_order(inverse: np.ndarray):
    """Rows sorted by group label, stable within a group, and group starts.

    Labels are the dense 0..k-1 codes from np.unique, so every group is
    non-empty and group g occupies order[starts[g]:starts[g + 1]].
    """
    order = np.argsort(inverse, kind="stable")
    starts = np.flatnonzero(np.diff(inverse[order], prepend=-1))
    return order, starts


def partition_by_x(
    dataset: MarketDataset,
    scheme: str = "exact",
    widths: Optional[Sequence[float]] = None,
) -> list[ConditionalSlice]:
    """Split a dataset into disjoint x-cells.

    scheme="exact" groups rows with identical x (discrete observables);
    scheme="bins" uses half-open hypercubes of the given per-axis widths,
    anchored at the data minimum, with points at the data maximum folded
    into the top cell.  Cells are returned in lexicographic key order.
    """
    if scheme == "exact":
        keys = dataset.x
        reps = None
    elif scheme == "bins":
        if widths is None:
            raise ValueError("bins scheme requires widths")
        w = np.asarray(widths, dtype=float).ravel()
        if w.shape[0] == 1 and dataset.d_x > 1:
            w = np.repeat(w, dataset.d_x)
        if w.shape[0] != dataset.d_x or np.any(w <= 0):
            raise ValueError("bin widths must be positive, one per x axis")
        lo = dataset.x.min(axis=0)
        span = dataset.x.max(axis=0) - lo
        n_cells = np.maximum(1, np.ceil(span / w - 1e-12).astype(int))
        idx = np.floor((dataset.x - lo) / w).astype(int)
        idx = np.minimum(idx, n_cells - 1)  # fold data max into top cell
        keys = idx.astype(float)
        reps = lo + (idx + 0.5) * w
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")

    uniq_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    order, starts = _group_order(inverse)
    slices = []
    for k, rows in enumerate(np.split(order, starts[1:])):
        z_u, w_u, p_u = _merge_duplicate_z(dataset.z[rows], dataset.p[rows])
        x_value = uniq_keys[k] if reps is None else reps[rows[0]]
        slices.append(
            ConditionalSlice(
                x_value=x_value,
                z_measure=DiscreteMeasure(z_u, w_u),
                prices=p_u,
                row_ids=rows,
            )
        )
    return slices


# ---------------------------------------------------------------------------
# Reference distributions for the a-priori specified taste law
# ---------------------------------------------------------------------------


def _box(lo, hi):
    """Corners of a box as float vectors; they must share a shape, lo < hi."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape:
        raise ValueError("box corners must share a shape")
    if np.any(lo >= hi):
        raise ValueError("degenerate box: lo >= hi")
    return lo, hi


def product_grid(axes) -> np.ndarray:
    """Row-major product of per-axis values, one point per row: the last
    axis varies fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True)
class DistributionSpec:
    """A priori reference distribution: a product of 1-D marginals, one per
    axis, each the image of a uniform draw q in [0, 1] under its map:

    - ("uniform", lo, hi): lo + (hi - lo) q;
    - ("normal", mu, sigma, a, b): mu + sigma ndtri(a + (b - a) q), with
      [a, b] the standard normal CDF of the truncation interval ([0, 1]
      without one);
    - ("point", value): value (a degenerate axis).

    The constructors build uniform boxes, standard Gaussians (optionally
    box-truncated), products of named 1-D marginals and point masses (used
    for degenerate observable types).
    """

    marginals: tuple

    # -- constructors -------------------------------------------------
    @staticmethod
    def uniform(lo, hi) -> "DistributionSpec":
        lo, hi = _box(lo, hi)
        return DistributionSpec(tuple(("uniform", float(a), float(b)) for a, b in zip(lo, hi)))

    @staticmethod
    def gaussian(dim: int, lo=None, hi=None) -> "DistributionSpec":
        if (lo is None) != (hi is None):
            raise ValueError("truncation needs both lo and hi")
        if lo is None:
            return DistributionSpec((("normal", 0.0, 1.0, 0.0, 1.0),) * dim)
        lo, hi = _box(lo, hi)
        if lo.shape[0] != dim:
            raise ValueError("truncation box must match dim")
        return DistributionSpec(
            tuple(("normal", 0.0, 1.0, float(ndtr(a)), float(ndtr(b))) for a, b in zip(lo, hi))
        )

    @staticmethod
    def product(marginals: Sequence[dict], where: str = "spec") -> "DistributionSpec":
        cleaned = []
        for k, m in enumerate(marginals):
            at = f"{where}.marginals[{k}]"
            if config_kind(m, at, ("uniform", "normal")) == "uniform":
                m = read_config(m, at, kind=str, lo=float, hi=float)
                cleaned += DistributionSpec.uniform(m["lo"], m["hi"]).marginals
            else:
                m = read_config(m, at, kind=str, mu=0.0, sigma=1.0)
                if m["sigma"] <= 0:
                    raise ValueError("normal marginal needs sigma > 0")
                cleaned.append(("normal", m["mu"], m["sigma"], 0.0, 1.0))
        if not cleaned:
            raise ValueError("product spec needs at least one marginal")
        return DistributionSpec(tuple(cleaned))

    @staticmethod
    def point(value) -> "DistributionSpec":
        v = np.asarray(value, dtype=float).ravel()
        return DistributionSpec(tuple(("point", float(t)) for t in v))

    # -- basic queries -------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def is_absolutely_continuous(self) -> bool:
        return "point" not in (m[0] for m in self.marginals)

    # -- per-axis quantile functions ------------------------------------
    def _axis_ppf(self, axis: int, q: np.ndarray) -> np.ndarray:
        kind, *p = self.marginals[axis]
        if kind == "uniform":
            lo, hi = p
            return lo + (hi - lo) * q
        if kind == "normal":
            mu, sigma, a, b = p
            return mu + sigma * ndtri(a + (b - a) * q)
        return np.full_like(np.asarray(q, dtype=float), p[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent draws, deterministic given rng state; a point spec
        draws nothing."""
        if n < 1:
            raise ValueError("need n >= 1 draws")
        d = self.dim
        u = rng.random((n, d)) if self.is_absolutely_continuous else np.zeros((n, d))
        return np.column_stack([self._axis_ppf(k, u[:, k]) for k in range(d)])

    def lattice(self, n: int) -> np.ndarray:
        """The n-point rank-1 (Korobov) lattice through the per-axis quantiles.

        Point i has uniform coordinates ((i (1, g, ..., g^(d-1)) mod n) + 0.5)
        / n, g from `_korobov_generator`; since g is coprime to n, axis a holds
        each of its (k + 0.5)/n quantiles once, and with d = 1 the points are
        those quantiles in order.  With uniform weights the n points make
        n * weights integral for exact transport.  A spec with a point axis
        has a single node.
        """
        if n < 1:
            raise ValueError("need n >= 1 lattice points")
        if not self.is_absolutely_continuous:
            n = 1
        g = _korobov_generator(n, self.dim)
        r = np.outer(np.arange(n), [pow(g, a, n) for a in range(self.dim)]) % n
        return np.column_stack([self._axis_ppf(a, (r[:, a] + 0.5) / n) for a in range(self.dim)])

    # -- config -------------------------------------------------------
    @staticmethod
    def from_config(cfg: dict, where: str = "spec") -> "DistributionSpec":
        kind = config_kind(cfg, where, ("uniform", "gaussian", "product", "point"))
        if kind == "uniform":
            cfg = read_config(cfg, where, kind=str, lo=list[float], hi=list[float])
            return DistributionSpec.uniform(cfg["lo"], cfg["hi"])
        if kind == "gaussian":
            cfg = read_config(cfg, where, kind=str, dim=int, lo=list[float] | None,
                              hi=list[float] | None)
            return DistributionSpec.gaussian(cfg["dim"], cfg["lo"], cfg["hi"])
        if kind == "product":
            cfg = read_config(cfg, where, kind=str, marginals=list[dict])
            return DistributionSpec.product(cfg["marginals"], where)
        return DistributionSpec.point(read_config(cfg, where, kind=str, value=list[float])["value"])


def _korobov_generator(n: int, d: int) -> int:
    """Generator g of the rank-1 lattice {i (1, g, ..., g^(d-1)) mod n}.

    Among 1 <= g <= n/2 coprime to n, the g whose lattice has the largest
    minimum toroidal distance between points, ties to the smallest g.  A
    lattice is a group, so that distance is the shortest offset i = 1..n-1
    from point 0; the candidates are scored in row blocks of (candidate,
    offset) pairs, in exact integer arithmetic.
    """
    g = np.arange(1, n // 2 + 1, dtype=np.int64)
    g = g[np.gcd(g, n) == 1]
    if d == 1 or g.size < 2:  # one axis, or at most one candidate: nothing to choose
        return 1
    i = np.arange(1, n)
    shortest = np.empty(g.size, dtype=np.int64)
    for b in row_blocks(g.size, i.size):
        dist, power = np.minimum(i, n - i) ** 2, g[b, None]
        for _ in range(1, d):
            r = power * i % n
            dist = dist + np.minimum(r, n - r) ** 2
            power = power * g[b, None] % n
        shortest[b] = dist.min(axis=1)
    return int(g[np.argmax(shortest)])


def sample_reference(spec: DistributionSpec, n: int, seed: int) -> DiscreteMeasure:
    """Discretize a reference distribution by n seeded draws, uniform weights."""
    rng = np.random.default_rng(seed)
    return from_samples(spec.sample(n, rng))


def reference_lattice(spec: DistributionSpec, n: int) -> DiscreteMeasure:
    """Deterministic lattice discretization (`spec.lattice(n)`, uniform
    weights)."""
    return from_samples(spec.lattice(n))


# ---------------------------------------------------------------------------
# Weighted empirical CDF / quantiles
# ---------------------------------------------------------------------------


def _sorted_cdf(values: np.ndarray, weights: np.ndarray):
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(weights[order])
    cum[-1] = 1.0  # guard against cumsum drift at the top
    return v, cum


def _check_prob_vector(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel()
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be a probability vector")
    s = w.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValueError("weights must sum to one")
    return w / s


def empirical_cdf_quantile(values, weights, q):
    """Left-continuous generalized inverse F^{-1}(q) of the weighted CDF, at
    each q of an array (one sort for all), or a float for a scalar q."""
    q_arr = np.asarray(q, dtype=float)
    if not np.all((q_arr >= 0.0) & (q_arr <= 1.0)):
        raise ValueError("q must lie in [0, 1]")
    v = np.asarray(values, dtype=float).ravel()
    w = _check_prob_vector(weights)
    if v.shape != w.shape:
        raise ValueError("values and weights must align")
    vs, cum = _sorted_cdf(v, w)
    out = vs[np.minimum(np.searchsorted(cum, q_arr, side="left"), vs.shape[0] - 1)]
    return float(out) if out.ndim == 0 else out


def empirical_cdf(values, weights, at) -> np.ndarray:
    """Weighted empirical CDF F(t) = P(V <= t) evaluated at `at`."""
    v = np.asarray(values, dtype=float).ravel()
    w = _check_prob_vector(weights)
    vs, cum = _sorted_cdf(v, w)
    at = np.asarray(at, dtype=float)
    pos = np.searchsorted(vs, at, side="right")
    out = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
    return out


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def write_float_table(path, header, *columns) -> None:
    """CSV with one header row, then one row of `format_float` values per
    row of the column blocks (1-D or 2-D arrays, placed left to right)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.column_stack(columns):
            writer.writerow([format_float(v) for v in row])


def read_float_table(path, kind: str):
    """(header, rows) of a CSV of floats under one header row; a file
    without data rows is rejected as an empty `kind` file, and a row whose
    width differs from the header's as a malformed one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(c) for c in row] for row in reader if row]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{kind} file {path} has a row whose width differs from its header")
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError(f"empty {kind} file")
    return header, arr


def _dataset_header(d_x: int, d_z: int) -> list:
    """x_1..x_dx,z_1..z_dz,p."""
    return [f"x_{k+1}" for k in range(d_x)] + [f"z_{k+1}" for k in range(d_z)] + ["p"]


def write_dataset_csv(dataset: MarketDataset, path) -> None:
    """Header x_1..x_dx,z_1..z_dz,p; one observation per row."""
    header = _dataset_header(dataset.d_x, dataset.d_z)
    write_float_table(path, header, dataset.x, dataset.z, dataset.p)


def read_dataset_csv(path) -> MarketDataset:
    """Inverse of write_dataset_csv: the header must be exactly
    x_1..x_dx,z_1..z_dz,p."""
    header, arr = read_float_table(path, "dataset")
    d_x = sum(1 for h in header if h.startswith("x_"))
    d_z = len(header) - d_x - 1
    if header != _dataset_header(d_x, d_z):
        raise ValueError(f"unrecognized dataset header {header}")
    return MarketDataset(arr[:, :d_x], arr[:, d_x : d_x + d_z], arr[:, -1])


def coordinate_header(d: int) -> list:
    """c_1..c_d."""
    return [f"c_{k+1}" for k in range(d)]


def write_measure_csv(measure: DiscreteMeasure, path) -> None:
    """Header w,c_1..c_d."""
    write_float_table(path, ["w"] + coordinate_header(measure.dim), measure.weights, measure.points)


def read_measure_csv(path) -> DiscreteMeasure:
    """Inverse of write_measure_csv: the header must be exactly w,c_1..c_d."""
    header, arr = read_float_table(path, "measure")
    if header != ["w"] + coordinate_header(len(header) - 1):
        raise ValueError(f"unrecognized measure header {header}")
    return DiscreteMeasure(arr[:, 1:], arr[:, 0])
