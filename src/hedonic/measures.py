"""Discrete probability measures, market observations, and conditioning.

Everything downstream works with weighted point clouds: reference taste
distributions are discretized into `DiscreteMeasure` objects, observed
markets are `MarketDataset` rows (x, z, p), and identification runs on
`ConditionalSlice` objects obtained by grouping rows on the observable
type x.  All containers are immutable after construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "DiscreteMeasure",
    "MarketDataset",
    "ConditionalSlice",
    "DistributionSpec",
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
]

# Tolerance for two observed prices of the *same* quality to count as one
# price schedule; a single market cannot quote two prices for one good.
PRICE_MERGE_TOL = 1e-9


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

_MARGINAL_KINDS = ("uniform", "normal")


@dataclass(frozen=True)
class DistributionSpec:
    """A priori reference distribution: uniform box, standard Gaussian
    (optionally box-truncated), product of named 1-D marginals, or a
    point mass (used for degenerate observable types).
    """

    kind: str
    params: dict = field(default_factory=dict)

    # -- constructors -------------------------------------------------
    @staticmethod
    def uniform(lo, hi) -> "DistributionSpec":
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ValueError("box corners must share a shape")
        if np.any(lo >= hi):
            raise ValueError("degenerate box: lo >= hi")
        return DistributionSpec("uniform", {"lo": lo, "hi": hi})

    @staticmethod
    def gaussian(dim: int, lo=None, hi=None) -> "DistributionSpec":
        params: dict = {"dim": int(dim)}
        if (lo is None) != (hi is None):
            raise ValueError("truncation needs both lo and hi")
        if lo is not None:
            lo = np.asarray(lo, dtype=float).ravel()
            hi = np.asarray(hi, dtype=float).ravel()
            if lo.shape[0] != dim or hi.shape[0] != dim:
                raise ValueError("truncation box must match dim")
            if np.any(lo >= hi):
                raise ValueError("degenerate box: lo >= hi")
            params["lo"], params["hi"] = lo, hi
        return DistributionSpec("gaussian", params)

    @staticmethod
    def product(marginals: Sequence[dict]) -> "DistributionSpec":
        cleaned = []
        for m in marginals:
            kind = m.get("kind")
            if kind == "uniform":
                if not m["lo"] < m["hi"]:
                    raise ValueError("degenerate box: lo >= hi")
                cleaned.append({"kind": "uniform", "lo": float(m["lo"]), "hi": float(m["hi"])})
            elif kind == "normal":
                sigma = float(m.get("sigma", 1.0))
                if sigma <= 0:
                    raise ValueError("normal marginal needs sigma > 0")
                cleaned.append({"kind": "normal", "mu": float(m.get("mu", 0.0)), "sigma": sigma})
            else:
                raise ValueError(f"unknown marginal kind {kind!r}")
        if not cleaned:
            raise ValueError("product spec needs at least one marginal")
        return DistributionSpec("product", {"marginals": cleaned})

    @staticmethod
    def point(value) -> "DistributionSpec":
        v = np.asarray(value, dtype=float).ravel()
        return DistributionSpec("point", {"value": v})

    # -- basic queries -------------------------------------------------
    @property
    def dim(self) -> int:
        if self.kind == "uniform":
            return self.params["lo"].shape[0]
        if self.kind == "gaussian":
            return self.params["dim"]
        if self.kind == "product":
            return len(self.params["marginals"])
        if self.kind == "point":
            return self.params["value"].shape[0]
        raise ValueError(f"unknown spec kind {self.kind!r}")

    @property
    def is_absolutely_continuous(self) -> bool:
        return self.kind in ("uniform", "gaussian", "product")

    # -- per-axis quantile functions ------------------------------------
    def _axis_ppf(self, axis: int, q: np.ndarray) -> np.ndarray:
        if self.kind == "uniform":
            lo, hi = self.params["lo"][axis], self.params["hi"][axis]
            return lo + (hi - lo) * q
        if self.kind == "gaussian":
            if "lo" in self.params:
                a = ndtr(self.params["lo"][axis])
                b = ndtr(self.params["hi"][axis])
                return ndtri(a + (b - a) * q)
            return ndtri(q)
        if self.kind == "product":
            m = self.params["marginals"][axis]
            if m["kind"] == "uniform":
                return m["lo"] + (m["hi"] - m["lo"]) * q
            return m["mu"] + m["sigma"] * ndtri(q)
        if self.kind == "point":
            return np.full_like(np.asarray(q, dtype=float), self.params["value"][axis])
        raise ValueError(self.kind)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n independent draws, deterministic given rng state."""
        if n < 1:
            raise ValueError("need n >= 1 draws")
        d = self.dim
        if self.kind == "point":
            return np.tile(self.params["value"], (n, 1))
        u = rng.random((n, d))
        cols = [self._axis_ppf(k, u[:, k]) for k in range(d)]
        return np.column_stack(cols)

    def lattice_shape(self, n: int) -> tuple:
        """Per-axis node counts of `lattice(n)`.

        Exactly n points when n has a balanced factorization: counts
        k_1 <= ... <= k_d with product n and k_d <= 2 k_1, the one with
        the smallest k_d / k_1 (so d = 1 and perfect powers give n^(1/d)
        per axis).  Otherwise k = round(n^(1/d)) on every axis, k^d points.
        A point spec has a single node.
        """
        if n < 1:
            raise ValueError("need n >= 1 lattice points")
        d = self.dim
        if self.kind == "point":
            return (1,) * d
        balanced = [k for k in _ordered_factorizations(n, d, 1) if k[-1] <= 2 * k[0]]
        if balanced:
            return min(balanced, key=lambda k: (k[-1] / k[0], k))
        return (max(1, int(round(n ** (1.0 / d)))),) * d

    def lattice(self, n: int) -> np.ndarray:
        """Deterministic quantile lattice of `lattice_shape(n)` nodes.

        Axis a holds its (i+0.5)/k_a quantiles; with uniform weights an
        n-point lattice makes n * weights integral for exact transport.
        """
        shape = self.lattice_shape(n)
        if self.kind == "point":
            return np.tile(self.params["value"], (1, 1))
        axes = [self._axis_ppf(a, (np.arange(k) + 0.5) / k) for a, k in enumerate(shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    # -- config -------------------------------------------------------
    @staticmethod
    def from_config(cfg: dict) -> "DistributionSpec":
        kind = cfg.get("kind")
        if kind == "uniform":
            return DistributionSpec.uniform(cfg["lo"], cfg["hi"])
        if kind == "gaussian":
            return DistributionSpec.gaussian(cfg["dim"], cfg.get("lo"), cfg.get("hi"))
        if kind == "product":
            return DistributionSpec.product(cfg["marginals"])
        if kind == "point":
            return DistributionSpec.point(cfg["value"])
        raise ValueError(f"unknown distribution kind {kind!r}")


def _ordered_factorizations(n: int, d: int, lo: int):
    """Every nondecreasing d-tuple of integers >= lo whose product is n."""
    if d == 1:
        if n >= lo:
            yield (n,)
        return
    k = lo
    while k**d <= n:
        if n % k == 0:
            for rest in _ordered_factorizations(n // k, d - 1, k):
                yield (k,) + rest
        k += 1


def sample_reference(spec: DistributionSpec, n: int, seed: int) -> DiscreteMeasure:
    """Discretize a reference distribution by n seeded draws, uniform weights."""
    rng = np.random.default_rng(seed)
    return from_samples(spec.sample(n, rng))


def reference_lattice(spec: DistributionSpec, n: int) -> DiscreteMeasure:
    """Deterministic lattice discretization (`spec.lattice_shape(n)` nodes,
    uniform weights)."""
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


def empirical_cdf_quantile(values, weights, q: float) -> float:
    """Left-continuous generalized inverse F^{-1}(q) of the weighted CDF."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    v = np.asarray(values, dtype=float).ravel()
    w = _check_prob_vector(weights)
    if v.shape != w.shape:
        raise ValueError("values and weights must align")
    vs, cum = _sorted_cdf(v, w)
    idx = int(np.searchsorted(cum, q, side="left"))
    return float(vs[min(idx, vs.shape[0] - 1)])


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


def write_measure_csv(measure: DiscreteMeasure, path) -> None:
    """Header w,c_1..c_d."""
    header = ["w"] + [f"c_{k+1}" for k in range(measure.dim)]
    write_float_table(path, header, measure.weights, measure.points)


def read_measure_csv(path) -> DiscreteMeasure:
    header, arr = read_float_table(path, "measure")
    if not header or header[0] != "w":
        raise ValueError(f"unrecognized measure header {header}")
    return DiscreteMeasure(arr[:, 1:], arr[:, 0])
