"""Measures, partitioning, reference sampling, and quantile tests."""

import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr, ndtri

from hedonic.conjugate import read_grid_function_csv
from hedonic.measures import (
    PRICE_MERGE_TOL,
    DiscreteMeasure,
    DistributionSpec,
    MarketDataset,
    PriceConflictError,
    _korobov_generator,
    empirical_cdf,
    empirical_cdf_quantile,
    from_samples,
    partition_by_x,
    read_dataset_csv,
    read_float_table,
    read_measure_csv,
    reference_lattice,
    sample_reference,
    write_dataset_csv,
    write_measure_csv,
)


# ---------------------------------------------------------------------------
# from_samples
# ---------------------------------------------------------------------------


def test_uniform_default_weights():
    m = from_samples(np.array([[0.0], [1.0], [2.0]]))
    assert np.allclose(m.weights, [1 / 3, 1 / 3, 1 / 3])


def test_weights_renormalized():
    m = from_samples(np.array([[0.0], [1.0]]), [2.0, 2.0])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        from_samples(np.array([[0.0], [1.0]]), [1.0, -1.0])


def test_empty_points_rejected():
    with pytest.raises(ValueError):
        from_samples(np.empty((0, 2)))


def test_zero_total_mass_rejected():
    with pytest.raises(ValueError, match="zero total mass"):
        from_samples(np.array([[0.0], [1.0]]), [0.0, 0.0])


def test_total_mass_is_one_for_any_constructor_path():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(1, 30)
        d = rng.integers(1, 4)
        w = rng.random(n) + 1e-3
        m = from_samples(rng.normal(size=(n, d)), w * rng.uniform(0.1, 10))
        assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_measure_is_immutable():
    m = from_samples(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0


# ---------------------------------------------------------------------------
# partition_by_x
# ---------------------------------------------------------------------------


def _toy_dataset(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    rng = np.random.default_rng(1)
    return MarketDataset(x, rng.random((n, 1)), rng.random(n))


def test_exact_partition_covers_rows():
    ds = _toy_dataset(np.array([0.0, 1.0, 0.0, 1.0, 1.0])[:, None])
    slices = partition_by_x(ds, "exact")
    assert len(slices) == 2
    assert sum(s.n_rows for s in slices) == ds.n


def test_exact_partition_single_cell():
    ds = _toy_dataset(np.full((7, 1), 3.0))
    slices = partition_by_x(ds, "exact")
    assert len(slices) == 1
    assert slices[0].n_rows == 7


def test_binned_partition_against_bruteforce_scan():
    # oracle: membership recomputed by a direct floor-index scan per row
    rng = np.random.default_rng(7)
    x = rng.random((60, 2))
    ds = _toy_dataset(x)
    width = 0.25
    slices = partition_by_x(ds, "bins", widths=[width, width])
    lo = x.min(axis=0)
    n_cells = np.maximum(1, np.ceil((x.max(axis=0) - lo) / width - 1e-12)).astype(int)
    for s in slices:
        for row in s.row_ids:
            idx = np.minimum(np.floor((x[row] - lo) / width).astype(int), n_cells - 1)
            expected_mid = lo + (idx + 0.5) * width
            assert np.allclose(s.x_value, expected_mid)


def test_binned_partition_two_cells_on_unit_interval():
    x = np.linspace(0.0, 1.0, 11)[:, None]
    ds = _toy_dataset(x)
    slices = partition_by_x(ds, "bins", widths=[0.5])
    assert len(slices) == 2
    # the data maximum folds into the top cell
    top = max(slices, key=lambda s: s.x_value[0])
    assert 10 in top.row_ids.tolist()


def test_partition_row_ids_are_a_permutation():
    rng = np.random.default_rng(3)
    for scheme, widths in (("exact", None), ("bins", [0.3])):
        x = rng.integers(0, 4, size=(40, 1)).astype(float)
        ds = _toy_dataset(x + (rng.random((40, 1)) if scheme == "bins" else 0.0))
        slices = partition_by_x(ds, scheme, widths)
        all_rows = np.sort(np.concatenate([s.row_ids for s in slices]))
        assert np.array_equal(all_rows, np.arange(ds.n))


def test_bad_bin_width_rejected():
    ds = _toy_dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        partition_by_x(ds, "bins", widths=[0.0])


def test_duplicate_z_merged_with_summed_weights():
    x = np.zeros((4, 1))
    z = np.array([[1.0], [2.0], [1.0], [3.0]])
    p = np.array([5.0, 6.0, 5.0, 7.0])
    slices = partition_by_x(MarketDataset(x, z, p), "exact")
    s = slices[0]
    assert s.z_measure.n == 3
    k = int(np.nonzero(s.z_measure.points[:, 0] == 1.0)[0][0])
    assert abs(s.z_measure.weights[k] - 0.5) < 1e-12


def test_conflicting_duplicate_prices_rejected():
    x = np.zeros((2, 1))
    z = np.array([[1.0], [1.0]])
    p = np.array([5.0, 5.1])
    with pytest.raises(PriceConflictError):
        partition_by_x(MarketDataset(x, z, p), "exact")


def _partition_by_scanning_groups(dataset, keys, reps):
    """Reference: one `inverse == k` scan per x-cell and per quality."""
    uniq_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    out = []
    for k in range(uniq_keys.shape[0]):
        rows = np.nonzero(inverse == k)[0]
        z_rows, p_rows = dataset.z[rows], dataset.p[rows]
        uniq, inv = np.unique(z_rows, axis=0, return_inverse=True)
        weights = np.bincount(inv, minlength=uniq.shape[0]).astype(float) / rows.size
        prices = np.empty(uniq.shape[0])
        for g in range(uniq.shape[0]):
            cell = p_rows[inv == g]
            if cell.max() - cell.min() > PRICE_MERGE_TOL:
                raise PriceConflictError(
                    f"quality {uniq[g]} observed with conflicting prices "
                    f"{cell.min()} and {cell.max()}"
                )
            prices[g] = cell[0]
        x_value = uniq_keys[k] if reps is None else reps[rows[0]]
        out.append((x_value, uniq, weights, prices, rows))
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["exact", "bins"]),
    st.sampled_from(["agree", "jitter", "conflict"]),
)
def test_partition_matches_per_group_scan(n, seed, scheme, prices):
    # x and z on small integer grids, so cells and duplicate qualities repeat;
    # duplicate prices agree, differ within PRICE_MERGE_TOL, or conflict
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(n, 2)).astype(float)
    z = rng.integers(0, 3, size=(n, 2)).astype(float)
    p = z @ [1.0, 2.0] + x[:, 0]
    if prices == "jitter":
        p = p + rng.uniform(0, 0.5 * PRICE_MERGE_TOL, n)
    elif prices == "conflict":
        p = p + rng.uniform(0, 1e-6, n)
    ds = MarketDataset(x, z, p)
    widths = [0.7, 1.3] if scheme == "bins" else None
    if scheme == "bins":
        lo = x.min(axis=0)
        n_cells = np.maximum(1, np.ceil((x.max(axis=0) - lo) / widths - 1e-12)).astype(int)
        idx = np.minimum(np.floor((x - lo) / widths).astype(int), n_cells - 1)
        keys, reps = idx.astype(float), lo + (idx + 0.5) * np.asarray(widths)
    else:
        keys, reps = x, None
    try:
        expected = _partition_by_scanning_groups(ds, keys, reps)
    except PriceConflictError as err:
        with pytest.raises(PriceConflictError) as got:
            partition_by_x(ds, scheme, widths)
        assert str(got.value) == str(err)
        return
    slices = partition_by_x(ds, scheme, widths)
    assert len(slices) == len(expected)
    for sl, (x_value, z_u, w_u, p_u, rows) in zip(slices, expected):
        for got_arr, want in (
            (sl.x_value, x_value),
            (sl.z_measure.points, z_u),
            (sl.z_measure.weights, w_u / w_u.sum()),
            (sl.prices, p_u),
            (sl.row_ids, rows),
        ):
            assert got_arr.dtype == want.dtype and got_arr.shape == want.shape
            assert got_arr.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# reference distributions
# ---------------------------------------------------------------------------


def test_uniform_box_support_containment():
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    m = sample_reference(spec, 100, seed=7)
    assert m.n == 100
    assert np.all(m.points >= 0.0) and np.all(m.points <= 1.0)
    assert np.allclose(m.weights, 1 / 100)


def test_sampling_is_deterministic_given_seed():
    spec = DistributionSpec.uniform([-1.0], [1.0])
    a = sample_reference(spec, 50, seed=3)
    b = sample_reference(spec, 50, seed=3)
    assert np.array_equal(a.points, b.points)


def test_truncated_gaussian_mean_within_clt_band():
    # Monte-Carlo oracle: symmetric truncation has mean zero
    n = 10_000
    spec = DistributionSpec.gaussian(1, lo=[-1.0], hi=[1.0])
    m = sample_reference(spec, n, seed=11)
    assert np.all(np.abs(m.points) <= 1.0)
    assert abs(m.points.mean()) <= 5.0 / np.sqrt(n)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        DistributionSpec.uniform([1.0], [1.0])


def test_unknown_spec_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        DistributionSpec.from_config({"kind": "cauchy"})


UNKNOWN_SPEC_KEYS = [
    ({"kind": "uniform", "lo": [0.0], "hi": [1.0], "dim": 1}, "spec.dim"),
    ({"kind": "gaussian", "dim": 1, "sigma": 2.0}, "spec.sigma"),
    ({"kind": "gaussian", "dim": 1, "low": [-1.0], "hi": [1.0]}, "spec.low"),
    ({"kind": "product", "marginals": [{"kind": "normal"}], "dims": 1}, "spec.dims"),
    ({"kind": "product", "marginals": [{"kind": "normal", "sd": 2.0}]}, "spec.marginals[0].sd"),
    ({"kind": "product", "marginals": [{"kind": "normal"},
                                       {"kind": "uniform", "lo": 0, "hi": 1, "mu": 0}]},
     "spec.marginals[1].mu"),
    ({"kind": "product", "marginals": [{"kind": "gamma"}]}, "spec.marginals[0].kind"),
    ({"kind": "point", "values": [1.0]}, "spec.values"),
    ({"kind": "point"}, "spec.value is required"),
    ([0.0, 1.0], "spec must be a mapping"),
]


@pytest.mark.parametrize("cfg, path", UNKNOWN_SPEC_KEYS, ids=[p for _, p in UNKNOWN_SPEC_KEYS])
def test_spec_from_config_refuses_an_unknown_or_missing_key(cfg, path):
    with pytest.raises(ValueError, match=re.escape(path)):
        DistributionSpec.from_config(cfg)


def test_product_spec_sampling_and_lattice():
    spec = DistributionSpec.product(
        [{"kind": "uniform", "lo": 0.0, "hi": 2.0}, {"kind": "normal", "mu": 1.0, "sigma": 0.5}]
    )
    m = sample_reference(spec, 500, seed=2)
    assert np.all(m.points[:, 0] >= 0.0) and np.all(m.points[:, 0] <= 2.0)
    lat = reference_lattice(spec, 100)
    assert lat.n == 100


def test_uniform_lattice_hits_midpoints():
    spec = DistributionSpec.uniform([0.0], [1.0])
    lat = reference_lattice(spec, 4)
    assert np.allclose(np.sort(lat.points[:, 0]), [0.125, 0.375, 0.625, 0.875])


def _old_lattice(spec, n):
    """The k = round(n^(1/d)) product lattice rule of earlier versions."""
    d = spec.dim
    k = max(1, int(round(n ** (1.0 / d))))
    q = (np.arange(k) + 0.5) / k
    mesh = np.meshgrid(*[spec._axis_ppf(a, q) for a in range(d)], indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def loop_korobov_generator(n, d):
    """Reference generator search: one Python iteration per candidate g."""
    best, best_dist = 1, -1
    i = np.arange(1, n)
    for g in range(1, n // 2 + 1):
        if math.gcd(g, n) != 1:
            continue
        r = np.outer(i, [pow(g, a, n) for a in range(d)]) % n
        dist = int((np.minimum(r, n - r) ** 2).sum(axis=1).min())
        if dist > best_dist:
            best, best_dist = g, dist
    return best


@pytest.mark.parametrize("cells", [200, 1000, 1 << 15])
def test_generator_search_matches_the_loop_in_any_chunking(monkeypatch, cells):
    monkeypatch.setattr("hedonic.measures._SEARCH_CELLS", cells)
    for d in (1, 2, 3):
        for n in range(1, 130):
            assert _korobov_generator(n, d) == loop_korobov_generator(n, d), (n, d)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 7), (1, 200), (1, 301)])
def test_lattice_keeps_the_old_rule_for_powers_and_one_axis(d, n):
    # on one axis every n is a perfect power, n = n^1
    spec = DistributionSpec.gaussian(d)
    assert spec.lattice(n).tobytes() == _old_lattice(spec, n).tobytes()


def test_round_trip_sizes_get_exact_lattices():
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    for n in (13, 24, 100, 200, 300, 400):
        assert spec.lattice(n).shape == (n, 2)
    assert reference_lattice(spec, 200).n == 200


def test_point_spec_is_degenerate():
    spec = DistributionSpec.point([2.0, 3.0])
    m = sample_reference(spec, 5, seed=0)
    assert np.all(m.points == np.array([2.0, 3.0]))
    assert not spec.is_absolutely_continuous


@dataclasses.dataclass(frozen=True)
class KindDispatchSpec:
    """Reference: the DistributionSpec of earlier versions, which dispatched
    every method on a spec kind and a params dict."""

    kind: str
    params: dict

    @staticmethod
    def from_config(cfg):
        kind = cfg["kind"]
        if kind == "uniform":
            lo, hi = np.asarray(cfg["lo"], float).ravel(), np.asarray(cfg["hi"], float).ravel()
            return KindDispatchSpec("uniform", {"lo": lo, "hi": hi})
        if kind == "gaussian":
            params = {"dim": int(cfg["dim"])}
            if cfg.get("lo") is not None:
                params["lo"] = np.asarray(cfg["lo"], float).ravel()
                params["hi"] = np.asarray(cfg["hi"], float).ravel()
            return KindDispatchSpec("gaussian", params)
        if kind == "product":
            marginals = [
                {"kind": "uniform", "lo": float(m["lo"]), "hi": float(m["hi"])}
                if m["kind"] == "uniform"
                else {"kind": "normal", "mu": float(m.get("mu", 0.0)),
                      "sigma": float(m.get("sigma", 1.0))}
                for m in cfg["marginals"]
            ]
            return KindDispatchSpec("product", {"marginals": marginals})
        return KindDispatchSpec("point", {"value": np.asarray(cfg["value"], float).ravel()})

    @property
    def dim(self):
        if self.kind == "uniform":
            return self.params["lo"].shape[0]
        if self.kind == "gaussian":
            return self.params["dim"]
        if self.kind == "product":
            return len(self.params["marginals"])
        return self.params["value"].shape[0]

    @property
    def is_absolutely_continuous(self):
        return self.kind in ("uniform", "gaussian", "product")

    def _axis_ppf(self, axis, q):
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
        return np.full_like(np.asarray(q, dtype=float), self.params["value"][axis])

    def sample(self, n, rng):
        d = self.dim
        if self.kind == "point":
            return np.tile(self.params["value"], (n, 1))
        u = rng.random((n, d))
        return np.column_stack([self._axis_ppf(k, u[:, k]) for k in range(d)])

    def lattice(self, n):
        if self.kind == "point":
            return np.tile(self.params["value"], (1, 1))
        g = loop_korobov_generator(n, self.dim)
        q = (np.outer(np.arange(n), [pow(g, a, n) for a in range(self.dim)]) % n + 0.5) / n
        return np.column_stack([self._axis_ppf(a, q[:, a]) for a in range(self.dim)])


@st.composite
def spec_configs(draw):
    """Configs of every spec kind, d = 1..3: uniform boxes, truncated and
    plain Gaussians, products mixing uniform and normal marginals, points."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "truncated", "gaussian", "product", "point"]))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    lo = draw(st.lists(coord, min_size=d, max_size=d))
    width = draw(st.lists(st.floats(0.01, 4.0), min_size=d, max_size=d))
    hi = [a + w for a, w in zip(lo, width)]
    if kind == "uniform":
        return {"kind": "uniform", "lo": lo, "hi": hi}
    if kind == "truncated":
        return {"kind": "gaussian", "dim": d, "lo": lo, "hi": hi}
    if kind == "gaussian":
        return {"kind": "gaussian", "dim": d}
    if kind == "point":
        return {"kind": "point", "value": lo}
    marginals = []
    for a, b in zip(lo, hi):
        if draw(st.booleans()):
            marginals.append({"kind": "uniform", "lo": a, "hi": b})
        else:
            marginals.append({"kind": "normal", "mu": a, "sigma": b - a})
    return {"kind": "product", "marginals": marginals}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    spec_configs(),
    st.one_of(st.sampled_from([1, 2, 3, 7, 13, 97, 4, 16, 24, 64, 100, 200, 343]),
              st.integers(1, 400)),
    st.integers(0, 2**32 - 1),
)
@example({"kind": "gaussian", "dim": 1}, 7, 0)  # the median node is ndtri(0.5) = +0.0
@example({"kind": "point", "value": [2.0, -0.0]}, 5, 1)
@example({"kind": "product", "marginals": [{"kind": "normal"}, {"kind": "uniform", "lo": -1,
                                                                "hi": 1}]}, 9, 2)
def test_marginal_spec_equals_the_kind_dispatch_spec_bitwise(cfg, n, seed):
    spec, ref = DistributionSpec.from_config(cfg), KindDispatchSpec.from_config(cfg)
    assert spec.dim == ref.dim
    assert spec.is_absolutely_continuous == ref.is_absolutely_continuous
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_bits(spec.sample(n, rng), ref.sample(n, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_same_bits(spec.lattice(n), ref.lattice(n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec_configs(), st.integers(1, 400))
@example({"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, 97)
@example({"kind": "gaussian", "dim": 3}, 343)
@example({"kind": "gaussian", "dim": 1}, 301)
@example({"kind": "point", "value": [2.0, -0.0]}, 5)
def test_lattice_has_n_points_holding_each_quantile_once_per_axis(cfg, n):
    spec = DistributionSpec.from_config(cfg)
    points = spec.lattice(n)
    if not spec.is_absolutely_continuous:
        assert_same_bits(points, np.array([cfg["value"]], dtype=float))
        return
    # the uniform coordinates: the unit box's quantile maps are the identity
    q = DistributionSpec.uniform([0.0] * spec.dim, [1.0] * spec.dim).lattice(n)
    assert points.shape == q.shape == (n, spec.dim)
    for a in range(spec.dim):
        assert_same_bits(np.sort(q[:, a]), (np.arange(n) + 0.5) / n)
        assert_same_bits(points[:, a], spec._axis_ppf(a, q[:, a]))
    if spec.dim == 1:
        assert_same_bits(points, _old_lattice(spec, n))


# ---------------------------------------------------------------------------
# empirical quantiles
# ---------------------------------------------------------------------------


def test_median_of_three():
    assert empirical_cdf_quantile([1.0, 2.0, 3.0], [1 / 3] * 3, 0.5) == 2.0


def test_point_mass_quantile():
    for q in (0.0, 0.3, 1.0):
        assert empirical_cdf_quantile([5.0], [1.0], q) == 5.0


def test_weighted_quantile_from_cdf_enumeration():
    # direct CDF: F(1) = 0.25 >= 0.2, so the generalized inverse is 1
    assert empirical_cdf_quantile([1.0, 2.0], [0.25, 0.75], 0.2) == 1.0


def test_quantile_out_of_range_rejected():
    with pytest.raises(ValueError):
        empirical_cdf_quantile([1.0], [1.0], 1.5)


def test_quantile_inverts_cdf_on_support():
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = np.unique(rng.normal(size=12))
        w = np.full(v.shape[0], 1.0 / v.shape[0])
        f_vals = empirical_cdf(v, w, v)
        back = np.array([empirical_cdf_quantile(v, w, q) for q in f_vals])
        assert np.array_equal(back, v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(1, 0, 0)
def test_quantile_of_an_array_equals_the_per_q_loop_bitwise(n, k, seed):
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, size=n).astype(float)  # ties
    w = rng.integers(0, 3, size=n).astype(float)  # zero weights
    w[rng.integers(n)] += 1.0
    w /= w.sum()
    # random levels, both ends, and the CDF's own steps, where the inverse jumps
    q = np.clip(np.concatenate([rng.random(k), [0.0, 1.0], np.cumsum(w)]), 0.0, 1.0)
    got = empirical_cdf_quantile(v, w, q)
    want = np.array([empirical_cdf_quantile(v, w, t) for t in q])
    assert_same_bits(got, want)
    assert all(type(empirical_cdf_quantile(v, w, t)) is float for t in q)
    with pytest.raises(ValueError):
        empirical_cdf_quantile(v, w, np.append(q, 1.5))


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    ds = MarketDataset(rng.random((8, 2)), rng.random((8, 3)), rng.random(8))
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.z, ds.z)
    assert np.array_equal(back.p, ds.p)


def test_measure_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    m = from_samples(rng.random((6, 2)), rng.random(6) + 0.1)
    path = tmp_path / "m.csv"
    write_measure_csv(m, path)
    back = read_measure_csv(path)
    assert np.array_equal(back.points, m.points)
    assert np.allclose(back.weights, m.weights, atol=1e-15)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_dataset_csv, "x_1,z_1,z_2,p\n1,2,3\n4,5,6\n"),
        (read_dataset_csv, "z_1,x_1,p\n1,2,3\n4,5,6\n"),
        (read_dataset_csv, "x_1,z_2,z_1,p\n1,2,3,4\n5,6,7,8\n"),
        (read_measure_csv, "w,c_1,c_2\n0.5,1\n0.5,2\n"),
        (read_measure_csv, "w,c_2,c_1\n0.5,1,2\n0.5,3,4\n"),
        (read_measure_csv, "w,foo\n0.5,1\n0.5,2\n"),
        (read_grid_function_csv, "c_2,c_1,value\n1,2,3\n4,5,6\n"),
    ],
    ids=["dataset-short-rows", "dataset-z-before-x", "dataset-swapped-z", "measure-short-rows",
         "measure-swapped-c", "measure-unknown-column", "grid-function-swapped-c"],
)
def test_csv_layout_that_would_be_misread_rejected(tmp_path, reader, text):
    # read by position, these would give p as z_2, z as x, swapped z axes,
    # a 1-D measure, swapped coordinate axes and an unnamed coordinate
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        reader(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@ROUND_TRIP
@given(st.integers(1, 6), st.integers(0, 2), st.integers(1, 3), st.data())
def test_dataset_csv_round_trip_is_bit_exact(n, d_x, d_z, data):
    ds = MarketDataset(
        data.draw(finite_arrays((n, d_x))),
        data.draw(finite_arrays((n, d_z))),
        data.draw(finite_arrays(n)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
    assert_same_bits(back.x, ds.x)
    assert_same_bits(back.z, ds.z)
    assert_same_bits(back.p, ds.p)


@ROUND_TRIP
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_measure_csv_round_trip_is_bit_exact(n, d, data):
    weights = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e6)))
    assume(weights.sum() > 0)
    m = DiscreteMeasure(data.draw(finite_arrays((n, d))), weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        write_measure_csv(m, path)
        _, table = read_float_table(path, "measure")
        back = read_measure_csv(path)
    # the file holds the weights bit for bit; reading renormalizes them,
    # exactly as constructing a measure from those weights does
    assert_same_bits(table[:, 0], m.weights)
    assert_same_bits(back.points, m.points)
    assert_same_bits(back.weights, DiscreteMeasure(m.points, m.weights).weights)
