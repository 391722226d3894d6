"""Market construction, verification, and diagnostics tests."""

import dataclasses
import threading
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hedonic import equilibrium
from hedonic.equilibrium import (
    GridBoundaryError,
    _max_plus,
    atomlessness_diagnostic,
    build_z_grid,
    certify_dataset,
    simulate_market,
    verify_equilibrium,
)
from hedonic.measures import DistributionSpec, MarketDataset
from hedonic.surplus import ScalarFamily, StructuralSpec, SurplusFamily

UNIT_1D = DistributionSpec.uniform([0.0], [1.0])
POINT_X = DistributionSpec.point([1.0])


def quadratic_spec_1d(center=2.0):
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(1), center_offset=[center], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
        ),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )


def tinbergen_spec():
    """u_bar = 0, zeta = z eps, cost = y z^2 / 2 with y the inverse
    productivity (so the analytic quality is eps / y)."""
    return StructuralSpec(
        u_bar=ScalarFamily.zero(1, 1),
        cost=ScalarFamily.polynomial([{"coeff": 0.5, "a": [1], "z": [2]}], 1, 1),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )


# ---------------------------------------------------------------------------
# simulate_market
# ---------------------------------------------------------------------------


def dense_max_plus(gain, cost):
    return (gain[:, None, :] - cost[None, :, :]).max(axis=2)


def test_pairwise_max_surplus_matches_the_dense_max_plus_product():
    rng = np.random.default_rng(12)
    # integer values make ties and equal maxima common
    gain = rng.integers(-3, 4, size=(7, 40)).astype(float)
    cost = rng.integers(-3, 4, size=(5, 40)).astype(float)
    assert np.array_equal(_max_plus(gain, cost, [1])[0], dense_max_plus(gain, cost))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 12),
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(1, 7, 1, 3, True, 0)  # n = 1, G = 1, 3-row blocks leave a remainder
@example(2, 7, 2, 6, True, 1)  # 3-row blocks, 7 producers
@example(3, 5, 12, 5, False, 2)  # G above the block: one producer per block
@example(1, 4, 3, 40, True, 3)  # one row
@example(5, 3, 4, 8, False, 4)
@example(8, 6, 5, 11, True, 5)
def test_blocked_max_plus_equals_the_dense_max_bitwise(n, m, g, block_cells, ints, seed):
    rng = np.random.default_rng(seed)
    if ints:  # tied integer values
        gain = rng.integers(-3, 4, size=(n, g)).astype(float)
        cost = rng.integers(-3, 4, size=(m, g)).astype(float)
    else:
        gain, cost = rng.normal(size=(n, g)), rng.normal(size=(m, g))
    with mock.patch.object(equilibrium, "_MAXPLUS_BLOCK_CELLS", block_cells):
        got = _max_plus(gain, cost, [1])[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("m, g", [(70, 1000), (3, 32768 + 5)])
def test_blocked_max_plus_at_the_module_block_size(m, g):
    # 32 producers per block with a remainder of 6; a grid above the block
    rng = np.random.default_rng(g)
    gain, cost = rng.normal(size=(2, g)), rng.normal(size=(m, g))
    assert _max_plus(gain, cost, [1])[0].tobytes() == dense_max_plus(gain, cost).tobytes()


def lattice(*res):
    axes = [np.arange(r, dtype=float) for r in res]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(res))


def partner_strides(grid):
    """The partner strides _joint_surplus gives the pruned max-plus scan on
    grid; without a grid, consecutive indices."""
    return equilibrium._partner_strides(None if grid is None else equilibrium._lattice_axes(grid))


@st.composite
def pruned_max_plus_instances(draw, kinds=("lattice", "scattered", "duplicates", "none")):
    """(gain, cost, grid) on lattices, scattered or duplicate points, or no
    grid, with values that the certificate prunes heavily (concave,
    monotone), barely (normal), or not at all (all zero)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "lattice":
        grid = lattice(*draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    else:
        g = draw(st.integers(1, 60))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grid = {
            "scattered": rng.normal(size=(g, 2)),
            "duplicates": rng.integers(0, 3, size=(g, 2)).astype(float),
            "none": None,
        }[kind]
    g = 60 if grid is None else grid.shape[0]
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    values = draw(st.sampled_from(["concave", "tied", "normal", "monotone", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.arange(g, dtype=float)[:, None] if grid is None else grid
    z = (z - z.mean(axis=0)) / (np.ptp(z, axis=0) + 1.0)
    if values in ("concave", "tied"):
        a = rng.normal(size=(n, z.shape[1]))
        b = rng.uniform(0.5, 2.0, size=(m, 1))
        gain = 2.0 * a @ z.T - (z**2).sum(axis=1)
        cost = b * (z**2).sum(axis=1) + rng.normal(size=(m, 1))
        if values == "tied":  # integer values: ties and equal steps
            gain, cost = np.round(8 * gain), np.round(8 * cost)
    elif values == "normal":
        gain, cost = rng.normal(size=(n, g)), rng.normal(size=(m, g))
    elif values == "monotone":  # one point dominates every other, by chains
        gain = np.outer(np.arange(1.0, n + 1), z.sum(axis=1))
        cost = np.outer(rng.uniform(0.0, 0.5, size=m), z.sum(axis=1))
    else:
        gain, cost = np.zeros((n, g)), np.zeros((m, g))
    return gain, cost, grid


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    pruned_max_plus_instances(),
    st.sampled_from([1, 7, 500, 32768]),
)
@example((np.zeros((3, 1)), np.ones((5, 1)), lattice(1)), 7)  # G = 1
@example((np.zeros((17, 4)), np.zeros((129, 4)), lattice(2, 2)), 32768)  # all zero
@example(  # 1-D chain: every point but the last is dominated
    (np.outer(np.arange(1.0, 18.0), np.arange(300.0)),
     np.outer(np.linspace(0.0, 0.5, 130), np.arange(300.0)), lattice(300)),
    64,
)
@example(  # duplicate points with distinct values; 33 rows, 257 producers
    (np.random.default_rng(1).normal(size=(33, 6)),
     np.random.default_rng(2).normal(size=(257, 6)),
     np.repeat(lattice(3), 2, axis=0)),
    7,
)
def test_pruned_max_plus_equals_the_dense_max_bitwise(instance, block_cells):
    gain, cost, grid = instance
    with mock.patch.object(equilibrium, "_MAXPLUS_BLOCK_CELLS", block_cells):
        got = _max_plus(gain, cost, partner_strides(grid))[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pruned_max_plus_instances(), st.integers(0, 2**32 - 1))
def test_envelope_margin_equals_the_dense_stability_margin(instance, seed):
    # consumer potentials near the c-transform of random producer potentials,
    # so the margin sits near zero with either sign
    gain, cost, _ = instance
    s = dense_max_plus(gain, cost)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=cost.shape[0])
    v = (s - w).max(axis=1) + rng.normal(scale=0.1, size=gain.shape[0])
    margin, g, i, j = equilibrium._envelope_margin(gain, cost, v, w)
    assert abs(margin - (v[:, None] + w[None, :] - s).min()) <= 1e-12
    # the named consumer and producer attain the margin at the named point
    assert abs(v[i] + w[j] - (gain[i, g] - cost[j, g]) - margin) <= 1e-12


def readme_spec():
    """The README's 2-D bilinear spec."""
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=[4.0, 4.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )


def readme_spec_arrays(n, res, seed):
    """Consumer gains and producer costs of the README's 2-D bilinear spec
    on a res x res grid over [1.9, 3.1]^2."""
    spec = readme_spec()
    rng = np.random.default_rng(seed)
    x = np.ones((n, 1))
    eps, y = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
    grid = build_z_grid([1.9, 1.9], [3.1, 3.1], res)
    gain = spec.u_bar.pairwise_grid(x, grid) + spec.zeta.pairwise_consumer_grid(x, eps, grid)
    return gain, spec.cost.pairwise_grid(y, grid), grid


@pytest.mark.parametrize("case", ["normal-lattice", "normal-scattered", "readme"])
def test_candidate_masks_keep_every_dense_argmax(case):
    rng = np.random.default_rng(len(case))
    if case == "readme":
        gain, cost, grid = readme_spec_arrays(80, 30, seed=4)
    else:
        grid = lattice(9, 8) if case == "normal-lattice" else rng.normal(size=(72, 3))
        gain, cost = rng.normal(size=(30, 72)), rng.normal(size=(40, 72))
    (cmask, _), (dmask, _) = equilibrium._candidate_masks(gain, cost, partner_strides(grid))
    arg = np.argmax(gain[:, None, :] - cost[None, :, :], axis=2)  # first index
    rows, cols = np.indices(arg.shape)
    assert np.all(cmask[rows, arg] & dmask[cols, arg])
    if case == "readme":
        dense_cells = gain.shape[0] * cost.shape[0] * grid.shape[0]
        kept_cells = cmask.sum(axis=0) @ dmask.sum(axis=0)
        assert kept_cells < 0.5 * dense_cells
        # tiles evaluate the unions of their rows' masks: at least the kept cells
        cells = equilibrium._max_plus(gain, cost, partner_strides(grid))[1]
        assert kept_cells <= cells < dense_cells


def lexsort_candidate_masks(gain, cost, grid):
    """Reference: the masks and keys of the lexsort partners that stride
    partners replaced.  For each grid axis every point is paired with the
    next point of a lexsort whose last key is that axis (the identity
    without a grid), so on a lattice the last point of each axis line is
    also paired with the first point of the next line."""
    g = gain.shape[1]
    if grid is None:
        orders = [np.arange(g)]
    else:
        pts = np.asarray(grid).reshape(g, -1)
        d = pts.shape[1]
        orders = [
            np.lexsort([pts[:, a]] + [pts[:, b] for b in range(d) if b != a])
            for a in range(d)
        ]

    def step_ranges(values):
        steps = [np.diff(values[:, order], axis=1) for order in orders]
        return [(step.max(axis=0), step.min(axis=0)) for step in steps]

    def masks(values, limits, sign):
        keep = np.ones(values.shape, dtype=bool)
        for order, (up, down) in zip(orders, limits):
            step = sign * np.diff(values[:, order], axis=1)
            dropped = np.zeros(values.shape, dtype=bool)
            dropped[:, :-1] = step > up
            dropped[:, 1:] |= step < down
            keep[:, order] &= ~dropped
        return keep, keep.dot(np.arange(g, dtype=float)) / np.count_nonzero(keep, axis=1)

    gain_range = step_ranges(gain)
    return (
        masks(gain, step_ranges(cost), 1.0),
        masks(cost, [(-low, -high) for high, low in gain_range], -1.0),
    )


@pytest.mark.parametrize(
    "grid, strides",
    [
        (None, [1]),
        (lattice(1), [1]),
        (lattice(300), [1]),
        (lattice(4, 5), [5, 1]),
        (lattice(3, 4, 5), [20, 5, 1]),
        (lattice(1, 6), [1]),  # an axis of one point has no stride
        (lattice(6, 1), [1]),
        (np.repeat(lattice(3), 2, axis=0), [1]),  # duplicate points: no lattice
        (np.random.default_rng(0).normal(size=(30, 2)), [1]),  # scattered
    ],
)
def test_grid_strides_are_the_lattice_axis_strides(grid, strides):
    assert partner_strides(grid) == strides


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pruned_max_plus_instances(kinds=("lattice", "none")), st.sampled_from([1, 7, 500, 32768]))
def test_stride_masks_keep_every_point_the_lexsort_masks_keep(instance, block_cells):
    # on 1-D and 2-D lattices the strides keep every lexsort pair but the
    # wraps from one axis line to the next, and test each pair against the
    # same limits; on 3-D lattices and off a lattice the two partner sets
    # differ, and neither mask need contain the other
    gain, cost, grid = instance
    assume(grid is None or grid.shape[1] <= 2)
    with mock.patch.object(equilibrium, "_MAXPLUS_BLOCK_CELLS", block_cells):
        got = equilibrium._candidate_masks(gain, cost, partner_strides(grid))
    for (mask, _), (ref, _) in zip(got, lexsort_candidate_masks(gain, cost, grid)):
        assert np.all(mask | ~ref)


@pytest.mark.parametrize("n, res, seed", [(80, 30, 4), (100, 30, 7), (64, 45, 2)])
def test_stride_masks_equal_the_lexsort_masks_on_readme_lattices(n, res, seed):
    gain, cost, grid = readme_spec_arrays(n, res, seed)
    got = equilibrium._candidate_masks(gain, cost, partner_strides(grid))
    for (mask, key), (ref, ref_key) in zip(got, lexsort_candidate_masks(gain, cost, grid)):
        assert np.array_equal(mask, ref)
        assert key.tobytes() == ref_key.tobytes()


@pytest.mark.parametrize("n, cpus", [(40, 1), (16, 7), (64, 2)])
def test_max_plus_with_one_worker_starts_no_thread(n, cpus):
    # the product runs on the calling thread whatever CPUs the process has
    gain, cost, grid = readme_spec_arrays(n, 12, seed=n)
    with mock.patch("os.sched_getaffinity", return_value=set(range(cpus)), create=True), \
            mock.patch.object(threading.Thread, "start",
                              side_effect=AssertionError("thread started")):
        got = _max_plus(gain, cost, partner_strides(grid))[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


# ---------------------------------------------------------------------------
# the per-axis hull route of the max-plus product
# ---------------------------------------------------------------------------


def unit_exponent(d, k, power=1):
    return (power * np.eye(d, dtype=int)[k]).tolist()


def axis_power_terms(draw, d, k, powers=(1, 4)):
    """Type-free terms c z_k^p, p drawn from the inclusive range `powers`:
    concave, convex or flat shapes, some scaled down to 1e-14 so that grid
    points sit next to the hull without being on it."""
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        coeff = draw(st.integers(-2, 2)) * draw(st.sampled_from([1.0, 0.5, 1e-14]))
        terms.append({"coeff": coeff, "z": unit_exponent(d, k, draw(st.integers(*powers)))})
    return terms


def scaled_curvature_term(draw, d, k, types):
    """c w^e z_k^q for the type monomial w^e whose exponent blocks are
    `types` (block name to exponents), with q in 2..4."""
    coeff = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0]))
    return dict(types, coeff=coeff, z=unit_exponent(d, k, draw(st.integers(2, 4))))


def hull_spec(draw, d, kind):
    """A StructuralSpec that takes the hull route, with zeta of the given
    kind, x of width 1 and producer types of width 2 d: y_k sets axis k's
    producer slope and y_{d+k} may scale its curvature.

    Each axis's terms of z-degree 2 or more are either type-free ("free"),
    or all carry one type monomial of one side: x^p in u_bar, and in zeta
    too when zeta is polynomial ("consumer"), or y_{d+k}^p in cost
    ("producer").  The bilinear-feature and neg-quadratic zetas hold a
    type-free z_0^2, so their axis 0 is free."""
    curvature = [draw(st.sampled_from(["free", "consumer", "producer"])) for _ in range(d)]
    if kind in ("bilinear-feature", "neg-quadratic"):
        curvature[0] = "free"
    powers = [draw(st.integers(1, 2)) for _ in range(d)]

    u_bar_terms, cost_terms, zeta_terms = [], [], []
    for k in range(d):
        # a scaled axis may still hold type-free linear terms
        free = (1, 4) if curvature[k] == "free" else (1, 1)
        u_bar_terms += axis_power_terms(draw, d, k, free)
        cost_terms += axis_power_terms(draw, d, k, free)
        zeta_terms += axis_power_terms(draw, d, k, free)
        if curvature[k] == "consumer":
            u_bar_terms.append(scaled_curvature_term(draw, d, k, {"a": [powers[k]]}))
            if kind == "polynomial" and draw(st.booleans()):
                zeta_terms.append(scaled_curvature_term(draw, d, k, {"x": [powers[k]]}))
        elif curvature[k] == "producer":
            cost_terms.append(
                scaled_curvature_term(draw, d, k, {"a": unit_exponent(2 * d, d + k, powers[k])}))
    u_bar = ScalarFamily.polynomial(
        u_bar_terms
        + [{"coeff": draw(st.integers(-1, 1)), "a": [1], "z": unit_exponent(d, 0)},
           {"coeff": 0.5, "a": [2]}],
        1, d,
    )
    cost = ScalarFamily.polynomial(
        cost_terms
        + [{"coeff": -1.0, "a": unit_exponent(2 * d, k), "z": unit_exponent(d, k)}
           for k in range(d)],
        2 * d, d,
    )
    eps_z = [{"coeff": 1.0, "eps": unit_exponent(d, k), "z": unit_exponent(d, k)}
             for k in range(d)]
    if kind == "bilinear":
        zeta = SurplusFamily.bilinear(d, d_x=1)
    elif kind == "polynomial":
        zeta = SurplusFamily.polynomial(
            eps_z + [{"coeff": 0.2, "x": [1], "eps": unit_exponent(d, 0),
                      "z": unit_exponent(d, d - 1)},
                     {"coeff": -0.5, "eps": unit_exponent(d, 0, 2)}]
            + zeta_terms,
            1, d,
        )
    elif kind == "bilinear-feature":
        # features z_k with loadings eps_k + x / 4, and a type-free z_0^2
        phi = [[{"coeff": 1.0, "z": unit_exponent(d, k)}] for k in range(d)]
        psi = [[{"coeff": 1.0, "eps": unit_exponent(d, k)}, {"coeff": 0.25, "x": [1]}]
               for k in range(d)]
        phi.append([{"coeff": -1.0, "z": unit_exponent(d, 0, 2)}])
        psi.append([{"coeff": 0.5}])
        zeta = SurplusFamily.bilinear_feature(phi, psi, 1, d)
    else:  # neg-quadratic: -q/2 (z - eps)^2 in 1-D
        zeta = SurplusFamily.neg_quadratic([[draw(st.sampled_from([0.5, 1.0, 2.0]))]], d_x=1)
    return StructuralSpec(u_bar=u_bar, cost=cost, zeta=zeta), curvature


@st.composite
def hull_markets(draw):
    """(spec, x, eps, y, grid): row-major lattices in 1-3 D of 1-8 points per
    axis, on dyadic steps (exact values, so exact ties) or on steps of 1/3;
    integer types (slopes on hull segment slopes, signed zeros) or uniform
    ones; n and m from 1.  A type that scales an axis's curvature is one
    scale from 1e-3 to 1e3, of one sign for every agent, times integers
    1-4 or uniform values in [0.5, 2]."""
    kind = draw(st.sampled_from(["bilinear", "bilinear-feature", "polynomial", "neg-quadratic"]))
    d = 1 if kind == "neg-quadratic" else draw(st.integers(1, 3))
    res = draw(st.lists(st.integers(1, 8 if d < 3 else 4), min_size=d, max_size=d))
    step = draw(st.sampled_from([1.0, 0.5, 1.0 / 3.0]))
    grid = lattice(*res) * step + draw(st.sampled_from([0.0, -1.0, 0.25]))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    if integer:
        def types(k, w):
            return rng.integers(-3, 4, size=(k, w)) * draw(st.sampled_from([1.0, 0.5, -0.0]))
    else:
        def types(k, w):
            return rng.uniform(-2.0, 2.0, size=(k, w))

    def scale_types(k):
        scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 7.0, 1e3])) * draw(st.sampled_from([1, -1]))
        return scale * (rng.integers(1, 5, size=k) if integer else rng.uniform(0.5, 2.0, size=k))

    spec, curvature = hull_spec(draw, d, kind)
    x = scale_types(n)[:, None] if "consumer" in curvature else types(n, 1)
    y = np.hstack([types(m, d), np.column_stack([scale_types(m) for _ in range(d)])])
    return spec, x, types(n, d), y, grid


def hull_route(spec, x, eps, y, grid):
    """(S, maxplus facts, gain, cost) of simulate's max-plus dispatch."""
    gain, cost = equilibrium._grid_tensors(spec, x, eps, y, grid)
    s, facts = equilibrium._joint_surplus(spec, x, eps, y, grid, gain, cost)
    return s, facts, gain, cost


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hull_markets())
def test_axis_hull_route_equals_the_pruned_max_plus_bitwise(market):
    s, facts, gain, cost = hull_route(*market)
    assert facts["path"] == "axis-hull"
    pruned = _max_plus(gain, cost, partner_strides(market[4]))[0]
    assert s.tobytes() == pruned.tobytes() == dense_max_plus(gain, cost).tobytes()
    n, m = s.shape
    redone, rest = divmod(facts["cells_evaluated"] - n * m, facts["grid_points"])
    assert rest == 0 and 0 <= redone <= n * m


@pytest.mark.parametrize("n, m", [(1, 9), (9, 1), (9, 9)])
def test_axis_hull_route_on_exact_segment_slopes(n, m):
    # U - C = (eps + y) z - z^2 on z = 0..7: the hull segment from t to
    # t + 1 has slope -(2t + 1), so an odd integer eps + y ties two points
    spec = StructuralSpec(
        u_bar=ScalarFamily.polynomial([{"coeff": -0.5, "z": [2]}], 1, 1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
        ),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )
    eps = np.arange(n, dtype=float)[:, None]
    y = np.arange(m, dtype=float)[:, None] + 1.0
    grid = lattice(8)
    s, facts, gain, cost = hull_route(spec, np.ones((n, 1)), eps, y, grid)
    assert facts["path"] == "axis-hull"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()
    # every pair with an odd slope inside the grid is a tie, redone densely
    ties = ((eps + y.T) % 2 == 1) & (eps + y.T < 15)
    assert facts["cells_evaluated"] >= n * m + ties.sum() * grid.shape[0]


@pytest.mark.parametrize("step", [0.1, 1.0 / 3.0, 0.3, 0.7])
def test_axis_hull_route_on_rounding_level_ties(step):
    # U - C = (eps + y) z - z^2 with eps + y = fl(t_q + t_q+1): the points t_q
    # and t_q+1 tie up to rounding, and the hull's float slopes may put the
    # tie on either side of the pair's slope
    spec = StructuralSpec(
        u_bar=ScalarFamily.polynomial([{"coeff": -0.5, "z": [2]}], 1, 1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
        ),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )
    t = np.arange(12) * step + 1.0
    eps = (t[:-1] + t[1:])[:, None]
    y = np.array([0.0, 2.0**-50, -(2.0**-50), 1e-13, -1e-13])[:, None]
    s, facts, gain, cost = hull_route(spec, np.ones((eps.shape[0], 1)), eps, y, t[:, None])
    assert facts["path"] == "axis-hull"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("name", ["flat", "convex", "near-flat"])
def test_axis_hull_route_on_collinear_and_near_hull_points(name):
    # f = 0 makes every grid point collinear; a convex f leaves only the two
    # end points on the hull; f = 1e-15 z^2 puts every point within rounding
    # of the chord between them
    coeff = {"flat": 0.0, "convex": 1.0, "near-flat": 1e-15}[name]
    spec = StructuralSpec(
        u_bar=ScalarFamily.polynomial([{"coeff": coeff, "z": [2, 0]},
                                       {"coeff": coeff, "z": [0, 2]}], 1, 2),
        cost=ScalarFamily.polynomial(
            [{"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )
    rng = np.random.default_rng(3)
    eps = np.vstack([rng.uniform(-1.0, 1.0, size=(10, 2)), np.zeros((2, 2))])
    y = np.vstack([rng.uniform(-1.0, 1.0, size=(7, 2)), -eps[:2]])
    s, facts, gain, cost = hull_route(spec, np.ones((12, 1)), eps, y, lattice(6, 5) / 4)
    assert facts["path"] == "axis-hull"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()


def permuted_lattice():
    grid = lattice(4, 3)
    return grid[np.lexsort(grid.T[::-1])[::-1]]  # every point, in reverse order


def tinbergen_2d_cost(*extra):
    """Tinbergen's cost y . z^2 / 2 in 2-D, plus the terms `extra`."""
    return ScalarFamily.polynomial(
        [{"coeff": 0.5, "a": [1, 0], "z": [2, 0]},
         {"coeff": 0.5, "a": [0, 1], "z": [0, 2]}, *extra], 2, 2
    )


@pytest.mark.parametrize(
    "case",
    ["scattered", "duplicate-rows", "reversed", "cross-z", "a-z-squared",
     "sign-changing-scale", "both-sides", "two-monomials", "typed-and-free"],
)
def test_max_plus_dispatch_takes_the_pruned_route(case):
    rng = np.random.default_rng(len(case))
    spec, grid = readme_spec(), lattice(5, 4) / 2
    x, eps, y = np.ones((6, 1)), rng.uniform(size=(6, 2)), rng.uniform(0.5, 1.5, size=(5, 2))
    tinbergen = StructuralSpec(
        u_bar=ScalarFamily.zero(1, 2), cost=tinbergen_2d_cost(),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )
    if case == "scattered":
        grid = rng.normal(size=(20, 2))
    elif case == "duplicate-rows":
        grid = np.repeat(lattice(3, 3), 2, axis=0)
    elif case == "reversed":
        grid = permuted_lattice()
    elif case == "cross-z":  # -1/2 (z - eps)' Q (z - eps) with Q off-diagonal
        spec = dataclasses.replace(
            spec, zeta=SurplusFamily.neg_quadratic([[1.0, 0.2], [0.2, 1.0]], d_x=1)
        )
    elif case in ("a-z-squared", "sign-changing-scale"):
        # tinbergen's y z^2 / 2 cost, with a producer of scale y_0 = 0, or
        # scales y_1 of both signs
        spec = tinbergen
        if case == "a-z-squared":
            y[2, 0] = 0.0
        else:
            y[:2, 1] *= -1.0
    elif case == "both-sides":  # x z_0^2 in u_bar and y_0 z_0^2 in cost
        spec = dataclasses.replace(tinbergen, u_bar=ScalarFamily.polynomial(
            [{"coeff": -0.5, "a": [1], "z": [2, 0]}], 1, 2))
    elif case == "two-monomials":  # y_0 z_0^2 and y_1 z_0^2
        spec = dataclasses.replace(tinbergen, cost=tinbergen_2d_cost(
            {"coeff": 0.25, "a": [0, 1], "z": [2, 0]}))
    else:  # y_0 z_0^2 in cost and a type-free z_0^2 in u_bar
        spec = dataclasses.replace(tinbergen, u_bar=ScalarFamily.polynomial(
            [{"coeff": -0.5, "z": [2, 0]}], 1, 2))
    s, facts, gain, cost = hull_route(spec, x, eps, y, grid)
    assert facts["path"] == "pruned"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("d, res", [(1, 140), (2, 15)])
@pytest.mark.parametrize("scale", [1.0, 1e-3, -1e3])
def test_axis_hull_route_on_tinbergen_markets(d, res, scale):
    # eps . z - y . z^2 / 2 with producer types y of one sign: y_k scales
    # axis k's curvature, and a negative scale is folded into f_k
    spec = StructuralSpec(
        u_bar=ScalarFamily.zero(1, d),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "a": unit_exponent(d, k), "z": unit_exponent(d, k, 2)}
             for k in range(d)], d, d),
        zeta=SurplusFamily.bilinear(d, d_x=1),
    )
    rng = np.random.default_rng(res)
    eps, y = rng.uniform(size=(30, d)) * scale, rng.uniform(0.5, 1.5, size=(20, d)) * scale
    grid = build_z_grid([-0.1] * d, [2.5] * d, res)
    s, facts, gain, cost = hull_route(spec, np.ones((30, 1)), eps, y, grid)
    assert facts["path"] == "axis-hull"
    pruned = _max_plus(gain, cost, partner_strides(grid))[0]
    assert s.tobytes() == pruned.tobytes() == dense_max_plus(gain, cost).tobytes()
    assert facts["cells_evaluated"] < 30 * 20 * grid.shape[0] / 10


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.37, 1e3])
@pytest.mark.parametrize("step", [0.1, 1.0 / 3.0, 0.7])
def test_axis_hull_route_on_scaled_rounding_level_ties(scale, step):
    # U - C = 1 + eps z - y z^2 / 2 with eps = y (t_q + t_q+1) / 2 nudged by
    # 0 to 2^27 ulps: once a = eps is divided by the scale y, t_q and t_q+1
    # tie or nearly tie, and the constant 1 rounds the tensor far above
    # the y-scaled gaps when y is small, so the certificate must weigh the
    # margins by y
    spec = dataclasses.replace(
        tinbergen_spec(), u_bar=ScalarFamily.polynomial([{"coeff": 1.0}], 1, 1))
    t = np.arange(12) * step + 1.0
    y = scale * np.array([1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-45, 3.0])
    ulps = 2.0 ** np.arange(0, 30, 3)
    nudge = 1.0 + np.concatenate([-ulps, [0.0], ulps]) * 2.0**-52
    eps = np.multiply.outer(np.outer((t[:-1] + t[1:]) / 2, y), nudge).reshape(-1, 1)
    n = eps.shape[0]
    s, facts, gain, cost = hull_route(spec, np.ones((n, 1)), eps, y[:, None], t[:, None])
    assert facts["path"] == "axis-hull"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()


def test_axis_hull_route_redoes_pairs_whose_scaled_slope_overflows():
    # a / y = 1e10 / 1e-300 overflows to inf: the pair's margins come out nan,
    # without a warning, and every pair is redone over the whole grid
    eps, y = np.array([[1e10], [2e10]]), np.array([[1e-300], [3e-300], [1e-299]])
    grid = lattice(9) / 4
    s, facts, gain, cost = hull_route(tinbergen_spec(), np.ones((2, 1)), eps, y, grid)
    assert facts["path"] == "axis-hull"
    assert s.tobytes() == dense_max_plus(gain, cost).tobytes()
    assert facts["cells_evaluated"] == 6 + 6 * grid.shape[0]


def test_lattice_axes_accept_only_the_row_major_product():
    axes = equilibrium._lattice_axes(lattice(3, 4, 2))
    assert [t.tolist() for t in axes] == [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0]]
    assert equilibrium._lattice_axes(build_z_grid([0.0], [1.0], 7))[0].size == 7
    assert equilibrium._lattice_axes(permuted_lattice()) is None
    assert equilibrium._lattice_axes(lattice(3, 3)[:-1]) is None  # a point short
    assert equilibrium._lattice_axes(np.repeat(lattice(3), 2, axis=0)) is None


def test_tinbergen_market_matches_analytic_quality():
    spec = tinbergen_spec()
    out = simulate_market(
        spec,
        x_spec=POINT_X,
        eps_spec=UNIT_1D,
        producer_spec=DistributionSpec.uniform([0.5], [1.5]),
        n_consumers=60,
        n_producers=60,
        z_grid=build_z_grid([-0.1], [2.5], 1301),
        seed=5,
    )
    eps = out.consumer_eps[out.pair_source, 0]
    y = out.producer_y[out.matching.support()[1], 0]
    step = 2.6 / 1300
    assert np.abs(out.traded_z[:, 0] - eps / y).max() <= step
    assert verify_equilibrium(out).passed


def test_single_pair_market():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 1, 1,
        z_grid=build_z_grid([0.0], [3.0], 500), seed=1,
    )
    assert out.n_pairs == 1
    assert out.indirect_w[0] == 0.0  # producer-side pin
    rep = verify_equilibrium(out)
    assert rep.passed


def test_duplicated_types_trade_identically():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec,
        POINT_X,
        DistributionSpec.point([0.5]),
        DistributionSpec.point([0.3]),
        3,
        3,
        z_grid=build_z_grid([0.0], [3.0], 400),
        seed=2,
    )
    assert np.unique(out.traded_z, axis=0).shape[0] == 1
    assert np.abs(out.prices - out.prices[0]).max() <= 1e-9


def test_market_clearing_and_price_split_hold_tightly():
    spec = quadratic_spec_1d()
    for n, m in ((30, 30), (24, 36), (25, 31)):
        out = simulate_market(
            spec, POINT_X, UNIT_1D, UNIT_1D, n, m,
            z_grid=build_z_grid([0.0], [3.0], 600), seed=n + m,
        )
        rep = verify_equilibrium(out)
        assert rep.passed, rep.failures
        assert rep.clearing_max_dev <= 1e-9
        assert rep.price_split_max_dev <= 1e-7


def test_boundary_abort_on_tiny_grid():
    spec = quadratic_spec_1d()
    with pytest.raises(GridBoundaryError, match="enlarge"):
        simulate_market(
            spec, POINT_X, UNIT_1D, UNIT_1D, 10, 10,
            z_grid=build_z_grid([0.0], [0.5], 20), seed=3,
        )


def test_cost_constant_shift_moves_prices_only():
    base = quadratic_spec_1d()
    shift = 2.5
    shifted_cost = ScalarFamily.polynomial(
        [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]},
         {"coeff": shift}],
        1,
        1,
    )
    shifted = StructuralSpec(u_bar=base.u_bar, cost=shifted_cost, zeta=base.zeta)
    kw = dict(
        x_spec=POINT_X, eps_spec=UNIT_1D, producer_spec=UNIT_1D,
        n_consumers=25, n_producers=25,
        z_grid=build_z_grid([0.0], [3.0], 500), seed=9,
    )
    out_a = simulate_market(base, **kw)
    out_b = simulate_market(shifted, **kw)
    assert np.array_equal(out_a.pair_source, out_b.pair_source)
    assert np.array_equal(out_a.matching.support()[1], out_b.matching.support()[1])
    assert np.array_equal(out_a.traded_z, out_b.traded_z)
    assert np.abs((out_b.prices - out_a.prices) - shift).max() <= 1e-9


# ---------------------------------------------------------------------------
# verify_equilibrium
# ---------------------------------------------------------------------------


def test_fresh_output_passes_at_tight_tolerance():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 40, 40,
        z_grid=build_z_grid([0.0], [3.0], 800), seed=4,
    )
    rep = verify_equilibrium(out)
    assert rep.passed
    assert rep.stability_min_margin >= -1e-7


def test_perturbed_price_is_flagged_with_blocker():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 20, 20,
        z_grid=build_z_grid([0.0], [3.0], 500), seed=6,
    )
    prices = out.prices.copy()
    prices[0] += 0.1
    tampered = dataclasses.replace(out, prices=prices)
    rep = verify_equilibrium(tampered)
    assert not rep.passed
    assert any("consumer" in f or "price split" in f for f in rep.failures)


SMALL_MARKETS = {
    "quadratic-1d": dict(
        spec=quadratic_spec_1d(), x_spec=POINT_X, eps_spec=UNIT_1D, producer_spec=UNIT_1D,
        z_grid=build_z_grid([0.0], [3.0], 120),
    ),
    "tinbergen-1d": dict(
        spec=tinbergen_spec(), x_spec=POINT_X, eps_spec=UNIT_1D,
        producer_spec=DistributionSpec.uniform([0.5], [1.5]),
        z_grid=build_z_grid([-0.1], [2.5], 140),
    ),
    "readme-2d": dict(
        spec=readme_spec(), x_spec=POINT_X,
        eps_spec=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]),
        producer_spec=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]),
        z_grid=build_z_grid([1.9, 1.9], [3.1, 3.1], 16),
    ),
}


@pytest.mark.parametrize("market", sorted(SMALL_MARKETS))
def test_simulated_prices_read_the_cost_tensor(market):
    out = simulate_market(**SMALL_MARKETS[market], n_consumers=23, n_producers=17, seed=2)
    jj = out.matching.support()[1]
    want = out.producer_cost[jj, out.traded_index] + out.indirect_w[jj]
    assert out.prices.tobytes() == want.tobytes()


def reevaluated_verification(outcome, spec, tol=1e-7):
    """Reference figures of verify_equilibrium with U and C evaluated again
    at the traded qualities (eval_rows, pairwise_grid) and stability taken
    on the dense joint surplus."""
    v, w = outcome.indirect_v, outcome.indirect_w
    n, m = v.shape[0], w.shape[0]
    src, tgt, _ = outcome.matching.support()
    x, eps, y = outcome.consumer_x, outcome.consumer_eps, outcome.producer_y
    grid, traded_z = outcome.z_grid, outcome.traded_z

    def utilities(z):  # (n, K)
        return spec.u_bar.pairwise_grid(x, z) + spec.zeta.pairwise_consumer_grid(x, eps, z)

    s = dense_max_plus(utilities(grid), spec.cost.pairwise_grid(y, grid))
    u_pairs = spec.u_bar.eval_rows(x[src], traded_z) + spec.zeta.eval_rows(
        x[src], eps[src], traded_z
    )
    c_pairs = spec.cost.eval_rows(y[tgt], traded_z)
    split = np.concatenate([u_pairs - v[src], c_pairs + w[tgt]]) - np.tile(outcome.prices, 2)
    figures = {
        "stability_min_margin": (v[:, None] + w[None, :] - s).min(),
        "support_equality_max_dev": np.abs(v[src] + w[tgt] - (u_pairs - c_pairs)).max(initial=0.0),
        "price_split_max_dev": np.abs(split).max(initial=0.0),
        "clearing_max_dev": outcome.matching.marginal_error(np.full(n, 1 / n), np.full(m, 1 / m)),
        "consumer_deviation_max_gain": -np.inf,
        "producer_deviation_max_gain": -np.inf,
    }
    if src.size > 1:
        own = np.arange(src.size)
        net = utilities(traded_z)[src] - outcome.prices
        profit = outcome.prices - spec.cost.pairwise_grid(y, traded_z)[tgt]
        figures["consumer_deviation_max_gain"] = (net.max(axis=1) - net[own, own]).max()
        figures["producer_deviation_max_gain"] = (profit.max(axis=1) - profit[own, own]).max()
    within_tol = [figures[k] for k in (
        "support_equality_max_dev", "price_split_max_dev",
        "consumer_deviation_max_gain", "producer_deviation_max_gain",
    )]
    passed = (
        figures["stability_min_margin"] >= -tol
        and figures["clearing_max_dev"] <= 1e-9
        and max(within_tol) <= tol
    )
    return figures, passed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(SMALL_MARKETS)),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["simulated", "certified", "tampered"]),
    st.integers(0, 2**16),
)
def test_grid_verification_matches_reevaluated_primitives(market, n, m, kind, seed):
    kw = dict(SMALL_MARKETS[market], n_consumers=n, n_producers=m, seed=seed,
              boundary_threshold=1.0)
    out = simulate_market(**kw)
    if kind == "certified":
        out, facts = certify_dataset(dataset=out.dataset, **kw)
        assert facts["dataset_matches_replay"]
    elif kind == "tampered":
        rng = np.random.default_rng(seed)
        prices = out.prices.copy()
        prices[rng.integers(prices.size)] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.3)
        out = dataclasses.replace(out, prices=prices)
    rep = verify_equilibrium(out)
    want, passed = reevaluated_verification(out, kw["spec"])
    assert rep.passed == passed, rep.failures
    for name, value in want.items():
        got = getattr(rep, name)
        assert got == value or abs(got - value) <= 1e-12, (name, got, value)


def test_single_pair_deviations_vacuous():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 1, 1,
        z_grid=build_z_grid([0.0], [3.0], 400), seed=7,
    )
    rep = verify_equilibrium(out)
    assert rep.passed
    assert rep.consumer_deviation_max_gain == -np.inf


# ---------------------------------------------------------------------------
# certify_dataset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(30, 30), (24, 36), (25, 31), (36, 24), (1, 4)])
@pytest.mark.parametrize("tied", [False, True])
def test_certificate_clears_the_simulated_dataset(n, m, tied):
    # tied: every consumer and every producer has the same type, so every
    # arc is tight and the flow alone picks the plan
    eps = DistributionSpec.point([0.5]) if tied else UNIT_1D
    producers = DistributionSpec.point([0.3]) if tied else UNIT_1D
    kw = dict(
        spec=quadratic_spec_1d(), x_spec=POINT_X, eps_spec=eps, producer_spec=producers,
        n_consumers=n, n_producers=m, z_grid=build_z_grid([0.0], [3.0], 300), seed=n + m,
    )
    out = simulate_market(**kw)
    cert, facts = certify_dataset(dataset=out.dataset, **kw)
    lcm = np.lcm(n, m)
    assert facts["dataset_matches_replay"] and facts["dataset_rows"] == out.n_pairs
    assert facts["flow_value"] == facts["flow_lcm"] == lcm
    rep = verify_equilibrium(cert)
    assert rep.passed, rep.failures
    assert rep.clearing_max_dev <= 1e-9
    assert np.abs(cert.indirect_v - out.indirect_v).max() <= 1e-9
    assert np.abs(cert.indirect_w - out.indirect_w).max() <= 1e-9


def test_certificate_of_a_dearer_row_leaves_producers_unmatched():
    kw = dict(
        spec=quadratic_spec_1d(), x_spec=POINT_X, eps_spec=UNIT_1D, producer_spec=UNIT_1D,
        n_consumers=6, n_producers=6, z_grid=build_z_grid([0.0], [3.0], 300), seed=3,
    )
    ds = simulate_market(**kw).dataset
    # the row's producer, and maybe others, now earn most there, where no
    # consumer buys
    p = ds.p.copy()
    p[0] += 0.25
    cert, facts = certify_dataset(dataset=MarketDataset(ds.x, ds.z, p), **kw)
    assert facts["flow_value"] < facts["flow_lcm"]
    rep = verify_equilibrium(cert)
    assert not rep.passed
    assert any("clearing" in f for f in rep.failures)


def test_certificate_of_rows_their_own_consumers_pass_over_is_empty():
    # two rows, each carrying the x of the consumer who prefers the other
    # row, so no arc is tight and the plan is empty
    spec = tinbergen_spec()
    kw = dict(
        spec=spec, x_spec=DistributionSpec.uniform([0.5], [1.5]), eps_spec=UNIT_1D,
        producer_spec=DistributionSpec.uniform([0.5], [1.5]), n_consumers=2,
        n_producers=2, z_grid=build_z_grid([0.0], [3.0], 31), seed=1,
    )
    x, eps, _ = equilibrium.sample_types(
        kw["x_spec"], kw["eps_spec"], kw["producer_spec"], 2, 2, seed=1
    )
    z = np.array([[2.0], [0.5]])
    gain = spec.u_bar.pairwise_grid(x, z) + spec.zeta.pairwise_consumer_grid(x, eps, z)
    step = gain[:, 0] - gain[:, 1]  # what each consumer pays at most for z = 2
    keen = int(np.argmax(step))
    ds = MarketDataset(x[[1 - keen, keen]], z, [step.mean(), 0.0])
    cert, facts = certify_dataset(dataset=ds, **kw)
    assert facts["dataset_matches_replay"] and facts["flow_value"] == 0
    assert cert.n_pairs == 0 and cert.boundary_fraction == 0.0
    rep = verify_equilibrium(cert)
    assert not rep.passed
    assert rep.clearing_max_dev == 0.5
    assert not atomlessness_diagnostic(cert)["applicable"]


# ---------------------------------------------------------------------------
# atomlessness diagnostic
# ---------------------------------------------------------------------------


def test_atomless_inputs_report_only_grid_duplicates():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 50, 50,
        z_grid=build_z_grid([0.0], [3.0], 3000), seed=8,
    )
    rep = atomlessness_diagnostic(out)
    assert rep["applicable"]
    assert rep["duplicates_from_atomic_inputs"] == 0


def test_atomic_taste_duplicates_are_attributed_to_inputs():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, DistributionSpec.point([0.5]), DistributionSpec.point([0.4]),
        4, 4, z_grid=build_z_grid([0.0], [3.0], 400), seed=9,
    )
    rep = atomlessness_diagnostic(out)
    assert rep["duplicates_from_atomic_inputs"] > 0


def atomlessness_by_group_loop(outcome):
    """Reference: the scan with one np.unique call per duplicate group."""
    uniq, inverse, counts = np.unique(
        outcome.traded_z, axis=0, return_inverse=True, return_counts=True
    )
    quantization = 0
    input_driven = 0
    for g in np.nonzero(counts > 1)[0]:
        pairs = np.nonzero(inverse == g)[0]
        eps_rows = outcome.consumer_eps[outcome.pair_source[pairs]]
        if np.unique(eps_rows, axis=0).shape[0] > 1:
            quantization += int(counts[g] - 1)
        else:
            input_driven += int(counts[g] - 1)
    return {
        "applicable": True,
        "n_pairs": int(outcome.n_pairs),
        "n_distinct_qualities": int(uniq.shape[0]),
        "duplicates_from_grid_quantization": quantization,
        "duplicates_from_atomic_inputs": input_driven,
        "note": "coincidences among distinct tastes reflect grid resolution",
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 30), st.integers(1, 3), st.integers(1, 2), st.data())
def test_atomlessness_counts_match_the_per_group_loop(n_pairs, d_z, d_eps, data):
    # qualities and tastes from a few small integers, so both repeat often;
    # a consumer may appear in several pairs
    n_consumers = data.draw(st.integers(1, n_pairs))
    values = st.integers(-1, 1).map(float)
    traded_z = np.array(data.draw(st.lists(values, min_size=n_pairs * d_z, max_size=n_pairs * d_z)))
    eps = np.array(data.draw(st.lists(values, min_size=n_consumers * d_eps, max_size=n_consumers * d_eps)))
    source = data.draw(st.lists(st.integers(0, n_consumers - 1), min_size=n_pairs, max_size=n_pairs))
    outcome = types.SimpleNamespace(
        n_pairs=n_pairs,
        traded_z=traded_z.reshape(n_pairs, d_z),
        consumer_eps=eps.reshape(n_consumers, d_eps),
        pair_source=np.array(source),
    )
    rep = atomlessness_diagnostic(outcome)
    expected = atomlessness_by_group_loop(outcome)
    assert rep == expected
    assert [type(v) for v in rep.values()] == [type(v) for v in expected.values()]


def test_single_pair_atomlessness_not_applicable():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 1, 1,
        z_grid=build_z_grid([0.0], [3.0], 400), seed=10,
    )
    assert not atomlessness_diagnostic(out)["applicable"]
