"""Market construction, verification, and diagnostics tests."""

import dataclasses
import types
from concurrent.futures import ThreadPoolExecutor
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
    simulate_market,
    verify_equilibrium,
)
from hedonic.measures import DistributionSpec
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
    assert np.array_equal(_max_plus(gain, cost, None)[0], dense_max_plus(gain, cost))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 12),
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, 7]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(1, 7, 1, 3, 1, True, 0)  # n = 1, G = 1, 3-row blocks leave a remainder
@example(2, 7, 2, 6, 2, True, 1)  # 3-row blocks, 7 producers
@example(3, 5, 12, 5, 3, False, 2)  # G above the block: one producer per block
@example(1, 4, 3, 40, 7, True, 3)  # one row, more CPUs than rows
@example(5, 3, 4, 8, 7, False, 4)  # fewer rows than CPUs
@example(8, 6, 5, 11, 3, True, 5)  # 8 rows over 3 workers: 2, 3, 3
def test_blocked_max_plus_equals_the_dense_max_bitwise(
    n, m, g, block_cells, cpus, ints, seed
):
    rng = np.random.default_rng(seed)
    if ints:  # tied integer values
        gain = rng.integers(-3, 4, size=(n, g)).astype(float)
        cost = rng.integers(-3, 4, size=(m, g)).astype(float)
    else:
        gain, cost = rng.normal(size=(n, g)), rng.normal(size=(m, g))
    with mock.patch.object(equilibrium, "_MAXPLUS_BLOCK_CELLS", block_cells), \
            mock.patch.object(equilibrium.os, "sched_getaffinity",
                              return_value=set(range(cpus))):
        assert equilibrium._maxplus_workers(n) == min(cpus, n)
        got = _max_plus(gain, cost, None)[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
def test_max_plus_without_an_affinity_call_uses_the_cpu_count(
    monkeypatch, cpu_count, workers
):
    monkeypatch.delattr(equilibrium.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(equilibrium.os, "cpu_count", lambda: cpu_count)
    assert equilibrium._maxplus_workers(10) == workers
    rng = np.random.default_rng(workers)
    gain, cost = rng.normal(size=(10, 30)), rng.normal(size=(4, 30))
    assert _max_plus(gain, cost, None)[0].tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("m, g", [(70, 1000), (3, 32768 + 5)])
def test_blocked_max_plus_at_the_module_block_size(m, g):
    # 32 producers per block with a remainder of 6; a grid above the block
    rng = np.random.default_rng(g)
    gain, cost = rng.normal(size=(2, g)), rng.normal(size=(m, g))
    assert _max_plus(gain, cost, None)[0].tobytes() == dense_max_plus(gain, cost).tobytes()


def lattice(*res):
    axes = [np.arange(r, dtype=float) for r in res]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(res))


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
    st.sampled_from([1, 2, 3, 7]),
)
@example((np.zeros((3, 1)), np.ones((5, 1)), lattice(1)), 7, 3)  # G = 1
@example((np.zeros((17, 4)), np.zeros((129, 4)), lattice(2, 2)), 32768, 2)  # all zero
@example(  # 1-D chain: every point but the last is dominated
    (np.outer(np.arange(1.0, 18.0), np.arange(300.0)),
     np.outer(np.linspace(0.0, 0.5, 130), np.arange(300.0)), lattice(300)),
    64, 3,
)
@example(  # duplicate points with distinct values; 33 rows, 257 producers
    (np.random.default_rng(1).normal(size=(33, 6)),
     np.random.default_rng(2).normal(size=(257, 6)),
     np.repeat(lattice(3), 2, axis=0)),
    7, 7,
)
def test_pruned_max_plus_equals_the_dense_max_bitwise(instance, block_cells, cpus):
    gain, cost, grid = instance
    with mock.patch.object(equilibrium, "_MAXPLUS_BLOCK_CELLS", block_cells), \
            mock.patch.object(equilibrium.os, "sched_getaffinity",
                              return_value=set(range(cpus))):
        got = _max_plus(gain, cost, grid)[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pruned_max_plus_instances(), st.sampled_from([2, 3, 7]))
def test_threaded_max_plus_equals_one_worker_bitwise(instance, cpus):
    # with no thread floor the row tiles are split over the CPUs; every tile
    # makes the same float operations on any thread
    gain, cost, grid = instance
    with mock.patch.object(equilibrium.os, "sched_getaffinity", return_value={0}):
        serial = equilibrium._max_plus(gain, cost, grid)
    with mock.patch.object(equilibrium, "_MAXPLUS_THREAD_CELLS", 0), \
            mock.patch.object(equilibrium.os, "sched_getaffinity",
                              return_value=set(range(cpus))):
        threaded = equilibrium._max_plus(gain, cost, grid)
    assert threaded[0].tobytes() == serial[0].tobytes()
    assert threaded[1] == serial[1]


def readme_spec_arrays(n, res, seed):
    """Consumer gains and producer costs of the README's 2-D bilinear spec
    on a res x res grid over [1.9, 3.1]^2."""
    spec = StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=[4.0, 4.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )
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
    (cmask, _), (dmask, _) = equilibrium._candidate_masks(gain, cost, grid)
    arg = np.argmax(gain[:, None, :] - cost[None, :, :], axis=2)  # first index
    rows, cols = np.indices(arg.shape)
    assert np.all(cmask[rows, arg] & dmask[cols, arg])
    if case == "readme":
        dense_cells = gain.shape[0] * cost.shape[0] * grid.shape[0]
        kept_cells = cmask.sum(axis=0) @ dmask.sum(axis=0)
        assert kept_cells < 0.5 * dense_cells
        # tiles evaluate the unions of their rows' masks: at least the kept cells
        assert kept_cells <= equilibrium._max_plus(gain, cost, grid)[1] < dense_cells


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
        (np.repeat(lattice(3), 2, axis=0), [2]),  # duplicate points
        (np.random.default_rng(0).normal(size=(30, 2)), [1]),  # scattered
    ],
)
def test_grid_strides_are_the_lattice_axis_strides(grid, strides):
    g = 60 if grid is None else grid.shape[0]
    assert equilibrium._grid_strides(grid, g) == strides


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
        got = equilibrium._candidate_masks(gain, cost, grid)
    for (mask, _), (ref, _) in zip(got, lexsort_candidate_masks(gain, cost, grid)):
        assert np.all(mask | ~ref)


@pytest.mark.parametrize("n, res, seed", [(80, 30, 4), (100, 30, 7), (64, 45, 2)])
def test_stride_masks_equal_the_lexsort_masks_on_readme_lattices(n, res, seed):
    gain, cost, grid = readme_spec_arrays(n, res, seed)
    got = equilibrium._candidate_masks(gain, cost, grid)
    for (mask, key), (ref, ref_key) in zip(got, lexsort_candidate_masks(gain, cost, grid)):
        assert np.array_equal(mask, ref)
        assert key.tobytes() == ref_key.tobytes()


@pytest.mark.parametrize("n, cpus", [(40, 1), (16, 7), (64, 2)])
def test_max_plus_with_one_worker_starts_no_thread(n, cpus):
    # 16 rows make one row tile, so one worker whatever the CPU count; 64
    # rows make four row tiles, but 64 x 64 x 144 cells are below the floor
    gain, cost, grid = readme_spec_arrays(n, 12, seed=n)
    assert n * n * grid.shape[0] < equilibrium._MAXPLUS_THREAD_CELLS
    with mock.patch.object(equilibrium.os, "sched_getaffinity",
                           return_value=set(range(cpus))), \
            mock.patch.object(equilibrium, "ThreadPoolExecutor",
                              side_effect=AssertionError("pool started")):
        got = _max_plus(gain, cost, grid)[0]
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("above", [0, 1])
def test_max_plus_threads_from_the_floor_up(above):
    # 64 rows make four row tiles over two CPUs; the floor sits at or just
    # above the product's 64 x 64 x 144 dense cells
    gain, cost, grid = readme_spec_arrays(64, 12, seed=1)
    pools = []

    def counted(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return ThreadPoolExecutor(*args, **kwargs)

    with mock.patch.object(equilibrium, "_MAXPLUS_THREAD_CELLS", 64 * 64 * 144 + above), \
            mock.patch.object(equilibrium.os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(equilibrium, "ThreadPoolExecutor", counted):
        got = _max_plus(gain, cost, grid)[0]
    assert pools == ([] if above else [2])
    assert got.tobytes() == dense_max_plus(gain, cost).tobytes()


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
    y = out.producer_y[out.pair_target, 0]
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
    assert np.array_equal(out_a.pair_target, out_b.pair_target)
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
    rep = verify_equilibrium(out, tol=1e-7)
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
