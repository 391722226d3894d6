"""Scans taken in row blocks, against their one-shot forms, and their memory.

Each one-shot form below builds its n x G, n x K or m x m array whole, as
the code did before it was blocked.  The blocked forms must return the
same floats, zero signs included, on degenerate inputs (one agent, one
grid point, one dataset row, ties), and hold no more than a fixed block
budget above their inputs and outputs.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hedonic import equilibrium, identify, measures
from hedonic.equilibrium import build_z_grid, certify_dataset, simulate_market, verify_equilibrium
from hedonic.measures import DistributionSpec, MarketDataset, from_samples
from hedonic.ot import DualPair, exact_solver_path, solve_exact, surplus_matrix
from hedonic.surplus import _UNIT, ScalarFamily, StructuralSpec, SurplusFamily, check_twist

POINT_X = DistributionSpec.point([1.0])
UNIT_1D = DistributionSpec.uniform([0.0], [1.0])
UNIT_BOX = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
# A fixed 4 MiB, whatever the block budget: 32 blocks of the default
# measures.BLOCK_CELLS = 2^14 doubles.
BUDGET = 4 << 20
# Ties everywhere, and zeros of both signs.
TIED = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]


def quadratic_spec_1d():
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(1), center_offset=[2.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
        ),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )


def readme_spec():
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=[4.0, 4.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tied(rng, shape, values=TIED):
    return rng.choice(np.array(values), size=shape)


# ---------------------------------------------------------------------------
# one-shot forms
# ---------------------------------------------------------------------------


def oneshot_envelope(gain, cost, v, w):
    upper = (gain - v[:, None]).max(axis=0)
    lower = (cost + w[:, None]).min(axis=0)
    gap = lower - upper
    g = int(np.argmin(gap))
    return float(gap[g]), g, int(np.argmax(gain[:, g] - v)), int(np.argmin(cost[:, g] + w))


def oneshot_best_trades(gain, cost, traded_index, prices):
    return (
        (gain[:, traded_index] - prices[None, :]).max(axis=1),
        (prices[None, :] - cost[:, traded_index]).max(axis=1),
    )


def oneshot_tight_arcs(gain, cost, row_grid, p, x, row_xs):
    same_x = (x[:, None, :] == row_xs[None, :, :]).all(axis=2)
    net = gain[:, row_grid] - p
    profit = p - cost[:, row_grid]
    v = net.max(axis=1)
    w = profit.max(axis=1)
    half = equilibrium._TOL / 2
    return (
        (v, *np.nonzero(same_x & (net >= v[:, None] - half))),
        (w, *np.nonzero(profit >= w[:, None] - half)),
    )


def oneshot_neighbour_order(z, k):
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable")[:, : k + 1]


def oneshot_axis_hull(t, f):
    """The hull with every vertex's slopes taken to all R points: the
    O(R V) form of the slope bounds."""
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
    bounds = np.empty((2, v.size))
    index = np.arange(t.size)
    for c0 in range(0, v.size, 64):
        vv = v[c0:c0 + 64, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (f - f[vv]) / (t - t[vv])
        pad = 8 * _UNIT * np.abs(slope)
        right, left = index > vv, index < vv
        bounds[0, c0:c0 + 64] = np.where(right, slope + pad, -np.inf).max(axis=1)
        bounds[1, c0:c0 + 64] = np.where(left, slope - pad, np.inf).min(axis=1)
    after = np.append(t, np.inf)[v + 1] - t[v]
    before = t[v] - np.insert(t, 0, -np.inf)[v]
    return equilibrium._AxisHull(v, neg_slopes, bounds[0], after, bounds[1], before)


# ---------------------------------------------------------------------------
# degenerate inputs: blocked equals one-shot
# ---------------------------------------------------------------------------

# 1 cell gives one row per block; 32768 one block for these sizes
BLOCK_CELLS = st.sampled_from([1, 2, 5, 32768])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(1, 8),
       BLOCK_CELLS, SEEDS)
@example(1, 1, 1, 1, 1, 0)  # n = m = 1 and G = 1
@example(1, 1, 4, 1, 1, 1)  # n = m = 1
@example(5, 3, 1, 6, 2, 2)  # G = 1
def test_blocked_envelope_and_pair_argmax_equal_the_one_shot_forms(n, m, g, pairs, cells, seed):
    rng = np.random.default_rng(seed)
    gain, cost = tied(rng, (n, g)), tied(rng, (m, g))
    v, w = tied(rng, n), tied(rng, m)
    ii, jj = rng.integers(0, n, pairs), rng.integers(0, m, pairs)
    with mock.patch.object(measures, "BLOCK_CELLS", cells):
        margin, *where = equilibrium._envelope_margin(gain, cost, v, w)
        arg = equilibrium._pair_argmax(gain, cost, ii, jj)
    want, *want_where = oneshot_envelope(gain, cost, v, w)
    assert same_bits(margin, want) and where == want_where
    assert same_bits(arg, np.argmax(gain[ii] - cost[jj], axis=1))


def test_envelope_takes_the_sign_of_a_zero_tie_from_the_one_shot_form():
    # every entry is a zero of one sign or the other, so each side's
    # extreme is a tie of +0.0 and -0.0 at every grid point
    gain = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]])
    zero = np.zeros(3)
    for cost in (-gain, gain):
        want = oneshot_envelope(gain, cost, zero, zero)
        for cells in (1, 3, 6, 32768):
            with mock.patch.object(measures, "BLOCK_CELLS", cells):
                got = equilibrium._envelope_margin(gain, cost, zero, zero)
            assert same_bits(got[0], want[0]) and got[1:] == want[1:]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(1, 9),
       BLOCK_CELLS, SEEDS)
@example(1, 1, 1, 1, 1, 0)  # one consumer, producer, grid point and trade
@example(4, 3, 1, 5, 2, 1)  # G = 1: every trade at one quality
def test_best_trades_over_distinct_qualities_equal_the_one_shot_scan(n, m, g, k, cells, seed):
    # a few grid points and integer prices, so trades share a quality at
    # equal and at different prices; no -0.0, whose difference with a +0.0
    # price is the one place where the two scans may keep the other zero
    rng = np.random.default_rng(seed)
    values = [-2.0, -1.0, 0.0, 1.0, 2.0]
    gain, cost = tied(rng, (n, g), values), tied(rng, (m, g), values)
    traded = rng.integers(0, g, k)
    prices = tied(rng, k, [-1.0, 0.0, 0.5, 1.0, 3.0])
    with mock.patch.object(measures, "BLOCK_CELLS", cells):
        got = equilibrium._best_trades(gain, cost, traded, prices)
    for a, b in zip(got, oneshot_best_trades(gain, cost, traded, prices)):
        assert same_bits(a, b)


def test_best_trades_at_one_quality_read_its_lowest_and_highest_price():
    gain = np.array([[1.0, 5.0], [2.0, 0.5]])
    cost = np.array([[0.0, 1.0]])
    traded = np.array([1, 1, 1, 0])
    prices = np.array([4.0, 3.0, 4.5, 0.25])
    got = equilibrium._best_trades(gain, cost, traded, prices)
    assert got[0].tolist() == [2.0, 1.75] and got[1].tolist() == [3.5]
    for a, b in zip(got, oneshot_best_trades(gain, cost, traded, prices)):
        assert same_bits(a, b)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(1, 7),
       BLOCK_CELLS, SEEDS)
@example(1, 1, 1, 1, 1, 0)  # one consumer, producer, grid point and row (K = 1)
@example(5, 4, 3, 1, 2, 1)  # K = 1
def test_blocked_tight_arcs_equal_the_one_shot_arcs(n, m, g, k, cells, seed):
    # x of one axis from +-0.0 and 1, so consumers share x, -0.0 meets 0.0,
    # and a row with x = 2 has no consumer
    rng = np.random.default_rng(seed)
    gain, cost = tied(rng, (n, g)), tied(rng, (m, g))
    x = tied(rng, (n, 1), [-0.0, 0.0, 1.0])
    row_xs = tied(rng, (k, 1), [-0.0, 0.0, 1.0, 2.0])
    row_grid, p = rng.integers(0, g, k), tied(rng, k)
    consumer_x = equilibrium._row_index(x, x)
    row_x = equilibrium._row_index(x, row_xs)
    with mock.patch.object(measures, "BLOCK_CELLS", cells):
        got = equilibrium._tight_arcs(gain, cost, row_grid, p, consumer_x, row_x)
    want = oneshot_tight_arcs(gain, cost, row_grid, p, x, row_xs)
    for side, want_side in zip(got, want):
        assert same_bits(side[0], want_side[0])
        assert all(np.array_equal(a, b) for a, b in zip(side[1:], want_side[1:]))
    # a row is some consumer's exactly when the one-shot test finds one
    assert np.array_equal(row_x >= 0, (x[:, None, :] == row_xs[None]).all(axis=2).any(axis=0))


@pytest.mark.parametrize("cells", [1, 7, 32768])
@pytest.mark.parametrize("n, m, res", [(1, 1, 2), (1, 5, 40), (6, 1, 40), (12, 18, 60)])
def test_certificate_is_the_same_in_any_block_size(n, m, res, cells):
    kw = dict(
        spec=quadratic_spec_1d(), x_spec=POINT_X, eps_spec=UNIT_1D, producer_spec=UNIT_1D,
        n_consumers=n, n_producers=m, z_grid=build_z_grid([0.0], [3.0], res), seed=n + m,
        boundary_threshold=1.0,
    )
    ds = simulate_market(**kw).dataset
    whole, facts = certify_dataset(dataset=ds, **kw)
    with mock.patch.object(measures, "BLOCK_CELLS", cells):
        blocked, blocked_facts = certify_dataset(dataset=ds, **kw)
        assert verify_equilibrium(blocked) == verify_equilibrium(whole)
    assert blocked_facts == facts
    for a, b in [(blocked.matching.rows, whole.matching.rows),
                 (blocked.matching.mass, whole.matching.mass),
                 (blocked.traded_index, whole.traded_index), (blocked.prices, whole.prices),
                 (blocked.indirect_v, whole.indirect_v), (blocked.indirect_w, whole.indirect_w)]:
        assert same_bits(a, b)


def test_certificate_of_a_single_row_and_a_single_grid_point():
    # K = 1 and G = 1: every agent trades the one row at the one quality
    spec = quadratic_spec_1d()
    grid = np.array([[1.0]])
    kw = dict(spec=spec, x_spec=POINT_X, eps_spec=UNIT_1D, producer_spec=UNIT_1D,
              n_consumers=3, n_producers=2, z_grid=grid, seed=2, boundary_threshold=1.0)
    ds = MarketDataset(np.ones((1, 1)), grid, [0.75])
    for cells in (1, 32768):
        with mock.patch.object(measures, "BLOCK_CELLS", cells):
            cert, facts = certify_dataset(dataset=ds, **kw)
        assert facts["tight_arcs"] == 5 and facts["flow_value"] == facts["flow_lcm"] == 6
        assert cert.traded_index.tolist() == [0] * cert.n_pairs
        rep = verify_equilibrium(cert)
        assert rep.passed and rep.consumer_deviation_max_gain == 0.0


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 30), st.integers(0, 8),
       st.sampled_from([1, 3, 40, 1 << 15]), SEEDS)
@example(2, 1, 3, 1, 0)  # one point
def test_neighbour_rows_equal_the_stable_argsort_prefix(d, m, k, cells, seed):
    # half steps on a small lattice: many points at equal distances, so the
    # (k + 1)-th column often falls inside a run of ties; duplicates too
    z = np.random.default_rng(seed).integers(0, 3, size=(m, d)) / 2.0
    with mock.patch.object(measures, "BLOCK_CELLS", cells):
        got = identify._neighbour_order(z, k)
    assert same_bits(got, oneshot_neighbour_order(z, k).astype(np.intp))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_neighbour_rows_cut_a_run_of_tied_distances_by_index(k):
    # a 3 x 3 lattice: the centre's four axis neighbours tie at distance 1
    # and its four diagonal ones at sqrt(2), so k = 1..3 cut the first run
    z = np.stack(np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], indexing="ij"), axis=-1)
    z = z.reshape(9, 2)
    got = identify._neighbour_order(z, k)
    assert got[4].tolist() == [4, 1, 3, 5, 7, 0][: k + 1]
    assert same_bits(got, oneshot_neighbour_order(z, k).astype(np.intp))


def at_budgets(f):
    """f() under block budgets of 1, 2 and 5 cells and the default."""
    runs = []
    for cells in (1, 2, 5, measures.BLOCK_CELLS):
        with mock.patch.object(measures, "BLOCK_CELLS", cells):
            runs.append(f())
    return runs


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(SEEDS)
def test_solves_twist_witness_and_dual_margin_are_the_same_at_any_budget(seed):
    rng = np.random.default_rng(seed)
    # the dual relaxation, its c-transform and the assignment's warm start
    # (from 64 rows up) on both exact-solver paths
    zeta = SurplusFamily.bilinear(2)
    for n, m, path in ((80, 40, "replicated"), (70, 30, "lp")):
        mu, nu = from_samples(rng.uniform(size=(n, 2))), from_samples(rng.uniform(size=(m, 2)))
        assert exact_solver_path(mu.weights, nu.weights) == path
        s = surplus_matrix(mu, nu, zeta)
        runs = at_budgets(lambda: solve_exact(mu, nu, s))
        for plan, duals in runs[1:]:
            want_plan, want_duals = runs[0]
            assert same_bits(plan.rows, want_plan.rows) and same_bits(plan.cols, want_plan.cols)
            assert same_bits(plan.mass, want_plan.mass)
            assert same_bits(plan.objective, want_plan.objective)
            assert same_bits(duals.w_source, want_duals.w_source)
            assert same_bits(duals.v_target, want_duals.v_target)
        # the solve's duals, and tied ones with zeros of both signs
        for duals, surplus in ((runs[0][1], s),
                               (DualPair(tied(rng, n), tied(rng, m), 0), tied(rng, (n, m)))):
            margins = at_budgets(lambda: duals.feasibility_margin(surplus))
            assert all(same_bits(a, margins[0]) for a in margins)
    # grad_z zeta = eps z + eps^2: tastes 0.25 and -0.75 share the gradient
    # 0.1875 only at z = 0.5, which the shuffle puts in any block
    crossing = SurplusFamily.polynomial(
        [{"coeff": 0.5, "eps": [1], "z": [2]}, {"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1
    )
    z = rng.permutation(np.linspace(-1.0, 0.5, 31))[:, None]
    reports = at_budgets(lambda: check_twist(crossing, np.zeros(0), [[0.25], [-0.75]], z))
    assert reports[0].witness[2].tolist() == [0.5]
    for rep in reports:
        assert all(same_bits(a, b) for a, b in zip(rep.witness, reports[0].witness))
        assert same_bits(rep.min_singular_value, reports[0].min_singular_value)


def axes():
    t = np.linspace(-1.0, 2.0, 900)
    return {
        "concave-900": (t, -(t**2)),
        "flat": (t[:130], np.zeros(130)),
        "convex": (t[:70], t[:70] ** 2),
        "one-point": (np.array([0.5]), np.array([3.0])),
        "two-points": (np.array([0.0, 1.0]), np.array([1.0, -1.0])),
        "signed-zeros": (np.arange(6.0), np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])),
        "random": (np.sort(np.random.default_rng(3).uniform(-5, 5, 300)),
                   np.random.default_rng(4).normal(size=300)),
        "overflowing": (np.linspace(0.0, 1e-300, 70),
                        np.concatenate([[-1.7e308], np.zeros(68), [1.7e308]])),
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing axis
@pytest.mark.parametrize("name", sorted(axes()))
def test_axis_hull_slopes_on_one_side_equal_the_all_points_form(name):
    t, f = axes()[name]
    got, want = equilibrium._axis_hull(t, f), oneshot_axis_hull(t, f)
    for field in ("point", "neg_slopes", "right_slope", "right_gap", "left_slope", "left_gap"):
        assert same_bits(getattr(got, field), getattr(want, field)), field


@st.composite
def small_axes(draw):
    """(shape, t, f) of a small axis: strictly concave (integer slopes that
    fall at every point), convex, flat, near-collinear at rounding level
    (a line with some values moved by an ulp) or integer-valued."""
    size = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.integers(1, 4), min_size=size - 1, max_size=size - 1))
    t = draw(st.sampled_from([1.0, 0.1, 1e-3])) * np.cumsum([0] + gaps, dtype=float)
    shape = draw(st.sampled_from(["concave", "convex", "flat", "near-collinear", "integer"]))
    if shape == "concave":
        # integer t and f, so the exact hull holds every point
        t = np.cumsum([0] + gaps, dtype=float)
        drops = draw(st.lists(st.integers(1, 5), min_size=size - 1, max_size=size - 1))
        slopes = draw(st.integers(-10, 10)) - np.cumsum(drops)
        f = np.cumsum(np.concatenate([[0], slopes * np.diff(t)]), dtype=float)
    elif shape == "convex":
        f = draw(st.sampled_from([1.0, 1e-8])) * t**2
    elif shape == "flat":
        f = np.full(size, draw(st.sampled_from([0.0, -0.0, 3.0])))
    elif shape == "near-collinear":
        f = 0.1 * t + 0.7
        moved = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size,
                                       max_size=size)))
        f = np.where(moved > 0, np.nextafter(f, np.inf), f)
        f = np.where(moved < 0, np.nextafter(f, -np.inf), f)
    else:
        f = np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)),
                     dtype=float)
    return shape, t, f


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_axes())
def test_axis_hull_slope_bounds_hold_the_exact_slopes(axis):
    shape, t, f = axis
    hull = equilibrium._axis_hull(t, f)
    exact_t, exact_f = [Fraction(x) for x in t], [Fraction(x) for x in f]
    for q, v in enumerate(hull.point):
        def slope(r):
            return (exact_f[r] - exact_f[v]) / (exact_t[r] - exact_t[v])
        assert all(slope(r) <= hull.right_slope[q] for r in range(v + 1, t.size))
        assert all(slope(r) >= hull.left_slope[q] for r in range(v))
    if shape == "concave":
        want = oneshot_axis_hull(t, f)
        assert same_bits(hull.point, np.arange(t.size))
        for field in ("neg_slopes", "right_slope", "right_gap", "left_slope", "left_gap"):
            assert same_bits(getattr(hull, field), getattr(want, field)), field


# ---------------------------------------------------------------------------
# memory: peaks above the inputs and outputs stay within the block budget
# ---------------------------------------------------------------------------


def traced_peak(f, *args, **kwargs):
    """f's result and the largest traced memory allocated while it ran."""
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def market_1d():
    # a 1-D market with many more rows than grid points, where the one-shot
    # n x K scans are the largest arrays
    kw = dict(spec=quadratic_spec_1d(), x_spec=POINT_X, eps_spec=UNIT_1D,
              producer_spec=UNIT_1D, n_consumers=1000, n_producers=1000,
              z_grid=build_z_grid([0.0], [3.0], 300), seed=5)
    return kw, simulate_market(**kw)


def test_simulate_holds_no_pair_by_grid_array():
    # README spec with G much larger than n: the pairs' quality argmax
    # taken whole gathers two n_pairs x G arrays
    n, grid = 300, build_z_grid([1.9, 1.9], [3.1, 3.1], 45)
    g = grid.shape[0]
    _, peak = traced_peak(
        simulate_market, readme_spec(), POINT_X, UNIT_BOX, UNIT_BOX, n, n, grid, seed=3
    )
    # the grid tensors, S and the assignment's N x N cost
    assert peak <= 8 * (2 * n * g + 2 * n * n) + BUDGET


def test_verify_holds_no_agent_by_grid_or_agent_by_trade_array(market_1d):
    _, outcome = market_1d
    report, peak = traced_peak(verify_equilibrium, outcome)
    assert report.passed
    assert peak <= BUDGET


def test_certify_holds_no_agent_by_row_array(market_1d):
    kw, outcome = market_1d
    (cert, facts), peak = traced_peak(certify_dataset, dataset=outcome.dataset, **kw)
    assert facts["flow_value"] == facts["flow_lcm"]
    n, m, g = kw["n_consumers"], kw["n_producers"], kw["z_grid"].shape[0]
    # the grid tensors it evaluates and returns in the outcome
    assert peak <= 8 * (n + m) * g + BUDGET


def test_neighbour_order_holds_no_point_by_point_array():
    z = np.random.default_rng(0).uniform(size=(1000, 2))
    order, peak = traced_peak(identify._neighbour_order, z, 6)
    assert order.shape == (1000, 7)
    assert peak <= order.nbytes + BUDGET
