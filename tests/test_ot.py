"""Exact and entropic transport solver tests against independent oracles."""

import contextlib
import functools
import itertools
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from hedonic.measures import from_samples, product_grid
from hedonic.ot import (
    SPARSITY_THRESHOLD,
    DualPair,
    TransportPlan,
    _copy_counts,
    _duals_from_support,
    _exact_lp,
    _PRICING_ULPS,
    _lexicographic_order,
    _pin,
    _replicated_matching,
    barycentric_projection,
    check_cyclical_monotonicity,
    exact_solver_path,
    read_duals_csv,
    read_plan_csv,
    solve_entropic,
    solve_exact,
    surplus_matrix,
    write_duals_csv,
    write_plan_csv,
)
from hedonic.surplus import SurplusFamily

NO_X = np.zeros(0)


def brute_force_assignment_value(surplus):
    """Oracle: best uniform-matching objective by full permutation scan."""
    n = surplus.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    values = surplus[np.arange(n)[None, :], perms].sum(axis=1) / n
    return values.max()


@functools.lru_cache(maxsize=None)
def permutations(k):
    """All k! permutations of range(k), one per row (int8: 3.3 MB at k = 9)."""
    return np.array(list(itertools.permutations(range(k))), dtype=np.int8)


def brute_force_replicated_value(surplus, mu_copies, nu_copies):
    """Oracle: repeat points by integer copies summing to K, then scan all
    K! matchings of the copies; each matched pair carries mass 1/K."""
    rows = np.repeat(np.arange(surplus.shape[0]), mu_copies)
    cols = np.repeat(np.arange(surplus.shape[1]), nu_copies)
    k = rows.shape[0]
    perms = permutations(k)
    values = surplus[rows[None, :], cols[perms]].sum(axis=1) / k
    return values.max()


def dense(plan):
    """The plan's coupling as a dense matrix."""
    coupling = np.zeros(plan.shape)
    coupling[plan.rows, plan.cols] = plan.mass
    return coupling


def random_instance(rng, n, m, uniform=False):
    mu = from_samples(
        rng.normal(size=(n, 2)), None if uniform else rng.random(n) + 0.05
    )
    nu = from_samples(
        rng.normal(size=(m, 2)), None if uniform else rng.random(m) + 0.05
    )
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(2))
    return mu, nu, s


# ---------------------------------------------------------------------------
# surplus_matrix
# ---------------------------------------------------------------------------


def test_surplus_matrix_bilinear_products():
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    assert np.array_equal(s, [[0.0, 0.0], [0.0, 1.0]])


def test_surplus_matrix_single_pair():
    mu = from_samples(np.array([[2.0]]))
    nu = from_samples(np.array([[3.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    assert s.shape == (1, 1) and s[0, 0] == 6.0


def test_surplus_matrix_neg_quadratic_zero_diagonal():
    pts = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    mu = from_samples(pts)
    nu = from_samples(pts)
    s = surplus_matrix(mu, nu, SurplusFamily.neg_quadratic(np.eye(2)))
    assert np.allclose(np.diag(s), 0.0)


# ---------------------------------------------------------------------------
# solve_exact
# ---------------------------------------------------------------------------


def test_two_by_two_identity_matching():
    # oracle: enumerate both couplings; identity gives 0.5, swap gives 0
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    plan, duals = solve_exact(mu, nu, s)
    assert abs(plan.objective - 0.5) <= 1e-12
    assert np.allclose(dense(plan), np.eye(2) / 2)
    assert duals.v_target[duals.normalization] == 0.0


def test_single_target_forced_plan():
    rng = np.random.default_rng(0)
    mu = from_samples(rng.normal(size=(5, 1)), rng.random(5) + 0.1)
    nu = from_samples(np.array([[1.5]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    plan, duals = solve_exact(mu, nu, s)
    assert np.allclose(dense(plan)[:, 0], mu.weights)
    assert abs(plan.objective - mu.weights @ s[:, 0]) <= 1e-12
    assert duals.feasibility_margin(s) >= -1e-9


def test_uniform_seven_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(3):
        mu, nu, s = random_instance(rng, 7, 7, uniform=True)
        plan, _ = solve_exact(mu, nu, s)
        assert abs(plan.objective - brute_force_assignment_value(s)) <= 1e-9


def test_lp_path_matches_brute_force_on_uniform_weights():
    # force the LP path with explicitly non-divisible sizes and check one
    # uniform sub-case via permutation enumeration of the square restriction
    rng = np.random.default_rng(5)
    mu, nu, s = random_instance(rng, 6, 6, uniform=False)
    plan, duals = solve_exact(mu, nu, s)
    gap = abs(plan.objective - duals.objective(mu.weights, nu.weights))
    assert gap <= 1e-7 * (1 + abs(plan.objective))
    assert duals.feasibility_margin(s) >= -1e-9
    assert duals.slackness_error(plan, s) <= 1e-7
    assert plan.marginal_error(mu.weights, nu.weights) <= 1e-9


@pytest.mark.parametrize("n,m", [(9, 3), (4, 12), (30, 30)])
def test_divisible_uniform_duality(n, m):
    rng = np.random.default_rng(n * 100 + m)
    mu, nu, s = random_instance(rng, n, m, uniform=True)
    plan, duals = solve_exact(mu, nu, s)
    assert plan.marginal_error(mu.weights, nu.weights) <= 1e-12
    assert abs(plan.objective - duals.objective(mu.weights, nu.weights)) <= 1e-9
    assert duals.feasibility_margin(s) >= -1e-9
    assert duals.slackness_error(plan, s) <= 1e-9


def test_sorted_bilinear_one_dim_is_comonotone():
    # quantile-transform equivalence: rank-to-rank coupling in 1-D
    rng = np.random.default_rng(8)
    for _ in range(5):
        eps = np.sort(rng.normal(size=12))
        z = np.sort(rng.normal(size=12))
        mu, nu = from_samples(eps[:, None]), from_samples(z[:, None])
        s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
        plan, _ = solve_exact(mu, nu, s)
        assert np.allclose(dense(plan), np.eye(12) / 12)


def test_bilinear_support_pair_monotonicity():
    rng = np.random.default_rng(21)
    mu, nu, s = random_instance(rng, 25, 25, uniform=True)
    plan, _ = solve_exact(mu, nu, s)
    ii, jj, _ = plan.support()
    de = mu.points[ii][:, None, :] - mu.points[ii][None, :, :]
    dz = nu.points[jj][:, None, :] - nu.points[jj][None, :, :]
    inner = np.einsum("abk,abk->ab", de, dz)
    assert inner.min() >= -1e-9


# ---------------------------------------------------------------------------
# solve_entropic
# ---------------------------------------------------------------------------


def test_entropic_large_epsilon_gives_product_measure():
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    res = solve_entropic(mu, nu, s, epsilon=500.0, tol=1e-12)
    product = np.outer(mu.weights, nu.weights)
    assert np.abs(dense(res.plan) - product).max() <= 1e-3


def test_entropic_small_epsilon_matches_exact_plan():
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    exact_plan, _ = solve_exact(mu, nu, s)
    res = solve_entropic(mu, nu, s, epsilon=1e-3, tol=1e-10)
    assert res.converged
    assert np.abs(dense(res.plan) - dense(exact_plan)).max() <= 1e-2


def test_entropic_point_mass_converges_in_one_iteration():
    mu = from_samples(np.array([[0.0]]))
    nu = from_samples(np.array([[1.0]]))
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    res = solve_entropic(mu, nu, s, epsilon=1.0, tol=1e-12)
    assert res.converged and res.iterations == 1
    assert np.allclose(dense(res.plan), [[1.0]])


def test_entropic_entropy_gap_bound():
    rng = np.random.default_rng(3)
    mu, nu, s = random_instance(rng, 12, 12, uniform=True)
    exact_plan, _ = solve_exact(mu, nu, s)
    for eps in (0.3, 0.15):
        res = solve_entropic(mu, nu, s, epsilon=eps, tol=1e-7, max_iter=20_000)
        assert res.converged
        # rounding moves the objective by at most |S|_inf * tol
        slack = float(np.abs(s).max()) * 1e-7
        assert res.plan.objective <= exact_plan.objective + slack
        gap_bound = eps * np.log(s.shape[0] * s.shape[1])
        assert res.plan.objective >= exact_plan.objective - gap_bound - slack
        # the rounded plan is exactly feasible
        assert res.plan.marginal_error(mu.weights, nu.weights) <= 1e-12


def test_entropic_reports_non_convergence():
    rng = np.random.default_rng(4)
    mu, nu, s = random_instance(rng, 20, 20, uniform=True)
    res = solve_entropic(mu, nu, s, epsilon=1e-4, tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_entropic_rejects_bad_parameters():
    mu = from_samples(np.array([[0.0]]))
    with pytest.raises(ValueError):
        solve_entropic(mu, mu, np.zeros((1, 1)), epsilon=-1.0)
    with pytest.raises(ValueError):
        solve_entropic(mu, mu, np.zeros((1, 1)), epsilon=1.0, tol=0.0)


# ---------------------------------------------------------------------------
# barycentric projection
# ---------------------------------------------------------------------------


def test_projection_passes_through_permutation_plans():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(8, 2))
    perm = rng.permutation(8)
    coupling = np.zeros((8, 8))
    coupling[np.arange(8), perm] = 1 / 8
    plan = TransportPlan.from_dense(coupling, 0.0)
    proj, valid = barycentric_projection(plan, pts)
    assert np.all(valid)
    assert np.allclose(proj[perm], pts)


def test_projection_averages_split_mass():
    coupling = np.array([[0.5], [0.5]])
    plan = TransportPlan.from_dense(coupling, 0.0)
    proj, valid = barycentric_projection(plan, np.array([[0.0], [2.0]]))
    assert valid[0] and proj[0, 0] == 1.0


def test_projection_matches_dense_oracle():
    rng = np.random.default_rng(7)
    coupling = rng.random((6, 4))
    coupling /= coupling.sum()
    pts = rng.normal(size=(6, 3))
    plan = TransportPlan.from_dense(coupling, 0.0)
    proj, valid = barycentric_projection(plan, pts)
    col = coupling.sum(axis=0)
    oracle = (coupling.T @ pts) / col[:, None]
    assert np.allclose(proj, oracle)


def test_projection_flags_zero_mass_columns():
    coupling = np.array([[1.0, 0.0]])
    plan = TransportPlan.from_dense(coupling, 0.0)
    proj, valid = barycentric_projection(plan, np.array([[3.0]]))
    assert valid[0] and not valid[1]
    assert np.isnan(proj[1, 0])


# ---------------------------------------------------------------------------
# cyclical monotonicity
# ---------------------------------------------------------------------------


def test_optimal_plan_has_no_two_cycle_violations():
    rng = np.random.default_rng(9)
    mu, nu, s = random_instance(rng, 15, 15, uniform=True)
    plan, _ = solve_exact(mu, nu, s)
    rep = check_cyclical_monotonicity(plan, s, k=2, trials=1000, seed=1)
    assert rep.applicable and rep.violations == 0
    assert rep.worst_margin >= -1e-9


def test_swapped_pair_is_detected():
    # identity matching on sorted points, then one deliberate swap
    eps = np.array([0.0, 1.0, 2.0, 3.0])[:, None]
    z = eps.copy()
    mu, nu = from_samples(eps), from_samples(z)
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    coupling = np.eye(4) / 4
    coupling[[0, 1]] = coupling[[1, 0]]  # swap two assignments
    plan = TransportPlan.from_dense(coupling, float(np.sum(coupling * s)))
    rep = check_cyclical_monotonicity(plan, s, k=2, trials=2000, seed=2)
    assert rep.violations > 0
    # hand-computed 2-cycle: S(0,1)+S(1,0) - S(0,0) - S(1,1)
    #   = -(eps1-eps0)(z1-z0) = -1 for the swapped unit-gap pair
    assert abs(rep.worst_margin - (-1.0)) <= 1e-12
    assert rep.violating_cycle is not None


def test_single_support_pair_not_applicable():
    plan = TransportPlan.from_dense(np.array([[1.0]]), 0.0)
    rep = check_cyclical_monotonicity(plan, np.zeros((1, 1)), k=2)
    assert not rep.applicable


def test_cycle_length_below_two_rejected():
    plan = TransportPlan.from_dense(np.eye(2) / 2, 0.0)
    with pytest.raises(ValueError):
        check_cyclical_monotonicity(plan, np.zeros((2, 2)), k=1)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_plan_and_duals_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    mu, nu, s = random_instance(rng, 6, 6, uniform=True)
    plan, duals = solve_exact(mu, nu, s)
    plan_path, duals_path = tmp_path / "plan.csv", tmp_path / "duals.csv"
    write_plan_csv(plan, plan_path)
    write_duals_csv(duals, duals_path)
    back = read_plan_csv(plan_path, plan.shape)
    assert np.array_equal(back.rows, plan.rows)
    assert np.array_equal(back.cols, plan.cols)
    assert np.array_equal(back.mass, plan.mass)
    back = read_duals_csv(duals_path)
    assert np.array_equal(back.w_source, duals.w_source)
    assert np.array_equal(back.v_target, duals.v_target)


ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@ROUND_TRIP
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_duals_csv_round_trip_is_bit_exact(n, m, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    duals = DualPair(
        data.draw(hnp.arrays(np.float64, n, elements=finite)),
        data.draw(hnp.arrays(np.float64, m, elements=finite)),
        data.draw(st.integers(0, m - 1)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "duals.csv")
        write_duals_csv(duals, path)
        back = read_duals_csv(path)
    assert back.w_source.tobytes() == duals.w_source.tobytes()
    assert back.v_target.tobytes() == duals.v_target.tobytes()
    assert back.normalization == duals.normalization


@ROUND_TRIP
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_plan_csv_round_trip_keeps_the_support_triplets(n, m, data):
    # distinct cells in any order, masses from 0 (dropped) up to huge
    keys = data.draw(st.lists(st.integers(0, n * m - 1), unique=True, max_size=n * m))
    masses = data.draw(
        st.lists(st.floats(0.0, allow_infinity=False), min_size=len(keys), max_size=len(keys))
    )
    plan = TransportPlan(
        [k // m for k in keys], [k % m for k in keys], masses, (n, m), 0.0
    )
    assert np.all(plan.mass > 0) and plan.mass.size == sum(w > 0 for w in masses)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.csv")
        write_plan_csv(plan, path)
        back = read_plan_csv(path, (n, m))
    kept = sorted((k, w) for k, w in zip(keys, masses) if w > SPARSITY_THRESHOLD)
    assert back.shape == (n, m)
    assert back.rows.tolist() == [k // m for k, _ in kept]
    assert back.cols.tolist() == [k % m for k, _ in kept]
    assert back.mass.tobytes() == np.array([w for _, w in kept], dtype=float).tobytes()


def test_duals_csv_keeps_a_pin_that_is_not_the_smallest_value(tmp_path):
    # v = 0 at targets 1 and 2; only the file can say the pin is 2
    duals = DualPair([0.5, -0.25], [1.0, 0.0, 0.0], normalization=2)
    path = tmp_path / "duals.csv"
    write_duals_csv(duals, path)
    back = read_duals_csv(path)
    assert back.normalization == 2
    assert np.array_equal(back.v_target, duals.v_target)


def test_duals_csv_without_pin_row_rejected(tmp_path):
    path = tmp_path / "duals.csv"
    path.write_text("side,idx,value\nsource,0,1.0\ntarget,0,0.0\n")
    with pytest.raises(ValueError, match="pin"):
        read_duals_csv(path)


GOOD_DUALS = ["source,0,1.0", "source,1,2.0", "target,0,0.0", "target,1,0.5", "pin,0,0"]


@pytest.mark.parametrize(
    "index, row",
    [(1, "source,0,2.0"), (3, "target,0,0.5"), (1, "source,2,2.0"), (3, "target,-1,0.5"),
     (3, "tagret,1,0.5"), (4, "pin,2,0"), (4, "pin,-1,0"), (4, "pin,0"), (5, "pin,1,0")],
    ids=["repeated-source", "repeated-target", "source-gap", "negative-target",
         "unknown-side", "pin-past-targets", "negative-pin", "short-row", "two-pins"],
)
def test_duals_csv_with_a_malformed_row_rejected(tmp_path, index, row):
    rows = list(GOOD_DUALS)
    rows[index : index + 1] = [row]  # index 5 appends a row
    path = tmp_path / "duals.csv"
    path.write_text("side,idx,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="duals file"):
        read_duals_csv(path)


@pytest.mark.parametrize(
    "text",
    ["", "0,0,0.5\n1,1,0.5\n", "j,i,mass\n0,0,0.5\n1,1,0.5\n"],
    ids=["zero-byte", "headerless", "wrong-header"],
)
def test_plan_csv_without_its_header_rejected(tmp_path, text):
    # read as data, a headerless file's first line would be lost
    path = tmp_path / "plan.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="header i,j,mass"):
        read_plan_csv(path, (2, 2))


@pytest.mark.parametrize(
    "text",
    ["", "\n".join(GOOD_DUALS) + "\n", "idx,side,value\n" + "\n".join(GOOD_DUALS) + "\n"],
    ids=["zero-byte", "headerless", "wrong-header"],
)
def test_duals_csv_without_its_header_rejected(tmp_path, text):
    path = tmp_path / "duals.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="header side,idx,value"):
        read_duals_csv(path)


# ---------------------------------------------------------------------------
# solve_exact properties: every dispatch path against independent oracles
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def copy_counts(draw, k, size):
    """`size` nonnegative integers summing to k (zeros allowed)."""
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=size - 1, max_size=size - 1)))
    return np.diff([0, *cuts, k])


@st.composite
def surplus_instances(draw, n, m):
    """Points on a 3x3 integer grid (duplicates likely) and a surplus that is
    an integer matrix (ties), bilinear in the points, or continuous."""
    mu_pts = np.array(draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n)))
    nu_pts = np.array(draw(st.lists(st.integers(0, 2), min_size=2 * m, max_size=2 * m)))
    mu_pts, nu_pts = mu_pts.reshape(n, 2).astype(float), nu_pts.reshape(m, 2).astype(float)
    kind = draw(st.sampled_from(["integer", "bilinear", "normal"]))
    if kind == "integer":
        s = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m)))
        s = s.reshape(n, m).astype(float)
    elif kind == "bilinear":
        s = mu_pts @ nu_pts.T
    else:
        s = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, m))
    return mu_pts, nu_pts, s


@st.composite
def rational_instances(draw, max_copies=7):
    """Weights are integer copies / K with K <= max_copies, so a K! scan is
    an oracle; K need not equal max(n, m), so every path is reached."""
    k = draw(st.integers(1, max_copies))
    n = draw(st.integers(1, max_copies))
    m = draw(st.integers(1, max_copies))
    mu_copies = draw(copy_counts(k, n))
    nu_copies = draw(copy_counts(k, m))
    mu_pts, nu_pts, s = draw(surplus_instances(n, m))
    mu = from_samples(mu_pts, mu_copies / k)
    nu = from_samples(nu_pts, nu_copies / k)
    return mu, nu, s, mu_copies, nu_copies


def assert_optimal_duals(mu, nu, s, plan, duals):
    assert plan.marginal_error(mu.weights, nu.weights) <= 1e-9
    assert duals.feasibility_margin(s) >= -1e-9
    assert duals.slackness_error(plan, s) <= 1e-9
    assert abs(plan.objective - duals.objective(mu.weights, nu.weights)) <= 1e-9
    assert duals.v_target[duals.normalization] == 0.0


@PROPERTY
@given(rational_instances())
def test_solve_exact_matches_replicated_brute_force(instance):
    mu, nu, s, mu_copies, nu_copies = instance
    plan, duals = solve_exact(mu, nu, s)
    oracle = brute_force_replicated_value(s, mu_copies, nu_copies)
    assert abs(plan.objective - oracle) <= 1e-9
    assert_optimal_duals(mu, nu, s, plan, duals)


@PROPERTY
@given(st.integers(1, 7), st.integers(1, 3), st.data())
def test_size_one_side_couples_by_the_product_of_weights(k, side, data):
    # one side is a single point (side 1: source, 2: target, 3: both)
    n = 1 if side in (1, 3) else data.draw(st.integers(2, k + 1))
    m = 1 if side in (2, 3) else data.draw(st.integers(2, k + 1))
    mu_pts, nu_pts, s = data.draw(surplus_instances(n, m))
    mu = from_samples(mu_pts, data.draw(copy_counts(k, n)) / k)
    nu = from_samples(nu_pts, data.draw(copy_counts(k, m)) / k)
    assert exact_solver_path(mu.weights, nu.weights) == "size-1"
    plan, duals = solve_exact(mu, nu, s)
    assert np.array_equal(dense(plan), np.outer(mu.weights, nu.weights))
    assert_optimal_duals(mu, nu, s, plan, duals)


def rint_copy_counts(weights, size):
    """Reference: size * weights rounded to the nearest integers, or None
    unless every one is within 1e-9 of its integer and they sum to size."""
    scaled = weights * size
    counts = np.rint(scaled)
    if np.abs(scaled - counts).max() > 1e-9 or counts.sum() != size:
        return None
    return counts.astype(int)


@st.composite
def roundable_weights(draw):
    """n <= 12 weights and N = max(n, m) with m <= 12: integer copies / N
    (zeros allowed) with some N * weight moved up to 1e-10 off its integer,
    or random weights with some zeros."""
    n = draw(st.integers(1, 12))
    size = max(n, draw(st.integers(1, 12)))
    if draw(st.booleans()):
        counts = draw(copy_counts(size, n))
        offsets = st.sampled_from([0.0, 0.0, 1e-10, -1e-10, 3e-11, -7e-11])
        nudge = draw(hnp.arrays(float, n, elements=offsets))
        # a zero count only moves up, so no weight is negative
        return (counts + np.where(counts > 0, nudge, np.abs(nudge))) / size, size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(n) * (rng.random(n) < 0.7)
    weights[0] += weights.sum() == 0
    return weights / weights.sum(), size


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(roundable_weights())
def test_largest_remainder_copies_equal_the_rint_rule_when_exact(instance):
    weights, size = instance
    counts, exact = _copy_counts(weights, size)
    reference = rint_copy_counts(weights, size)
    assert counts.sum() == size
    assert exact == (reference is not None)
    if exact:
        assert np.array_equal(counts, reference)


def chain_tol(s):
    """The dual chains' stop that solve_exact derives from the surplus."""
    return _PRICING_ULPS * np.spacing(np.abs(s).max())


def lp_from_matching(mu, nu, s):
    """_exact_lp with the dual guess, target order and tolerance solve_exact
    hands it: the support of one replicated assignment over largest-remainder
    copies of max(n, m) * weights."""
    m = s.shape[1]
    order, tol = _lexicographic_order(nu.points), chain_tol(s)
    counts = (_copy_counts(w.weights, max(s.shape))[0] for w in (mu, nu))
    src, dst = _replicated_matching(s, *counts, order, tol)
    keys = np.unique(src * m + dst)
    return _exact_lp(mu.weights, nu.weights, s, keys // m, keys % m, order, tol)


@st.composite
def replicable_instances(draw):
    """N = max(n, m) copies in total on both sides, n, m >= 2."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 9))
    size = max(n, m)
    mu_pts, nu_pts, s = draw(surplus_instances(n, m))
    mu = from_samples(mu_pts, draw(copy_counts(size, n)) / size)
    nu = from_samples(nu_pts, draw(copy_counts(size, m)) / size)
    return mu, nu, s


@PROPERTY
@given(replicable_instances())
def test_lp_and_replicated_assignment_agree(instance):
    mu, nu, s = instance
    size = max(s.shape)
    assert _copy_counts(mu.weights, size)[1]
    assert _copy_counts(nu.weights, size)[1]
    assert exact_solver_path(mu.weights, nu.weights) == "replicated"
    plan, duals = solve_exact(mu, nu, s)
    rows, cols, mass = lp_from_matching(mu, nu, s)
    lp_plan = TransportPlan(rows, cols, mass, s.shape, np.sum(mass * s[rows, cols]))
    assert abs(lp_plan.objective - plan.objective) <= 1e-12
    assert_optimal_duals(mu, nu, s, plan, duals)


@st.composite
def irrational_instances(draw):
    """Positive random weights: no N makes them integral, so the LP runs."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 12))
    mu_pts, nu_pts, s = draw(surplus_instances(n, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = from_samples(mu_pts, rng.random(n) + 0.05)
    nu = from_samples(nu_pts, rng.random(m) + 0.05)
    return mu, nu, s


@PROPERTY
@given(irrational_instances())
def test_lp_path_is_basic_and_its_duals_are_optimal(instance):
    mu, nu, s = instance
    n, m = s.shape
    assert not _copy_counts(mu.weights, max(n, m))[1]
    assert exact_solver_path(mu.weights, nu.weights) == "lp"
    rows, cols, mass = lp_from_matching(mu, nu, s)
    lp_plan = TransportPlan(rows, cols, mass, s.shape, np.sum(mass * s[rows, cols]))
    # crossover ran: a basic solution has at most n + m - 1 nonzeros
    assert lp_plan.mass.size <= n + m - 1
    plan, duals = solve_exact(mu, nu, s)
    assert np.array_equal(dense(plan), dense(lp_plan))
    assert_optimal_duals(mu, nu, s, plan, duals)


@PROPERTY
@given(irrational_instances())
def test_lp_duals_are_rebuilt_from_the_support_without_highs_row_duals(instance):
    # every LP result's row duals are NaN: solve_exact must not read them
    mu, nu, s = instance
    results = []

    def linprog_without_row_duals(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.eqlin.marginals[:] = np.nan
        results.append(res)
        return res

    with mock.patch("hedonic.ot.linprog", linprog_without_row_duals):
        plan, duals = solve_exact(mu, nu, s)
    assert len(results) == 1
    assert_optimal_duals(mu, nu, s, plan, duals)
    order = _lexicographic_order(nu.points)
    w, v, _ = _duals_from_support(s, plan.rows, plan.cols, order[0], order, chain_tol(s))
    w, v = _pin(w, v, order[0])
    assert duals.w_source.tobytes() == w.tobytes()
    assert duals.v_target.tobytes() == v.tobytes()


# ---------------------------------------------------------------------------
# shortlisted LP: pricing rounds against the dense LP
# ---------------------------------------------------------------------------


def dense_lp(mu_w, nu_w, surplus):
    """Reference: support triplets of a basic optimal plan of the dense
    transportation LP over all n x m pairs, solved by HiGHS with tightened
    tolerances."""
    n, m = surplus.shape
    # Row-sum constraints then column-sum constraints on vec(coupling).
    data = np.ones(2 * n * m)
    row_idx = np.concatenate(
        [np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)]
    )
    col_idx = np.concatenate([np.arange(n * m), np.arange(n * m)])
    a_eq = csr_matrix((data, (row_idx, col_idx)), shape=(n + m, n * m))
    b_eq = np.concatenate([mu_w, nu_w])
    res = linprog(
        c=-surplus.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ipm",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.success, res.message
    coupling = res.x.reshape(n, m)
    rows, cols = np.nonzero(coupling > 0)
    return rows, cols, coupling[rows, cols]


@contextlib.contextmanager
def counted_lps():
    """Record the number of listed pairs of every linprog call in hedonic.ot."""
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(len(kwargs["c"]))
        return linprog(*args, **kwargs)

    with mock.patch("hedonic.ot.linprog", counted):
        yield sizes


def assert_lp_matches_the_dense_lp(mu, nu, s):
    """solve_exact's LP plan is basic, optimal to 1e-12 against the dense LP,
    and carries optimal duals; returns the listed-pair count of each round."""
    n, m = s.shape
    assert exact_solver_path(mu.weights, nu.weights) == "lp"
    with counted_lps() as rounds:
        plan, duals = solve_exact(mu, nu, s)
    rows, cols, mass = dense_lp(mu.weights, nu.weights, s)
    assert abs(plan.objective - np.sum(mass * s[rows, cols])) <= 1e-12
    assert plan.mass.size <= n + m - 1
    assert_optimal_duals(mu, nu, s, plan, duals)
    return rounds


@PROPERTY
@given(irrational_instances(), rational_instances())
def test_shortlisted_lp_matches_the_dense_lp_when_pricing_runs(instance, rational):
    # one reduced cost per row and column: most pairs join only by pricing;
    # rational weights off the replicated path make degenerate bases, whose
    # chains can leave a target unreached
    for mu, nu, s in (instance, rational[:3]):
        if exact_solver_path(mu.weights, nu.weights) != "lp":
            continue
        with mock.patch("hedonic.ot._SHORTLIST_WIDTH", 1):
            rounds = assert_lp_matches_the_dense_lp(mu, nu, s)
        assert rounds == sorted(set(rounds))


@pytest.mark.parametrize("seed", [102, 476])
def test_shortlisted_lp_lists_every_pair_of_an_unreached_target(seed):
    # weights in sevenths on 5 x 6 points: a degenerate basis whose listed
    # pairs do not chain every target to the pin, and a restricted plan that
    # is not optimal until those targets' columns are listed
    rng = np.random.default_rng(seed)
    mu_w = np.bincount(rng.integers(0, 5, 7), minlength=5) / 7
    nu_w = np.bincount(rng.integers(0, 6, 7), minlength=6) / 7
    s = rng.normal(size=(5, 6))
    mu = from_samples(rng.normal(size=(5, 2)), mu_w)
    nu = from_samples(rng.normal(size=(6, 2)), nu_w)
    unreached = []

    def counted(surplus, ii, jj, ref, order, tol):
        w, v, rounds = _duals_from_support(surplus, ii, jj, ref, order, tol)
        unreached.append(int(np.isneginf(v).sum()))
        return w, v, rounds

    with (
        mock.patch("hedonic.ot._SHORTLIST_WIDTH", 1),
        mock.patch("hedonic.ot._duals_from_support", counted),
    ):
        rounds = assert_lp_matches_the_dense_lp(mu, nu, s)
    assert max(unreached) > 0
    assert len(rounds) >= 2


def criterion_2_trial(index):
    """The instance of trial `index` of acceptance criterion 2 (rng 77)."""
    rng = np.random.default_rng(77)
    for trial in range(index + 1):
        n, m = int(rng.integers(2, 201)), int(rng.integers(2, 201))
        uniform = trial % 3 == 0
        mu = from_samples(rng.normal(size=(n, 2)), None if uniform else rng.random(n) + 0.05)
        nu = from_samples(rng.normal(size=(m, 2)), None if uniform else rng.random(m) + 0.05)
    return mu, nu, surplus_matrix(mu, nu, SurplusFamily.bilinear(2))


def test_shortlisted_lp_prices_in_pairs_over_several_rounds():
    mu, nu, s = criterion_2_trial(97)
    assert s.shape == (166, 161)
    rounds = assert_lp_matches_the_dense_lp(mu, nu, s)
    # each round lists more pairs than the one before, and far fewer than n * m
    assert len(rounds) >= 2
    assert rounds == sorted(set(rounds))
    assert rounds[-1] < s.size // 10


# ---------------------------------------------------------------------------
# dual reconstruction: the ordered pass and the worklist against the full
# Jacobi sweep
# ---------------------------------------------------------------------------


def sweep_duals(surplus, ii, jj, ref):
    """Reference: the full Jacobi sweep that relaxes every support pair in
    every round.  Returns (w, v, number of rounds that changed v)."""
    m = surplus.shape[1]
    v = np.full(m, -np.inf)
    v[ref if np.any(jj == ref) else jj[0]] = 0.0
    rows = surplus[ii, :]
    rounds = 0
    for _ in range(m + 1):
        cand = (v[jj] - surplus[ii, jj])[:, None] + rows
        new_v = np.maximum(v, cand.max(axis=0))
        if np.array_equal(new_v, v):
            break
        v = new_v
        rounds += 1
    w = (surplus - v[None, :]).max(axis=1)
    return w, v, rounds


def assert_duals_match_the_sweep(mu, nu, s, plan, ref, order):
    """_duals_from_support against the full sweep.  With an integer-valued
    surplus every sum is exact and nothing creeps, so w and v match bit for
    bit; otherwise every v lies within m * _PRICING_ULPS ulps of max|S| of
    the sweep's and the pair pinned at `ref` is optimal.  Returns the
    worklist's and the sweep's round counts."""
    tol = chain_tol(s)
    w, v, rounds = _duals_from_support(s, plan.rows, plan.cols, ref, order, tol)
    w_ref, v_ref, sweep_rounds = sweep_duals(s, plan.rows, plan.cols, ref)
    if np.array_equal(s, np.rint(s)):
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
    else:
        assert np.abs(v - v_ref).max() <= nu.n * tol
        assert_optimal_duals(mu, nu, s, plan, DualPair(*_pin(w, v, ref), ref))
    return rounds, sweep_rounds


@PROPERTY
@given(rational_instances(), irrational_instances())
def test_worklist_duals_match_the_full_sweep_bitwise(instance, lp_instance):
    # tied integer surpluses (zero-length cycles), duplicate points and
    # zero-copy targets, on supports from every solve_exact path, and the
    # basic support of an LP with positive irrational weights; the integer
    # and bilinear surpluses on integer points round no sum, so they match
    # bitwise, and the continuous ones match to the stop tolerance
    for mu, nu, s in (instance[:3], lp_instance):
        plan, _ = solve_exact(mu, nu, s)
        lexicographic = _lexicographic_order(nu.points)
        # every pin, so massless ones start the chains at the first support
        # target, with the ordered pass along and against the points' order
        for ref in range(nu.n):
            for order in (lexicographic, lexicographic[::-1]):
                assert_duals_match_the_sweep(mu, nu, s, plan, ref, order)


def test_ordered_pass_skips_a_reached_target_without_a_support_pair():
    # target 1 carries no pair but is reached from target 0's row before its
    # turn in the order; on the restricted matrix, with the unlisted pairs
    # at -inf as _exact_lp builds it, targets 2 and 3 stay unreached
    s = np.array([[5.0, 1.0, 0.0, 0.0], [0.0, 1.0, 5.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
    ii, jj = np.array([0, 1, 2]), np.array([0, 2, 3])
    listed = np.zeros(s.shape, dtype=bool)
    listed[ii, jj] = listed[0, 1] = True
    restricted = np.where(listed, s, -np.inf)
    order = np.arange(4)
    # an unreached target makes -inf - (-inf) in w
    with np.errstate(invalid="ignore"):
        for surplus, expected in (
            (s, [0.0, -4.0, -5.0, -5.0]),
            (restricted, [0.0, -4.0, -np.inf, -np.inf]),
        ):
            w, v, rounds = _duals_from_support(surplus, ii, jj, 0, order, chain_tol(s))
            w_ref, v_ref, _ = sweep_duals(surplus, ii, jj, 0)
            assert v.tobytes() == v_ref.tobytes() == np.array(expected).tobytes()
            assert np.array_equal(w, w_ref, equal_nan=True)
            assert rounds == 0


def readme_identification_instance():
    """README spec at n = 300, a float instance whose full sweep runs to
    its cap: the 15 x 20 product lattice of quantile midpoints on the unit
    box against qualities on the 52^2 grid over [1.9, 3.1]^2, duplicates
    merged into count / 300 weights."""
    rng = np.random.default_rng(0)
    mu = from_samples(product_grid([(np.arange(k) + 0.5) / k for k in (15, 20)]))
    grid = np.linspace(1.9, 3.1, 52)
    z = grid[rng.integers(0, 52, size=(300, 2))]
    points, counts = np.unique(z, axis=0, return_counts=True)
    nu = from_samples(points, counts / 300)
    return mu, nu, surplus_matrix(mu, nu, SurplusFamily.bilinear(2))


def tied_integer_instance():
    """200 x 200 uniform instance with surplus values in {-2, ..., 2}."""
    rng = np.random.default_rng(1)
    mu = from_samples(rng.normal(size=(200, 2)))
    nu = from_samples(rng.normal(size=(200, 2)))
    return mu, nu, rng.integers(-2, 3, size=(200, 200)).astype(float)


def direct_assignment(mu, nu, s):
    """Plan of one plain linear_sum_assignment on the replicated N x N
    matrix, with no warm start; each matched pair of copies carries 1 / N."""
    size = max(s.shape)
    rows = np.repeat(np.arange(mu.n), _copy_counts(mu.weights, size)[0])
    cols = np.repeat(np.arange(nu.n), _copy_counts(nu.weights, size)[0])
    r, c = linear_sum_assignment(-s[np.ix_(rows, cols)])
    keys, copies = np.unique(rows[r] * nu.n + cols[c], return_counts=True)
    objective = s[rows[r], cols[c]].sum() / size
    return TransportPlan(keys // nu.n, keys % nu.n, copies / size, s.shape, objective)


def test_worklist_duals_match_the_sweep_when_a_float_instance_hits_the_cap():
    mu, nu, s = readme_identification_instance()
    plan, duals = solve_exact(mu, nu, s)
    assert exact_solver_path(mu.weights, nu.weights) == "replicated"
    order = _lexicographic_order(nu.points)
    assert_duals_match_the_sweep(mu, nu, s, plan, order[0], order)
    # on the matching of a direct solve of the same matrix creeping targets
    # keep the sweep running to the cap; the worklist stops well short of it
    direct = direct_assignment(mu, nu, s)
    rounds, sweep_rounds = assert_duals_match_the_sweep(mu, nu, s, direct, order[0], order)
    assert sweep_rounds == nu.n + 1
    assert rounds <= nu.n // 4
    assert_optimal_duals(mu, nu, s, plan, duals)


def test_ordered_pass_follows_the_chains_of_an_assortative_market():
    # supermodular S = x z on scalar types: the matching is assortative and a
    # chain follows the order of the target points, which are listed in
    # shuffled index order, so only the ordered pass walks each chain at once
    rng = np.random.default_rng(5)
    mu = from_samples(rng.normal(size=(400, 1)))
    z = np.linspace(-2.0, 2.0, 400) + rng.normal(0, 1e-3, 400)
    nu = from_samples(rng.permutation(z)[:, None])
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    plan, duals = solve_exact(mu, nu, s)
    order = _lexicographic_order(nu.points)
    rounds, sweep_rounds = assert_duals_match_the_sweep(mu, nu, s, plan, order[0], order)
    assert rounds <= 3
    assert sweep_rounds >= 200
    assert_optimal_duals(mu, nu, s, plan, duals)


# ---------------------------------------------------------------------------
# warm-started assignment: coarse levels against direct solves and oracles
# ---------------------------------------------------------------------------


def coarse_levels(size, floor):
    """Sizes of the assignments one warm-started solve makes, innermost first."""
    levels = [size]
    while levels[-1] >= floor:
        levels.append(-(-levels[-1] // 4))
    return levels[::-1]


@contextlib.contextmanager
def counted_assignments():
    """Record the row count of every linear_sum_assignment call in hedonic.ot."""
    sizes = []

    def counted(cost):
        sizes.append(cost.shape[0])
        return linear_sum_assignment(cost)

    with mock.patch("hedonic.ot.linear_sum_assignment", counted):
        yield sizes


@PROPERTY
@given(rational_instances(), replicable_instances())
def test_warm_start_recursion_is_optimal_with_the_floor_at_two(instance, replicable):
    # from 2 rows up every level recurses, down to a 1 x 1 problem
    mu, nu, s = replicable
    size = max(s.shape)
    copies = _copy_counts(mu.weights, size)[0], _copy_counts(nu.weights, size)[0]
    for mu, nu, s, mu_copies, nu_copies in (instance, (mu, nu, s, *copies)):
        with mock.patch("hedonic.ot._ASSIGNMENT_FLOOR", 2), counted_assignments() as sizes:
            plan, duals = solve_exact(mu, nu, s)
        oracle = brute_force_replicated_value(s, mu_copies, nu_copies)
        assert abs(plan.objective - oracle) <= 1e-9
        assert_optimal_duals(mu, nu, s, plan, duals)
        # the LP path's dual guess is one replicated assignment of the same size
        if exact_solver_path(mu.weights, nu.weights) == "size-1":
            assert sizes == []
        else:
            assert sizes == coarse_levels(max(s.shape), 2)


@pytest.mark.parametrize(
    "make, levels",
    [(readme_identification_instance, [19, 75, 300]), (tied_integer_instance, [50, 200])],
    ids=["readme-spec-300", "tied-integer-200"],
)
def test_warm_started_assignment_matches_a_direct_solve(make, levels):
    mu, nu, s = make()
    with counted_assignments() as sizes:
        plan, duals = solve_exact(mu, nu, s)
    assert sizes == levels == coarse_levels(max(s.shape), 64)
    assert abs(plan.objective - direct_assignment(mu, nu, s).objective) <= 1e-12
    assert_optimal_duals(mu, nu, s, plan, duals)
