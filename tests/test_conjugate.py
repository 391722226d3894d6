"""Conjugation identities on grids and the zeta-convexity check."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hedonic.conjugate import (
    GridFunction,
    double_conjugate,
    eps_grid_from_gradients,
    is_zeta_convex,
    legendre,
    read_grid_function_csv,
    write_grid_function_csv,
    zeta_conjugate,
)
from hedonic.measures import from_samples
from hedonic.ot import solve_exact, surplus_matrix
from hedonic.surplus import SurplusFamily

NO_X = np.zeros(0)
BILINEAR_1D = SurplusFamily.bilinear(1)


def line_grid(lo, hi, n):
    return from_samples(np.linspace(lo, hi, n)[:, None])


# ---------------------------------------------------------------------------
# zeta_conjugate
# ---------------------------------------------------------------------------


def test_conjugate_of_zero_on_two_points():
    v = GridFunction(from_samples(np.array([[0.0], [1.0]])), np.zeros(2))
    eps = np.linspace(-2.0, 2.0, 9)[:, None]
    out = zeta_conjugate(v, BILINEAR_1D, NO_X, eps)
    assert np.array_equal(out.values, np.maximum(0.0, eps[:, 0]))


def test_half_quadratic_is_self_conjugate():
    # analytic oracle: (z^2/2)* = eps^2/2, grid error O(step^2)
    grid = line_grid(-2.0, 2.0, 401)
    v = GridFunction(grid, 0.5 * grid.points[:, 0] ** 2)
    eps = np.array([[1.0], [0.5], [-0.8]])
    out = zeta_conjugate(v, BILINEAR_1D, NO_X, eps)
    step = 4.0 / 400
    assert np.abs(out.values - 0.5 * eps[:, 0] ** 2).max() <= step**2


def test_single_point_grid_is_exact():
    z0, v0 = 1.7, 0.4
    v = GridFunction(from_samples(np.array([[z0]])), np.array([v0]))
    eps = np.array([[2.0], [-1.0]])
    out = zeta_conjugate(v, BILINEAR_1D, NO_X, eps)
    assert np.array_equal(out.values, eps[:, 0] * z0 - v0)
    assert np.all(out.boundary_hit)  # a single node is all boundary


def test_argmax_tie_breaks_to_lowest_index():
    # symmetric values with eps = 0: both nodes tie, index 0 wins
    v = GridFunction(from_samples(np.array([[-1.0], [1.0]])), np.zeros(2))
    out = zeta_conjugate(v, BILINEAR_1D, NO_X, np.array([[0.0]]))
    assert out.argmax[0] == 0


def test_truncation_count_ignores_ulp_ties_with_interior_qualities():
    # v convex on z = 0..3 with slopes 1, 1.5, 2: at eps = 1 boundary z = 0
    # ties with interior z = 1, at eps = 2 interior z = 2 ties with boundary
    # z = 3; only eps = 0.5 maximizes on the boundary alone
    grid = from_samples(np.array([[0.0], [1.0], [2.0], [3.0]]))
    v = np.array([0.0, 1.0, 2.5, 4.5])
    eps = np.array([[0.5], [1.0], [2.0]])
    for j, step in itertools.product((1, 2), (-np.inf, np.inf)):
        nudged = v.copy()
        nudged[j] = np.nextafter(v[j], step)
        out = zeta_conjugate(GridFunction(grid, nudged), BILINEAR_1D, NO_X, eps)
        assert out.boundary_hit.tolist() == [True, False, False]


def test_empty_grid_rejected():
    v = GridFunction(from_samples(np.array([[0.0]])), np.zeros(1))
    with pytest.raises(ValueError):
        zeta_conjugate(v, BILINEAR_1D, NO_X, np.empty((0, 1)))


# ---------------------------------------------------------------------------
# double conjugate and zeta-convexity
# ---------------------------------------------------------------------------


def _solver_dual_grid(seed, n=18):
    rng = np.random.default_rng(seed)
    mu = from_samples(rng.normal(size=(n, 2)))
    nu = from_samples(rng.normal(size=(n, 2)))
    f = SurplusFamily.bilinear(2)
    s = surplus_matrix(mu, nu, f)
    plan, duals = solve_exact(mu, nu, s)
    return mu, nu, f, GridFunction(nu, duals.v_target)


def test_solver_dual_equals_its_envelope_on_support():
    mu, nu, f, v = _solver_dual_grid(0)
    env = double_conjugate(v, f, NO_X, mu.points)
    assert np.abs(env.values - v.values).max() <= 1e-7


def test_convex_quadratic_envelope_close_on_fine_grids():
    grid = line_grid(-1.0, 1.0, 201)
    v = GridFunction(grid, 0.7 * grid.points[:, 0] ** 2)
    eps = np.linspace(-1.5, 1.5, 301)[:, None]
    env = double_conjugate(v, BILINEAR_1D, NO_X, eps)
    step = max(2.0 / 200, 3.0 / 300)
    assert np.abs(env.values - v.values).max() <= step**2 * 2


def test_concave_bump_is_shaved_strictly():
    grid = line_grid(-1.0, 1.0, 101)
    z = grid.points[:, 0]
    bump = np.exp(-40 * z**2)
    v = GridFunction(grid, 0.5 * z**2 + bump)
    eps = np.linspace(-2.0, 2.0, 201)[:, None]
    env = double_conjugate(v, BILINEAR_1D, NO_X, eps)
    assert np.all(env.values <= v.values + 1e-12)
    mid = np.abs(z) < 0.05
    assert np.all(env.values[mid] < v.values[mid] - 0.5)


def test_envelope_never_exceeds_v_on_random_functions():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = rng.integers(2, 40)
        d = rng.integers(1, 3)
        grid = from_samples(rng.normal(size=(n, d)))
        v = GridFunction(grid, rng.normal(size=n))
        eps = rng.normal(size=(rng.integers(2, 40), d))
        env = double_conjugate(v, SurplusFamily.bilinear(d), NO_X, eps)
        assert np.all(env.values <= v.values + 1e-12)


def test_triple_conjugate_equals_single():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(2, 30)
        grid = from_samples(rng.normal(size=(n, 1)))
        v = GridFunction(grid, rng.normal(size=n))
        eps = rng.normal(size=(25, 1))
        once = zeta_conjugate(v, BILINEAR_1D, NO_X, eps)
        env = double_conjugate(v, BILINEAR_1D, NO_X, eps)
        thrice = zeta_conjugate(env, BILINEAR_1D, NO_X, eps)
        assert np.abs(thrice.values - once.values).max() <= 1e-12


def test_order_reversal():
    rng = np.random.default_rng(3)
    grid = from_samples(rng.normal(size=(20, 1)))
    v1_vals = rng.normal(size=20)
    v2_vals = v1_vals + rng.random(20)  # v1 <= v2 pointwise
    eps = rng.normal(size=(15, 1))
    c1 = zeta_conjugate(GridFunction(grid, v1_vals), BILINEAR_1D, NO_X, eps)
    c2 = zeta_conjugate(GridFunction(grid, v2_vals), BILINEAR_1D, NO_X, eps)
    assert np.all(c1.values >= c2.values - 1e-12)


def test_is_zeta_convex_on_solver_duals():
    mu, nu, f, v = _solver_dual_grid(4)
    ok, dev = is_zeta_convex(v, f, NO_X, mu.points)
    assert ok and dev <= 1e-7


def test_is_zeta_convex_trivial_and_bump_cases():
    v = GridFunction(from_samples(np.array([[0.0], [1.0]])), np.zeros(2))
    ok, _ = is_zeta_convex(v, BILINEAR_1D, NO_X, np.linspace(-1, 1, 21)[:, None])
    assert ok
    grid = line_grid(-1.0, 1.0, 101)
    z = grid.points[:, 0]
    v_bump = GridFunction(grid, 0.5 * z**2 + np.exp(-40 * z**2))
    ok, dev = is_zeta_convex(
        v_bump, BILINEAR_1D, NO_X, np.linspace(-2, 2, 201)[:, None]
    )
    assert not ok and dev > 0.5


# ---------------------------------------------------------------------------
# legendre
# ---------------------------------------------------------------------------


def test_legendre_is_bilinear_conjugate_alias():
    rng = np.random.default_rng(5)
    grid = from_samples(rng.normal(size=(15, 2)))
    v = GridFunction(grid, rng.normal(size=15))
    eps = rng.normal(size=(10, 2))
    alias = legendre(v, eps)
    direct = zeta_conjugate(v, SurplusFamily.bilinear(2), NO_X, eps)
    assert np.array_equal(alias.values, direct.values)


def test_legendre_of_absolute_value():
    # conjugate of |z| is the indicator of [-1, 1]: zero inside
    grid = line_grid(-2.0, 2.0, 401)
    v = GridFunction(grid, np.abs(grid.points[:, 0]))
    out = legendre(v, np.array([[0.5]]))
    assert abs(out.values[0]) <= 4.0 / 400


def test_legendre_of_affine_at_matching_slope():
    # direct-scan oracle: V = a'z gives V*(a) = max_z 0 = 0 exactly
    rng = np.random.default_rng(6)
    grid = from_samples(rng.uniform(-1, 1, size=(50, 2)))
    a = np.array([0.7, -0.4])
    v = GridFunction(grid, grid.points @ a)
    out = legendre(v, a[None, :])
    assert out.values[0] == 0.0


# ---------------------------------------------------------------------------
# grid construction and CSV
# ---------------------------------------------------------------------------


def test_eps_grid_covers_gradients_with_padding():
    g = np.array([[0.0, 0.0], [1.0, 2.0]])
    grid = eps_grid_from_gradients(g, resolution=5, padding=0.1)
    assert grid.shape == (25, 2)
    assert grid[:, 0].min() == -0.1 and grid[:, 0].max() == 1.1
    assert grid[:, 1].min() == -0.2 and grid[:, 1].max() == 2.2


def test_grid_function_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    gf = GridFunction(from_samples(rng.normal(size=(9, 2))), rng.normal(size=9))
    path = tmp_path / "gf.csv"
    write_grid_function_csv(gf, path)
    back = read_grid_function_csv(path)
    assert np.array_equal(back.grid.points, gf.grid.points)
    assert np.array_equal(back.values, gf.values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_grid_function_csv_round_trip_is_bit_exact(n, d, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    points = data.draw(hnp.arrays(np.float64, (n, d), elements=finite))
    gf = GridFunction(from_samples(points), data.draw(hnp.arrays(np.float64, n, elements=finite)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gf.csv")
        write_grid_function_csv(gf, path)
        back = read_grid_function_csv(path)
    assert back.grid.points.tobytes() == gf.grid.points.tobytes()
    assert back.values.tobytes() == gf.values.tobytes()
