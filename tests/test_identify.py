"""Identification pipeline tests: quantile, Brenier, general, and maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic.equilibrium import build_z_grid, simulate_market
from hedonic.identify import (
    _foc_edge_residuals,
    _neighbour_order,
    _scalar_cross_sign,
    averaged_partial_effects,
    brenier_identify,
    general_identify,
    local_price_gradients,
    scalar_identify,
    simultaneous_equations_identify,
    write_potential_csv,
)
from hedonic.measures import (
    ConditionalSlice,
    DistributionSpec,
    MarketDataset,
    from_samples,
    partition_by_x,
    write_json,
)
from hedonic.surplus import ScalarFamily, StructuralSpec, SurplusFamily, TwistViolationError

UNIT_1D = DistributionSpec.uniform([0.0], [1.0])
BILINEAR_1D = SurplusFamily.bilinear(1)
NO_X = np.zeros(0)


def make_slice(z, p, x_value=(0.0,)):
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    ds = MarketDataset(np.tile(np.asarray(x_value), (z.shape[0], 1)), z, p)
    return partition_by_x(ds, "exact")[0]


# ---------------------------------------------------------------------------
# scalar quantile identification
# ---------------------------------------------------------------------------


def test_scalar_uniform_recovers_identity_demand_and_quadratic_potential():
    n = 101
    z = np.linspace(0.0, 1.0, n)
    p = 0.5 * z**2 + 1.0  # any smooth price works; V does not use it
    sl = make_slice(z, p)
    pot = scalar_identify(sl, UNIT_1D, BILINEAR_1D, n_ref=n, reference_mode="lattice")
    # analytic: eps(z) = z, V(z) = z^2/2 (pinned at z=0)
    step = 1.0 / (n - 1)
    assert np.abs(pot.inverse_demand[:, 0] - sl.z_measure.points[:, 0]).max() <= 2 * step
    analytic_v = 0.5 * sl.z_measure.points[:, 0] ** 2
    assert np.abs(pot.v_values - analytic_v).max() <= 3 * step
    assert pot.v_values[pot.normalization_point] == 0.0


def test_scalar_stretched_support_halves_demand():
    n = 81
    z = np.linspace(0.0, 2.0, n)
    sl = make_slice(z, np.ones(n) + 0.3 * z)
    pot = scalar_identify(sl, UNIT_1D, BILINEAR_1D, n_ref=n, reference_mode="lattice")
    # closed-form CDF composition: eps(z) = z / 2
    assert np.abs(pot.inverse_demand[:, 0] - sl.z_measure.points[:, 0] / 2).max() <= 0.05


def test_scalar_single_point_slice_degenerates_to_median():
    sl = make_slice([1.5], [2.0])
    pot = scalar_identify(sl, UNIT_1D, BILINEAR_1D, n_ref=51, reference_mode="lattice")
    # median of the 51-point uniform lattice is exactly 0.5
    assert pot.inverse_demand[0, 0] == 0.5
    assert pot.v_values[0] == 0.0
    assert np.isnan(pot.u_bar_grad[0, 0])


def test_scalar_negative_single_crossing_uses_antimonotone_transform():
    n = 61
    z = np.linspace(0.0, 1.0, n)
    f = SurplusFamily.polynomial([{"coeff": -1.0, "eps": [1], "z": [1]}], 0, 1)
    sl = make_slice(z, np.ones(n))
    pot = scalar_identify(sl, UNIT_1D, f, n_ref=n, reference_mode="lattice")
    # anti-monotone map between uniforms: eps(z) = 1 - z
    assert np.abs(pot.inverse_demand[:, 0] - (1.0 - z)).max() <= 0.05
    assert pot.diagnostics["cross_sign"] == -1.0


def test_scalar_rejects_multivariate_quality():
    rng = np.random.default_rng(0)
    sl = make_slice(rng.random((5, 2)), rng.random(5))
    with pytest.raises(ValueError, match="d_z = 1"):
        scalar_identify(
            sl, DistributionSpec.uniform([0, 0], [1, 1]), SurplusFamily.bilinear(2), n_ref=5
        )


def test_scalar_rejects_sign_changing_cross_derivative():
    # zeta = z eps^2 has cross derivative 2 eps, changing sign on [-1, 1]
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    sl = make_slice(np.linspace(0, 1, 9), np.ones(9))
    with pytest.raises(TwistViolationError):
        scalar_identify(
            sl, DistributionSpec.uniform([-1.0], [1.0]), f, n_ref=9,
            reference_mode="lattice",
        )


# ---------------------------------------------------------------------------
# Brenier identification
# ---------------------------------------------------------------------------


def test_brenier_recovers_halving_map_on_lattice():
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    eps_lattice = spec.lattice(49)
    z = 2.0 * eps_lattice
    sl = make_slice(z, z @ np.array([0.1, 0.2]))
    pot = brenier_identify(sl, spec, n_ref=49, reference_mode="lattice")
    # rank-preserving matching: inverse demand is exactly z / 2 on samples
    assert np.abs(pot.inverse_demand - sl.z_measure.points / 2).max() <= 1e-12


def test_brenier_one_dim_agrees_with_scalar_inverse_demand():
    n = 40
    rng = np.random.default_rng(1)
    z = np.sort(rng.random(n)) * 3
    sl = make_slice(z, 0.2 * z)
    pot_b = brenier_identify(sl, UNIT_1D, n_ref=n, seed=5)
    pot_s = scalar_identify(sl, UNIT_1D, BILINEAR_1D, n_ref=n, seed=5)
    assert np.abs(pot_b.inverse_demand - pot_s.inverse_demand).max() <= 1e-12


def test_brenier_single_point_slice():
    sl = make_slice([[0.5, 0.5]], [1.0])
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    pot = brenier_identify(sl, spec, n_ref=25, seed=2)
    assert pot.v_values[0] == 0.0
    # all reference mass maps to the single quality; its projection is
    # the reference barycenter and stays inside the support box
    assert np.all(pot.inverse_demand >= 0.0) and np.all(pot.inverse_demand <= 1.0)


@pytest.mark.parametrize("route", ["scalar", "brenier", "general", "simeq"])
def test_every_route_rejects_an_atomic_reference(route):
    ds = MarketDataset(np.ones((3, 1)), np.array([[0.5], [1.0], [1.5]]), np.array([1.0, 1.2, 1.5]))
    sl = partition_by_x(ds, "exact")[0]
    point = DistributionSpec.point([0.0])
    with pytest.raises(ValueError, match="absolutely continuous"):
        if route == "scalar":
            scalar_identify(sl, point, BILINEAR_1D, n_ref=5)
        elif route == "brenier":
            brenier_identify(sl, point, n_ref=5)
        elif route == "general":
            general_identify(sl, point, BILINEAR_1D, n_ref=5)
        else:
            simultaneous_equations_identify(ds, point, n_ref=5)


def test_inverse_demand_stays_in_reference_hull():
    rng = np.random.default_rng(3)
    sl = make_slice(rng.random((30, 2)), rng.random(30))
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    pot = brenier_identify(sl, spec, n_ref=60, seed=8)
    assert np.all(pot.inverse_demand >= 0.0 - 1e-12)
    assert np.all(pot.inverse_demand <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# general identification
# ---------------------------------------------------------------------------


def test_general_with_bilinear_equals_brenier_bit_for_bit():
    rng = np.random.default_rng(4)
    sl = make_slice(rng.random((25, 2)), rng.random(25))
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    a = general_identify(sl, spec, SurplusFamily.bilinear(2), n_ref=25, seed=11)
    b = brenier_identify(sl, spec, n_ref=25, seed=11)
    assert np.array_equal(a.v_values, b.v_values)
    assert np.array_equal(a.inverse_demand, b.inverse_demand)
    nan_mask = np.isnan(a.u_bar_grad)
    assert np.array_equal(nan_mask, np.isnan(b.u_bar_grad))
    assert np.array_equal(a.u_bar_grad[~nan_mask], b.u_bar_grad[~nan_mask])


def test_neg_quadratic_matches_bilinear_up_to_separable_shift():
    rng = np.random.default_rng(5)
    sl = make_slice(rng.random((20, 2)), rng.random(20))
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    pot_bl = general_identify(sl, spec, SurplusFamily.bilinear(2), n_ref=20, seed=6)
    pot_nq = general_identify(
        sl, spec, SurplusFamily.neg_quadratic(np.eye(2)), n_ref=20, seed=6
    )
    # the separable terms leave the plan unchanged
    assert pot_bl.diagnostics["matching"] == pot_nq.diagnostics["matching"]
    # dual differs by the z-separable term up to the pinning constant
    z_sq = 0.5 * np.einsum("ij,ij->i", sl.z_measure.points, sl.z_measure.points)
    diff = pot_nq.v_values - (pot_bl.v_values - z_sq)
    assert diff.max() - diff.min() <= 1e-9


def test_general_supermodular_one_dim_is_comonotone():
    # sort-based oracle for supermodular surplus on positive data
    rng = np.random.default_rng(6)
    n = 20
    z = np.sort(rng.random(n)) + 0.5
    sl = make_slice(z, np.ones(n))
    f = SurplusFamily.polynomial(
        [{"coeff": 1.0, "eps": [1], "z": [1]}, {"coeff": 0.1, "eps": [1], "z": [2]}],
        0,
        1,
    )
    pot = general_identify(sl, UNIT_1D, f, n_ref=n, seed=7)
    matching = pot.diagnostics["matching"]
    eps_sorted_idx = np.argsort(pot.inverse_demand[:, 0], kind="stable")
    z_sorted_idx = np.argsort(sl.z_measure.points[:, 0], kind="stable")
    assert matching is not None
    # ranks align: the matched taste ranks follow the quality ranks
    assert np.array_equal(eps_sorted_idx, z_sorted_idx)


def _cross_sign_by_points(f, x, eps_values, z_values):
    """Reference: one cross_hessian call per point of the 9 x 9 grid."""
    signs = np.array([
        f.cross_hessian(x, [e], [z])[0, 0]
        for e in np.linspace(eps_values.min(), eps_values.max(), 9)
        for z in np.linspace(z_values.min(), z_values.max(), 9)
    ])
    if np.all(signs > 1e-12):
        return 1.0
    if np.all(signs < -1e-12):
        return -1.0
    return None


@pytest.mark.parametrize(
    "f,x",
    [
        (SurplusFamily.bilinear(1), NO_X),
        (SurplusFamily.neg_quadratic([[2.0]]), NO_X),
        (SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1), NO_X),
        (SurplusFamily.polynomial([{"coeff": -1.0, "eps": [1], "z": [2]}], 0, 1), NO_X),
        (SurplusFamily.polynomial(
            [{"coeff": 1.0, "x": [1], "eps": [1], "z": [1]}], 1, 1), np.array([-0.5])),
    ],
    ids=["bilinear", "neg-quadratic", "eps2-z", "minus-eps-z2", "x-eps-z"],
)
@pytest.mark.parametrize("lo", [-1.0, 0.0, 0.5])
def test_scalar_cross_sign_matches_pointwise_scan(f, x, lo):
    eps_values = np.linspace(lo, 1.0, 7)
    z_values = np.linspace(lo, 2.0, 5)
    expected = _cross_sign_by_points(f, x, eps_values, z_values)
    if expected is None:
        with pytest.raises(TwistViolationError):
            _scalar_cross_sign(f, x, eps_values, z_values)
    else:
        assert _scalar_cross_sign(f, x, eps_values, z_values) == expected


def test_general_refuses_non_injective_surplus():
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    sl = make_slice(np.linspace(0.1, 1.0, 10), np.ones(10))
    with pytest.raises(TwistViolationError):
        general_identify(
            sl, DistributionSpec.uniform([-1.0], [1.0]), f, n_ref=16,
            reference_mode="lattice",
        )


def test_price_level_invariance():
    rng = np.random.default_rng(8)
    z = rng.random((30, 2))
    p = z @ np.array([1.0, 2.0]) + 0.3 * (z**2).sum(axis=1)
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    pot_a = brenier_identify(make_slice(z, p), spec, n_ref=30, seed=9)
    pot_b = brenier_identify(make_slice(z, p + 7.5), spec, n_ref=30, seed=9)
    ok = ~np.isnan(pot_a.u_bar_grad)
    assert np.abs(pot_a.u_bar_grad[ok] - pot_b.u_bar_grad[ok]).max() <= 1e-9
    assert np.array_equal(pot_a.v_values, pot_b.v_values)


def test_round_trip_error_improves_as_reference_doubles():
    spec = StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(1), center_offset=[2.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
        ),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )
    out = simulate_market(
        spec,
        DistributionSpec.point([1.0]),
        UNIT_1D,
        UNIT_1D,
        80,
        80,
        build_z_grid([0.2], [2.3], 2001),
        seed=3,
    )
    sl = partition_by_x(out.dataset, "exact")[0]
    analytic = 2.0 - sl.z_measure.points
    errors = []
    for n_ref in (sl.z_measure.n, 2 * sl.z_measure.n, 4 * sl.z_measure.n, 8 * sl.z_measure.n):
        level = []
        for seed in (1, 2, 3):
            pot = general_identify(
                sl, UNIT_1D, SurplusFamily.bilinear(1, d_x=1), n_ref=n_ref, seed=seed
            )
            ok = np.isfinite(pot.u_bar_grad[:, 0])
            level.append(
                float(np.sqrt(np.mean((pot.u_bar_grad[ok] - analytic[ok]) ** 2)))
            )
        errors.append(np.mean(level))
    assert errors[0] > errors[1] > errors[2] > errors[3]


def round_trip_spec_2d():
    """Criterion 7's 2-D bilinear market: u_bar = -|z - 4|^2 / 2, cost |z|^2 / 2 - y.z."""
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=[4.0, 4.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2,
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )


@pytest.mark.parametrize("n, res", [(200, 42), (300, 52)])
def test_round_trip_lattice_takes_the_replicated_assignment(n, res):
    eps_spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    out = simulate_market(
        round_trip_spec_2d(), DistributionSpec.point([1.0]), eps_spec, eps_spec,
        n, n, build_z_grid([1.9, 1.9], [3.1, 3.1], res), seed=20,
    )
    sl = partition_by_x(out.dataset, "exact")[0]
    pot = general_identify(
        sl, eps_spec, SurplusFamily.bilinear(2, d_x=1), n_ref=n, reference_mode="lattice"
    )
    assert pot.diagnostics["solver_path"] == "replicated"
    assert pot.diagnostics["n_ref"] == n


def test_sampled_reference_reports_its_path():
    sl = make_slice([[0.1, 0.2], [0.4, 0.9], [0.8, 0.3]], np.zeros(3))
    pot = brenier_identify(sl, DistributionSpec.uniform([0, 0], [1, 1]), n_ref=5, seed=1)
    assert pot.diagnostics["solver_path"] == "lp"  # 5 x 3 uniform: 5/3 copies


def test_foc_residuals_reported_and_small_on_smooth_data():
    n = 60
    z = np.linspace(0.0, 1.0, n)
    sl = make_slice(z, 0.5 * z**2)
    pot = brenier_identify(sl, UNIT_1D, n_ref=n, reference_mode="lattice")
    assert pot.diagnostics["foc_edge_count"] > 0
    assert pot.diagnostics["foc_residual_max"] <= 1e-3


# ---------------------------------------------------------------------------
# simultaneous equations
# ---------------------------------------------------------------------------


def test_simeq_identity_map():
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    lattice = spec.lattice(36)
    ds = MarketDataset(np.zeros((36, 1)), lattice, np.zeros(36))
    est = simultaneous_equations_identify(ds, spec, n_ref=36, reference_mode="lattice")[0]
    assert np.abs(est.z_hat - est.eps_points).max() <= 1e-12


def test_simeq_reports_the_path_and_the_lattice_shape():
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    ds = MarketDataset(np.zeros((200, 1)), spec.lattice(200), np.zeros(200))
    est = simultaneous_equations_identify(ds, spec, n_ref=200, reference_mode="lattice")[0]
    assert est.diagnostics["solver_path"] == "replicated"
    assert est.diagnostics["n_ref"] == 200 and est.eps_points.shape == (200, 2)
    assert np.abs(est.z_hat - est.eps_points).max() <= 1e-12


def test_simeq_linear_map_matches_bruteforce_assignment():
    # brute-force oracle: enumerate all 720 reference-outcome assignments
    from hedonic.measures import sample_reference
    from hedonic.ot import surplus_matrix

    a = np.array([[1.5, 0.4], [0.4, 1.0]])
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 2.0])
    rng = np.random.default_rng(10)
    eps = spec.sample(6, rng)
    ds = MarketDataset(np.zeros((6, 1)), eps @ a.T, np.zeros(6))
    est = simultaneous_equations_identify(ds, spec, n_ref=6, seed=0)[0]

    # rebuild the seeded reference and the slice the pipeline used
    ref = sample_reference(spec, 6, 0)
    sl = partition_by_x(ds, "exact")[0]
    s = surplus_matrix(ref, sl.z_measure, SurplusFamily.bilinear(2))
    best, best_val = None, -np.inf
    for perm in itertools.permutations(range(6)):
        val = s[np.arange(6), perm].sum()
        if val > best_val:
            best, best_val = perm, val
    expected = sl.z_measure.points[np.asarray(best)]
    assert np.abs(est.z_hat - expected).max() <= 1e-12


def test_simeq_shift_map_recovered_exactly():
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    lattice = spec.lattice(25)
    c = np.array([3.0, -2.0])
    ds = MarketDataset(np.zeros((25, 1)), lattice + c, np.zeros(25))
    est = simultaneous_equations_identify(ds, spec, n_ref=25, reference_mode="lattice")[0]
    assert np.abs(est.z_hat - (est.eps_points + c)).max() <= 1e-12


# ---------------------------------------------------------------------------
# averaged partial effects
# ---------------------------------------------------------------------------


def test_ape_flat_price_is_zero():
    rng = np.random.default_rng(11)
    sl = make_slice(rng.random((20, 2)), np.full(20, 3.0))
    ape = averaged_partial_effects(sl)
    assert np.abs(ape).max() <= 1e-12


def test_ape_linear_price_is_exact():
    rng = np.random.default_rng(12)
    z = rng.random((25, 2))
    a = np.array([2.0, -1.5])
    sl = make_slice(z, z @ a + 4.0)
    ape = averaged_partial_effects(sl)
    assert np.abs(ape - a).max() <= 1e-9


def test_ape_symmetric_quadratic_averages_out():
    rng = np.random.default_rng(13)
    half = rng.normal(size=(15, 2))
    z = np.vstack([half, -half])
    sl = make_slice(z, (z**2).sum(axis=1))
    ape = averaged_partial_effects(sl)
    assert np.abs(ape).max() <= 1e-8


def test_ape_requires_enough_points():
    sl = make_slice(np.array([[0.0, 0.0], [1.0, 1.0]]), [0.0, 1.0])
    with pytest.raises(ValueError, match="at least"):
        averaged_partial_effects(sl)


def test_local_gradients_flag_rank_deficiency():
    # collinear qualities cannot support a 2-D gradient fit
    z = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
    grads, valid = local_price_gradients(z, np.linspace(0, 1, 10), k=4)
    assert not np.any(valid)


def lstsq_price_gradients(z, p, k):
    """Reference: one np.linalg.lstsq fit per point."""
    m, d = z.shape
    grads = np.full((m, d), np.nan)
    valid = np.zeros(m, dtype=bool)
    k = min(k, m - 1)
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    order = np.argsort(dist, axis=1, kind="stable")
    for j in range(m):
        rows = order[j, : k + 1]
        design = np.column_stack([np.ones(rows.shape[0]), z[rows] - z[j]])
        sol, _, rank, _ = np.linalg.lstsq(design, p[rows], rcond=None)
        if rank == d + 1:
            grads[j] = sol[1:]
            valid[j] = True
    return grads, valid


def loop_foc_edge_residuals(z, eps, v):
    """Reference: edges to the argmin of each distance row with the diagonal
    at +inf, one edge at a time (bilinear surplus, so grad_z = eps)."""
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    nearest = np.argmin(dist, axis=1)
    edges = sorted({(min(a, b), max(a, b)) for a, b in enumerate(nearest)})
    return [abs((v[b] - v[a]) - 0.5 * (eps[a] + eps[b]) @ (z[b] - z[a])) for a, b in edges]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(2, 24), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_stacked_price_gradient_fits_match_per_point_lstsq(d, m, k, seed):
    # quarter steps on a small lattice: duplicate points, collinear and
    # otherwise rank-deficient neighbourhoods are common
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 5, size=(m, d)) / 4.0
    if seed % 2:
        z = z + rng.uniform(-0.05, 0.05, size=(m, d))
    p = (z**2).sum(axis=1) + rng.uniform(-0.1, 0.1, size=m)
    order = _neighbour_order(z)
    grads, valid = local_price_gradients(z, p, k, order)
    want_grads, want_valid = lstsq_price_gradients(z, p, k)
    assert np.array_equal(valid, want_valid)
    assert np.all(np.isnan(grads[~valid]))
    assert np.abs(grads[valid] - want_grads[valid]).max(initial=0.0) <= 1e-12

    eps = rng.uniform(-1, 1, size=(m, d))
    v = rng.uniform(-1, 1, size=m)
    foc = _foc_edge_residuals(SurplusFamily.bilinear(d), NO_X, z, eps, v, order)
    want = loop_foc_edge_residuals(z, eps, v)
    assert foc["foc_edge_count"] == len(want)
    assert abs(foc["foc_residual_max"] - max(want)) <= 1e-12
    assert abs(foc["foc_residual_mean"] - np.mean(want)) <= 1e-12


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_potential_csv_and_diagnostics_export(tmp_path):
    rng = np.random.default_rng(14)
    sl = make_slice(rng.random((10, 2)), rng.random(10))
    spec = DistributionSpec.uniform([0, 0], [1, 1])
    pot = brenier_identify(sl, spec, n_ref=10, seed=1)
    csv_path = tmp_path / "pot.csv"
    write_potential_csv(pot, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "z_1,z_2,v,eps_1,eps_2,ubar_grad_1,ubar_grad_2"
    json_path = tmp_path / "diag.json"
    write_json(pot.diagnostics, json_path)
    assert json_path.read_text().startswith("{")
