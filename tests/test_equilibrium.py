"""Market construction, verification, and diagnostics tests."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hedonic import equilibrium
from hedonic.equilibrium import (
    GridBoundaryError,
    _pairwise_max_surplus,
    atomlessness_diagnostic,
    build_z_grid,
    joint_surplus,
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
# joint_surplus
# ---------------------------------------------------------------------------


def test_joint_surplus_analytic_argmax():
    # u_bar = 0, zeta = z eps, C = z^2/2: argmax z* = eps, S = eps^2 / 2
    spec = StructuralSpec(
        u_bar=ScalarFamily.zero(1, 1),
        cost=ScalarFamily.polynomial([{"coeff": 0.5, "z": [2]}], 1, 1),
        zeta=SurplusFamily.bilinear(1, d_x=1),
    )
    eps = 0.8
    grid = build_z_grid([0.0], [2 * eps], 801)
    value, z_star, interior = joint_surplus(
        spec, (np.array([0.0]), np.array([eps])), np.array([1.0]), grid
    )
    step = 2 * eps / 800
    assert abs(z_star[0] - eps) <= step
    assert abs(value - eps**2 / 2) <= step**2
    assert interior


def test_joint_surplus_single_point_grid_is_boundary():
    spec = quadratic_spec_1d()
    value, z_star, interior = joint_surplus(
        spec, (np.array([1.0]), np.array([0.5])), np.array([0.5]), np.array([[1.0]])
    )
    assert z_star[0] == 1.0
    assert not interior


def test_joint_surplus_tie_breaks_to_lowest_index():
    # surplus symmetric in z around 0 with two symmetric grid nodes
    spec = StructuralSpec(
        u_bar=ScalarFamily.polynomial([{"coeff": -1.0, "z": [2]}], 1, 1),
        cost=ScalarFamily.zero(1, 1),
        zeta=SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [2]}], 1, 1),
    )
    _, z_star, _ = joint_surplus(
        spec, (np.array([0.0]), np.array([0.5])), np.array([0.0]),
        np.array([[-1.0], [1.0]]),
    )
    assert z_star[0] == -1.0


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
    assert np.array_equal(_pairwise_max_surplus(gain, cost), dense_max_plus(gain, cost))


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
        got = _pairwise_max_surplus(gain, cost)
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
    assert _pairwise_max_surplus(gain, cost).tobytes() == dense_max_plus(gain, cost).tobytes()


@pytest.mark.parametrize("m, g", [(70, 1000), (3, 32768 + 5)])
def test_blocked_max_plus_at_the_module_block_size(m, g):
    # 32 producers per block with a remainder of 6; a grid above the block
    rng = np.random.default_rng(g)
    gain, cost = rng.normal(size=(2, g)), rng.normal(size=(m, g))
    assert _pairwise_max_surplus(gain, cost).tobytes() == dense_max_plus(gain, cost).tobytes()


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


def test_single_pair_atomlessness_not_applicable():
    spec = quadratic_spec_1d()
    out = simulate_market(
        spec, POINT_X, UNIT_1D, UNIT_1D, 1, 1,
        z_grid=build_z_grid([0.0], [3.0], 400), seed=10,
    )
    assert not atomlessness_diagnostic(out)["applicable"]
