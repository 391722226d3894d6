"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion asserts at its stated tolerance and runtime budget.
"""

import itertools
import json
import time

import numpy as np

from hedonic.cli import main as cli_main
from hedonic.conjugate import GridFunction, double_conjugate, is_zeta_convex, zeta_conjugate
from hedonic.equilibrium import build_z_grid, simulate_market, verify_equilibrium
from hedonic.identify import (
    general_identify,
    scalar_identify,
    simultaneous_equations_identify,
)
from hedonic.measures import (
    DistributionSpec,
    MarketDataset,
    from_samples,
    partition_by_x,
)
from hedonic.ot import (
    TransportPlan,
    check_cyclical_monotonicity,
    solve_exact,
    surplus_matrix,
)
from hedonic.surplus import ScalarFamily, StructuralSpec, SurplusFamily

NO_X = np.zeros(0)


def _gate(num, name, ok, detail=""):
    print(f"\n[acceptance] criterion {num:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. solver equals brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_solver_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 8):
        perms = np.array(list(itertools.permutations(range(n))))
        for seed in range(50):
            rng = np.random.default_rng(1000 * n + seed)
            mu = from_samples(rng.normal(size=(n, 2)))
            nu = from_samples(rng.normal(size=(n, 2)))
            s = surplus_matrix(mu, nu, SurplusFamily.bilinear(2))
            plan, _ = solve_exact(mu, nu, s)
            brute = s[np.arange(n)[None, :], perms].sum(axis=1).max() / n
            worst = max(worst, abs(plan.objective - brute))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _gate(1, "solver-oracle equivalence", ok,
          f"worst gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. strong duality and slackness on random instances
# ---------------------------------------------------------------------------


def test_criterion_2_strong_duality_and_slackness():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst_gap = worst_feas = worst_slack = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(2, 201))
        uniform = trial % 3 == 0
        mu = from_samples(
            rng.normal(size=(n, 2)), None if uniform else rng.random(n) + 0.05
        )
        nu = from_samples(
            rng.normal(size=(m, 2)), None if uniform else rng.random(m) + 0.05
        )
        s = surplus_matrix(mu, nu, SurplusFamily.bilinear(2))
        plan, duals = solve_exact(mu, nu, s)
        gap = abs(plan.objective - duals.objective(mu.weights, nu.weights))
        worst_gap = max(worst_gap, gap / (1 + abs(plan.objective)))
        worst_feas = max(worst_feas, -duals.feasibility_margin(s))
        worst_slack = max(worst_slack, duals.slackness_error(plan, s))
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-7 and worst_feas <= 1e-9 and worst_slack <= 1e-7 \
        and elapsed < 60.0
    _gate(2, "strong duality + slackness", ok,
          f"gap {worst_gap:.2e}, infeas {worst_feas:.2e}, "
          f"slack {worst_slack:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. scalar quantile route agrees with the transport route in 1-D
# ---------------------------------------------------------------------------


def test_criterion_3_one_dim_equivalence():
    f = SurplusFamily.polynomial(
        [{"coeff": 1.0, "eps": [1], "z": [1]}, {"coeff": 0.1, "eps": [1], "z": [2]}],
        0, 1,
    )
    eps_spec = DistributionSpec.uniform([0.0], [1.0])
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        z = np.sort(rng.random(n)) * 2 + 0.1
        p = 0.5 * z + 0.1 * z**2
        ds = MarketDataset(np.zeros((n, 1)), z[:, None], p)
        sl = partition_by_x(ds, "exact")[0]
        pot_s = scalar_identify(sl, eps_spec, f, n_ref=n, seed=seed)
        pot_g = general_identify(sl, eps_spec, f, n_ref=n, seed=seed)
        assert pot_s.diagnostics["matching"] is not None
        assert pot_s.diagnostics["matching"] == pot_g.diagnostics["matching"]
        worst = max(
            worst, float(np.abs(pot_s.inverse_demand - pot_g.inverse_demand).max())
        )
    _gate(3, "1-D quantile vs transport", worst <= 1e-12,
          f"matchings equal on 20 datasets, demand dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. conjugation identities
# ---------------------------------------------------------------------------


def test_criterion_4_conjugate_identities():
    rng = np.random.default_rng(5)
    worst_env = -np.inf
    worst_inv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 3))
        grid = from_samples(rng.normal(size=(n, d)))
        v = GridFunction(grid, rng.normal(size=n))
        eps = rng.normal(size=(int(rng.integers(2, 40)), d))
        f = SurplusFamily.bilinear(d)
        env = double_conjugate(v, f, NO_X, eps)
        worst_env = max(worst_env, float((env.values - v.values).max()))
        once = zeta_conjugate(v, f, NO_X, eps)
        thrice = zeta_conjugate(env, f, NO_X, eps)
        worst_inv = max(worst_inv, float(np.abs(thrice.values - once.values).max()))
    worst_dual = 0.0
    for seed in range(10):
        rng2 = np.random.default_rng(seed)
        mu = from_samples(rng2.normal(size=(20, 2)))
        nu = from_samples(rng2.normal(size=(20, 2)))
        f = SurplusFamily.bilinear(2)
        s = surplus_matrix(mu, nu, f)
        _, duals = solve_exact(mu, nu, s)
        ok, dev = is_zeta_convex(GridFunction(nu, duals.v_target), f, NO_X, mu.points)
        assert ok
        worst_dual = max(worst_dual, dev)
    ok = worst_env <= 1e-12 and worst_inv <= 1e-12 and worst_dual <= 1e-7
    _gate(4, "conjugate identities", ok,
          f"envelope excess {worst_env:.2e}, involution {worst_inv:.2e}, "
          f"dual envelope dev {worst_dual:.2e}")


# ---------------------------------------------------------------------------
# 5. analytic gradients vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_checks():
    phi = [[{"coeff": 1.0, "z": [1, 0]}], [{"coeff": 1.0, "z": [0, 1]}],
           [{"coeff": 0.1, "z": [1, 1]}]]
    psi = [[{"coeff": 1.0, "x": [0], "eps": [1, 0]}],
           [{"coeff": 1.0, "x": [0], "eps": [0, 1]}],
           [{"coeff": 0.1, "x": [1], "eps": [1, 1]}]]
    families = [
        SurplusFamily.bilinear(2, d_x=1),
        SurplusFamily.neg_quadratic([[2.0, 0.4], [0.4, 1.0]], d_x=1),
        SurplusFamily.polynomial(
            [
                {"coeff": 1.0, "x": [0], "eps": [1, 0], "z": [1, 0]},
                {"coeff": 0.8, "x": [0], "eps": [0, 1], "z": [0, 1]},
                {"coeff": 0.2, "x": [1], "eps": [2, 0], "z": [0, 1]},
                {"coeff": -0.1, "x": [0], "eps": [0, 2], "z": [2, 0]},
            ], 1, 2,
        ),
        SurplusFamily.bilinear_feature(phi, psi, 1, 2),
    ]
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(55)
    for f in families:
        for _ in range(100):
            x = rng.uniform(-1, 1, size=f.d_x)
            eps = rng.uniform(-1, 1, size=f.d_z)
            z = rng.uniform(-1, 1, size=f.d_z)
            for grad, wiggle in (
                (f.grad_z(x, eps, z), "z"),
                (f.grad_eps(x, eps, z), "eps"),
            ):
                fd = np.empty(f.d_z)
                for k in range(f.d_z):
                    dv = np.zeros(f.d_z)
                    dv[k] = h
                    if wiggle == "z":
                        hi, lo = f.eval_rows(x, eps, z + dv)[0], f.eval_rows(x, eps, z - dv)[0]
                    else:
                        hi, lo = f.eval_rows(x, eps + dv, z)[0], f.eval_rows(x, eps - dv, z)[0]
                    fd[k] = (hi - lo) / (2 * h)
                worst = max(
                    worst,
                    np.linalg.norm(grad - fd) / (1 + np.linalg.norm(fd)),
                )
            cross = f.cross_hessian(x, eps, z)
            fd_cross = np.empty((f.d_z, f.d_z))
            for b in range(f.d_z):
                dv = np.zeros(f.d_z)
                dv[b] = h
                fd_cross[:, b] = (
                    f.grad_eps(x, eps, z + dv) - f.grad_eps(x, eps, z - dv)
                ) / (2 * h)
            worst = max(
                worst,
                np.linalg.norm(cross - fd_cross) / (1 + np.linalg.norm(fd_cross)),
            )
    _gate(5, "analytic vs finite-difference gradients", worst <= 1e-6,
          f"worst relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. equilibrium validity across a spec/size matrix
# ---------------------------------------------------------------------------


def _spec_matrix(d_z):
    ones = [1.0] * d_z
    # A: no base utility, productivity-weighted quadratic cost
    cost_a = ScalarFamily.polynomial(
        [{"coeff": 0.5, "a": [int(i == k) for i in range(d_z)],
          "z": [2 * int(i == k) for i in range(d_z)]} for k in range(d_z)],
        d_z, d_z,
    )
    spec_a = StructuralSpec(
        u_bar=ScalarFamily.zero(1, d_z),
        cost=cost_a,
        zeta=SurplusFamily.bilinear(d_z, d_x=1),
    )
    grid_a = build_z_grid([-0.2] * d_z, [2.4] * d_z, 900 if d_z == 1 else 45)
    prod_a = DistributionSpec.uniform([0.5] * d_z, [1.5] * d_z)

    # B: quadratic base utility, linear-quadratic cost
    cost_b_terms = [
        {"coeff": 0.5, "z": [2 * int(i == k) for i in range(d_z)]} for k in range(d_z)
    ] + [
        {"coeff": -1.0, "a": [int(i == k) for i in range(d_z)],
         "z": [int(i == k) for i in range(d_z)]} for k in range(d_z)
    ]
    spec_b = StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(
            np.eye(d_z), center_offset=[4.0] * d_z, d_a=1
        ),
        cost=ScalarFamily.polynomial(cost_b_terms, d_z, d_z),
        zeta=SurplusFamily.bilinear(d_z, d_x=1),
    )
    grid_b = build_z_grid([1.8] * d_z, [3.2] * d_z, 900 if d_z == 1 else 45)
    prod_b = DistributionSpec.uniform([0.0] * d_z, [1.0] * d_z)

    # C: taste-anchored negative quadratic surplus
    q = np.eye(d_z) + (0.2 * (np.ones((d_z, d_z)) - np.eye(d_z)) if d_z > 1 else 0.0)
    spec_c = StructuralSpec(
        u_bar=ScalarFamily.zero(1, d_z),
        cost=ScalarFamily.polynomial(cost_b_terms, d_z, d_z),
        zeta=SurplusFamily.neg_quadratic(q, d_x=1),
    )
    grid_c = build_z_grid([-0.6] * d_z, [1.8] * d_z, 900 if d_z == 1 else 45)
    prod_c = DistributionSpec.uniform([0.0] * d_z, [1.0] * d_z)
    return [
        ("tinbergen", spec_a, grid_a, prod_a),
        ("quadratic", spec_b, grid_b, prod_b),
        ("neg-quad-surplus", spec_c, grid_c, prod_c),
    ]


def test_criterion_6_equilibrium_validity_matrix():
    start = time.monotonic()
    failures = []
    count = 0
    for d_z in (1, 2):
        eps_spec = DistributionSpec.uniform([0.0] * d_z, [1.0] * d_z)
        for name, spec, grid, prod_spec in _spec_matrix(d_z):
            for n in (50, 200):
                # one spec family runs with unequal sides to hit the LP path
                m = n + 13 if name == "tinbergen" else n
                out = simulate_market(
                    spec,
                    DistributionSpec.point([1.0]),
                    eps_spec,
                    prod_spec,
                    n,
                    m,
                    grid,
                    seed=count,
                )
                rep = verify_equilibrium(out)
                count += 1
                if not rep.passed or rep.clearing_max_dev > 1e-9:
                    failures.append((name, d_z, n, rep.failures))
    elapsed = time.monotonic() - start
    ok = not failures and count == 12 and elapsed < 300.0
    _gate(6, "equilibrium validity 12-combo matrix", ok,
          f"{count} markets verified, {elapsed:.1f}s"
          + (f", failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 7. round-trip recovery with refinement trend
# ---------------------------------------------------------------------------


def test_criterion_7_round_trip_recovery():
    start = time.monotonic()
    center = np.array([4.0, 4.0])
    spec = StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=center, d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2,
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )
    eps_spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    errors = []
    for n, res in ((100, 30), (200, 42), (400, 60)):
        out = simulate_market(
            spec,
            DistributionSpec.point([1.0]),
            eps_spec,
            eps_spec,
            n,
            n,
            build_z_grid([1.9, 1.9], [3.1, 3.1], res),
            seed=20,
        )
        assert verify_equilibrium(out).passed
        sl = partition_by_x(out.dataset, "exact")[0]
        pot = general_identify(
            sl, eps_spec, SurplusFamily.bilinear(2, d_x=1),
            n_ref=n, reference_mode="lattice",
        )
        analytic = center[None, :] - sl.z_measure.points
        ok_rows = np.all(np.isfinite(pot.u_bar_grad), axis=1)
        rmse = np.sqrt(
            np.mean(np.sum((pot.u_bar_grad[ok_rows] - analytic[ok_rows]) ** 2, axis=1))
        )
        rms = np.sqrt(np.mean(np.sum(analytic[ok_rows] ** 2, axis=1)))
        errors.append(float(rmse / rms))
    elapsed = time.monotonic() - start
    ok = (
        errors[0] > errors[1] > errors[2]
        and errors[2] <= 0.05
        and elapsed < 600.0
    )
    _gate(7, "round-trip recovery", ok,
          f"rel RMSE by level {[f'{e:.4f}' for e in errors]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. monotonicity fingerprints
# ---------------------------------------------------------------------------


def test_criterion_8_monotonicity():
    rng = np.random.default_rng(8)
    worst_pairwise = np.inf
    cycle_violations = 0
    families = [
        SurplusFamily.bilinear(2),
        SurplusFamily.neg_quadratic([[1.5, 0.2], [0.2, 1.0]]),
    ]
    for trial in range(10):
        n = int(rng.integers(10, 60))
        uniform = trial % 2 == 0
        mu = from_samples(
            rng.normal(size=(n, 2)), None if uniform else rng.random(n) + 0.1
        )
        nu = from_samples(
            rng.normal(size=(n, 2)), None if uniform else rng.random(n) + 0.1
        )
        for f in families:
            s = surplus_matrix(mu, nu, f)
            plan, _ = solve_exact(mu, nu, s)
            rep = check_cyclical_monotonicity(plan, s, k=2, trials=1000, seed=trial)
            cycle_violations += rep.violations
            if f.kind == "bilinear":
                ii, jj, _ = plan.support()
                de = mu.points[ii][:, None, :] - mu.points[ii][None, :, :]
                dz = nu.points[jj][:, None, :] - nu.points[jj][None, :, :]
                worst_pairwise = min(
                    worst_pairwise, float(np.einsum("abk,abk->ab", de, dz).min())
                )
    # corrupted fixture: swap two assignments of a comonotone coupling
    pts = np.sort(rng.normal(size=8))[:, None]
    mu = from_samples(pts)
    nu = from_samples(pts)
    s = surplus_matrix(mu, nu, SurplusFamily.bilinear(1))
    coupling = np.eye(8) / 8
    coupling[[2, 5]] = coupling[[5, 2]]
    bad = TransportPlan.from_dense(coupling, float(np.sum(coupling * s)))
    bad_rep = check_cyclical_monotonicity(bad, s, k=2, trials=1000, seed=99)
    ok = worst_pairwise >= -1e-9 and cycle_violations == 0 and bad_rep.violations > 0
    _gate(8, "Brenier & cyclical monotonicity", ok,
          f"pairwise min {worst_pairwise:.2e}, sampled violations "
          f"{cycle_violations}, corrupted fixture detected: {bad_rep.violations > 0}")


# ---------------------------------------------------------------------------
# 9. simultaneous-equations recovery
# ---------------------------------------------------------------------------


def test_criterion_9_simultaneous_equations_recovery():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    lattice = spec.lattice(400)
    assert lattice.shape == (400, 2)
    ds = MarketDataset(np.zeros((400, 1)), lattice @ a.T, np.zeros(400))
    est = simultaneous_equations_identify(
        ds, spec, n_ref=400, reference_mode="lattice"
    )[0]
    expected = est.eps_points @ a.T
    lo, hi = est.eps_points.min(axis=0), est.eps_points.max(axis=0)
    interior = np.all((est.eps_points > lo) & (est.eps_points < hi), axis=1)
    rel = np.linalg.norm(est.z_hat[interior] - expected[interior], axis=1) / np.linalg.norm(
        expected[interior], axis=1
    )
    worst = float(rel.max())
    _gate(9, "simultaneous-equations recovery", worst <= 0.02,
          f"max interior relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 10. byte determinism of the CLI
# ---------------------------------------------------------------------------


def test_criterion_10_byte_determinism(tmp_path):
    sim = {
        "structural": {
            "u_bar": {"kind": "neg-quadratic", "d_a": 1,
                      "q": [[1.0, 0.0], [0.0, 1.0]],
                      "center_matrix": [[0.0], [0.0]], "center_offset": [4.0, 4.0]},
            "cost": {"kind": "polynomial", "d_a": 2, "d_z": 2,
                     "terms": [
                         {"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
                         {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
                         {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}]},
            "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
        },
        "x_spec": {"kind": "point", "value": [1.0]},
        "eps_spec": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "producer_spec": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "n_consumers": 35, "n_producers": 35,
        "z_grid": {"lo": [1.9, 1.9], "hi": [3.1, 3.1], "resolution": 25},
        "outputs": {"dataset": "dataset.csv", "report": "sim_report.json"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 4242,
        "simulate": sim,
        "identify": {
            "pipeline": "general",
            "dataset": str(tmp_path / "a" / "dataset.csv"),
            "eps_spec": {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
            "n_ref": 35,
            "outputs": {"prefix": "ident"},
        },
    }))
    for run in ("a", "b"):
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / run)]) == 0
        assert cli_main(["identify", "--config", str(cfg_path),
                         "--out", str(tmp_path / run)]) == 0
    names = ["dataset.csv", "sim_report.json", "ident_cell000.csv",
             "ident_diagnostics.json"]
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    _gate(10, "byte determinism", same, f"{len(names)} files compared")
