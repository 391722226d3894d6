"""Surplus family evaluation, analytic gradients, and the twist check."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic.surplus import ScalarFamily, StructuralSpec, SurplusFamily, check_twist

NO_X = np.zeros(0)


def central_grad(fun, v, h=1e-5):
    """Finite-difference oracle for gradients."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    for k in range(v.shape[0]):
        dv = np.zeros_like(v)
        dv[k] = h
        out[k] = (fun(v + dv) - fun(v - dv)) / (2 * h)
    return out


def rel_err(a, b):
    return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))


# ---------------------------------------------------------------------------
# evaluation examples
# ---------------------------------------------------------------------------


def test_bilinear_inner_product():
    f = SurplusFamily.bilinear(2)
    assert f.eval_rows(NO_X, [1.0, 2.0], [3.0, 4.0])[0] == 11.0


def test_neg_quadratic_vanishes_on_diagonal():
    f = SurplusFamily.neg_quadratic(np.eye(2))
    assert f.eval_rows(NO_X, [0.3, -0.7], [0.3, -0.7])[0] == 0.0


def test_polynomial_direct_value():
    # zeta = z * eps^2
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    assert f.eval_rows(NO_X, [2.0], [3.0])[0] == 12.0


def test_dimension_mismatch_rejected():
    f = SurplusFamily.bilinear(2)
    with pytest.raises(ValueError):
        f.eval_rows(NO_X, [1.0], [1.0, 2.0])[0]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_bilinear_gradients():
    f = SurplusFamily.bilinear(2)
    eps, z = np.array([1.5, -2.0]), np.array([0.2, 4.0])
    assert np.array_equal(f.grad_z(NO_X, eps, z), eps)
    assert np.array_equal(f.grad_eps(NO_X, eps, z), z)


def test_neg_quadratic_grad_z():
    f = SurplusFamily.neg_quadratic(np.eye(2))
    g = f.grad_z(NO_X, [1.0, 0.0], [0.0, 0.0])
    assert np.allclose(g, [1.0, 0.0])


def test_polynomial_grad_eps_matches_fd():
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    analytic = f.grad_eps(NO_X, [2.0], [3.0])
    assert analytic[0] == 12.0
    fd = central_grad(lambda e: f.eval_rows(NO_X, e, [3.0])[0], np.array([2.0]))
    assert rel_err(analytic, fd) <= 1e-6


def test_cross_hessian_closed_forms():
    assert np.array_equal(
        SurplusFamily.bilinear(3).cross_hessian(NO_X, np.zeros(3), np.ones(3)),
        np.eye(3),
    )
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(
        SurplusFamily.neg_quadratic(q).cross_hessian(NO_X, np.zeros(2), np.ones(2)), q
    )


def test_polynomial_cross_hessian_value():
    # zeta = z * eps^2 -> d2/deps dz = 2 eps = 4 at eps = 2
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    assert f.cross_hessian(NO_X, [2.0], [3.0])[0, 0] == 4.0
    fd = central_grad(lambda z: f.grad_eps(NO_X, [2.0], z)[0], np.array([3.0]))
    assert rel_err(np.array([4.0]), fd) <= 1e-6


def _families_for_property_tests():
    phi = [
        [{"coeff": 1.0, "z": [1, 0]}],
        [{"coeff": 1.0, "z": [0, 1]}],
        [{"coeff": 0.1, "z": [1, 1]}],
    ]
    psi = [
        [{"coeff": 1.0, "x": [0], "eps": [1, 0]}],
        [{"coeff": 1.0, "x": [0], "eps": [0, 1]}],
        [{"coeff": 0.1, "x": [1], "eps": [1, 1]}],
    ]
    return [
        SurplusFamily.bilinear(2, d_x=1),
        SurplusFamily.neg_quadratic([[2.0, 0.4], [0.4, 1.0]], d_x=1),
        SurplusFamily.polynomial(
            [
                {"coeff": 1.0, "x": [0], "eps": [1, 0], "z": [1, 0]},
                {"coeff": 0.8, "x": [0], "eps": [0, 1], "z": [0, 1]},
                {"coeff": 0.2, "x": [1], "eps": [2, 0], "z": [0, 1]},
                {"coeff": -0.1, "x": [0], "eps": [0, 2], "z": [2, 0]},
            ],
            1,
            2,
        ),
        SurplusFamily.bilinear_feature(phi, psi, 1, 2),
    ]


@pytest.mark.parametrize("f", _families_for_property_tests(), ids=lambda f: f.kind)
def test_gradients_match_finite_differences(f):
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=f.d_x)
        eps = rng.uniform(-1, 1, size=f.d_z)
        z = rng.uniform(-1, 1, size=f.d_z)
        gz = f.grad_z(x, eps, z)
        ge = f.grad_eps(x, eps, z)
        fd_z = central_grad(lambda v: f.eval_rows(x, eps, v)[0], z)
        fd_e = central_grad(lambda v: f.eval_rows(x, v, z)[0], eps)
        assert rel_err(gz, fd_z) <= 1e-6
        assert rel_err(ge, fd_e) <= 1e-6
        cross = f.cross_hessian(x, eps, z)
        fd_cross = np.column_stack(
            [
                central_grad(lambda v: f.grad_eps(x, eps, v)[a], z)
                for a in range(f.d_z)
            ]
        ).T
        assert rel_err(cross.ravel(), fd_cross.ravel()) <= 1e-6


def test_eval_is_pure():
    f = SurplusFamily.neg_quadratic(np.eye(2))
    args = (NO_X, np.array([0.1, 0.2]), np.array([0.4, -0.3]))
    assert f.eval_rows(*args)[0] == f.eval_rows(*args)[0]


# ---------------------------------------------------------------------------
# twist diagnostic
# ---------------------------------------------------------------------------


def test_twist_passes_for_bilinear():
    f = SurplusFamily.bilinear(2)
    rng = np.random.default_rng(0)
    rep = check_twist(f, NO_X, rng.normal(size=(15, 2)), rng.normal(size=(10, 2)))
    assert rep.passed
    assert abs(rep.min_singular_value - 1.0) < 1e-12


def test_twist_catches_even_surplus():
    # zeta = z * |eps|^2 in 1-D is not injective in eps
    f = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    eps_grid = np.array([[-0.5], [0.2], [0.5]])
    z_grid = np.array([[0.0], [1.0]])
    rep = check_twist(f, NO_X, eps_grid, z_grid)
    assert not rep.passed
    assert rep.witness is not None
    eps_a, eps_b, _ = rep.witness
    assert not np.allclose(eps_a, eps_b)


def test_twist_min_singular_value_from_eigenvalues():
    q = np.diag([2.0, 1.0])
    f = SurplusFamily.neg_quadratic(q)
    rng = np.random.default_rng(1)
    rep = check_twist(f, NO_X, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
    # oracle: singular values of a constant cross Hessian Q are its eigenvalues
    assert abs(rep.min_singular_value - 1.0) < 1e-12
    assert rep.passed
    assert rep.growth_condition == "not checked"


# ---------------------------------------------------------------------------
# scalar families and config round trips
# ---------------------------------------------------------------------------


def test_scalar_neg_quadratic_with_affine_center():
    fam = ScalarFamily.neg_quadratic(
        np.eye(2), center_matrix=[[1.0], [0.0]], center_offset=[0.0, 2.0], d_a=1
    )
    # center at a=3 is (3, 2); value at z = center is 0
    assert fam.eval_rows([3.0], [3.0, 2.0])[0] == 0.0
    g = fam.grad_z([3.0], [4.0, 2.0])
    assert np.allclose(g, [-1.0, 0.0])


def test_scalar_polynomial_pairwise_grid_matches_rows():
    fam = ScalarFamily.polynomial(
        [{"coeff": 0.5, "z": [2]}, {"coeff": -1.0, "a": [1], "z": [1]}], 1, 1
    )
    a = np.array([[0.5], [2.0]])
    z = np.array([[1.0], [3.0], [0.0]])
    grid = fam.pairwise_grid(a, z)
    for i in range(2):
        for g in range(3):
            assert abs(grid[i, g] - fam.eval_rows(a[i], z[g])[0]) < 1e-12


PHI = [[{"coeff": 1.0, "z": [1, 0]}], [{"coeff": 0.1, "z": [1, 1]}]]
PSI = [[{"coeff": 1.0, "eps": [1, 0]}], [{"coeff": 0.1, "x": [1], "eps": [1, 1]}]]
POLY_TERMS = [{"coeff": 1.0, "eps": [1], "z": [1]}, {"coeff": -0.1, "x": [1], "z": [2]}]
FROM_CONFIG_CASES = {
    "bilinear": (
        SurplusFamily, {"kind": "bilinear", "dim": 2}, SurplusFamily.bilinear(2),
    ),
    "neg-quadratic": (
        SurplusFamily, {"kind": "neg-quadratic", "q": [[2.0, 0.4], [0.4, 1.0]], "d_x": 1},
        SurplusFamily.neg_quadratic([[2.0, 0.4], [0.4, 1.0]], d_x=1),
    ),
    "polynomial": (
        SurplusFamily, {"kind": "polynomial", "d_x": 1, "d_z": 1, "terms": POLY_TERMS},
        SurplusFamily.polynomial(POLY_TERMS, 1, 1),
    ),
    "bilinear-feature": (
        SurplusFamily,
        {"kind": "bilinear-feature", "d_x": 1, "d_z": 2, "phi": PHI, "psi": PSI},
        SurplusFamily.bilinear_feature(PHI, PSI, 1, 2),
    ),
    "scalar-polynomial": (
        ScalarFamily, {"kind": "polynomial", "d_a": 1, "d_z": 1, "terms": [{"coeff": 0.5}]},
        ScalarFamily.polynomial([{"coeff": 0.5, "a": [0], "z": [0]}], 1, 1),
    ),
    "scalar-neg-quadratic": (
        ScalarFamily, {"kind": "neg-quadratic", "q": [[1.0]], "center_offset": [2.0], "d_a": 1},
        ScalarFamily.neg_quadratic(np.eye(1), [[0.0]], [2.0], 1),
    ),
    "structural": (
        StructuralSpec,
        {"u_bar": {"kind": "neg-quadratic", "q": [[1.0]], "d_a": 1},
         "cost": {"kind": "polynomial", "d_a": 1, "d_z": 1, "terms": [{"coeff": 0.5, "z": [2]}]},
         "zeta": {"kind": "bilinear", "dim": 1, "d_x": 1}},
        StructuralSpec(
            u_bar=ScalarFamily.neg_quadratic(np.eye(1), d_a=1),
            cost=ScalarFamily.polynomial([{"coeff": 0.5, "z": [2]}], 1, 1),
            zeta=SurplusFamily.bilinear(1, d_x=1),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(FROM_CONFIG_CASES))
def test_from_config_equals_the_constructor(case):
    cls, cfg, built = FROM_CONFIG_CASES[case]
    assert cls.from_config(cfg) == built


@pytest.mark.parametrize("case, key, value", [
    ("neg-quadratic", "q", [[2.0, 0.3], [0.3, 1.0]]),
    ("polynomial", "terms", POLY_TERMS[:1]),
    ("bilinear-feature", "psi", [PSI[0], [{"coeff": 0.2, "x": [1], "eps": [1, 1]}]]),
    ("scalar-neg-quadratic", "center_offset", [2.5]),
])
def test_families_of_one_kind_and_shape_differ_by_their_function(case, key, value):
    cls, cfg, built = FROM_CONFIG_CASES[case]
    assert cls.from_config({**cfg, key: value}) != built


UNKNOWN_FAMILY_KEYS = [
    (SurplusFamily, {"kind": "bilinear", "dim": 1, "d_z": 1}, "zeta.d_z"),
    (SurplusFamily, {"kind": "neg-quadratic", "q": [[1.0]], "Q": [[1.0]]}, "zeta.Q"),
    (SurplusFamily, {"kind": "polynomial", "d_x": 0, "d_z": 1, "terms": [{"coeff": 1.0}],
                     "dz": 1}, "zeta.dz"),
    (SurplusFamily, {"kind": "bilinear-feature", "d_x": 0, "d_z": 2, "phi": PHI, "psi": PSI,
                     "features": 2}, "zeta.features"),
    (SurplusFamily, {"kind": "bilinear-feature", "d_x": 1, "d_z": 2, "phi": PHI,
                     "psi": [PSI[0], [{"coeff": 1.0, "eps": [1, 1], "z": [1, 0]}]]},
     "zeta.psi[1][0].z"),
    (SurplusFamily, {"kind": "polynomal", "d_x": 0, "d_z": 1, "terms": []}, "zeta.kind"),
    (SurplusFamily, ["bilinear", 1], "zeta must be a mapping"),
    (ScalarFamily, {"kind": "polynomial", "d_a": 1, "d_z": 1, "terms": [{"coeff": 1.0}],
                    "center_offset": [0.0]}, "scalar.center_offset"),
    (ScalarFamily, {"kind": "neg-quadratic", "q": [[1.0]], "centre_offset": [2.0]},
     "scalar.centre_offset"),
    (StructuralSpec, {**FROM_CONFIG_CASES["structural"][1], "costs": {}}, "structural.costs"),
    (StructuralSpec, {k: v for k, v in FROM_CONFIG_CASES["structural"][1].items()
                      if k != "cost"}, "structural.cost is required"),
]


@pytest.mark.parametrize("cls, cfg, path", UNKNOWN_FAMILY_KEYS,
                         ids=[p for _, _, p in UNKNOWN_FAMILY_KEYS])
def test_from_config_refuses_an_unknown_or_missing_key(cls, cfg, path):
    with pytest.raises(ValueError, match=re.escape(path)):
        cls.from_config(cfg)


def test_a_misspelled_term_block_is_an_error_not_a_term_without_it():
    # {"esp": [1]} was once read as a term in z alone: 2.0 at eps = 0.3, z = 2
    cfg = {"kind": "polynomial", "d_x": 0, "d_z": 1,
           "terms": [{"coeff": 0.5, "z": [2]}, {"coeff": 1, "esp": [1], "z": [1]}]}
    with pytest.raises(ValueError, match=re.escape("zeta.terms[1].esp")):
        SurplusFamily.from_config(cfg)
    with pytest.raises(ValueError, match=re.escape("cost.terms[0].eps")):
        StructuralSpec.from_config({**FROM_CONFIG_CASES["structural"][1], "cost": {
            "kind": "polynomial", "d_a": 1, "d_z": 1, "terms": [{"coeff": 1, "eps": [1]}]}})
    cfg["terms"][1] = {"coeff": 1, "eps": [1], "z": [1]}
    f = SurplusFamily.from_config(cfg)
    assert f.eval_rows(NO_X, [0.3], [2.0])[0] == 0.5 * 4.0 + 0.3 * 2.0


def test_invalid_neg_quadratic_rejected():
    with pytest.raises(ValueError):
        SurplusFamily.neg_quadratic([[1.0, 0.0], [0.1, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        SurplusFamily.neg_quadratic([[0.0, 0.0], [0.0, 1.0]])  # singular


# ---------------------------------------------------------------------------
# property tests of the polynomial core
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
COEFFS = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


def _exponents(draw, dim):
    return draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))


def _terms(draw, block_dims, max_terms=4):
    return [
        {"coeff": draw(COEFFS), **{b: _exponents(draw, d) for b, d in block_dims.items()}}
        for _ in range(draw(st.integers(1, max_terms)))
    ]


def _spd(draw, d):
    a = np.array(draw(st.lists(COEFFS, min_size=d * d, max_size=d * d))).reshape(d, d)
    b = a @ a.T
    return 0.5 * (b + b.T) + 0.5 * np.eye(d)


@st.composite
def surplus_families(draw):
    d_x = draw(st.sampled_from([0, 1]))
    d_z = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["polynomial", "neg-quadratic", "bilinear-feature"]))
    if kind == "polynomial":
        return SurplusFamily.polynomial(_terms(draw, {"x": d_x, "eps": d_z, "z": d_z}), d_x, d_z)
    if kind == "neg-quadratic":
        return SurplusFamily.neg_quadratic(_spd(draw, d_z), d_x=d_x)
    n_feat = draw(st.integers(1, 3))
    phi = [_terms(draw, {"z": d_z}, 2) for _ in range(n_feat)]
    psi = [_terms(draw, {"x": d_x, "eps": d_z}, 2) for _ in range(n_feat)]
    return SurplusFamily.bilinear_feature(phi, psi, d_x, d_z)


@st.composite
def scalar_families(draw):
    d_a = draw(st.sampled_from([0, 1]))
    d_z = draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        return ScalarFamily.polynomial(_terms(draw, {"a": d_a, "z": d_z}), d_a, d_z)
    m = np.array(draw(st.lists(COEFFS, min_size=d_z * d_a, max_size=d_z * d_a)))
    c0 = draw(st.lists(COEFFS, min_size=d_z, max_size=d_z))
    return ScalarFamily.neg_quadratic(_spd(draw, d_z), m.reshape(d_z, d_a), c0, d_a)


def _entrywise_rel(a, b):
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


@PROPERTY
@given(surplus_families(), st.integers(0, 2**32 - 1))
def test_matrix_methods_match_eval_rows(f, seed):
    rng = np.random.default_rng(seed)
    n, m = 4, 5
    x = rng.uniform(-1, 1, size=(n, f.d_x))
    eps = rng.uniform(-1, 1, size=(n, f.d_z))
    z = rng.uniform(-1, 1, size=(m, f.d_z))
    ii, jj = np.divmod(np.arange(n * m), m)
    rows = f.eval_rows(x[ii], eps[ii], z[jj]).reshape(n, m)
    assert _entrywise_rel(f.pairwise_consumer_grid(x, eps, z), rows) <= 1e-12
    fixed = f.eval_rows(x[0], eps[ii], z[jj]).reshape(n, m)
    assert _entrywise_rel(f.pairwise(x[0], eps, z), fixed) <= 1e-12


@PROPERTY
@given(scalar_families(), st.integers(0, 2**32 - 1))
def test_scalar_pairwise_grid_matches_eval_rows(g, seed):
    rng = np.random.default_rng(seed)
    n, m = 4, 5
    a = rng.uniform(-1, 1, size=(n, g.d_a))
    z = rng.uniform(-1, 1, size=(m, g.d_z))
    ii, jj = np.divmod(np.arange(n * m), m)
    rows = g.eval_rows(a[ii], z[jj]).reshape(n, m)
    assert _entrywise_rel(g.pairwise_grid(a, z), rows) <= 1e-12


def _central_rows(fun, v, h=1e-5):
    """d fun / d v_k per row by central differences: (n, ...) -> (n, ..., d)."""
    cols = []
    for k in range(v.shape[1]):
        dv = np.zeros_like(v)
        dv[:, k] = h
        cols.append((fun(v + dv) - fun(v - dv)) / (2 * h))
    return np.stack(cols, axis=-1)


def _worst_rel(a, b):
    n = a.shape[0]
    a, b = a.reshape(n, -1), b.reshape(n, -1)
    return np.max(np.linalg.norm(a - b, axis=1) / (1.0 + np.linalg.norm(b, axis=1)))


@PROPERTY
@given(surplus_families(), st.integers(0, 2**32 - 1))
def test_derivatives_match_central_differences(f, seed):
    rng = np.random.default_rng(seed)
    n = 6
    x = rng.uniform(-1, 1, size=(n, f.d_x))
    eps = rng.uniform(-1, 1, size=(n, f.d_z))
    z = rng.uniform(-1, 1, size=(n, f.d_z))
    fd_z = _central_rows(lambda v: f.eval_rows(x, eps, v), z)
    fd_eps = _central_rows(lambda v: f.eval_rows(x, v, z), eps)
    fd_cross = _central_rows(lambda v: f.grad_eps_rows(x, eps, v), z)
    fd_zz = _central_rows(lambda v: f.grad_z_rows(x, eps, v), z)
    assert _worst_rel(f.grad_z_rows(x, eps, z), fd_z) <= 1e-6
    assert _worst_rel(f.grad_eps_rows(x, eps, z), fd_eps) <= 1e-6
    assert _worst_rel(f.cross_hessian_rows(x, eps, z), fd_cross) <= 1e-6
    assert _worst_rel(f._hessian_rows(x, eps, z)[1], fd_zz) <= 1e-6


@PROPERTY
@given(scalar_families(), st.integers(0, 2**32 - 1))
def test_scalar_grad_z_matches_central_differences(g, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(6, g.d_a))
    z = rng.uniform(-1, 1, size=(6, g.d_z))
    fd = _central_rows(lambda v: g.eval_rows(a, v), z)
    assert _worst_rel(g.grad_z_rows(a, z), fd) <= 1e-6


# ---------------------------------------------------------------------------
# batched twist check against the per-pair scan
# ---------------------------------------------------------------------------


def _per_pair_twist(f, x, eps_pts, z_pts, threshold=1e-8, witness_tol=1e-9, h=1e-5):
    """Reference twist scan: one (eps, z) pair at a time, with the quality
    Hessian norm taken from central differences of grad_z."""
    min_sv, max_inv, max_hzz, witness = np.inf, 0.0, 0.0, None
    n_e = eps_pts.shape[0]
    for z in z_pts:
        grads = f.grad_z_rows(x, eps_pts, np.tile(z, (n_e, 1)))
        if witness is None and n_e > 1:
            dist = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=2)
            dist[np.tril_indices(n_e)] = np.inf
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            if dist[i, j] <= witness_tol and not np.allclose(
                eps_pts[i], eps_pts[j], rtol=0.0, atol=witness_tol
            ):
                witness = (eps_pts[i].copy(), eps_pts[j].copy(), z.copy())
    for eps in eps_pts[:: max(1, n_e // 25)]:
        for z in z_pts[:: max(1, z_pts.shape[0] // 25)]:
            sv = np.linalg.svd(f.cross_hessian(x, eps, z), compute_uv=False)
            min_sv = min(min_sv, float(sv[-1]))
            max_inv = max(max_inv, 1.0 / float(sv[-1])) if sv[-1] > 0 else np.inf
            hess = np.empty((f.d_z, f.d_z))
            for b in range(f.d_z):
                dz = np.zeros(f.d_z)
                dz[b] = h
                hess[:, b] = (f.grad_z(x, eps, z + dz) - f.grad_z(x, eps, z - dz)) / (2 * h)
            max_hzz = max(max_hzz, float(np.linalg.norm(hess, 2)))
    passed = witness is None and min_sv > threshold
    return passed, witness, min_sv, max_inv, max_hzz


def _twist_parity_cases():
    rng = np.random.default_rng(23)
    cases = [
        pytest.param(f, np.array([0.3]), rng.uniform(-1, 1, (60, 2)),
                     rng.uniform(-1, 1, (52, 2)), id=f.kind)
        for f in _families_for_property_tests()
    ]
    even = SurplusFamily.polynomial([{"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1)
    cases.append(pytest.param(even, NO_X, np.array([[-0.5], [0.2], [0.5]]),
                              np.array([[0.0], [1.0]]), id="even-surplus"))
    # grad_z = eps z + eps^2: the duplicated taste 0.1 is the closest pair at
    # z = 0, and 0.25 and -0.75 share the gradient 0.1875 only at z = 0.5
    crossing = SurplusFamily.polynomial(
        [{"coeff": 0.5, "eps": [1], "z": [2]}, {"coeff": 1.0, "eps": [2], "z": [1]}], 0, 1
    )
    cases.append(pytest.param(crossing, NO_X, np.array([[0.25], [-0.75], [0.1], [0.1]]),
                              np.array([[0.0], [0.5]]), id="duplicate-then-witness"))
    return cases


@pytest.mark.parametrize("f,x,eps_pts,z_pts", _twist_parity_cases())
def test_batched_twist_matches_per_pair_scan(f, x, eps_pts, z_pts):
    passed, witness, min_sv, max_inv, max_hzz = _per_pair_twist(f, x, eps_pts, z_pts)
    rep = check_twist(f, x, eps_pts, z_pts)
    assert rep.passed == passed
    assert (rep.witness is None) == (witness is None)
    if witness is not None:
        for got, want in zip(rep.witness, witness):
            assert np.array_equal(got, want)
    assert abs(rep.min_singular_value - min_sv) <= 1e-12
    assert abs(rep.inverse_cross_bound - max_inv) <= 1e-12
    assert abs(rep.quality_hessian_bound - max_hzz) <= 1e-6 * abs(max_hzz)


# ---------------------------------------------------------------------------
# Taste-linear, axis-separable split of U - C
# ---------------------------------------------------------------------------


def _readme_structural():
    return StructuralSpec(
        u_bar=ScalarFamily.neg_quadratic(np.eye(2), center_offset=[4.0, 4.0], d_a=1),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
             {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}], 2, 2
        ),
        zeta=SurplusFamily.bilinear(2, d_x=1),
    )


def _split_spread(spec, split, x, eps, y, axes):
    """Per pair, the spread over the lattice of `axes` of U - C less the
    split's slopes and scaled f_k (which leaves the terms free of z), and
    the largest of the pair's summed error bounds."""
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    gain = spec.u_bar.pairwise_grid(x, grid) + spec.zeta.pairwise_consumer_grid(x, eps, grid)
    cost = spec.cost.pairwise_grid(y, grid)
    slopes = split.consumer_slope[:, None, :] + split.producer_slope[None, :, :]
    structured = slopes @ grid.T
    for k, (t, f, scale) in enumerate(zip(axes, split.axis_values, split.axis_scale)):
        structured = structured + np.outer(*scale)[:, :, None] * f[np.searchsorted(t, grid[:, k])]
    rest = gain[:, None, :] - cost[None, :, :] - structured
    error = split.consumer_error[:, None, :] + split.producer_error[None, :, :]
    return np.ptp(rest, axis=2), error.max(axis=2)


def test_axis_split_reads_slopes_and_axis_terms_off_the_expanded_terms():
    # U - C = -|z - 4|^2 / 2 + eps . z - |z|^2 / 2 + y . z: slopes eps and y,
    # and f_k(t) = 4 t - t^2 on each axis
    spec = _readme_structural()
    rng = np.random.default_rng(0)
    x, eps, y = np.ones((5, 1)), rng.uniform(size=(5, 2)), rng.uniform(size=(4, 2))
    axes = [np.linspace(1.9, 3.1, 7), np.linspace(2.0, 3.0, 5)]
    split = spec.axis_split(x, eps, y, axes)
    assert np.array_equal(split.consumer_slope, eps)
    assert np.array_equal(split.producer_slope, y)
    for consumer_scale, producer_scale in split.axis_scale:
        assert np.array_equal(consumer_scale, np.ones(5))
        assert np.array_equal(producer_scale, np.ones(4))
    for t, f in zip(axes, split.axis_values):
        assert np.allclose(f, 4.0 * t - t**2, rtol=0.0, atol=1e-14)

    # U - C on the grid less the split's part is free of z, within the bounds
    spread, error = _split_spread(spec, split, x, eps, y, axes)
    assert np.all(spread <= 4 * error)
    assert 0 < error.max() < 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_axis_split_reads_type_scaled_curvature(sign):
    # U - C = x (0.25 - 0.5) z_0^2 + 0.5 z_0 + eps . z + y_0 z_0 - y_1 z_1^2 / 2
    # with x and y_1 of one sign: x scales axis 0 (u_bar's and zeta's terms
    # in x match) and y_1 axis 1; a negative sign is folded into f_k
    spec = StructuralSpec(
        u_bar=ScalarFamily.polynomial(
            [{"coeff": -0.5, "a": [1], "z": [2, 0]}, {"coeff": 0.5, "z": [1, 0]}], 1, 2),
        cost=ScalarFamily.polynomial(
            [{"coeff": 0.5, "a": [0, 1], "z": [0, 2]},
             {"coeff": -1.0, "a": [1, 0], "z": [1, 0]}], 2, 2),
        zeta=SurplusFamily.polynomial(
            [{"coeff": 0.25, "x": [1], "z": [2, 0]},
             {"coeff": 1.0, "eps": [1, 0], "z": [1, 0]},
             {"coeff": 1.0, "eps": [0, 1], "z": [0, 1]}], 1, 2),
    )
    rng = np.random.default_rng(1)
    x, eps = sign * rng.uniform(0.5, 2.0, size=(5, 1)), rng.uniform(size=(5, 2))
    y = np.column_stack([rng.uniform(size=4), sign * rng.uniform(0.5, 2.0, size=4)])
    axes = [np.linspace(-1.0, 2.0, 7), np.linspace(0.0, 3.0, 5)]
    split = spec.axis_split(x, eps, y, axes)
    # the type-free 0.5 z_0 of the scaled axis 0 joins the consumer slope
    assert np.array_equal(split.consumer_slope, eps + [0.5, 0.0])
    assert np.array_equal(split.producer_slope, np.column_stack([y[:, 0], np.zeros(4)]))
    (x_scale, ones_m), (ones_n, y_scale) = split.axis_scale
    assert np.array_equal(x_scale, np.abs(x[:, 0])) and np.array_equal(ones_m, np.ones(4))
    assert np.array_equal(y_scale, np.abs(y[:, 1])) and np.array_equal(ones_n, np.ones(5))
    assert np.array_equal(split.axis_values[0], sign * -0.25 * axes[0] ** 2)
    assert np.array_equal(split.axis_values[1], sign * -0.5 * axes[1] ** 2)
    spread, error = _split_spread(spec, split, x, eps, y, axes)
    assert np.all(spread <= 4 * error)
    assert 0 < error.max() < 1e-10


@pytest.mark.parametrize("case", ["a-z-squared", "cross-quadratic", "z1-z2-term"])
def test_axis_split_is_none_off_the_taste_linear_separable_case(case):
    spec, y = _readme_structural(), np.ones((2, 2))
    if case == "a-z-squared":
        # tinbergen's y z^2 / 2 cost on axis 0, with a producer type y_0 = 0
        spec = dataclasses.replace(
            spec, u_bar=ScalarFamily.zero(1, 2),
            cost=ScalarFamily.polynomial([{"coeff": 0.5, "a": [1, 0], "z": [2, 0]}], 2, 2))
        y[1, 0] = 0.0
    elif case == "cross-quadratic":
        spec = dataclasses.replace(
            spec, zeta=SurplusFamily.neg_quadratic([[1.0, 0.2], [0.2, 1.0]], d_x=1))
    else:
        spec = dataclasses.replace(spec, u_bar=ScalarFamily.polynomial(
            [{"coeff": 0.1, "z": [1, 1]}], 1, 2))
    axes = [np.linspace(0.0, 1.0, 3)] * 2
    assert spec.axis_split(np.ones((2, 1)), np.ones((2, 2)), y, axes) is None
