"""Identification pipelines: recover potentials and inverse demand
from one market's (x, z, p) observations and an a-priori taste law.

Four routes, all per x-cell:

* scalar quantile identification (d_z = 1, sign-definite cross
  derivative): inverse demand is the quantile transform between the
  traded-quality law and the reference taste law, and the potential is
  recovered by integrating the consumer first-order condition;
* Brenier identification (bilinear surplus): exact transport between a
  discretized reference measure and the traded qualities, potential
  from the dual, inverse demand by barycentric projection;
* general twist-condition identification: same solve with an arbitrary
  surplus family, guarded by the injectivity diagnostic;
* simultaneous-equations recovery of a forward map z = h(x, eps) as a
  gradient of a convex function.

Every route discretizes its reference taste law through one gate, which
refuses a law with a point axis (it has no density to transport) and
otherwise returns n_ref seeded draws or the n_ref-point rank-1 quantile
lattice, uniform weights either way; the three transport routes share one
exact-transport core.

Averaged partial effects (the mean observed price gradient per cell)
are available without fixing the whole taste law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conjugate import GridFunction, is_zeta_convex, zeta_conjugate
from .measures import (
    ConditionalSlice,
    DiscreteMeasure,
    DistributionSpec,
    MarketDataset,
    empirical_cdf,
    empirical_cdf_quantile,
    from_samples,
    partition_by_x,
    product_grid,
    reference_lattice,
    sample_reference,
    write_float_table,
)
from .ot import (
    TransportPlan,
    barycentric_projection,
    exact_solver_path,
    solve_exact,
    surplus_matrix,
)
from .surplus import SurplusFamily, TwistViolationError, check_twist

__all__ = [
    "IdentifiedPotential",
    "ForwardMapEstimate",
    "scalar_identify",
    "brenier_identify",
    "general_identify",
    "simultaneous_equations_identify",
    "averaged_partial_effects",
    "local_price_gradients",
    "write_potential_csv",
]


@dataclass(frozen=True)
class IdentifiedPotential:
    """Recovered potential, inverse demand, and base-utility gradient
    on one cell's traded qualities.  v_values are pinned to 0 at
    `normalization_point`; u_bar_grad rows are NaN where no price
    gradient estimate exists."""

    x_value: np.ndarray
    z_points: np.ndarray
    v_values: np.ndarray
    inverse_demand: np.ndarray
    u_bar_grad: np.ndarray
    normalization_point: int
    diagnostics: dict

    @property
    def n(self) -> int:
        return self.z_points.shape[0]


@dataclass(frozen=True)
class ForwardMapEstimate:
    """Forward map h(x, eps) evaluated on the reference taste points."""

    x_value: np.ndarray
    eps_points: np.ndarray
    z_hat: np.ndarray
    diagnostics: dict


def _reference_measure(
    eps_spec: DistributionSpec, n_ref: int, seed: int, mode: str
) -> DiscreteMeasure:
    """The discretized reference taste law: n_ref seeded draws or the
    n_ref-point lattice, uniform weights either way."""
    if not eps_spec.is_absolutely_continuous:
        raise ValueError("reference taste law must be absolutely continuous")
    if mode == "sample":
        return sample_reference(eps_spec, n_ref, seed)
    if mode == "lattice":
        return reference_lattice(eps_spec, n_ref)
    raise ValueError(f"unknown reference mode {mode!r}")


def _transport_reference(ref: DiscreteMeasure, f: SurplusFamily, slice_: ConditionalSlice):
    """Exact transport from the reference to one cell's traded qualities
    under f: (surplus matrix, plan, duals, the solve's diagnostics)."""
    nu = slice_.z_measure
    s = surplus_matrix(ref, nu, f, slice_.x_value)
    plan, duals = solve_exact(ref, nu, s)
    diagnostics = {
        "n_ref": int(ref.n),
        "plan_objective": plan.objective,
        "duality_gap": float(abs(plan.objective - duals.objective(ref.weights, nu.weights))),
        "solver_path": exact_solver_path(ref.weights, nu.weights),
    }
    return s, plan, duals, diagnostics


def default_neighbor_count(d_z: int) -> int:
    return 2 * d_z + 2


def _neighbour_order(z: np.ndarray) -> np.ndarray:
    """Row j lists every point by its distance from point j, ties by index
    (a stable argsort of the distance matrix)."""
    dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable")


def local_price_gradients(z_points: np.ndarray, prices: np.ndarray, k: int, order=None):
    """Per-point price gradient by local least squares.

    Fits an affine model over each point and its k nearest neighbors, the
    first k + 1 entries of its row of `order` (default _neighbour_order).
    Returns (gradients, valid); rank-deficient neighborhoods give NaN
    rows flagged invalid.  All fits are solved by one stacked SVD with
    np.linalg.lstsq's rank rule for a (k + 1) x (d + 1) design, k >= d: a
    singular value counts when it is above eps * (k + 1) times the largest.
    """
    z = np.atleast_2d(np.asarray(z_points, dtype=float))
    p = np.asarray(prices, dtype=float).ravel()
    m, d = z.shape
    grads = np.full((m, d), np.nan)
    k = min(k, m - 1)
    if m < 2 or k < d:  # fewer than d + 1 rows cannot have full rank
        return grads, np.zeros(m, dtype=bool)
    if order is None:
        order = _neighbour_order(z)
    rows = order[:, : k + 1]  # the point itself plus k neighbors
    design = np.concatenate([np.ones((m, k + 1, 1)), z[rows] - z[:, None, :]], axis=2)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    cutoff = np.finfo(float).eps * (k + 1) * sv[:, :1]
    valid = np.count_nonzero(sv > cutoff, axis=1) == d + 1
    u, sv, vt = u[valid], sv[valid], vt[valid]
    scaled = (np.swapaxes(u, 1, 2) @ p[rows[valid], None])[:, :, 0] / sv
    grads[valid] = (np.swapaxes(vt, 1, 2) @ scaled[:, :, None])[:, 1:, 0]
    return grads, valid


def _matching_from_plan(plan: TransportPlan) -> Optional[np.ndarray]:
    """Source index per target when the plan is a pure matching (n = m and
    every row and column appears exactly once); else None."""
    n = plan.shape[0]
    if plan.shape[1] != n or plan.rows.size != n:
        return None
    if np.unique(plan.rows).size != n or np.unique(plan.cols).size != n:
        return None
    matching = np.empty(n, dtype=int)
    matching[plan.cols] = plan.rows
    return matching


def _foc_edge_residuals(
    f: SurplusFamily, x, z: np.ndarray, eps: np.ndarray, v: np.ndarray, order: np.ndarray
):
    """Consistency of dual differences with the first-order condition.

    On nearest-neighbor edges (a, b), compares v_b - v_a against the
    trapezoid line integral of the quality gradient of the surplus at
    the recovered tastes; small residuals mean the recovered potential
    integrates the inverse demand.  The nearest neighbor of a is the
    first entry other than a in its row of the neighbour order.
    """
    m = z.shape[0]
    if m < 2:
        return {"foc_edge_count": 0, "foc_residual_max": 0.0, "foc_residual_mean": 0.0}
    grads = f.grad_z_rows(x, eps, z)
    points = np.arange(m)
    nearest = np.where(order[:, 0] == points, order[:, 1], order[:, 0])
    a, b = np.unique(np.sort(np.column_stack([points, nearest]), axis=1), axis=0).T
    # one stacked (1 x d) @ (d x 1) product per edge, as the dot of each edge
    integral = ((0.5 * (grads[a] + grads[b]))[:, None, :] @ (z[b] - z[a])[:, :, None])[:, 0, 0]
    res = np.abs((v[b] - v[a]) - integral)
    return {
        "foc_edge_count": int(res.shape[0]),
        "foc_residual_max": float(res.max()),
        "foc_residual_mean": float(res.mean()),
    }


# ---------------------------------------------------------------------------
# Scalar quantile route
# ---------------------------------------------------------------------------


def _scalar_cross_sign(
    f: SurplusFamily, x, eps_values: np.ndarray, z_values: np.ndarray
) -> float:
    """+1 / -1 for a sign-definite scalar cross derivative; raises otherwise."""
    eps_z = product_grid([np.linspace(v.min(), v.max(), 9) for v in (eps_values, z_values)])
    signs = f.cross_hessian_rows(x, eps_z[:, :1], eps_z[:, 1:])[:, 0, 0]
    if np.all(signs > 1e-12):
        return 1.0
    if np.all(signs < -1e-12):
        return -1.0
    raise TwistViolationError(
        "cross derivative is not sign-definite on the data range; "
        "the quantile transform is not identified"
    )


def scalar_identify(
    slice_: ConditionalSlice,
    eps_spec: DistributionSpec,
    f: SurplusFamily,
    n_ref: int,
    seed: int = 0,
    reference_mode: str = "sample",
) -> IdentifiedPotential:
    """Quantile-transform identification for a single quality dimension.

    Inverse demand composes the traded-quality CDF with the reference
    quantile function (anti-monotone when the cross derivative is
    negative); the potential integrates the surplus quality-gradient
    along traded qualities by the trapezoid rule, pinned to 0 at the
    smallest traded quality.
    """
    if slice_.z_measure.dim != 1:
        raise ValueError("scalar identification requires d_z = 1")
    z = slice_.z_measure.points[:, 0]
    w = slice_.z_measure.weights
    m = z.shape[0]
    ref = _reference_measure(eps_spec, n_ref, seed, reference_mode)
    eps_vals = ref.points[:, 0]

    order = np.argsort(z, kind="stable")
    z_sorted = z[order]
    if m > 1:
        sign = _scalar_cross_sign(f, slice_.x_value, eps_vals, z)
        cdf = empirical_cdf(z, w, z_sorted)
        if sign > 0:
            q = cdf
        else:
            q = 1.0 - cdf + w[order]
        eps_of_z_sorted = empirical_cdf_quantile(eps_vals, ref.weights, q)
    else:
        eps_of_z_sorted = empirical_cdf_quantile(eps_vals, ref.weights, [0.5])
        sign = 1.0

    # integrate the first-order condition from the smallest traded quality
    slopes = f.grad_z_rows(
        slice_.x_value, eps_of_z_sorted[:, None], z_sorted[:, None]
    )[:, 0]
    v_sorted = np.zeros(m)
    if m > 1:
        steps = np.diff(z_sorted)
        v_sorted[1:] = np.cumsum(0.5 * (slopes[:-1] + slopes[1:]) * steps)

    # price slope by central differences on the sorted qualities
    p_sorted = slice_.prices[order]
    u_grad_sorted = np.full(m, np.nan)
    if m > 1:
        p_slope = np.gradient(p_sorted, z_sorted)
        u_grad_sorted = p_slope - slopes

    # scatter back to the slice's storage order
    inv = np.empty(m, dtype=int)
    inv[order] = np.arange(m)
    v_values = v_sorted[inv]
    eps_of_z = eps_of_z_sorted[inv]
    u_bar_grad = u_grad_sorted[inv]

    matching = None
    if m == n_ref and np.unique(z).shape[0] == m and np.unique(eps_vals).shape[0] == n_ref:
        eps_rank = np.argsort(eps_vals, kind="stable")
        ranks = eps_rank if sign > 0 else eps_rank[::-1]
        matching = np.empty(m, dtype=int)
        matching[order] = ranks
    diagnostics = {
        "pipeline": "scalar",
        "cross_sign": sign,
        "n_ref": int(n_ref),
        "seed": int(seed),
        "reference_mode": reference_mode,
        "matching": None if matching is None else matching.tolist(),
    }
    return IdentifiedPotential(
        x_value=slice_.x_value,
        z_points=slice_.z_measure.points,
        v_values=v_values,
        inverse_demand=eps_of_z[:, None],
        u_bar_grad=u_bar_grad[:, None],
        normalization_point=int(np.argmin(z)),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Transport-based routes
# ---------------------------------------------------------------------------


def _identify_via_transport(
    slice_: ConditionalSlice,
    eps_spec: DistributionSpec,
    f: SurplusFamily,
    n_ref: int,
    seed: int,
    reference_mode: str,
) -> IdentifiedPotential:
    d_z = slice_.z_measure.dim
    if f.d_z != d_z:
        raise ValueError("surplus family dimension must match the data")
    ref = _reference_measure(eps_spec, n_ref, seed, reference_mode)
    x = slice_.x_value

    # a bilinear surplus is the Brenier route: twist holds exactly, so it
    # goes unchecked, and the diagnostics name that route
    bilinear = f.kind == "bilinear"
    if bilinear:
        twist_info = {"checked": False, "note": "bilinear surplus: twist holds exactly"}
    else:
        stride_e = max(1, ref.n // 40)
        stride_z = max(1, slice_.z_measure.n // 40)
        report = check_twist(
            f, x, ref.points[::stride_e], slice_.z_measure.points[::stride_z]
        )
        if not report.passed:
            raise TwistViolationError(str(report))
        twist_info = {
            "checked": True,
            "min_singular_value": report.min_singular_value,
            "inverse_cross_bound": report.inverse_cross_bound,
        }

    s, plan, duals, solved = _transport_reference(ref, f, slice_)
    inverse_demand, valid_cols = barycentric_projection(plan, ref.points)
    if not np.all(valid_cols):
        raise RuntimeError("optimal plan left a traded quality unmatched")

    k = default_neighbor_count(d_z)
    order = _neighbour_order(slice_.z_measure.points)
    price_grads, price_valid = local_price_gradients(
        slice_.z_measure.points, slice_.prices, k, order
    )
    zeta_grads = f.grad_z_rows(x, inverse_demand, slice_.z_measure.points)
    u_bar_grad = price_grads - zeta_grads
    u_bar_grad[~price_valid] = np.nan

    v_grid = GridFunction(slice_.z_measure, duals.v_target)
    zconv_ok, zconv_dev = is_zeta_convex(v_grid, f, x, ref.points)
    conj = zeta_conjugate(v_grid, f, x, ref.points)
    matching = _matching_from_plan(plan)
    diagnostics = {
        "pipeline": "brenier" if bilinear else "general",
        "seed": int(seed),
        "reference_mode": reference_mode,
        "twist": twist_info,
        "dual_feasibility_margin": duals.feasibility_margin(s),
        "support_size": int(plan.support()[0].shape[0]),
        "zeta_convex_on_support": bool(zconv_ok),
        "zeta_convex_deviation": float(zconv_dev),
        "truncation_warnings": int(np.count_nonzero(conj.boundary_hit)),
        "price_gradient_neighbors": k,
        "price_gradient_skipped": int(np.count_nonzero(~price_valid)),
        "matching": None if matching is None else matching.tolist(),
        # recovery is valid on the traded support only; no extrapolation
        "traded_support_box": {
            "lo": slice_.z_measure.points.min(axis=0).tolist(),
            "hi": slice_.z_measure.points.max(axis=0).tolist(),
        },
        **solved,
    }
    diagnostics.update(
        _foc_edge_residuals(f, x, slice_.z_measure.points, inverse_demand, duals.v_target, order)
    )
    return IdentifiedPotential(
        x_value=slice_.x_value,
        z_points=slice_.z_measure.points,
        v_values=duals.v_target,
        inverse_demand=inverse_demand,
        u_bar_grad=u_bar_grad,
        normalization_point=duals.normalization,
        diagnostics=diagnostics,
    )


def brenier_identify(
    slice_: ConditionalSlice,
    eps_spec: DistributionSpec,
    n_ref: int,
    seed: int = 0,
    reference_mode: str = "sample",
) -> IdentifiedPotential:
    """Identification with marginal utility linear in taste.

    The potential on traded qualities is the dual of the exact
    transport between the discretized reference taste law and the
    traded-quality measure under the inner-product surplus; inverse
    demand is the barycentric projection of the optimal plan.
    """
    f = SurplusFamily.bilinear(slice_.z_measure.dim)
    return _identify_via_transport(slice_, eps_spec, f, n_ref, seed, reference_mode)


def general_identify(
    slice_: ConditionalSlice,
    eps_spec: DistributionSpec,
    f: SurplusFamily,
    n_ref: int,
    seed: int = 0,
    reference_mode: str = "sample",
) -> IdentifiedPotential:
    """Identification under the taste-injectivity (twist) condition.

    Refuses (with a witness) when the sampled injectivity diagnostic
    fails.  With a bilinear family this is exactly the Brenier route.
    """
    return _identify_via_transport(slice_, eps_spec, f, n_ref, seed, reference_mode)


def simultaneous_equations_identify(
    dataset: MarketDataset,
    eps_spec: DistributionSpec,
    n_ref: int,
    seed: int = 0,
    scheme: str = "exact",
    widths=None,
    reference_mode: str = "sample",
) -> list[ForwardMapEstimate]:
    """Forward map z = h(x, eps) as a gradient of a convex function.

    Per x-cell, couples the reference taste sample with the observed
    outcomes under the inner-product surplus and projects forward:
    h(eps_i) is the mass-weighted mean outcome of reference point i.
    Every cell shares one reference.  Prices in the dataset are ignored.
    """
    ref = _reference_measure(eps_spec, n_ref, seed, reference_mode)
    f = SurplusFamily.bilinear(dataset.d_z)
    out = []
    for slice_ in partition_by_x(dataset, scheme, widths):
        _, plan, _, solved = _transport_reference(ref, f, slice_)
        # forward barycentric projection: mean outcome per reference point
        z_hat, matched = barycentric_projection(
            plan.transpose(), slice_.z_measure.points
        )
        if not np.all(matched):
            raise RuntimeError("optimal plan left a reference point unmatched")
        out.append(
            ForwardMapEstimate(
                x_value=slice_.x_value,
                eps_points=ref.points,
                z_hat=z_hat,
                diagnostics={"pipeline": "simeq", "seed": int(seed), **solved},
            )
        )
    return out


def averaged_partial_effects(slice_: ConditionalSlice) -> np.ndarray:
    """Cell-weighted average of local price gradients, E[grad p(Z) | x].

    Identified without fixing the whole taste law (a mean-zero
    normalization is enough); rank-deficient neighborhoods are skipped
    with a warning.
    """
    k = default_neighbor_count(slice_.z_measure.dim)
    m = slice_.z_measure.n
    if m < k + 1:
        raise ValueError(
            f"need at least {k + 1} distinct traded qualities, have {m}"
        )
    grads, valid = local_price_gradients(slice_.z_measure.points, slice_.prices, k)
    if not np.any(valid):
        raise ValueError("all price-gradient neighborhoods are rank deficient")
    if not np.all(valid):
        warnings.warn(
            f"skipped {int(np.count_nonzero(~valid))} rank-deficient neighborhoods"
        )
    w = slice_.z_measure.weights[valid]
    return (w / w.sum()) @ grads[valid]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def write_potential_csv(pot: IdentifiedPotential, path) -> None:
    """Header z_1..z_d,v,eps_1..eps_d,ubar_grad_1..ubar_grad_d."""
    d = pot.z_points.shape[1]
    header = (
        [f"z_{k+1}" for k in range(d)]
        + ["v"]
        + [f"eps_{k+1}" for k in range(d)]
        + [f"ubar_grad_{k+1}" for k in range(d)]
    )
    write_float_table(
        path, header, pot.z_points, pot.v_values, pot.inverse_demand, pot.u_bar_grad
    )
