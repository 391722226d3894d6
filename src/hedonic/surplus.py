"""Parametric surplus families on one sparse-polynomial core.

Every family is a sparse polynomial P(w, u) in the non-quality inputs w
and a shifted quality u = z - S w - c.  For the taste surplus zeta,
w = (x, eps); for the scalar base utility and producer cost, w is the
type a (the observable x or the producer type y).  The families are
constructors of P and of the affine shift:

- bilinear: P = sum_k eps_k u_k;
- polynomial: P = the given terms in (x, eps, u) or (a, u);
- bilinear-feature: P = sum_k phi_k(u) psi_k(x, eps), multiplied out;
- neg-quadratic: P = -1/2 u'Qu with u = z - eps (taste surplus) or
  u = z - M a - c0 (scalar family).

The shift is zero for every kind but the negative quadratics.  Row
methods evaluate P and its derivatives in u, so -1/2 u'Qu is exactly
zero at its centre; the gradient and Hessian polynomials are built once,
at construction, and the chain rule through the shift gives derivatives
in z and eps.  The matrix methods expand the shift into monomials of
(w, z) and take one matrix product of w-monomials and z-monomials.  A
`where` argument is the dotted config path that errors name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .measures import config_kind, read_config, row_blocks

__all__ = [
    "AxisSplit",
    "SurplusFamily",
    "ScalarFamily",
    "StructuralSpec",
    "TwistReport",
    "TwistViolationError",
    "check_twist",
]


class TwistViolationError(ValueError):
    """The surplus family fails the taste-injectivity diagnostic."""


# ---------------------------------------------------------------------------
# Sparse polynomial core
# ---------------------------------------------------------------------------


# A polynomial is a dict {exponent tuple: coefficient} over D variables.


def _diff(p: dict, col: int) -> dict:
    """d p / d v_col."""
    return {
        e[:col] + (e[col] - 1,) + e[col + 1:]: c * e[col]
        for e, c in p.items()
        if e[col]
    }


def _add(polys) -> dict:
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0.0) + c
    return out


def _mul(p: dict, q: dict) -> dict:
    return _add(
        {tuple(a + b for a, b in zip(e1, e2)): c1 * c2}
        for e1, c1 in p.items()
        for e2, c2 in q.items()
    )


def _monomial_values(v: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Per-row monomial values: (n, D) points and (T, D) exponents -> (n, T)."""
    out = np.ones((v.shape[0], exps.shape[0]))
    for c in np.flatnonzero(exps.any(axis=0)):
        out *= v[:, c, None] ** exps[:, c]
    return out


class _Monomials:
    """K polynomials over D variables in array form for evaluation: the
    exponents (T, D) of their nonzero monomials and coefficients (T, K)."""

    def __init__(self, polys: Sequence[dict], width: int):
        index = {}
        for p in polys:
            for e, c in p.items():
                if c != 0.0:
                    index.setdefault(e, len(index))
        self.exps = np.array(list(index), dtype=int).reshape(len(index), width)
        self.coeffs = np.zeros((len(index), len(polys)))
        for k, p in enumerate(polys):
            for e, c in p.items():
                if c != 0.0:
                    self.coeffs[index[e], k] = c

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return _monomial_values(v, self.exps) @ self.coeffs


def _parse_terms(terms: Sequence[dict], block_dims: dict, where: str) -> dict:
    """The polynomial over the concatenated blocks of the config terms at
    `where`, each a coeff and per block its exponents, zeros when left out."""
    poly, exponents = {}, dict.fromkeys(block_dims, list[int] | None)
    for i, t in enumerate(terms):
        t = read_config(t, f"{where}[{i}]", coeff=float, **exponents)
        key = ()
        for name, d in block_dims.items():
            e = [0] * d if t[name] is None else t[name]
            if len(e) != d:
                raise ValueError(f"{where}[{i}].{name} needs {d} exponents")
            key += tuple(e)
        poly[key] = poly.get(key, 0.0) + t["coeff"]
    if not poly:
        raise ValueError(f"{where} needs at least one term")
    return poly


def _unit(width: int, *cols: int) -> tuple:
    """Exponent tuple of the monomial prod_c v_c."""
    e = [0] * width
    for c in cols:
        e[c] += 1
    return tuple(e)


def _neg_quadratic_poly(q: np.ndarray, d_w: int) -> dict:
    """-1/2 u'Qu over (w, u) columns."""
    d = q.shape[0]
    return _add(
        {_unit(d_w + d, d_w + i, d_w + j): -0.5 * float(q[i, j])}
        for i in range(d)
        for j in range(d)
    )


def _positive_definite(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("Q must be square")
    if np.max(np.abs(q - q.T)) > 1e-12:
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(q).min() <= 0:
        raise ValueError("Q must be positive definite")
    return q.copy()


class _Core:
    """P(w, u) at u = z - w @ shift.T - offset, with derivatives in w and z.

    Gradient and Hessian polynomials and the shift-expanded form used by
    the matrix evaluation are built once, here.  `expanded` holds P as
    monomials of (w, z), the terms the grid tensors sum; StructuralSpec.
    axis_split reads its structure and coefficients from those terms.
    """

    def __init__(self, poly: dict, d_w: int, d_z: int, shift=None, offset=None):
        self.d_w, self.d_z = d_w, d_z
        self.shift = np.zeros((d_z, d_w)) if shift is None else shift
        self.offset = np.zeros(d_z) if offset is None else offset
        # equal keys, equal functions: the polynomial and its shift
        self.key = (poly, self.shift.tolist(), self.offset.tolist())
        width = d_w + d_z
        first = [_diff(poly, c) for c in range(width)]
        self.poly = _Monomials([poly], width)
        self.grad_poly = _Monomials(first, width)
        self.hess_poly = _Monomials(
            [_diff(g, b) for g in first for b in range(d_w, width)], width
        )
        # u_k = z_k - shift[k] . w - offset[k] as a polynomial in (w, z)
        lin = []
        for k in range(d_z):
            terms = {_unit(width, d_w + k): 1.0, _unit(width): -self.offset[k]}
            terms.update({_unit(width, j): -self.shift[k, j] for j in range(d_w)})
            lin.append({e: float(c) for e, c in terms.items() if c != 0.0})
        expanded = []
        for e, c in poly.items():
            term = {e[:d_w] + (0,) * d_z: c}
            for k in range(d_z):
                for _ in range(e[d_w + k]):
                    term = _mul(term, lin[k])
            expanded.append(term)
        self.expanded = _Monomials([_add(expanded)], width)

    def __eq__(self, other):
        return isinstance(other, _Core) and self.key == other.key

    def _points(self, w, z):
        return np.hstack([w, z - (w @ self.shift.T + self.offset)])

    def value(self, w, z) -> np.ndarray:
        return self.poly(self._points(w, z))[:, 0]

    def grad(self, w, z):
        """(d/dw, d/dz) of P(w, z - shift w - offset), each row-aligned."""
        g = self.grad_poly(self._points(w, z))
        g_z = g[:, self.d_w:]
        return g[:, :self.d_w] - g_z @ self.shift, g_z

    def hess(self, w, z):
        """(d^2/dw dz, d^2/dz dz), shapes (n, d_w, d_z) and (n, d_z, d_z)."""
        h = self.hess_poly(self._points(w, z)).reshape(w.shape[0], -1, self.d_z)
        h_zz = h[:, self.d_w:]
        return h[:, :self.d_w] - self.shift.T @ h_zz, h_zz

    def matrix(self, w, z) -> np.ndarray:
        """P at every (row of w, row of z) pair via one matrix product."""
        e = self.expanded
        rows = _monomial_values(w, e.exps[:, :self.d_w]) * e.coeffs[:, 0]
        return rows @ _monomial_values(z, e.exps[:, self.d_w:]).T


def _as_rows(v) -> np.ndarray:
    return np.atleast_2d(np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# Taste surplus families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurplusFamily:
    """Known interaction zeta(x, eps, z) between tastes and qualities.

    kind is one of "bilinear", "bilinear-feature", "neg-quadratic",
    "polynomial"; every kind evaluates through the same polynomial core.
    """

    kind: str
    d_x: int
    d_z: int
    _core: _Core = field(repr=False)

    @staticmethod
    def _build(kind: str, d_x: int, d_z: int, poly: dict, shift=None) -> "SurplusFamily":
        return SurplusFamily(kind, d_x, d_z, _Core(poly, d_x + d_z, d_z, shift))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def bilinear(dim: int, d_x: int = 0) -> "SurplusFamily":
        d_z, w = dim, d_x + dim
        poly = {_unit(w + d_z, w - d_z + k, w + k): 1.0 for k in range(d_z)}
        return SurplusFamily._build("bilinear", d_x, d_z, poly)

    @staticmethod
    def neg_quadratic(q, d_x: int = 0) -> "SurplusFamily":
        q = _positive_definite(q)
        d_z, w = q.shape[0], d_x + q.shape[0]
        # u = z - eps: the shift picks the eps block of w = (x, eps)
        shift = np.eye(d_z, w, w - d_z)
        return SurplusFamily._build("neg-quadratic", d_x, d_z, _neg_quadratic_poly(q, w), shift)

    @staticmethod
    def polynomial(terms: Sequence[dict], d_x: int, d_z: int, where="zeta") -> "SurplusFamily":
        poly = _parse_terms(terms, {"x": d_x, "eps": d_z, "z": d_z}, f"{where}.terms")
        return SurplusFamily._build("polynomial", d_x, d_z, poly)

    @staticmethod
    def bilinear_feature(
        phi_terms: Sequence[Sequence[dict]],
        psi_terms: Sequence[Sequence[dict]],
        d_x: int,
        d_z: int,
        where: str = "zeta",
    ) -> "SurplusFamily":
        """zeta = sum_k phi_k(z) psi_k(x, eps) with polynomial features."""
        if len(phi_terms) != len(psi_terms):
            raise ValueError("phi and psi must have the same feature count")
        phi = [_parse_terms(t, {"z": d_z}, f"{where}.phi[{k}]") for k, t in enumerate(phi_terms)]
        psi = [_parse_terms(t, {"x": d_x, "eps": d_z}, f"{where}.psi[{k}]")
               for k, t in enumerate(psi_terms)]
        # psi_k over (x, eps) times phi_k over u: exponent tuples concatenate
        poly = _add(
            {e_psi + e_phi: c_psi * c_phi}
            for phi_k, psi_k in zip(phi, psi)
            for e_psi, c_psi in psi_k.items()
            for e_phi, c_phi in phi_k.items()
        )
        return SurplusFamily._build("bilinear-feature", d_x, d_z, poly)

    # -- shape checks ---------------------------------------------------
    def _check(self, x, eps, z):
        x, eps, z = _as_rows(x), _as_rows(eps), _as_rows(z)
        if eps.shape[1] != self.d_z or z.shape[1] != self.d_z:
            raise ValueError(
                f"eps/z must have dimension {self.d_z}, got {eps.shape[1]}/{z.shape[1]}"
            )
        if self.d_x and x.shape[1] != self.d_x:
            raise ValueError(f"x must have dimension {self.d_x}, got {x.shape[1]}")
        return x, eps, z

    def _w(self, x, eps) -> np.ndarray:
        """Rows of w = (x, eps), x broadcast over the taste rows."""
        n = max(x.shape[0], eps.shape[0])
        x = np.broadcast_to(x[:, :self.d_x], (n, self.d_x))
        return np.hstack([x, np.broadcast_to(eps, (n, self.d_z))])

    def _rows(self, x, eps, z):
        x, eps, z = self._check(x, eps, z)
        n = max(x.shape[0], eps.shape[0], z.shape[0])
        eps, z = np.broadcast_to(eps, (n, self.d_z)), np.broadcast_to(z, (n, self.d_z))
        return self._w(x, eps), z

    def _matrix(self, x, eps, z) -> np.ndarray:
        x, eps, z = self._check(x, eps, z)
        return self._core.matrix(self._w(x, eps), z)

    def _hessian_rows(self, x, eps, z):
        """(d^2 zeta / d eps dz, d^2 zeta / dz dz) per row, from one evaluation."""
        cross, h_zz = self._core.hess(*self._rows(x, eps, z))
        return cross[:, self.d_x:], h_zz

    # -- row-aligned evaluation ------------------------------------------
    def eval_rows(self, x, eps, z) -> np.ndarray:
        return self._core.value(*self._rows(x, eps, z))

    # -- pairwise evaluation (surplus matrices) ---------------------------
    def pairwise(self, x, eps_points: np.ndarray, z_points: np.ndarray) -> np.ndarray:
        """Matrix of zeta(x, eps_i, z_j) for a fixed observable type."""
        return self._matrix(x, eps_points, z_points)

    def pairwise_consumer_grid(self, x_rows, eps_rows, z_points) -> np.ndarray:
        """Matrix of zeta(x_i, eps_i, z_g) over consumers i and grid nodes g."""
        return self._matrix(x_rows, eps_rows, z_points)

    # -- derivatives -------------------------------------------------------
    def grad_z_rows(self, x, eps, z) -> np.ndarray:
        return self._core.grad(*self._rows(x, eps, z))[1]

    def grad_eps_rows(self, x, eps, z) -> np.ndarray:
        return self._core.grad(*self._rows(x, eps, z))[0][:, self.d_x:]

    def grad_z(self, x, eps, z) -> np.ndarray:
        return self.grad_z_rows(x, eps, z)[0]

    def grad_eps(self, x, eps, z) -> np.ndarray:
        return self.grad_eps_rows(x, eps, z)[0]

    def cross_hessian_rows(self, x, eps, z) -> np.ndarray:
        """d^2 zeta / d eps_a d z_b per row, shape (n, d_z, d_z)."""
        return self._hessian_rows(x, eps, z)[0]

    def cross_hessian(self, x, eps, z) -> np.ndarray:
        """Mixed second derivatives d^2 zeta / d eps_a d z_b, a d_z x d_z matrix."""
        return self._hessian_rows(x, eps, z)[0][0]

    # -- config -----------------------------------------------------------
    @staticmethod
    def from_config(cfg: dict, where: str = "zeta") -> "SurplusFamily":
        kinds = ("bilinear", "neg-quadratic", "polynomial", "bilinear-feature")
        kind = config_kind(cfg, where, kinds)
        if kind == "bilinear":
            cfg = read_config(cfg, where, kind=str, dim=int, d_x=0)
            return SurplusFamily.bilinear(cfg["dim"], cfg["d_x"])
        if kind == "neg-quadratic":
            cfg = read_config(cfg, where, kind=str, q=list[list[float]], d_x=0)
            return SurplusFamily.neg_quadratic(cfg["q"], cfg["d_x"])
        if kind == "polynomial":
            cfg = read_config(cfg, where, kind=str, terms=list[dict], d_x=int, d_z=int)
            return SurplusFamily.polynomial(cfg["terms"], cfg["d_x"], cfg["d_z"], where)
        features = list[list[dict]]
        cfg = read_config(cfg, where, kind=str, phi=features, psi=features, d_x=int, d_z=int)
        return SurplusFamily.bilinear_feature(
            cfg["phi"], cfg["psi"], cfg["d_x"], cfg["d_z"], where
        )


# ---------------------------------------------------------------------------
# Scalar families for base utility and producer cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFamily:
    """Scalar function of (a, z) where a is the observable (x) or the
    producer type (y): sparse polynomial, or negative quadratic in z
    with an affine a-dependent center."""

    kind: str
    d_a: int
    d_z: int
    _core: _Core = field(repr=False)

    @staticmethod
    def zero(d_a: int, d_z: int) -> "ScalarFamily":
        return ScalarFamily.polynomial([{"coeff": 0.0}], d_a, d_z)

    @staticmethod
    def polynomial(terms: Sequence[dict], d_a: int, d_z: int, where="scalar") -> "ScalarFamily":
        poly = _parse_terms(terms, {"a": d_a, "z": d_z}, f"{where}.terms")
        return ScalarFamily("polynomial", d_a, d_z, _Core(poly, d_a, d_z))

    @staticmethod
    def neg_quadratic(q, center_matrix=None, center_offset=None, d_a: int = 0) -> "ScalarFamily":
        """-1/2 (z - c(a))' Q (z - c(a)) with c(a) = M a + c0."""
        q = _positive_definite(q)
        d_z = q.shape[0]
        m = (
            np.zeros((d_z, d_a))
            if center_matrix is None
            else np.asarray(center_matrix, dtype=float).reshape(d_z, d_a)
        )
        c0 = (
            np.zeros(d_z)
            if center_offset is None
            else np.asarray(center_offset, dtype=float).ravel()
        )
        if c0.shape[0] != d_z:
            raise ValueError("center offset must have quality dimension")
        core = _Core(_neg_quadratic_poly(q, d_a), d_a, d_z, m, c0)
        return ScalarFamily("neg-quadratic", d_a, d_z, core)

    def _check(self, a, z):
        a, z = _as_rows(a), _as_rows(z)
        if self.d_a and a.shape[1] != self.d_a:
            raise ValueError(f"first block must have dimension {self.d_a}")
        if z.shape[1] != self.d_z:
            raise ValueError(f"z must have dimension {self.d_z}")
        return a[:, :self.d_a], z

    def _rows(self, a, z):
        a, z = self._check(a, z)
        n = max(a.shape[0], z.shape[0])
        return np.broadcast_to(a, (n, self.d_a)), np.broadcast_to(z, (n, self.d_z))

    def eval_rows(self, a, z) -> np.ndarray:
        return self._core.value(*self._rows(a, z))

    def pairwise_grid(self, a_rows, z_points) -> np.ndarray:
        """Matrix of f(a_i, z_g) over type rows i and grid nodes g."""
        return self._core.matrix(*self._check(a_rows, z_points))

    def grad_z_rows(self, a, z) -> np.ndarray:
        return self._core.grad(*self._rows(a, z))[1]

    def grad_z(self, a, z) -> np.ndarray:
        return self.grad_z_rows(a, z)[0]

    @staticmethod
    def from_config(cfg: dict, where: str = "scalar") -> "ScalarFamily":
        if config_kind(cfg, where, ("polynomial", "neg-quadratic")) == "polynomial":
            cfg = read_config(cfg, where, kind=str, terms=list[dict], d_a=int, d_z=int)
            return ScalarFamily.polynomial(cfg["terms"], cfg["d_a"], cfg["d_z"], where)
        cfg = read_config(cfg, where, kind=str, q=list[list[float]], d_a=0,
                          center_matrix=list[list[float]] | None, center_offset=list[float] | None)
        return ScalarFamily.neg_quadratic(
            cfg["q"], cfg["center_matrix"], cfg["center_offset"], cfg["d_a"]
        )


@dataclass(frozen=True)
class StructuralSpec:
    """Primitives of a market: base utility, producer cost, taste surplus."""

    u_bar: ScalarFamily
    cost: ScalarFamily
    zeta: SurplusFamily

    def __post_init__(self):
        if self.u_bar.d_z != self.zeta.d_z or self.cost.d_z != self.zeta.d_z:
            raise ValueError("u_bar, cost and zeta must share the quality dimension")

    @staticmethod
    def from_config(cfg: dict, where: str = "structural") -> "StructuralSpec":
        cfg = read_config(cfg, where, u_bar=dict, cost=dict, zeta=dict)
        return StructuralSpec(
            u_bar=ScalarFamily.from_config(cfg["u_bar"], f"{where}.u_bar"),
            cost=ScalarFamily.from_config(cfg["cost"], f"{where}.cost"),
            zeta=SurplusFamily.from_config(cfg["zeta"], f"{where}.zeta"),
        )

    def axis_split(self, x, eps, y, axes) -> Optional["AxisSplit"]:
        """U - C of consumers (x, eps) and producers y as an AxisSplit on the
        lattice of the per-axis values `axes`, or None off its structure rule.

        The rule, on the expanded terms of u_bar, zeta and cost: no term
        holds two z axes, and on each axis k the terms of z_k-degree 2 or
        more are either all type-free (gamma_k = 1), or all carry the same
        type monomial of one side, in x and eps for consumers or in y for
        producers.  Then gamma_k is that monomial's value for each agent of
        that side; it must be finite, nonzero and of one sign over those
        agents, and a negative sign is folded into f_k.  Terms of z-degree 1
        give the slopes when they hold a type variable or their axis is
        scaled, and f_k otherwise; the terms of higher degree give f_k
        (without their type monomial), and the rest are free of z.

        Rounding: a tensor entry sums at most T terms (T counted over the
        three polynomials), each a product of at most D powers and
        multiplications (D their summed widths), and adds and subtracts once
        more; a slope, an f_k value or a gamma_k sums fewer.  Higham's bound
        gamma_K * sum |term| with K = 4 (T + 8 D + 8), four times that
        operation count with every power counted as 8 roundings, covers
        each, and the sums of |term| are taken at the largest |z_k| of each
        axis.  The f_k part of a t + gamma_k f_k(t) errs by at most
        gamma_K max |f_k terms| on a type-free axis, put in the producers'
        error; on a scaled axis it errs by |gamma_k| times the error of f_k
        plus the error of gamma_k times |f_k|, at most 2 gamma_K |gamma_k|
        max |f_k terms| (the factor 4 in K covers the second-order part),
        put in the scaled side's error.
        """
        x, eps, y = _as_rows(x), _as_rows(eps), _as_rows(y)
        sides = [  # (core, w, sign, the leading columns of w that hold x or y)
            (self.u_bar._core, x[:, :self.u_bar.d_a], 1.0, self.u_bar.d_a),
            (self.zeta._core, self.zeta._w(x, eps), 1.0, self.zeta.d_x),
            (self.cost._core, y[:, :self.cost.d_a], -1.0, self.cost.d_a),
        ]
        terms = [_split_terms(core) for core, _, _, _ in sides]
        scales = None if any(t is None for t in terms) else _axis_scales(sides, terms, len(axes))
        if scales is None:
            return None
        scaled = np.array([is_scaled for is_scaled, _, _ in scales])
        t_max = np.array([np.abs(t).max() for t in axes])
        n_terms = sum(core.expanded.exps.shape[0] for core, _, _, _ in sides)
        width = sum(core.d_w + core.d_z for core, _, _, _ in sides)
        k = 4 * (n_terms + 8 * width + 8)
        gamma = k * _UNIT / (1.0 - k * _UNIT)

        values = [np.zeros(t.size) for t in axes]
        magnitudes = [np.zeros(t.size) for t in axes]
        slopes, slope_abs, size = [], [], []
        for (core, w, sign, _), (typed, axis, degree) in zip(sides, terms):
            e = core.expanded
            c = e.coeffs[:, 0]
            mono = _monomial_values(w, e.exps[:, :core.d_w])
            slope = (degree == 1) & (typed | scaled[axis])
            slope_terms = np.zeros((c.size, len(axes)))
            slope_terms[slope, axis[slope]] = c[slope]
            slopes.append(sign * (mono @ slope_terms))
            slope_abs.append(np.abs(mono) @ np.abs(slope_terms))
            z_max = _monomial_values(t_max[None, :], e.exps[:, core.d_w:])[0]
            size.append(np.abs(mono) @ (np.abs(c) * z_max))
            for t in np.flatnonzero((degree > 0) & ~slope):
                values[axis[t]] += sign * c[t] * axes[axis[t]] ** degree[t]
                magnitudes[axis[t]] += abs(c[t]) * np.abs(axes[axis[t]]) ** degree[t]
        f_max = np.array([mag.max() for mag in magnitudes])

        consumer_slope = slopes[0] + slopes[1]
        n, m = consumer_slope.shape[0], y.shape[0]
        f_error = [np.zeros((n, len(axes))), np.tile(f_max, (m, 1))]
        axis_scale = []
        for ax, (is_scaled, side, g) in enumerate(scales):
            if np.any(g < 0):
                g, values[ax] = -g, -values[ax]
            scale = [np.ones(n), np.ones(m)]
            scale[side] = scale[side] * g
            if is_scaled:
                f_error[1][:, ax] = 0.0
                f_error[side][:, ax] = 2.0 * scale[side] * f_max[ax]
            axis_scale.append(tuple(scale))
        return AxisSplit(
            consumer_slope=consumer_slope,
            producer_slope=slopes[2],
            axis_values=values,
            axis_scale=axis_scale,
            consumer_error=gamma * (
                (size[0] + size[1])[:, None] + (slope_abs[0] + slope_abs[1]) * t_max
                + f_error[0]
            ),
            producer_error=gamma * (size[2][:, None] + slope_abs[2] * t_max + f_error[1]),
        )


# Unit roundoff of float64.
_UNIT = np.finfo(float).eps / 2


def _split_terms(core: _Core):
    """(typed, axis, degree) of the expanded terms of core, or None when a
    term holds two z axes: whether each term holds a w variable, the one z
    axis it holds (0 when it holds none) and its z-degree."""
    e = core.expanded
    z_exp = e.exps[:, core.d_w:]
    if np.any(np.count_nonzero(z_exp, axis=1) > 1):
        return None
    return e.exps[:, :core.d_w].any(axis=1), np.argmax(z_exp, axis=1), z_exp.sum(axis=1)


def _axis_scales(sides, terms, d: int) -> Optional[list]:
    """Per axis, (scaled, side, gamma): whether its terms of z-degree 2 or
    more all carry one type monomial, the side that holds it (0 consumers,
    1 producers) and the monomial's values over that side's agents; a
    type-free axis gets (False, 1, 1.0).  None when an axis mixes typed
    and type-free terms, two monomials or the two sides, or a gamma is
    zero, not finite or of both signs.  Consumer monomials are compared by
    their x and eps exponents, so u_bar's and zeta's terms in the same x
    match."""
    kinds = [{} for _ in range(d)]
    for (core, w, sign, d_type), (typed, axis, degree) in zip(sides, terms):
        exps = core.expanded.exps[:, :core.d_w]
        for t in np.flatnonzero(degree >= 2):
            key = None
            if typed[t]:
                key = (sign, _trimmed(exps[t, :d_type]), _trimmed(exps[t, d_type:]))
            kinds[axis[t]].setdefault(key, (w, exps[t]))
    scales = []
    for kind in kinds:
        if len(kind) > 1:
            return None
        key, (w, e) = next(iter(kind.items()), (None, (None, None)))
        if key is None:
            scales.append((False, 1, 1.0))
            continue
        g = _monomial_values(w, e[None, :])[:, 0]
        if not (np.all(np.isfinite(g)) and (np.all(g > 0) or np.all(g < 0))):
            return None
        scales.append((True, int(key[0] < 0), g))
    return scales


def _trimmed(e: np.ndarray) -> tuple:
    """An exponent block without its trailing zeros."""
    return tuple(int(v) for v in np.trim_zeros(e, "b"))


@dataclass(frozen=True)
class AxisSplit:
    """U_i(z) - C_j(z) = (consumer_slope_i + producer_slope_j) . z
    + sum_k gamma_ijk f_k(z_k) + (terms free of z) on a quality lattice.

    consumer_slope (n, d) and producer_slope (m, d) hold the slopes, and
    axis_values[k] f_k at the lattice's axis-k values.  axis_scale[k] is
    the pair (consumer scale (n,), producer scale (m,)) whose product is
    gamma_ijk > 0: all ones on both sides when the axis-k curvature is
    type-free, and otherwise one side's type monomial, its sign folded
    into f_k, and all ones on the other side.  For a consumer i, a
    producer j and an axis k, consumer_error[i, k] + producer_error[j, k]
    bounds the sum of two roundings: that of the float U_i - C_j the grid
    tensors hold, against the exact sum of the expanded terms at any grid
    point, and that of a t + gamma_ijk f_k(t), with a =
    fl(consumer_slope_ik + producer_slope_jk) and the gamma and f_k values
    here, against the exact slope sum times t plus the exact gamma_ijk
    f_k(t), at any axis-k value t.
    """

    consumer_slope: np.ndarray
    producer_slope: np.ndarray
    axis_values: list
    axis_scale: list
    consumer_error: np.ndarray
    producer_error: np.ndarray


# ---------------------------------------------------------------------------
# Twist (taste injectivity) diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistReport:
    passed: bool
    min_singular_value: float
    witness: Optional[tuple]
    inverse_cross_bound: float
    quality_hessian_bound: float
    threshold: float
    growth_condition: str = "not checked"

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        msg = f"twist check {status}: min singular value {self.min_singular_value:.3e}"
        if self.witness is not None:
            eps_a, eps_b, z = self.witness
            msg += f"; witness eps={eps_a} vs eps'={eps_b} at z={z}"
        return msg


# check_twist fails on a smallest cross-Hessian singular value at or below
# _TWIST_THRESHOLD, or on two tastes over _TWIST_WITNESS_TOL apart whose
# quality gradients are within it.
_TWIST_THRESHOLD = 1e-8
_TWIST_WITNESS_TOL = 1e-9


def _twist_witness(eps_pts, z_pts, grads) -> Optional[tuple]:
    """First grid z at which two distinct tastes share a quality gradient.

    grads[k, i] is grad_z zeta(x, eps_i, z_k); at each z the closest pair
    of gradients is the candidate, ties broken to the lowest pair index.
    Distances are taken for a row block of z (measures.row_blocks) at once
    over the pairs i < j in row-major order, as the square root of the squared differences summed
    in axis order, which is how np.linalg.norm sums fewer than 8 axes.
    """
    n_e = eps_pts.shape[0]
    if n_e < 2:
        return None
    first, second = np.triu_indices(n_e, 1)
    for b in row_blocks(z_pts.shape[0], first.size):
        block = grads[b]
        sq = np.zeros((block.shape[0], first.size))
        for axis in range(block.shape[2]):
            diff = block[:, first, axis] - block[:, second, axis]
            sq += diff * diff
        dist = np.sqrt(sq)
        best = np.argmin(dist, axis=1)
        for k in np.flatnonzero(dist.min(axis=1) <= _TWIST_WITNESS_TOL):
            i, j = first[best[k]], second[best[k]]
            if not np.allclose(eps_pts[i], eps_pts[j], rtol=0.0, atol=_TWIST_WITNESS_TOL):
                return eps_pts[i].copy(), eps_pts[j].copy(), z_pts[b.start + k].copy()
    return None


def check_twist(f: SurplusFamily, x, eps_grid, z_grid) -> TwistReport:
    """Sampled injectivity diagnostic for eps -> grad_z zeta(x, eps, z).

    Scans all grid pairs for distinct taste points with coinciding
    quality gradients at some grid z (an explicit injectivity witness),
    and the pairs of every max(1, n // 25)-th point of each grid for the
    smallest singular value of the cross Hessian and the largest spectral
    norm of the quality Hessian.  A sampled check, not a proof.
    """
    eps_pts = eps_grid.points if hasattr(eps_grid, "points") else eps_grid
    z_pts = z_grid.points if hasattr(z_grid, "points") else z_grid
    eps_pts = _as_rows(eps_pts)
    z_pts = _as_rows(z_pts)
    n_e, n_z = eps_pts.shape[0], z_pts.shape[0]
    if n_e == 0 or n_z == 0:
        raise ValueError("twist check needs non-empty grids")

    grads = f.grad_z_rows(x, np.tile(eps_pts, (n_z, 1)), np.repeat(z_pts, n_e, axis=0))
    witness = _twist_witness(eps_pts, z_pts, grads.reshape(n_z, n_e, -1))

    sub_e = eps_pts[:: max(1, n_e // 25)]
    sub_z = z_pts[:: max(1, n_z // 25)]
    cross, h_zz = f._hessian_rows(
        x, np.repeat(sub_e, sub_z.shape[0], axis=0), np.tile(sub_z, (sub_e.shape[0], 1))
    )
    min_sv = float(np.linalg.svd(cross, compute_uv=False)[:, -1].min())
    max_inv = 1.0 / min_sv if min_sv > 0 else np.inf
    max_hzz = float(np.linalg.norm(h_zz, 2, axis=(1, 2)).max())

    return TwistReport(
        passed=(witness is None) and (min_sv > _TWIST_THRESHOLD),
        min_singular_value=min_sv,
        witness=witness,
        inverse_cross_bound=float(max_inv),
        quality_hessian_bound=max_hzz,
        threshold=_TWIST_THRESHOLD,
    )
