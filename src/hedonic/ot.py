"""Discrete Monge-Kantorovich solver with dual potentials.

`solve_exact` maximizes total surplus over couplings with fixed
marginals and returns both the optimal plan and a feasible,
complementary-slack dual pair.  A size-1 side couples by the outer
product of the weights.  Every other instance is solved in two steps:

1. one rounding and one assignment: with N = max(n, m), N * weights is
   rounded by largest remainder on both sides, each point is repeated
   that many times and one N x N linear assignment is solved (square
   uniform instances are the case of one copy per point).  From 64 rows
   up the assignment is warm-started coarse to fine (Merigot 2011;
   Schmitzer 2016): every 4th row and column, ranked by mean cost, form a
   quarter-size assignment solved the same way; its exact duals, rebuilt
   from its matching, are extended to every row and column by two
   c-transforms and subtracted from the cost, so the final
   shortest-augmenting-path search starts from nearly tight duals.  Shifts
   of rows and columns move every matching's cost by the same constant,
   so the optimal matchings do not change.  When every count is N *
   weight to within 1e-9, the rounding is exact and the copies' masses,
   summed per pair, are the optimal plan ("replicated");
2. only when the rounding is inexact ("lp"): the transportation LP,
   solved by HiGHS's interior point method with crossover to a basic
   optimal solution, on a shortlist of pairs (Gottschlich & Schuhmacher
   2014).  The assignment's support is the dual guess, its duals rebuilt
   on the real surplus.  The list holds that support, the 8 smallest
   reduced costs of every row and every column, and a north-west-corner
   staircase that keeps the restricted LP feasible.  Pricing rebuilds the
   restricted plan's duals with every unlisted pair barred and lists
   every pair they violate; when none is violated, the restricted plan is
   optimal for the full LP.

Every path hands its plan support to one routine that rebuilds the dual
potentials by longest-chain propagation, with machine-precision
feasibility and slackness; the LP's basic solution is a spanning forest
of at most n + m - 1 pairs, so HiGHS's own row duals are not read.  The
propagation is label-correcting (Bertsekas 1998, ch. 2): one ordered
(Gauss-Seidel) pass over the targets in the lexicographic order of their
points, then Jacobi rounds on a worklist of the targets whose potential
rose by more than _PRICING_ULPS ulps of max|S| since their pairs were
last relaxed, with m + 1 rounds as a backstop.  For scalar types the
optimal matching is assortative and a chain follows the order of the
points, so the pass reaches the final values and the worklist has
nothing left: 0 rounds on the benchmark's 1-D 400 x 400 markets, where a
sweep over every pair takes 250-401, and 20-75 on the 2-D ones.  In exact
arithmetic it reaches the sweep's fixed point bit for bit; on float data
its potentials differ from the sweep's by a few ulps, since rises below
the stop, the ulp creep around near-zero cycles included, are not
propagated.

`solve_entropic` is the fast approximate path: log-domain scaling
iterations with an epsilon-halving schedule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.special import logsumexp

from .measures import DiscreteMeasure, format_float
from .surplus import SurplusFamily

__all__ = [
    "TransportPlan",
    "DualPair",
    "EntropicResult",
    "MonotonicityReport",
    "surplus_matrix",
    "solve_exact",
    "exact_solver_path",
    "solve_entropic",
    "barycentric_projection",
    "check_cyclical_monotonicity",
    "write_plan_csv",
    "read_plan_csv",
    "write_duals_csv",
    "read_duals_csv",
]

# Mass below this is treated as numerically zero when a plan is sparsified.
SPARSITY_THRESHOLD = 1e-12
# Largest distance of N * weight from an integer that still replicates.
_REPLICATION_TOL = 1e-9
# Cells per block of gathered support rows in the dual relaxation: 2^15
# doubles (256 KB) keep the block in cache.
_RELAX_BLOCK_CELLS = 32768
# Square assignments with fewer rows are solved directly; larger ones are
# warm-started from every _COARSE_STRIDE-th row and column.
_ASSIGNMENT_FLOOR = 64
_COARSE_STRIDE = 4
# Smallest reduced costs of the dual guess listed per row and per column
# for the first restricted transportation LP.
_SHORTLIST_WIDTH = 8
# Tolerance of check_cyclical_monotonicity.
_CYCLE_TOL = 1e-9
# Pricing tolerance of the shortlisted LP and stop of the dual chains, in
# ulps of max|S|.
_PRICING_ULPS = 4


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two discrete measures, stored as its support.

    `rows`, `cols` and `mass` list the entries with positive mass in
    row-major order; every other entry of the `shape` coupling is zero.
    Construction sorts the entries and drops zero-mass ones; indices out
    of range, repeated (i, j) pairs and negative or non-finite masses
    raise ValueError.
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    shape: tuple
    objective: float

    def __post_init__(self):
        n, m = (int(k) for k in self.shape)
        rows = np.array(self.rows, dtype=np.intp).ravel()
        cols = np.array(self.cols, dtype=np.intp).ravel()
        mass = np.array(self.mass, dtype=float).ravel()
        if not rows.shape == cols.shape == mass.shape:
            raise ValueError("rows, cols and mass must have one entry each")
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= m)):
            raise ValueError(f"plan index out of range for shape ({n}, {m})")
        if not np.all(np.isfinite(mass)) or np.any(mass < 0):
            raise ValueError("plan mass must be finite and nonnegative")
        keys = rows * m + cols
        order = np.argsort(keys, kind="stable")
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("plan repeats an (i, j) entry")
        order = order[mass[order] > 0]
        for name, arr in (("rows", rows), ("cols", cols), ("mass", mass)):
            arr = arr[order]
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "shape", (n, m))
        object.__setattr__(self, "objective", float(self.objective))

    @classmethod
    def from_dense(cls, coupling, objective: float) -> "TransportPlan":
        """Plan holding every positive entry of a dense coupling matrix."""
        c = np.asarray(coupling, dtype=float)
        if c.ndim != 2:
            raise ValueError("coupling must be a matrix")
        if np.any(c < -1e-15):
            raise ValueError("coupling must be nonnegative")
        rows, cols = np.nonzero(c > 0)
        return cls(rows, cols, c[rows, cols], c.shape, objective)

    def support(self):
        """Indices (i, j) and masses of entries above SPARSITY_THRESHOLD."""
        keep = self.mass > SPARSITY_THRESHOLD
        return self.rows[keep], self.cols[keep], self.mass[keep]

    def transpose(self) -> "TransportPlan":
        """The same coupling with source and target swapped."""
        return TransportPlan(
            self.cols, self.rows, self.mass, self.shape[::-1], self.objective
        )

    def marginals(self):
        """Row and column sums of the coupling."""
        n, m = self.shape
        return (
            np.bincount(self.rows, self.mass, minlength=n),
            np.bincount(self.cols, self.mass, minlength=m),
        )

    def marginal_error(self, mu: np.ndarray, nu: np.ndarray) -> float:
        """L-infinity violation of the marginal constraints."""
        row, col = self.marginals()
        return float(max(np.abs(row - mu).max(), np.abs(col - nu).max()))


@dataclass(frozen=True)
class DualPair:
    """Feasible dual potentials; v_target is pinned to 0 at `normalization`."""

    w_source: np.ndarray
    v_target: np.ndarray
    normalization: int

    def __post_init__(self):
        w = np.array(self.w_source, dtype=float, copy=True).ravel()
        v = np.array(self.v_target, dtype=float, copy=True).ravel()
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "w_source", w)
        object.__setattr__(self, "v_target", v)
        object.__setattr__(self, "normalization", int(self.normalization))

    def objective(self, mu: np.ndarray, nu: np.ndarray) -> float:
        return float(mu @ self.w_source + nu @ self.v_target)

    def feasibility_margin(self, surplus: np.ndarray) -> float:
        """min over pairs of (w_i + v_j - S_ij); >= 0 means feasible."""
        return float(
            (self.w_source[:, None] + self.v_target[None, :] - surplus).min()
        )

    def slackness_error(self, plan: TransportPlan, surplus: np.ndarray) -> float:
        ii, jj, _ = plan.support()
        if ii.size == 0:
            return 0.0
        gap = self.w_source[ii] + self.v_target[jj] - surplus[ii, jj]
        return float(np.abs(gap).max())


@dataclass(frozen=True)
class EntropicResult:
    plan: TransportPlan
    duals: DualPair
    iterations: int
    converged: bool
    marginal_error_l1: float


def surplus_matrix(
    mu: DiscreteMeasure, nu: DiscreteMeasure, f: SurplusFamily, x=None
) -> np.ndarray:
    """Entry (i, j) = zeta(x, source_i, target_j); must be finite."""
    if x is None:
        x = np.zeros(f.d_x)
    s = f.pairwise(x, mu.points, nu.points)
    if not np.all(np.isfinite(s)):
        raise ValueError("surplus matrix contains non-finite values")
    return s


def _lexicographic_order(points: np.ndarray) -> np.ndarray:
    """Indices of the points in lexicographic order."""
    return np.lexsort(points.T[::-1])


def _pin(w: np.ndarray, v: np.ndarray, ref: int):
    shift = v[ref]
    return w + shift, v - shift


def _duals_from_support(
    surplus: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    ref: int,
    order: np.ndarray,
    tol: float,
):
    """Rebuild dual potentials from an optimal plan's support.

    Propagates v over targets through chains of support pairs:
    v_k >= v_j + S(i, k) - S(i, j) for every support pair (i, j) and
    every target k, starting from 0 at `ref` when it carries mass and at
    the first support target otherwise.  On an optimal (cyclically
    monotone) plan the longest-chain values are finite and the resulting
    pair is feasible with equality on the support, both to machine
    precision.  Returns (w, v, worklist rounds).

    First one ordered (Gauss-Seidel) pass visits the targets in `order`
    and relaxes each reached target's support pairs straight into v; a
    target without a pair (zero mass) is skipped.  When the chains follow
    that order, as for assortative matchings of scalar types listed by
    point, the pass alone reaches the final values.  Every value it writes
    is a chain value, so Jacobi rounds on a worklist then converge to the
    same least fixed point in exact arithmetic: each round relaxes the
    support pairs of every target whose v rose by more than `tol` since
    its pairs were last relaxed, until there is none, or for at most
    m + 1 rounds.  A rise of at most `tol` is not propagated, so slackness
    holds to about `tol`, and v matches a full sweep's bit for bit only in
    exact arithmetic (integer surpluses); on float data it is a few ulps
    off, and the stop ends the ulp creep around near-zero cycles that a
    stop on any change follows to the cap.  On the benchmark's 400 x 400
    markets the worklist takes 0 rounds in 1-D and 20-75 in 2-D, where a
    sweep takes 250-401 and 42-401.  The active surplus rows are gathered
    a block of about _RELAX_BLOCK_CELLS cells at a time into one reused
    buffer, so even a round with every pair active makes no n_support x m
    temporary.
    """
    m = surplus.shape[1]
    v = np.full(m, -np.inf)
    v[ref if np.any(jj == ref) else jj[0]] = 0.0
    on_support = surplus[ii, jj]
    # v of each target when its pairs were last relaxed
    last = np.full(m, -np.inf)
    # ordered pass over the support pairs grouped by target
    group = np.argsort(jj, kind="stable")
    pass_src, pass_s = ii[group], on_support[group]
    ends = np.cumsum(np.bincount(jj, minlength=m)).tolist()
    starts = [0, *ends[:-1]]
    row = np.empty(m)
    for j in order.tolist():
        vj, a, b = v[j], starts[j], ends[j]
        if vj == -np.inf or a == b:
            continue
        last[j] = vj
        if b - a == 1:
            np.add(surplus[pass_src[a]], vj - pass_s[a], out=row)
        else:
            np.max(surplus[pass_src[a:b]] + (vj - pass_s[a:b])[:, None], axis=0, out=row)
        np.maximum(v, row, out=v)
    block = max(1, _RELAX_BLOCK_CELLS // m)
    buf = np.empty((min(block, ii.size), m))
    rounds = 0
    while rounds <= m:
        stale = v > last + tol
        act = np.flatnonzero(stale[jj])
        if act.size == 0:
            break
        last[stale] = v[stale]
        src = ii[act]
        lift = v[jj[act]] - on_support[act]
        new_v = v.copy()
        for p0 in range(0, act.size, block):
            rows = src[p0 : p0 + block]
            # mode="clip" skips the buffered copy that the default mode
            # makes for `out`; the indices are in range
            cand = np.take(surplus, rows, axis=0, out=buf[: rows.size], mode="clip")
            cand += lift[p0 : p0 + block, None]
            np.maximum(new_v, cand.max(axis=0), out=new_v)
        v = new_v
        rounds += 1
    w = (surplus - v[None, :]).max(axis=1)
    return w, v, rounds


def _assignment(cost, order, tol):
    """Row and column indices of a minimum-cost square assignment.

    Overwrites `cost`.  From _ASSIGNMENT_FLOOR rows up, every
    _COARSE_STRIDE-th row and column, ranked by mean cost (stable), form a
    coarse problem that this function solves first.  Its exact duals are
    rebuilt from its matching, the chains' ordered pass visiting its
    columns in `order` (a permutation of the columns of `cost`) and their
    worklist stopping at `tol`.  They are extended to every row and then
    every column by two c-transforms and subtracted from `cost` in place,
    so every reduced cost is >= 0 and every column has a zero.  Every
    matching's cost moves by the same constant, so the optimal matchings
    are unchanged, and the augmenting paths of the final
    linear_sum_assignment call start from nearly tight duals.
    """
    if cost.shape[0] >= _ASSIGNMENT_FLOOR:
        r = np.argsort(cost.mean(axis=1), kind="stable")[::_COARSE_STRIDE]
        c = np.argsort(cost.mean(axis=0), kind="stable")[::_COARSE_STRIDE]
        # surplus form of the coarse problem; the recursive call overwrites
        # its own negated copy, so this one still holds the original costs
        coarse = -cost[np.ix_(r, c)]
        # the coarse columns in `order`
        sub = np.argsort(np.argsort(order)[c])
        _, v, _ = _duals_from_support(coarse, *_assignment(-coarse, sub, tol), sub[0], sub, tol)
        # cost-form column potentials are -v; c-transform them to every row
        to_rows = cost[:, c]
        to_rows += v
        cost -= to_rows.min(axis=1)[:, None]
        cost -= cost.min(axis=0)
    return linear_sum_assignment(cost)


def _replicated_matching(surplus, mu_copies, nu_copies, order, tol):
    """Source and target index of every matched pair of copies in one square
    assignment over points repeated by the given integer counts; the copies
    of each target take its place in the target `order`."""
    rows = np.repeat(np.arange(surplus.shape[0]), mu_copies)
    cols = np.repeat(np.arange(surplus.shape[1]), nu_copies)
    cost = surplus[np.ix_(rows, cols)]
    np.negative(cost, out=cost)
    row, col = _assignment(cost, np.argsort(np.argsort(order)[cols], kind="stable"), tol)
    return rows[row], cols[col]


def _copy_counts(weights: np.ndarray, size: int):
    """size * weights rounded to integers that sum to `size` (floors, plus one
    for the largest remainders, ties to the lowest index), and whether every
    count lies within _REPLICATION_TOL of size * weight."""
    scaled = weights * size
    counts = np.floor(scaled).astype(int)
    short = size - counts.sum()
    counts[np.argsort(counts - scaled, kind="stable")[:short]] += 1
    return counts, bool(np.abs(scaled - counts).max() <= _REPLICATION_TOL)


def _shortlist(mu_w, nu_w, surplus, guess_rows, guess_cols, order, tol):
    """Pairs (n x m mask) on which the first restricted LP is solved.

    The dual guess is rebuilt on the real surplus from the guess support,
    the pairs of an assignment over rounded copies of the points.  The
    list holds that support, the _SHORTLIST_WIDTH smallest reduced costs
    w_i + v_j - S_ij of every row and every column, and the cells of the
    north-west-corner rule with rows in descending w and columns in
    ascending v, whose plan makes the restricted LP feasible.
    """
    n, m = surplus.shape
    w, v, _ = _duals_from_support(surplus, guess_rows, guess_cols, 0, order, tol)
    listed = np.zeros((n, m), dtype=bool)
    listed[guess_rows, guess_cols] = True
    reduced = w[:, None] + v[None, :] - surplus
    for axis, length in ((1, m), (0, n)):
        k = min(_SHORTLIST_WIDTH, length)
        smallest = np.argpartition(reduced, k - 1, axis=axis)
        np.put_along_axis(listed, np.take(smallest, range(k), axis=axis), True, axis=axis)
    # north-west corner: merging the two cumulative sums orders its steps,
    # a row step first on ties
    r = np.argsort(-w, kind="stable")
    c = np.argsort(v, kind="stable")
    ends = np.concatenate([np.cumsum(mu_w[r])[:-1], np.cumsum(nu_w[c])[:-1]])
    down = np.argsort(ends, kind="stable") < n - 1
    listed[r[np.cumsum(np.r_[False, down])], c[np.cumsum(np.r_[False, ~down])]] = True
    return listed


def _exact_lp(mu_w, nu_w, surplus, guess_rows, guess_cols, order, tol):
    """Support triplets of a basic optimal plan of the transportation LP.

    Solves the LP restricted to a shortlist of pairs grown from the guess
    support (see _shortlist) and prices out the rest: the restricted
    plan's duals are rebuilt from its support on the surplus with every
    unlisted pair at -inf, and every unlisted pair whose surplus exceeds
    w_i + v_j by more than `tol` joins the list, as
    does every pair of a target that the chains leave at -inf.  When no
    pair joins, the duals are feasible for the full LP and complementary
    to the restricted plan, which is then optimal for the full LP.  A full
    list is the dense LP.
    """
    n, m = surplus.shape
    b_eq = np.concatenate([mu_w, nu_w])
    listed = _shortlist(mu_w, nu_w, surplus, guess_rows, guess_cols, order, tol)
    while True:
        rows, cols = np.nonzero(listed)
        k = rows.size
        # row-sum constraints then column-sum constraints on the listed pairs
        a_eq = csr_matrix(
            (np.ones(2 * k), (np.concatenate([rows, n + cols]), np.tile(np.arange(k), 2))),
            shape=(n + m, k),
        )
        # Interior point, then HiGHS's default crossover to an optimal basis:
        # entries off the basis are exact zeros (at most n + m - 1 nonzeros),
        # so the support is clean for slackness checks.
        res = linprog(
            c=-surplus[rows, cols],
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs-ipm",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        on = res.x > 0
        rows, cols, mass = rows[on], cols[on], res.x[on]
        restricted = np.where(listed, surplus, -np.inf)
        # an unreached target makes -inf - (-inf) in w; only v is read then
        with np.errstate(invalid="ignore"):
            w, v, _ = _duals_from_support(restricted, rows, cols, 0, order, tol)
        unreached = np.isneginf(v)
        if unreached.any():
            joins = ~listed & unreached[None, :]
        else:
            joins = ~listed & (surplus - w[:, None] - v[None, :] > tol)
        if not joins.any():
            return rows, cols, mass
        listed |= joins


def exact_solver_path(mu_weights: np.ndarray, nu_weights: np.ndarray) -> str:
    """The path `solve_exact` takes for these marginals: "size-1",
    "replicated" or "lp" (see the module docstring)."""
    n, m = len(mu_weights), len(nu_weights)
    if min(n, m) == 1:
        return "size-1"
    exact = all(_copy_counts(w, max(n, m))[1] for w in (mu_weights, nu_weights))
    return "replicated" if exact else "lp"


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, surplus: np.ndarray):
    """Exact Kantorovich solve: optimal plan plus dual potentials.

    Returns (TransportPlan, DualPair) with strong duality, dual
    feasibility on all pairs, and complementary slackness on the
    support.  v is pinned to 0 at the lexicographically smallest
    target point.
    """
    surplus = np.asarray(surplus, dtype=float)
    n, m = surplus.shape
    if mu.n != n or nu.n != m:
        raise ValueError("surplus matrix shape must match the measures")
    if not np.all(np.isfinite(surplus)):
        raise ValueError("surplus must be finite")
    mu_w, nu_w = mu.weights, nu.weights
    order = _lexicographic_order(nu.points)
    ref = int(order[0])
    # the chains' stop and the LP's pricing tolerance, from the real surplus:
    # the LP's restricted matrix holds -inf
    tol = _PRICING_ULPS * np.spacing(np.abs(surplus).max())

    path = exact_solver_path(mu_w, nu_w)
    if path == "size-1":
        rows, cols = np.divmod(np.arange(n * m), m)
        mass = mu_w[rows] * nu_w[cols]
    else:
        mu_copies, nu_copies = (_copy_counts(w, max(n, m))[0] for w in (mu_w, nu_w))
        src, dst = _replicated_matching(surplus, mu_copies, nu_copies, order, tol)
        keys, inverse = np.unique(src * m + dst, return_inverse=True)
        rows, cols = keys // m, keys % m
        if path == "replicated":
            # each copy of source i carries mu_i / copies_i; copies matched
            # to the same (i, j) are summed in assignment order
            mass = np.bincount(inverse, mu_w[src] / mu_copies[src])
        else:
            rows, cols, mass = _exact_lp(mu_w, nu_w, surplus, rows, cols, order, tol)
    objective = float(np.sum(mass * surplus[rows, cols]))
    plan = TransportPlan(rows, cols, mass, (n, m), objective)
    w, v, _ = _duals_from_support(surplus, plan.rows, plan.cols, ref, order, tol)
    w, v = _pin(w, v, ref)
    return plan, DualPair(w, v, ref)


def solve_entropic(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    surplus: np.ndarray,
    epsilon: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> EntropicResult:
    """Entropic-regularized solve by log-domain scaling iterations.

    Maximizes sum(pi * S) - epsilon * KL(pi | mu x nu) with an
    epsilon-halving schedule from max(1, epsilon) down to epsilon for
    stability at small regularization.  Convergence means the scaling
    iterations pushed the L1 marginal violation below tol; the returned
    plan is additionally rounded onto the marginal polytope (sparsified
    at SPARSITY_THRESHOLD first, a documented lossy step).  Duals are
    the regularized potentials; non-convergence is reported, not
    raised.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    surplus = np.asarray(surplus, dtype=float)
    n, m = surplus.shape
    if mu.n != n or nu.n != m:
        raise ValueError("surplus matrix shape must match the measures")
    mu_w, nu_w = mu.weights, nu.weights
    if np.any(mu_w <= 0) or np.any(nu_w <= 0):
        raise ValueError("entropic path requires strictly positive weights")
    log_mu = np.log(mu_w)
    log_nu = np.log(nu_w)

    schedule = []
    eps_k = max(1.0, epsilon)
    while eps_k > epsilon * (1 + 1e-12):
        schedule.append(eps_k)
        eps_k /= 2
    schedule.append(epsilon)

    w = np.zeros(n)
    v = np.zeros(m)
    iterations = 0
    converged = False
    err = np.inf
    plan = np.outer(mu_w, nu_w)
    for stage, eps in enumerate(schedule):
        last_stage = stage == len(schedule) - 1
        # intermediate stages only warm-start the next one: loose tolerance
        # and a small sweep cap, full budget and tolerance at the target
        stage_tol = tol if last_stage else max(tol, 0.05 * eps)
        stage_cap = max_iter if last_stage else min(max_iter, iterations + 200)
        while iterations < stage_cap:
            iterations += 1
            w = eps * logsumexp((surplus - v[None, :]) / eps, b=nu_w[None, :], axis=1)
            v = eps * logsumexp((surplus - w[:, None]) / eps, b=mu_w[:, None], axis=0)
            log_plan = (
                (surplus - w[:, None] - v[None, :]) / eps
                + log_mu[:, None]
                + log_nu[None, :]
            )
            plan = np.exp(log_plan)
            # column marginals are exact right after the v update
            err = float(np.abs(plan.sum(axis=1) - mu_w).sum())
            if err <= stage_tol:
                if last_stage:
                    converged = True
                break
        if iterations >= max_iter:
            break

    plan[plan < SPARSITY_THRESHOLD] = 0.0
    plan = _round_to_marginals(plan, mu_w, nu_w)
    ref = int(_lexicographic_order(nu.points)[0])
    w, v = _pin(w, v, ref)
    objective = float(np.sum(plan * surplus))
    return EntropicResult(
        plan=TransportPlan.from_dense(plan, objective),
        duals=DualPair(w, v, ref),
        iterations=iterations,
        converged=converged,
        marginal_error_l1=err,
    )


def _round_to_marginals(plan: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray):
    """Project an almost-feasible plan onto the marginal polytope.

    Scales rows and columns down where they overshoot, then restores
    the missing mass with a rank-one correction; the objective moves by
    at most max|S| times the pre-rounding L1 violation.
    """
    r = plan.sum(axis=1)
    scale = np.ones_like(r)
    np.divide(mu_w, r, out=scale, where=r > 0)
    plan = plan * np.minimum(1.0, scale)[:, None]
    c = plan.sum(axis=0)
    scale = np.ones_like(c)
    np.divide(nu_w, c, out=scale, where=c > 0)
    plan = plan * np.minimum(1.0, scale)[None, :]
    dr = mu_w - plan.sum(axis=1)
    dc = nu_w - plan.sum(axis=0)
    missing = dr.sum()
    if missing > 0:
        plan = plan + np.outer(dr, dc) / missing
    return plan


def barycentric_projection(plan: TransportPlan, source_points: np.ndarray):
    """Mass-weighted mean source point per target column.

    Returns (projection, valid) where projection[j] is the conditional
    mean of the source coordinate given target j, and valid flags
    columns with positive mass; zero-mass columns are NaN-filled and
    flagged out.
    """
    pts = np.atleast_2d(np.asarray(source_points, dtype=float))
    if pts.shape[0] != plan.shape[0]:
        raise ValueError("source points must align with plan rows")
    _, col_mass = plan.marginals()
    valid = col_mass > 0
    weighted = plan.mass[:, None] * pts[plan.rows]
    col_sums = np.column_stack(
        [np.bincount(plan.cols, w, minlength=plan.shape[1]) for w in weighted.T]
    )
    proj = np.full((plan.shape[1], pts.shape[1]), np.nan)
    proj[valid] = col_sums[valid] / col_mass[valid, None]
    return proj, valid


@dataclass(frozen=True)
class MonotonicityReport:
    applicable: bool
    trials: int
    violations: int
    worst_margin: float
    violating_cycle: Optional[list]

    @property
    def passed(self) -> bool:
        return not self.applicable or self.violations == 0


def check_cyclical_monotonicity(
    plan: TransportPlan,
    surplus: np.ndarray,
    k: int = 2,
    trials: int = 1000,
    seed: int = 0,
) -> MonotonicityReport:
    """Sampled k-cycle optimality fingerprint of a plan's support.

    Draws `trials` random k-subsets of support pairs and checks that
    the cyclic reassignment does not increase total surplus.  Margins
    below -_CYCLE_TOL are counted as violations.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    ii, jj, _ = plan.support()
    n_sup = ii.shape[0]
    if n_sup < k:
        return MonotonicityReport(False, 0, 0, np.inf, None)
    rng = np.random.default_rng(seed)
    worst = np.inf
    violations = 0
    witness = None
    for _ in range(trials):
        pick = rng.choice(n_sup, size=k, replace=False)
        si, sj = ii[pick], jj[pick]
        kept = surplus[si, sj].sum()
        swapped = surplus[si, np.roll(sj, -1)].sum()
        margin = float(kept - swapped)
        if margin < worst:
            worst = margin
            if margin < -_CYCLE_TOL:
                witness = list(zip(si.tolist(), sj.tolist()))
        if margin < -_CYCLE_TOL:
            violations += 1
    return MonotonicityReport(True, trials, violations, worst, witness)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def _read_csv_rows(path, header, kind):
    """Non-empty rows of a CSV file whose first line must be `header`."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != header:
        expected = ",".join(header)
        raise ValueError(f"{kind} file {path} is empty or lacks the header {expected}")
    return list(filter(None, lines[1:]))


def write_plan_csv(plan: TransportPlan, path) -> None:
    """Support triplets i,j,mass."""
    ii, jj, mass = plan.support()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "mass"])
        for a, b, m in zip(ii, jj, mass):
            writer.writerow([int(a), int(b), format_float(m)])


def read_plan_csv(path, shape) -> TransportPlan:
    """Plan of `shape` from a support-triplet file written by write_plan_csv.

    The first line must be the header i,j,mass; an empty file raises
    ValueError.  Indices must lie in range(n) x range(m) and each (i, j)
    may appear once; zero-mass rows are dropped.  The file carries no
    objective, so the plan's objective is NaN.
    """
    rows = _read_csv_rows(path, ["i", "j", "mass"], "plan")
    triplets = [(int(i), int(j), float(w)) for i, j, w in rows]
    rows, cols, mass = np.array(triplets, dtype=float).reshape(-1, 3).T
    return TransportPlan(rows, cols, mass, shape, float("nan"))


def write_duals_csv(duals: DualPair, path) -> None:
    """Vectors as rows side,idx,value with side in {source,target}, then
    one row pin,idx,0 naming the target where v is pinned to 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["side", "idx", "value"])
        for i, val in enumerate(duals.w_source):
            writer.writerow(["source", i, format_float(val)])
        for j, val in enumerate(duals.v_target):
            writer.writerow(["target", j, format_float(val)])
        writer.writerow(["pin", duals.normalization, 0])


def read_duals_csv(path) -> DualPair:
    """Inverse of write_duals_csv.

    Raises ValueError unless the first line is the header side,idx,value,
    every later row is side,idx,value with side source, target or pin,
    source and target each list the indices 0..len-1 exactly once, and
    one pin row names a target index.
    """
    rows = {"source": [], "target": [], "pin": []}
    for row in _read_csv_rows(path, ["side", "idx", "value"], "duals"):
        if row[0] not in rows or len(row) != 3:
            raise ValueError(f"duals file {path} has a malformed row {row!r}")
        rows[row[0]].append((int(row[1]), float(row[2])))
    if len(rows["pin"]) != 1:
        raise ValueError(f"duals file {path} needs exactly one pin row")

    def values(side):
        pairs = sorted(rows[side])
        if [i for i, _ in pairs] != list(range(len(pairs))):
            raise ValueError(
                f"duals file {path}: {side} indices are not 0..{len(pairs) - 1} once each"
            )
        return np.array([val for _, val in pairs])

    w, v = values("source"), values("target")
    pin = rows["pin"][0][0]
    if not 0 <= pin < v.size:
        raise ValueError(f"duals file {path}: pin {pin} is not a target index")
    return DualPair(w, v, pin)
