"""Allocation models assembled from the CCD / ADMM / Dykstra engines.

Mean-variance, its cost/tracking variants, the floor-free
most-diversified portfolio and the Rao-entropy maximum stay quadratic
programs, and a return or volatility target walks Markowitz's critical
line down from the frontier's top, a finite method; turnover-capped
mean-variance, minimum variance and the most-diversified portfolio under
diversification floors, risk budgeting, KL portfolios and the composite
managed-account objective are solved by splitting: a smooth x-subproblem
in closed form against one y-block per constraint set or nonsmooth term,
each a closed-form prox from the operator catalogue, an exact projection
by scalar roots (the entropy floors, the ellipsoid) or a Dykstra sweep
(box and ball), joined by consensus ADMM.  The box-and-ball split, the
splits whose constraint is smooth (the entropy floors, the effective-bets
cone, the volatility ellipsoid of the KL cap) and the rebalancing split
(turnover cap and bid/ask costs) end with a polish: the exact optimum on
the active set or trade pattern its y-blocks show.  Every polish, and
index sampling's rounds, hands qp._settle a point solver (a secular
root, Newton on the KKT system, a held inverse, an equality QP in trade
variables) and lets its one primal-dual loop correct the guess.
Inputs whose constraint sets are empty are caught before the ADMM loop starts.

Every model reads the covariance through its AssetUniverse, which checks
it once when the universe is built and owns its one PenaltyFactor (the
factors of cov + phi I that every QP and quadratic split on the universe
shares) and its eigendecomposition, computed at most once, on first use.

Each model checks its arguments once, where it takes them, through
linalg, the one coercion owner: a per-asset vector by ``as_vector`` at
length n (``_asset_vector`` passes the vector of a PortfolioWeights,
checked when it was made), a cap, floor or cost that may be a scalar by
``per_coordinate`` or ``as_bound``; its loops call the catalogue's
unchecked kernels.  Every model returns PortfolioWeights
whose vector has passed one common normalization gate (tiny negative
clips, budget rescale), so solver slack never leaks into downstream
statistics.
"""

import functools
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .admm import AdmmConfig, AdmmProblem, admm_solve, consensus_problem
from .cd import (_check_stdev_scale, _normalized_budgets, _rb_newton, _rb_simultaneous,
                 ccd_rb_stdev)
from .dykstra import DykstraConfig, dykstra_cycle
from .errors import (
    BadK,
    Diverged,
    InfeasibleSuspected,
    InfeasibleTargets,
    MaxIterExceeded,
    NegativeCost,
    NegativeLambda,
    NonPositiveWeight,
    NotPositiveDefinite,
    OutOfDomain,
    TargetUnreachable,
    UnreachableDiversification,
)
from .linalg import (PenaltyFactor, RootBracket, SupportFactor, _newton_kkt, as_bound,
                     as_matrix, as_symmetric, as_vector, bisect, cholesky_lower,
                     lambert_w_exp, per_coordinate, threshold_sum_root)
from .prox import (
    Box,
    EffectiveBetsCone,
    Halfspace,
    Hyperplane,
    LpBall,
    _prox_bid_ask,
    _prox_kl,
    _prox_log_barrier,
    _soft_threshold,
    projector,
)
from .qp import (
    POLISH_TOL,
    QpProblem,
    _Bridge,
    _settle,
    _solve_equality_qp,
    linear_projection,
    qp_solve,
)
from .reports import DIVERGED, SolverReport

# slack on the caps' sum: caps of 1/n each may sum to 1 - 1e-16
CAP_SLACK = 1e-12
SECULAR_STEPS = 100  # Newton steps a secular root may take


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class AssetUniverse:
    """Expected returns, volatilities and correlations of the asset set.

    rho must be symmetric under linalg's rule (as_symmetric).  The
    covariance is derived as cov_ij = rho_ij * sigma_i * sigma_j, and the
    universe is the one owner of every decision about it:

    * The PSD gate: cov must be positive semidefinite, smallest eigenvalue
      >= -1e-10.  One Cholesky of cov + 1e-10 I decides it; only when that
      fails does the eigvalsh test run, so the decision is the eigenvalue
      test's.  The Cholesky factor is not kept.
    * ``factor``: the one PenaltyFactor of cov, built here, which checks
      cov once (finite, symmetric under linalg's rule).  Every QP and
      quadratic split of a model on this universe solves through it, so a
      second call at the same penalty reuses the factor of cov + phi I.
      Its cache holds up to four n x n factors, one per recent penalty,
      and once index_sampling has run, cov^-1 beside the phi = 0 factor.
    * ``spectrum``: cov's eigendecomposition (eigenvalues, eigenvectors),
      computed on first use and kept; it serves the volatility ellipsoid
      and the stdev ADMM x-update.  One more n x n array.

    Both live as long as the universe, so a universe holds up to four
    n x n factors and one eigenbasis besides rho and cov, and one n x n
    inverse more (32 MB at n = 2000) while index_sampling's is cached.
    ``cov`` stays a plain array; treat it as read-only, since the factor
    and the spectrum were built from it.
    """

    names: list
    mu: object
    sigma: object
    rho: object
    rate: float = 0.0

    def __post_init__(self):
        self.mu = as_vector(self.mu, "mu")
        self.sigma = as_vector(self.sigma, "sigma")
        self.rho = as_symmetric(self.rho, "rho")
        n = self.sigma.size
        if len(self.names) != n or self.mu.size != n or self.rho.shape != (n, n):
            raise ValueError("universe fields disagree on the number of assets")
        if np.max(np.abs(np.diag(self.rho) - 1.0)) > 1e-12:
            raise ValueError("correlation diagonal must be 1")
        if np.max(np.abs(self.rho)) > 1.0 + 1e-12:
            raise ValueError("correlations must lie in [-1, 1]")
        if np.any(self.sigma <= 0):
            raise ValueError("volatilities must be positive")
        self.cov = self.rho * np.outer(self.sigma, self.sigma)
        try:
            cholesky_lower(self.cov + 1e-10 * np.eye(n), check=False)
        except NotPositiveDefinite:
            if np.min(np.linalg.eigvalsh(self.cov)) < -1e-10:
                raise ValueError("covariance is not positive semidefinite") from None
        self.factor = PenaltyFactor(self.cov)

    @property
    def n(self):
        return self.sigma.size

    @functools.cached_property
    def spectrum(self):
        return np.linalg.eigh(self.cov)


@dataclass
class PortfolioWeights:
    w: object

    def __post_init__(self):
        self.w = as_vector(self.w, "weights")

    def as_percent(self):
        return 100.0 * self.w


@dataclass(frozen=True)
class EffectiveBets:
    """Require 1 / sum(w^2) >= minimum."""

    minimum: float


@dataclass(frozen=True)
class ShannonEntropyFloor:
    """Require -sum(w ln w) >= minimum."""

    minimum: float


@dataclass(frozen=True)
class Volatility:
    """Risk measured as sqrt(w' cov w)."""


@dataclass(frozen=True)
class StdevRisk:
    """Risk measured as -w'(mu - rate) + scale * sqrt(w' cov w)."""

    scale: float
    rate: Optional[float] = None


@dataclass
class PortfolioStats:
    expected_return: float
    volatility: float
    herfindahl: float
    effective_bets: float
    diversification_ratio: float
    shannon_entropy: float
    leverage: float
    net_exposure: float
    turnover: Optional[float] = None
    active_share: Optional[float] = None
    tracking_error: Optional[float] = None
    kl_divergence: Optional[float] = None


@dataclass
class RoboConfig:
    """Managed-account objective: benchmarked MVO plus shrinkage penalties.

    l1/l2 penalties pull toward the current holdings and the reference
    mix; ``barrier`` scales the risk-budget log barrier.  l1 shaping
    vectors are per-asset scales (diagonal matrices); l2 shaping may be a
    full matrix.  ``linear_sets`` holds Halfspace descriptors and
    ``nonlinear_sets`` any catalogued set; both must hold at the answer.
    ``robo_advisor`` solves it by one consensus ADMM split.
    """

    benchmark: object = None
    reference: object = None
    current: object = None
    gamma: float = 0.0
    l1_current: float = 0.0
    l2_current: float = 0.0
    l1_reference: float = 0.0
    l2_reference: float = 0.0
    shape_l1_current: object = None
    shape_l2_current: object = None
    shape_l1_reference: object = None
    shape_l2_reference: object = None
    barrier: float = 0.0
    risk_budgets: object = None
    linear_sets: list = field(default_factory=list)
    nonlinear_sets: list = field(default_factory=list)
    lower: object = 0.0
    upper: object = 1.0

    def __post_init__(self):
        for name in ("gamma", "l1_current", "l2_current", "l1_reference",
                     "l2_reference", "barrier"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.barrier > 0 and self.risk_budgets is None:
            raise ValueError("a positive barrier needs risk budgets")
        for name in ("l1_current", "l2_current", "l1_reference", "l2_reference"):
            if getattr(self, name) > 0 and getattr(self, name[3:]) is None:
                raise ValueError(f"a positive {name} needs {name[3:]}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _gate(w, long_only=True):
    """Normalization gate: clip solver residue, restore the budget.

    The answer is checked once, by the PortfolioWeights built on a float
    copy of it, whose vector is then clipped and rescaled in place.
    """
    gated = PortfolioWeights(np.array(w, dtype=float))
    if long_only:
        low = gated.w.min()
        if low < -1e-6:
            raise ValueError(f"long-only violated by {low:.2e}")
        np.maximum(gated.w, 0.0, out=gated.w)
    total = gated.w.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"budget off by {total - 1.0:.2e}")
    gated.w /= total
    return gated


def _asset_vector(x, n, name):
    """as_vector(x, name, n), the entry check of every per-asset vector a model
    or statistic takes; the vector of a PortfolioWeights, checked when it was
    made, is taken as it is when it has n entries."""
    if isinstance(x, PortfolioWeights) and x.w.size == n:
        return x.w
    return as_vector(getattr(x, "w", x), name, n)


def herfindahl(w):
    w = as_vector(w)
    return float(w @ w)


def effective_bets(w):
    return 1.0 / herfindahl(w)


def shannon_entropy(w):
    return _entropy(as_vector(w))


def _entropy(w):
    """-sum w ln w over the positive entries of a validated vector."""
    pos = w[w > 0]
    return float(-np.sum(pos * np.log(pos))) + 0.0  # normalize -0.0


def stats(w, universe, benchmark=None, reference=None, current=None):
    """Portfolio statistics; comparison fields need their comparand."""
    w = _asset_vector(w, universe.n, "weights")
    vol, h = float(np.sqrt(w @ universe.cov @ w)), float(w @ w)
    out = PortfolioStats(
        expected_return=float(w @ universe.mu),
        volatility=vol,
        herfindahl=h,
        effective_bets=1.0 / h,
        diversification_ratio=float(w @ universe.sigma) / vol,
        shannon_entropy=_entropy(w),
        leverage=float(np.sum(np.abs(w))),
        net_exposure=float(abs(np.sum(w))),
    )
    if current is not None:
        out.turnover = float(np.sum(np.abs(w - _asset_vector(current, universe.n, "current"))))
    if benchmark is not None:
        b = _asset_vector(benchmark, universe.n, "benchmark")
        out.active_share = 0.5 * float(np.sum(np.abs(w - b)))
        out.tracking_error = float(np.sqrt((w - b) @ universe.cov @ (w - b)))
    if reference is not None:
        ref = _asset_vector(reference, universe.n, "reference")
        pos = w > 0
        out.kl_divergence = float(np.sum(w[pos] * np.log(w[pos] / ref[pos])))
    return out


def _projection(set_, n):
    """y-block builder of a set indicator: its projector, built once, for every phi."""
    op = projector(set_, n)
    return lambda phi: op


def _secular_root(a, c):
    """The root theta >= 0 of g(theta) = sum_k a_k / (1 + theta c_k)^2 = 1.

    a, c >= 0 with c_k > 0 wherever a_k > 0; returns 0 when g(0) <= 1.
    Newton runs on 1/sqrt(g) - 1, which is concave and increasing in
    theta (the secular function of More & Sorensen 1983), so it climbs
    from 0 to the root without overshooting and needs no bracket.
    """
    theta = 0.0
    ac = a * c
    for _ in range(SECULAR_STEPS):
        t = 1.0 / (1.0 + theta * c)
        t2 = t * t
        g = float(a.dot(t2))  # ndarray.dot: half the call cost of @ on 1-d
        if g <= 1.0:
            break
        step = g * (g**0.5 - 1.0) / float(ac.dot(t2 * t))
        theta += step
        if step <= 1e-15 * theta:
            break
    return theta


def _solve_budget_qp(q, r, lower=None, upper=None, c=None, d=None, cfg=None):
    """min 0.5 x'qx - r'x on the budget plane, the box and the rows c x <= d:
    one QP-bridge solve, without qp_solve's stationarity sweep.  A
    universe's ``factor`` as q lends the solve its cached factors."""
    problem = QpProblem(q=q, r=r, a=np.ones((1, len(r))), b=np.ones(1), c=c, d=d,
                        lower=lower, upper=upper)
    return _Bridge(problem, cfg).solve()[0]


# ---------------------------------------------------------------------------
# mean-variance family
# ---------------------------------------------------------------------------

def _mean_variance(universe, gamma, r, lower, upper, ineq, cfg):
    """min 0.5 x'Cx - r'x on the budget, the box and the rows ``ineq`` = (c, d),
    gated long-only when every lower bound is at least 0; raises
    ValueError for a negative gamma, the weight of mu in r."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    c, d = ineq if ineq is not None else (None, None)
    w = _solve_budget_qp(universe.factor, r, lower, upper, c, d, cfg)
    return _gate(w, long_only=lower is not None and np.all(np.asarray(lower) >= 0))


def mvo_gamma(universe, gamma, lower=None, upper=None, ineq=None, cfg=None):
    """Budget-constrained mean-variance trade-off min 0.5 x'Cx - gamma x'mu."""
    return _mean_variance(universe, gamma, gamma * universe.mu, lower, upper, ineq, cfg)


def mvo_benchmark(universe, benchmark, gamma, lower=None, upper=None, ineq=None,
                  cfg=None):
    """Tracking-error MVO: same QP with returns tilted by cov @ benchmark."""
    b = _asset_vector(benchmark, universe.n, "benchmark")
    return _mean_variance(universe, gamma, gamma * universe.mu + universe.cov @ b, lower,
                          upper, ineq, cfg)


def _max_return_face(mu, lower, upper):
    """The face of the budget set {1'x = 1, lower <= x <= upper} where mu'x peaks.

    Returns (top, vertex, low, high): the top return, a point of the face
    and the bounds that cut the face out of the box; top is inf, the rest
    None, when a capless name has a larger mu than a floorless one.
    Otherwise no infinite bound binds, and each is clipped past the
    budget's reach.  With the names in order of decreasing mu, the first k
    at their caps and the rest at their floors leave b(k) = 1 - sum u[:k]
    - sum l[k:], which falls in k; the last name with b(k) >= 0 takes what
    is left, and the names tied with it are free on the face.  Raises
    InfeasibleTargets when the box holds no budget portfolio.
    """
    capless, floorless = np.isinf(upper), np.isinf(lower)
    if capless.any() and floorless.any() and mu[capless].max() > mu[floorless].min():
        return np.inf, None, None, None
    reach = 2.0 + np.abs(lower[~floorless]).sum() + np.abs(upper[~capless]).sum()
    order = np.argsort(-mu, kind="stable")
    l, u = np.maximum(lower, -reach)[order], np.minimum(upper, reach)[order]
    caps = np.concatenate([[0.0], np.cumsum(u)])
    floors = np.concatenate([np.cumsum(l[::-1])[::-1], [0.0]])
    left = 1.0 - caps - floors
    if left[0] < -CAP_SLACK or left[-1] > CAP_SLACK:
        raise InfeasibleTargets("no portfolio in the box meets the budget")
    k = min(int(np.flatnonzero(left >= -CAP_SLACK)[-1]), mu.size - 1)
    vertex = np.empty(mu.size)
    vertex[order] = np.concatenate([u[:k], [1.0 - caps[k] - floors[k + 1]], l[k + 1:]])
    edge = mu[order[k]]
    return float(mu @ vertex), vertex, np.where(mu > edge, upper, lower), \
        np.where(mu < edge, lower, upper)


def _frontier_top(quad, vertex, face_low, face_high):
    """The top of the frontier: the least variance on the face where mu'x
    peaks (``_max_return_face``), its vertex unless names tie there.  Then
    it is the minimum variance on the face's bounds: ``_critical_line``
    walked to t = 0 from the face's vertex under a return that unties it
    (the names' order), or one bridge solve on ``quad`` when nothing
    bounds the face from above and below."""
    if np.sum(face_low < face_high) > 1:
        untie = -np.arange(vertex.size, dtype=float)
        start = _max_return_face(untie, face_low, face_high)[1]
        if start is None:
            return _solve_budget_qp(quad, np.zeros(vertex.size), face_low, face_high)
        return _critical_line(quad.q, untie, face_low, face_high, start, False, {})[0]
    return vertex


def _line_start(cov, mu, low, high, start, up):
    """The inverse held on the free names at ``start``, the bound names'
    values (0 for a free name) and their sides (1 at a floor, -1 at a cap,
    0 free or fixed).

    Names within 1e-12 (relative) of a bound start at it.  At a vertex the
    capped name whose multiplier is largest as the walk starts is freed:
    at t = 0 the one with the largest (cov x)_i, at t = inf the one with
    the smallest mu_i, ties to the largest (cov x)_i; with no capped name,
    the floored one whose multiplier is smallest.  A free name whose
    join the pivot gate refuses copies free names: it keeps its start
    value and never joins.  From a vertex, or from a face's minimum walked
    by ``_frontier_top``, no copy starts free.
    """
    slack = 1e-12 * (1.0 + np.abs(start))
    at_low, at_high = start <= low + slack, start >= high - slack
    if (at_low | at_high).all():
        sign = np.where(at_high, 1.0, -1.0)
        order = np.lexsort((-sign * cov.dot(start), sign * mu * (not up), ~at_high))
        k = order[(at_low ^ at_high)[order]][0]  # not a fixed name
        at_low[k] = at_high[k] = False
    fixed = np.where(at_low, low, np.where(at_high, high, start))
    names = np.flatnonzero(~(at_low | at_high))
    held = SupportFactor(cov, names[:1], np.column_stack([mu, np.ones(mu.size)]))
    for j in names[1:]:
        try:
            held.join(j)
        except NotPositiveDefinite:  # a copy: it keeps its start value
            pass
    fixed[held.support] = 0.0
    return held, fixed, at_low - at_high * 1.0


def _critical_line(cov, mu, low, high, start, up, targets):
    """Walk Markowitz's critical line from ``start`` to its first stop: where
    mu'x reaches ``targets["return"]``, where x'cov x reaches
    ``targets["variance"]`` (either key may be absent), or at t = 0, the
    minimum variance.

    The optimum of min 0.5 x'cov x - t mu'x on the budget and the box is
    piecewise linear in t (Markowitz 1956; Niedermayer & Niedermayer 2010).
    ``start`` is the frontier's top (t = inf), walked down, or with ``up``
    the minimum variance (t = 0), walked up; ``_line_start`` reads its
    bounds.  On a piece x_F = t a + nu e - d on the free names F, with
    a, e = G mu_F, G 1 held in a linalg.SupportFactor (G = cov_FF^-1),
    d = G (cov x_B)_F for the bound names' values and nu from the budget.
    A piece ends where a free name reaches a bound (a Schur delete) or a
    bound name's multiplier (cov x)_i - t mu_i - nu changes sign (a
    bordered join).  A multiplier slope within 1e-12 (relative) of 0 is no
    event, and a join that the pivot gate refuses keeps the name at its
    bound: a name that copies a free one has a multiplier of 0 all along.
    Each target is checked at the piece's end (mu'x is linear in t, x'cov x
    quadratic) and solved on the first piece that reaches it.  Returns
    (x, stop), stop "return", "variance" or None at t = 0.  Raises
    MaxIterExceeded after 4 n pieces.
    """
    n, way, end = mu.size, (1.0 if up else -1.0), (np.inf if up else 0.0)  # end: way t
    with np.errstate(all="ignore"):  # a step or multiplier slope of 0: no event
        held, fixed, side = _line_start(cov, mu, low, high, start, up)
        cov_fixed, t_from, scale = cov.dot(fixed), (0.0 if up else np.inf), np.abs(mu).max()
        for _ in range(4 * n):
            f = held.support
            a, e = held.solved.T
            d = held.solve(cov_fixed[f])
            nu, slope = (1.0 - fixed.sum() + d.sum()) / e.sum(), a.sum() / e.sum()
            base, step = fixed.copy(), a - slope * e  # x = base + t step, step on F
            base[f] = nu * e - d
            rows = cov[f]
            cov_base, cov_step = cov_fixed + base[f].dot(rows), step.dot(rows)
            turn = way * (cov_step - mu + slope)  # the multipliers' slope along the walk
            tau = np.where(side * turn < -1e-12 * (scale + abs(slope)), (nu - cov_base) / turn,
                           np.inf)  # each event's way t
            move = way * step
            tau[f] = np.where(move != 0.0, (np.where(move < 0.0, low[f], high[f]) - base[f])
                              / move, np.inf)
            quads = {"variance": (step.dot(cov_step[f]), step.dot(cov_base[f]),  # (a, b, c):
                                  base.dot(cov_base)),  # a t^2 + 2 b t + c
                     "return": (0.0, 0.5 * mu[f].dot(step), mu.dot(base))}
            while True:  # an event already passed is taken at once
                k = int(np.argmin(tau))
                t_to = way * min(tau[k], end)
                lo, hi = sorted((t_to, t_from if np.isfinite(t_from) else t_to))
                inside = lambda t: t_to if np.isnan(t) else min(max(t, lo), hi)
                stops = []  # each target the piece reaches by its end, at the larger root
                for stop, goal in targets.items():
                    a2, a1, a0 = quads[stop]
                    a0 -= goal
                    if np.isinf(t_to) or way * (a0 + t_to * (2.0 * a1 + a2 * t_to)) >= 0.0:
                        stops.append((inside(-a0 / (a1 + np.sqrt(a1 * a1 - a2 * a0))), stop))
                if stops:  # the first target the piece reaches
                    t, stop = min(stops, key=lambda item: way * item[0])
                    base[f] += t * step
                    return base, stop
                if tau[k] >= end:
                    return base, None
                if side[k] == 0.0:  # a free name reaches a bound
                    p = int((f == k).argmax())  # k's position in F
                    side[k], fixed[k] = (1.0, low[k]) if move[p] < 0.0 else (-1.0, high[k])
                    cov_fixed += fixed[k] * cov[k]
                    held.delete(p)
                    break
                try:
                    held.join(k)
                except NotPositiveDefinite:
                    tau[k] = np.inf
                    continue
                cov_fixed -= fixed[k] * cov[k]
                fixed[k], side[k] = 0.0, 0.0
                break
            t_from = t_to
    raise MaxIterExceeded(f"the critical line ran {4 * n} pieces")


def mvo_target(universe, target_return=None, target_volatility=None, lower=None,
               upper=None):
    """The frontier portfolio at a return or volatility target.

    The frontier runs from the minimum variance (GMV) to its top, the least
    variance on the face where mu'x peaks (``_frontier_top``: its vertex,
    or a walk on the face when names tie there).  A target past an end
    raises TargetUnreachable with that end as ``last`` (the vertex, for a
    return above the top); one at an end, or past the GMV by at most 1e-6,
    returns it.  Otherwise ``_critical_line`` walks down from the top to
    where mu'x, or the variance, falls to the target, and ends at the GMV
    for a target below the line.  With no top (a capless name returns more
    than a floorless one) the GMV is one bridge solve, and the walk goes up
    from it.
    """
    if (target_return is None) == (target_volatility is None):
        raise ValueError("specify exactly one of target_return / target_volatility")
    n, cov, mu = universe.n, universe.cov, universe.mu
    low, high = as_bound(lower, -np.inf, n, "lower"), as_bound(upper, np.inf, n, "upper")
    long_only = lower is not None and bool((low >= 0).all())
    top, vertex, face_low, face_high = _max_return_face(mu, low, high)
    if target_return is not None:
        target = float(target_return)
        targets, value = {"return": target}, lambda w: stats(w, universe).expected_return
        if target > top + POLISH_TOL:
            raise TargetUnreachable(f"target {target} above the maximum {top:.6g}", last=vertex)
    else:
        target = float(target_volatility)
        targets, value = {"variance": target**2}, lambda w: stats(w, universe).volatility
    if np.isfinite(top):
        start = _frontier_top(universe.factor, vertex, face_low, face_high)
        peak = _gate(start, long_only)
        most = value(peak)
        if target > most + 1e-6:
            raise TargetUnreachable(f"target {target} above the maximum {most:.6g}", last=peak.w)
        if target >= most:
            return peak
        x, reached = _critical_line(cov, mu, low, high, start, False, targets)
    else:
        gmv = _gate(_solve_budget_qp(universe.factor, np.zeros(n), lower, upper), long_only)
        x, reached = gmv.w, None
        if value(gmv) < target:
            x, reached = _critical_line(cov, mu, low, high, gmv.w, True, targets)
    w = _gate(x, long_only)
    if reached is None and target < value(w) - 1e-6:
        raise TargetUnreachable(f"target {target} below the minimum {value(w):.6g}", last=w.w)
    return w


def index_sampling(universe, benchmark, n_assets, cfg=None):
    """Replicate a benchmark with a fixed number of holdings.

    Repeatedly solves the long-only tracking QP, min 0.5 x'Cx - x'Cb
    s.t. 1'x = 1, 0 <= x <= u, and knocks out the asset with the smallest
    nonzero weight until at most n_assets names remain invested: fewer
    when a round's optimum holds fewer (a benchmark with zero weights, or
    a single name).  A knocked-out asset gets u_i = 0 for the rounds that
    follow.  Weights within POLISH_TOL of the smallest tie, and ties go to
    the lowest index, so the names kept do not depend on round-off (an
    equal-weight benchmark ties every name in the first round).

    Each round guesses the support F of the last round less its zeros and
    the knocked-out name (every name in round 1).  One inverse
    G = C_FF^-1 is held across the rounds (linalg.SupportFactor), and with
    it a = G (Cb)_F and e = G 1, which the guess's Schur deletes downdate
    in O(k (k + 2)) each.  Round 1's G is a copy of C^-1, which the
    universe's PenaltyFactor forms once and keeps for every later account.
    The guess's point is x_F = a + nu e, nu = (1 - 1'a) / 1'e, and the
    zeros' multipliers are their reduced gradient (Cx - Cb - nu)_i.  It is
    kept when it passes qp._settle's tests: x_F >= -POLISH_TOL (1 + |x_F|),
    and every multiplier of a zero whose cap is not 0 is at least
    -POLISH_TOL (1 + max |Cx| + max |Cb|).  When every zero was knocked
    out (cap 0), the second test is vacuous and the round runs on F
    alone: it deletes the knocked-out name at its position
    (SupportFactor.delete), tests x_F and picks the next name on
    k-vectors, and forms neither Cx nor the n-vector x, which is built
    when the loop ends or a round leaves that regime (a weight below 1e-7,
    a free zero of the next round, or an x_F that fails its test).  Since
    u <= 1 never binds under the budget, a point that passes is the exact
    optimum of the round.
    Otherwise _tracking_optimum runs _settle from the guess on the same G,
    which deletes the names _settle pins and borders the names it frees.
    A round whose support block is singular (a duplicated asset) or that
    runs out of rounds is solved by one cold QP-bridge solve with ``cfg``,
    and the next round inverts its support afresh.  Raises BadK unless
    n_assets is an integer in [1, n] and DimensionMismatch unless the
    benchmark has n entries.
    """
    n = universe.n
    if not isinstance(n_assets, numbers.Integral) or not 1 <= n_assets <= n:
        raise BadK(f"n_assets must be an integer in [1, {n}], got {n_assets!r}")
    b = _asset_vector(benchmark, n, "benchmark")
    cov = universe.cov
    r = cov @ b
    r_max = np.abs(r).max()
    cap = np.full(n, np.inf)  # u = 1 never binds under the budget; a knocked-out u is 0
    live_tol = 1e-7
    held, keep, p = None, np.ones(n, dtype=bool), None  # p: a knock-out's position in F
    for knocked in range(n):  # the names knocked out so far, one a round until the loop ends
        try:
            if held is None:  # on the guess; in round 1, a copy of the universe's inverse
                held = SupportFactor(universe.factor, np.flatnonzero(keep),
                                     np.column_stack([r, np.ones(n)]))
            elif p is None:
                held.remove(~keep[held.support])
            else:  # the name knocked out at its position in F
                held.delete(p)
            on_support = held.support.size + knocked == n  # every zero was knocked out
            if on_support:  # x_F >= 0 is the whole test, so the round runs on F alone
                x, signs = _support_weights(held)[0], True
            else:
                x, mult, tol = _tracking_point(cov, r, r_max, held)
                signs = (mult[~(keep | (cap == 0))] >= -tol).all()
            least = x.min()  # at or above 0, x passes its slack test
            if not (signs and (least >= 0.0 or (x >= -POLISH_TOL * (1.0 + np.abs(x))).all())):
                on_support, x = False, _tracking_optimum(cov, r, cap, held)
        except NotPositiveDefinite:  # a singular join
            x = None
        if x is None:
            on_support, held = False, None
            x = _solve_budget_qp(universe.factor, r, np.zeros(n), np.minimum(cap, 1.0), cfg=cfg)
        if on_support and (x.size <= n_assets or least < live_tol):  # the end, or a name falls out
            on_support, x = False, np.bincount(held.support, x, n)  # x_F spread over the n names
        if on_support:  # every name of F is live, in F's order
            names, live = held.support, x
        else:
            keep = x >= live_tol
            names = keep.nonzero()[0]
            if names.size <= n_assets:
                break
            live = x[names]
            least = live.min()
        tied = (live <= least + POLISH_TOL).nonzero()[0]
        p = tied[names[tied].argmin()]  # ties go to the lowest index
        cap[names[p]] = 0.0
        if not on_support:
            keep[names[p]], p = False, None
    return _gate(np.where(x < live_tol, 0.0, x))


def _tracking_optimum(cov, r, cap, held):
    """The optimum of one index_sampling round from the guess of ``held``'s support, or None.

    ``cap`` is inf, or 0 for a knocked-out name.  qp._settle's point
    solver: _tracking_point on the inverse G = C_FF^-1 that ``held``
    holds, with a = G (Cb)_F and e = G 1 its carried columns.  Moves
    ``held`` to each support solved: names that leave are deleted from G
    by their Schur complements, then each name that joins borders G,
    which raises NotPositiveDefinite when the name copies held ones.
    """
    n, r_max = r.size, np.abs(r).max()
    guess = np.bincount(held.support, minlength=n) == 0  # the names at 0

    def solve(zero, _):
        held.remove(zero[held.support])
        joining = ~zero
        joining[held.support] = False
        for j in joining.nonzero()[0]:
            held.join(j)
        x, mult, tol = _tracking_point(cov, r, r_max, held)
        return x, x, mult, tol

    return _settle(solve, 0.0, cap, guess, np.zeros(n, dtype=bool))


def _support_weights(held):
    """x_F = a + nu e and nu = (1 - 1'a) / 1'e from the carried columns
    a = G (Cb)_F and e = G 1 of ``held``."""
    a, e = held.solved.T
    nu = (1.0 - a.sum()) / e.sum()
    return a + nu * e, nu


def _tracking_point(cov, r, r_max, held):
    """The point x_F = a + nu e of an index_sampling round on the support F
    of ``held``, whose carried columns are a = G (Cb)_F and e = G 1,
    nu = (1 - 1'a) / 1'e; its reduced gradient Cx - r - nu (the zeros'
    multipliers) and their sign slack POLISH_TOL (1 + max |Cx| + r_max)."""
    x = np.zeros(r.size)
    x[held.support], nu = _support_weights(held)
    cx = cov.dot(x)  # one BLAS pass beats gathering the zeros' rows or the support's
    return x, cx - r - nu, POLISH_TOL * (1.0 + np.abs(cx).max() + r_max)


def mvo_turnover(universe, gamma, current, turnover_cap, cfg=None):
    """MVO with the sum of buys and sells capped: min 0.5 x'Cx - gamma mu'x
    s.t. 1'x = 1, 0 <= x <= 1, ||x - current||_1 <= turnover_cap.

    The split, checks of the cap and trade-pattern polish of
    rebalance_penalized, with gamma mu in the x-update.
    """
    zero = np.zeros(universe.n)
    return _rebalance_split(universe, _asset_vector(current, universe.n, "current"),
                            turnover_cap, None, gamma * universe.mu, zero, zero, cfg)


def mvo_costs(universe, gamma, current, bid_cost, ask_cost, cfg=None):
    """MVO net of bid/ask transaction costs, with the budget financed.

    A 3n-variable QP in (x, buys, sells) with x = current + buys - sells;
    the financing identity sum x + sells'bid + buys'ask = 1 replaces the
    plain budget row.  A negative bid or ask cost raises NegativeCost.
    """
    n = universe.n
    current = _asset_vector(current, n, "current")
    bid, ask = per_coordinate(bid_cost, n, "bid cost"), per_coordinate(ask_cost, n, "ask cost")
    if np.any(bid < 0) or np.any(ask < 0):
        raise NegativeCost("transaction costs must be nonnegative")
    q = np.zeros((3 * n, 3 * n))
    q[:n, :n] = universe.cov
    # minimum-norm ridge on the trade blocks: selects the complementary
    # (buy xor sell) representative among objective ties
    q[n:, n:] = 1e-10 * np.eye(2 * n)
    link = np.hstack([np.eye(n), np.eye(n), -np.eye(n)])
    r = np.concatenate([gamma * universe.mu, -bid, -ask])
    a = np.vstack([np.concatenate([np.ones(n), bid, ask]), link])
    b = np.concatenate([[1.0], current])
    problem = QpProblem(q=q, r=r, a=a, b=b,
                        lower=np.zeros(3 * n), upper=np.ones(3 * n))
    x = qp_solve(problem, cfg=cfg)
    # weights sum to 1 minus the financed costs, so no budget rescale here
    return PortfolioWeights(np.maximum(x[:n], 0.0))


# ---------------------------------------------------------------------------
# minimum variance with diversification
# ---------------------------------------------------------------------------

def _check_caps(upper):
    """Raise InfeasibleTargets when the caps leave no long-only budget portfolio."""
    if upper.sum() < 1.0 - CAP_SLACK:
        raise InfeasibleTargets(f"the caps sum to {upper.sum():.6g} < 1: no long-only "
                                "portfolio meets the budget", last=np.array(upper))


def _equal_weights(upper):
    """Equal weights, the one portfolio a floor of n bets or of entropy ln n
    admits; raises InfeasibleTargets when a cap is below 1/n."""
    n = upper.size
    if upper.min() < 1.0 / n - CAP_SLACK:
        raise InfeasibleTargets(f"only equal weights meet the floor, and a cap of "
                                f"{upper.min():.6g} < 1/{n} excludes them", last=np.array(upper))
    return _gate(np.full(n, 1.0 / n))


def _run_split(what, problem, x0, cfg):
    """Run a model's ADMM split from x0 (y at K x0); returns (answer, report).

    The answer is the polished point when the polish hook ended the
    solve, otherwise the first block's y once ADMM has converged.  A
    diverged solve raises Diverged and any other unconverged end
    MaxIterExceeded, both with that y as ``last``.
    """
    x, y, report = admm_solve(problem, x0, cfg=cfg)
    if report.polished:
        return x, report
    y = y[:x.size]
    if report.status == DIVERGED:
        raise Diverged(f"{what} diverged after {report.iterations} iterations",
                       last=y, report=report)
    if not report.converged:
        raise MaxIterExceeded(f"{what} did not converge", last=y, report=report)
    return y, report


def _mean_diagonal(quad):
    """The mean of Q's diagonal, the first penalty of a model split whose Q
    has the PenaltyFactor ``quad``."""
    return float(np.mean(quad.q.diagonal()))


def _polish_first(quad, cfg, prox, polish):
    """The point ``polish`` certifies at the first iterate of the one-block
    plane split of ``_plane_admm`` on ``quad``, ``cfg`` and the y-prox
    ``prox``, before any split is built; None when it certifies none.

    The iterate is admm_solve's iteration 1 from the equal point, the
    ridge step x from 1/n at the first penalty phi0 and y = prox(x), built
    with the split's own expressions, so the split's first polish reads
    the same y bit for bit.  A non-finite x, or a cap of no iteration,
    returns None untried: the split then raises as it would have.
    """
    if cfg is not None and cfg.max_iter < 1:
        return None
    n = quad.q.shape[0]
    phi0 = _mean_diagonal(quad) if cfg is None else cfg.phi0
    x = quad.solve_on_plane(phi0 * np.full(n, 1.0 / n), phi0, np.ones(n), 1.0)
    if not np.all(np.isfinite(x)):
        return None
    return polish(x, prox(x), None)


def _plane_admm(what, quad, blocks, start=None, cfg=None, plane=None, linear=0.0,
                polish=None):
    """min 0.5 x'Qx - linear'x on the plane a'x = 1 plus one y-block per term.

    ``quad`` is the PenaltyFactor of Q, a matrix or a 1-d diagonal: a
    universe's ``factor``, whose cached factors the split reuses, or one
    built for a model's own Q.  The x-prox is the ridge solve
    argmin 0.5 x'(Q + rho I)x - (linear + rho v)'x s.t. a'x = 1, with
    a = ``plane`` (the budget normal 1 by default); ``blocks`` are the
    y-prox builders of the remaining terms, joined by consensus_problem
    (Boyd et al. 2011, sec. 7.1).  ``cfg`` defaults to a penalty at the
    mean of Q's diagonal.  Starts at ``start`` (the equal point 1 / 1'a on
    the plane by default) and returns the first block's y, or the point
    of ``polish`` (the AdmmProblem hook, given the stacked y) when it ends
    the solve.  Raises Diverged when the iterates turn non-finite and
    MaxIterExceeded at the iteration cap, both naming the model ``what``
    and with the first block's y as ``last``.  A 1-d Q needs a ``cfg``.
    """
    n = quad.q.shape[0]
    cfg = cfg or AdmmConfig(phi0=_mean_diagonal(quad), eps=1e-11, max_iter=100000)
    a = np.ones(n) if plane is None else plane
    problem = consensus_problem(
        lambda v, rho: quad.solve_on_plane(linear + rho * v, rho, a, 1.0), blocks, n)
    problem.polish = polish
    x0 = np.full(n, 1.0 / a.sum()) if start is None else start
    return _run_split(what, problem, x0, cfg)[0]


def _herfindahl_polish(cov, upper, radius, accepted):
    """Polish hook of the Herfindahl split: min x'cov x on 1'x = 1,
    0 <= x <= upper, ||x|| <= radius, settled from the box-and-ball block.

    The block ends in the box clip, so its exact zeros Z and caps C are
    qp._settle's first guess over the coordinates; the k names F left are
    free and hold b = 1 - 1'u_C.  The point solver puts x_F = s 1 - H [0; y]
    on the budget plane, s = b / k and H the Householder reflection taking
    1 to -sqrt(k) e_1, so ||x_F||^2 = b s + ||y||^2 and y solves a plain
    ridge (M + lam I) y = z, M the trailing block of H cov_FF H, on M's
    range: y has no part along an eigenvector whose eigenvalue is at most
    1e-12 max diag cov_FF (z has none there, as cov is PSD).  The ball
    multiplier lam >= 0 is the root ``_secular_root`` finds in M's
    eigenbasis, or inf when b s alone fills the ball: x_F is then the
    equal share, and the multipliers over lam are x - s.  Otherwise they
    are cov x + lam x - nu 1, nu the mean of cov x + lam x over F.  A
    settled point in the ball is kept and its lam written to
    ``accepted[0]``; otherwise the hook returns None and ADMM goes on.
    A settled point depends on the first guess alone, so the hook keeps
    the guesses it rejected and returns None at once when one shows
    again: the start ``gmv_herfindahl`` polishes before its split and
    the split's iteration 1 read the same y.
    """
    r2 = radius * radius
    lam_of = [None]  # the ball multiplier of the last point solved
    rejected = set()  # the first guesses that settled to no point in the ball

    def solve(zero, cap):
        free = ~(zero | cap)
        idx = np.flatnonzero(free)
        k = idx.size
        if not k:
            return None  # a vertex of the box leaves the multipliers to ADMM
        u_cap = upper[cap]
        budget = 1.0 - u_cap.sum()
        share = budget / k
        point = np.zeros(upper.size)
        point[cap] = u_cap
        point[idx] = share
        # what the ball leaves to y once the equal share holds the budget
        room = r2 - u_cap.dot(u_cap) - budget * share
        if room <= 0.0:  # only the equal share, the limit lam -> inf, meets the ball
            lam_of[0] = np.inf
            return point, point, point - share, 0.0
        # x_F = share 1 - H [0; y], H = I - beta v v' the reflection with
        # v = 1 + sqrt(k) e_1 that maps 1 to -sqrt(k) e_1; v's tail is 1
        v = np.ones(k)
        v[0] += np.sqrt(k)
        beta = 2.0 / v.dot(v)
        c_ff = cov.take(idx, 0).take(idx, 1)
        p = c_ff.dot(v)
        t = beta * p[1:] - 0.5 * beta * beta * v.dot(p)  # H c_ff H = c_ff - v t' - t v'
        reduced = c_ff[1:, 1:] - t
        reduced -= t[:, None]
        q = cov.dot(point)[idx]  # the free names' gradient at the equal share
        eig, vecs = np.linalg.eigh(reduced)
        keep = eig > 1e-12 * c_ff.diagonal().max()  # y has no part along a null direction
        # (reduced + lam I) y = the tail of H q, ||y||^2 = room where the ball binds
        w = vecs.T.dot(q[1:] - beta * v.dot(q))
        d = np.divide(1.0, eig, out=np.zeros_like(eig), where=keep)
        lam = _secular_root(w * w * d * d / room, d)
        lam_of[0] = lam
        y = np.zeros(k)  # [0; y]
        y[1:] = vecs.dot(np.divide(w, eig + lam, out=np.zeros_like(w), where=keep))
        point[idx] = share - y + beta * y.sum() * v  # share 1 - H [0; y]
        grad = cov.dot(point) + lam * point
        return point, point, grad - grad[idx].sum() / k, POLISH_TOL * float(np.max(np.abs(grad)))

    def polish(x, y, dual):
        zero, cap = y <= 0.0, y >= upper
        guess = zero.tobytes() + cap.tobytes()
        if guess in rejected:
            return None  # settled from this guess before, to no point
        point = _settle(solve, np.zeros_like(upper), upper, zero, cap)
        if point is None or point.dot(point) > r2 * (1.0 + POLISH_TOL):
            rejected.add(guess)
            return None
        accepted[0] = lam_of[0]
        return point

    return polish


def _smooth_polish(parts, hessian, plane, rows, rhs, lower=None):
    """The polish hook of a split whose one smooth convex constraint is g(x) <= 0.

    The problem is min f(x) s.t. g(x) <= 0, E x = e (``plane``, the pair
    (E, e)), ``rows`` x <= ``rhs`` and x >= ``lower``, a vector whose
    -inf entries leave their names unbounded below.  With ``lower`` None a
    log term keeps x > 0, and Newton runs on ln x, where those terms are
    nearly linear.  ``parts(x)`` returns (grad f, g, grad g) and
    ``hessian(x, kappa)`` the n x n Hessian of f + kappa g.  The hook
    takes a start point, its support S (x pinned at ``lower`` elsewhere,
    so S holds every name whose bound is -inf) and the mask of active
    rows, qp._settle's first guess over [E x; R x; g; x] with g binding.
    The point solver is ``_newton_kkt`` on the guess's KKT system,
        grad f + kappa grad g + E'nu + R'm = 0 on S,  g(x) = 0 if g binds,
        E x = e,  R x = r  (R, r the active rows),
    from the last Newton point and least-squares multipliers (OSQP's
    solution polishing, Stellato et al. 2020, sec. 4, carried to a smooth
    constraint), to the residual POLISH_TOL max(1, ||grad f||_inf), which
    is also the sign slack.  None, when Newton fails or the rounds run
    out, lets ADMM go on.
    """
    e_rows, e_rhs = plane
    n, n_eq, k = e_rows.shape[1], e_rhs.size, rhs.size
    floor = np.full(n, -np.inf) if lower is None else lower
    lo = np.concatenate([e_rhs, np.full(k + 1, -np.inf), floor])
    hi = np.concatenate([e_rhs, rhs, [0.0], np.full(n, np.inf)])
    last = [None]  # the last Newton point, where the next solve starts

    def solve(at_lo, at_hi):
        support, active, bound = ~at_lo[-n:], at_hi[n_eq:n_eq + k], at_hi[n_eq + k]
        x = np.where(support, last[0], floor)
        lin = np.vstack([e_rows, rows[active]])
        # the pinned names' share of the rows, 0 when the bound is 0
        target = np.concatenate([e_rhs, rhs[active]]) - lin[:, ~support] @ x[~support]
        sub = lin[:, support]
        s = int(support.sum())

        def full(z):
            if lower is None:
                return np.exp(z[:s])  # the support is every name
            out = lower.copy()
            out[support] = z[:s]
            return out

        def system(point):
            """(grad f, constraint gradients on S, constraint values) at a point."""
            grad_f, g, grad_g = parts(point)
            values = sub @ point[support] - target
            if bound:
                return grad_f, np.vstack([sub, grad_g[support]]), np.append(values, g)
            return grad_f, sub, values

        def residual(z):
            grad_f, grads, values = system(full(z))
            return np.concatenate([grad_f[support] + grads.T @ z[s:], values])

        def jacobian(z):
            point = full(z)
            grads = system(point)[1]
            h = hessian(point, z[-1] if bound else 0.0)
            jac = np.zeros((z.size,) * 2)
            jac[:s, :s] = h if support.all() else h[np.ix_(support, support)]
            jac[:s, s:] = grads.T
            jac[s:, :s] = grads
            if lower is None:
                jac[:, :s] *= point  # d x / d ln x
            return jac

        grad_f, grads, _ = system(x)
        fit, *_ = np.linalg.lstsq(grads.T, -grad_f[support], rcond=None)
        tol = POLISH_TOL * max(1.0, float(np.max(np.abs(grad_f))))
        start = np.log(x) if lower is None else x[support]
        z = _newton_kkt(residual, jacobian, np.concatenate([start, fit]), tol)
        if z is None:
            return None
        x = last[0] = full(z)
        grad_f, g, grad_g = parts(x)
        kappa = z[-1] if bound else 0.0
        mult = np.zeros(lo.size)  # z[s:] = (nu, m, kappa) on the active [E; R; g]
        mult[:-n][(at_lo | at_hi)[:-n]] = -z[s:]
        mult[-n:] = grad_f + kappa * grad_g + lin.T @ z[s:s + lin.shape[0]]
        return x, np.concatenate([e_rows @ x, rows @ x, [g], x]), mult, tol

    def polish(start, support, active):
        if not support.any() or lower is None and not (support.all() and np.all(start > 0.0)):
            return None
        last[0] = start
        at_lo = np.concatenate([np.zeros(n_eq + k + 1, dtype=bool), ~support])
        at_hi = np.concatenate([np.zeros(n_eq, dtype=bool), active, [True],  # g binds
                                np.zeros(n, dtype=bool)])
        return _settle(solve, lo, hi, at_lo, at_hi)

    return polish


def _active_rows(rows, duals):
    """The half-space rows c_i'x <= d_i guessed active from the duals of their
    consensus blocks (stacked in ``duals``): at a solution a block's dual is
    its multiplier times c_i, so the rows with c_i'dual_i > 0 bind."""
    products = np.einsum("ij,ij->i", rows, duals.reshape(rows.shape))
    return products > POLISH_TOL * np.max(np.abs(duals), initial=0.0)


def gmv_herfindahl(universe, upper=None, min_bets=1.0, method="admm", cfg=None):
    """Long-only minimum variance with an effective-bets floor.

    Returns (weights, lam), lam the ball's KKT multiplier (the published
    ridge row's lam*: the weights also minimize x'(cov + lam I)x on the
    budget and box).  One ADMM split, with a Dykstra sweep over the ball
    and the box as its y-update, ends at the polish of
    ``_herfindahl_polish`` (OSQP's solution polishing, Stellato et al.
    2020), which reports lam: 0 where the floor is slack, as a floor of
    at most 1 bet is (||x||_2 <= ||x||_1 = 1); NaN if ADMM ends
    unpolished.  The polish runs first on the split's own first iterate
    (``_polish_first``), and the split is built only when that fails.
    Caps above 1, inf included, are 1, the most a long-only budget
    portfolio holds.  The most bets the caps admit is 1/||x||^2 at
    x = min(upper, t), the budget portfolio nearest 0: a floor above it
    raises InfeasibleTargets with x as ``last``, and one within 1e-9
    returns x with lam = inf, as a floor of n bets returns equal weights.
    Caps summing to 1 are the one budget portfolio, returned before any
    split with lam = 0 when the floor is slack.  Caps summing below 1, or
    below 1/n at a floor of n bets, raise InfeasibleTargets.  ``method``
    accepts "admm" only.
    """
    if method != "admm":
        raise ValueError(f"unknown method {method!r}: the Herfindahl split is the one solver")
    n = universe.n
    upper_vec = np.minimum(as_bound(upper, 1.0, n, "upper"), 1.0)
    _check_caps(upper_vec)
    if min_bets > n + 1e-9:
        raise UnreachableDiversification(f"cannot reach {min_bets} bets with {n} assets")
    if min_bets >= n - 1e-9:
        return _equal_weights(upper_vec), np.inf
    spare = upper_vec.sum() - 1.0
    # caps of at least 1/n summing above 1 leave 1/n, n bets, nearest 0
    if spare <= CAP_SLACK or upper_vec.min() < 1.0 / n:
        widest = np.minimum(upper_vec, threshold_sum_root(upper_vec, spare)) \
            if spare > CAP_SLACK else np.array(upper_vec)
        most = effective_bets(widest)
        if min_bets > most + 1e-9:
            raise InfeasibleTargets(f"the caps admit at most {most:.10g} effective bets "
                                    f"< {min_bets}", last=widest)
        if min_bets >= most - 1e-9:
            return _gate(widest), np.inf
        if spare <= CAP_SLACK:  # the caps are the one budget portfolio
            return _gate(widest), 0.0

    radius = np.sqrt(1.0 / min_bets)
    dykstra_cfg = DykstraConfig(tol=1e-12)
    ops = [projector(LpBall(2, np.zeros(n), radius), n),
           projector(Box(np.zeros(n), upper_vec), n)]
    # v is the first ridge step or the ADMM iterate x_hat + u, both found finite
    projection = lambda v: dykstra_cycle(ops, v, dykstra_cfg, check=False)[0]
    accepted = [np.nan]  # the ball multiplier of the polished point
    polish = _herfindahl_polish(universe.cov, upper_vec, radius, accepted)
    w = _polish_first(universe.factor, cfg, projection, polish)
    if w is None:
        w = _plane_admm("gmv_herfindahl ADMM", universe.factor, [lambda phi: projection],
                        cfg=cfg, polish=polish)
    return _gate(w), 0.0 if min_bets <= 1.0 else accepted[0]


def _entropy_root(point, floor):
    """point(theta)[1] at the root theta >= 0 of point(theta)[0] = floor.

    point(theta) = (entropy, x), the entropy rising with the multiplier
    theta.  theta_hi grows by 4 from 1 to bracket the floor on
    [1e-13, theta_hi], and ``bisect`` runs on the bracket.  The cache
    hands bisect the bracket's upper end and returns the root's x, both
    already evaluated.  Every root starts from this cold bracket: an
    entropy y-block finds only 1-3 roots a solve, since the clipped
    iterate usually meets the floor, and over the sweep's 10 entropy
    roots a bracket around the last root took 91 point evaluations
    against this one's 90.
    """
    entropy_at = functools.cache(point)
    hi = 1.0
    while entropy_at(hi)[0] < floor:
        hi *= 4.0
        if hi > 1e12:
            raise UnreachableDiversification(f"entropy floor {floor} unreachable")
    gap = lambda t: entropy_at(t)[0] - floor
    return entropy_at(bisect(gap, RootBracket(1e-13, hi, tol=1e-14, max_iter=300)))[1]


def _entropy_floor_projection(v, floor, lower, upper):
    """Euclidean projection onto {x in box : -sum x ln x >= floor}.

    The dual problem is coordinate-separable: for a multiplier theta >= 0
    on the entropy term the unique scalar stationary point is
    x_i(theta) = theta W(exp(v_i/theta - 1 - ln theta)), clipped into the
    box (exact, because the scalar objective stays strictly convex).
    theta is then found on the entropy of the clipped path, so the whole
    box-and-entropy intersection costs one scalar root find.  v is an
    ADMM iterate, already checked finite by the loop, so nothing on this
    path revalidates it.
    """
    clipped = np.clip(v, lower, upper)
    if _entropy(clipped) >= floor:
        return clipped

    def point(theta):
        x = np.clip(theta * lambert_w_exp(v / theta - 1.0 - np.log(theta)), lower, upper)
        return _entropy(x), x

    return _entropy_root(point, floor)


def _entropy_cone_projection(v, floor):
    """Euclidean projection onto the cone {y >= 0 : H(y / 1'y) >= floor}.

    Stationarity with g(y) = sum_i y_i ln(y_i / s) + floor s, s = 1'y, and a
    multiplier theta gives y = theta W(exp(b + a)) for b = v / theta - floor
    and a = ln(s / theta), the root of f(a) = ln sum_i W(exp(b_i + a)) - a.
    f falls with slope sum_i (w_i / (1 + w_i)) / sum_i w_i - 1 in (-1, 0), so
    a + f(a) bounds the root on the side f(a) points to, and Newton steps
    that leave the bounds take the midpoint.  Below a = -40 - max b, f is the
    constant LSE(b): a root exists only for LSE(b) > 0.  Elsewhere the s -> 0
    limit y / s = softmax(b) keeps the entropy continuous in theta, and a
    floor met there puts v in the polar cone, whose projection is 0.  Each
    Newton run in a starts from the s of the last theta evaluated, which
    over the sweep's entropy cases takes 225 Lambert-W evaluations
    against 241 from a = ln(1'max(v, 0) / theta).
    """
    y = np.maximum(v, 0.0)
    if not y.any() or _entropy(y / y.sum()) >= floor:
        return y
    warm = [y.sum()]  # s at the last theta, the start of the next root in a

    def point(theta):
        b = v / theta - floor
        p = np.exp(b - b.max())
        if b.max() + np.log(p.sum()) <= 0.0:
            return _entropy(p / p.sum()), np.zeros_like(v)
        lo, hi = -40.0 - b.max(), np.inf
        a = max(np.log(warm[0] / theta), lo)
        tol = 1e-14 * max(1.0, abs(a))
        for _ in range(100):
            w = lambert_w_exp(b + a)
            f = np.log(w.sum()) - a
            lo, hi = (a + f, hi) if f > 0 else (lo, a + f)
            if abs(f) <= tol or hi - lo <= tol:
                break
            a -= f / (np.sum(w / (1.0 + w)) / w.sum() - 1.0)
            if not lo <= a <= hi:  # only with a finite hi
                a = 0.5 * (lo + hi)
        warm[0] = theta * w.sum()
        return _entropy(w / w.sum()), theta * w

    return _entropy_root(point, floor)


def _equal_weight_entropy(floor, n):
    """True for an entropy floor of ln n, met by equal weights only; raises above it."""
    if floor > np.log(n) + 1e-9:
        raise UnreachableDiversification(f"entropy floor {floor} > ln n")
    return floor >= np.log(n) - 1e-9


def gmv_diversified(universe, upper=None, constraint=None, cfg=None):
    """Minimum variance under a weight-diversification floor.

    EffectiveBets floors reuse the Herfindahl ball split and its polish;
    Shannon-entropy floors put the entropy super-level set into the
    y-update next to the box, and ``_smooth_polish`` ends the split: on
    the caps the y-block shows, Newton on Sigma w + theta (ln w + 1) -
    nu 1 = 0, 1'w = 1, H(w) = h, with theta >= 0 and the caps held at u.
    A floor of n bets or ln n admits equal weights only, which it returns
    directly.  Caps summing below 1, or below 1/n at such a floor, raise
    InfeasibleTargets.
    """
    n = universe.n
    upper_vec = as_bound(upper, 1.0, n, "upper")
    _check_caps(upper_vec)
    if constraint is None:
        w = _solve_budget_qp(universe.factor, np.zeros(n), lower=np.zeros(n),
                             upper=upper_vec, cfg=cfg)
        return _gate(w)
    if isinstance(constraint, EffectiveBets):
        w, _ = gmv_herfindahl(universe, upper_vec, constraint.minimum, cfg=cfg)
        return w
    if isinstance(constraint, ShannonEntropyFloor):
        floor = constraint.minimum
        if _equal_weight_entropy(floor, n):
            return _equal_weights(upper_vec)

        def projection(t):
            return _entropy_floor_projection(t, floor, np.zeros(n), upper_vec)

        cov, capped = universe.cov, upper_vec < 1.0

        def parts(x):  # g = floor - H(x)
            log_x = np.log(x)
            return cov @ x, floor + x @ log_x, log_x + 1.0

        smooth = _smooth_polish(parts, lambda x, theta: cov + np.diag(theta / x),
                                (np.ones((1, n)), np.ones(1)), np.eye(n)[capped],
                                upper_vec[capped])
        polish = lambda x, y, dual: smooth(y, y > 0.0, y[capped] >= upper_vec[capped])
        return _gate(_plane_admm("gmv_diversified ADMM", universe.factor, [lambda phi: projection],
                                 cfg=cfg, polish=polish))
    raise TypeError(f"unknown diversification constraint {constraint!r}")


def rebalance_penalized(universe, current, cost_scale=0.0, bid_cost=0.0,
                        ask_cost=0.0, turnover_cap=None, upper=None, cfg=None):
    """Minimum variance shaped by trading frictions around current holdings.

    min 0.5 x'Cx + cost_scale sum_i (bid_i (c_i - x_i)_+ + ask_i (x_i - c_i)_+)
    s.t. 1'x = 1, 0 <= x <= upper, ||x - c||_1 <= turnover_cap, for the
    holdings c.  Consensus ADMM with one y-block per term (the box, the
    l1-ball of the cap around c, the bid/ask prox of the costs: a no-trade
    band around c), ended by the trade-pattern polish ``_trade_polish``.
    A negative cap raises ValueError, and one below the l1 distance from c
    to the long-only budget set, sum |c - clip(c)| + |1 - sum clip(c)| with
    clip into [0, upper], raises InfeasibleTargets before the loop, with
    clip(c) as ``last``; a cap of 0 that meets it returns the holdings.
    A cost_scale <= 0 charges no costs; a negative scaled cost raises
    NegativeCost.
    """
    n = universe.n
    current = _asset_vector(current, n, "current")
    scale = max(cost_scale, 0.0)
    bid = scale * per_coordinate(bid_cost, n, "bid cost")
    ask = scale * per_coordinate(ask_cost, n, "ask cost")
    if np.any(bid < 0) or np.any(ask < 0):
        raise NegativeCost("transaction costs must be nonnegative")
    return _rebalance_split(universe, current, turnover_cap, upper, 0.0 * current, bid, ask, cfg)


def _rebalance_split(universe, current, turnover_cap, upper, linear, bid, ask, cfg):
    """Body of rebalance_penalized and mvo_turnover: min 0.5 x'Cx - linear'x
    plus the scaled costs bid'(c - x)_+ + ask'(x - c)_+ on the budget plane,
    with a box block [0, upper], the l1 turnover ball around ``current``
    (when a cap is given) and the bid/ask block (when a cost is nonzero),
    in that order, ended by ``_trade_polish``."""
    n = universe.n
    upper_vec = as_bound(upper, 1.0, n, "upper")
    blocks = [_projection(Box(np.zeros(n), upper_vec), n)]
    if turnover_cap is not None:
        if turnover_cap < 0:
            raise ValueError("turnover_cap must be nonnegative")
        clipped = np.clip(current, 0.0, upper_vec)
        needed = float(np.sum(np.abs(current - clipped)) + abs(1.0 - clipped.sum()))
        if turnover_cap == 0 and needed <= CAP_SLACK:
            return _gate(current)  # nothing trades, and the holdings meet the box and budget
        if turnover_cap < needed:
            raise InfeasibleTargets(f"turnover cap {turnover_cap} below the {needed:.6g} "
                                    "needed to reach a long-only budget portfolio",
                                    last=clipped)
        blocks.append(_projection(LpBall(1, current, float(turnover_cap)), n))
    if np.any(bid) or np.any(ask):
        blocks.append(lambda phi: lambda t: _prox_bid_ask(t, 1.0 / phi, bid, ask, current))
    polish = _trade_polish(universe.cov, linear, current, upper_vec, turnover_cap, bid, ask)
    return _gate(_plane_admm("rebalancing ADMM", universe.factor, blocks, start=current, cfg=cfg,
                             linear=linear, polish=polish))


def _trade_polish(cov, linear, current, upper, cap, bid, ask):
    """Polish hook of the rebalancing split: the exact optimum of
    min 0.5 x'cov x - linear'x + sum_i (bid_i (c_i - x_i)_+ + ask_i (x_i - c_i)_+)
    s.t. 1'x = 1, 0 <= x <= upper, ||x - c||_1 <= cap (no cap when None),
    for the holdings c = ``current`` and the scaled costs ``bid``, ``ask``.

    In trade variables x = c + b - s, buys b >= 0 and sells s >= 0, the
    kinks at c are bounds, and qp._settle settles the entries [budget row
    1'x = 1; turnover row 1'(b + s) <= cap, when a cap is given; x in
    [0, upper]; b >= 0; s >= 0] from the guess of the y-blocks' exact
    outputs: held (b = s = 0) where the ball or bid/ask block returns c
    and c is in the box, else zero or cap from the box clip, else bought
    or sold by the sign of the box block's y - c; the row binds when the
    ball block's y lies on its sphere.  The point solver pins x at an
    active bound, holds a name whose b and s are active, and trades the
    rest the way its free trade variable points (the guess's way when
    both are); a name without a cost, while the row is inactive, trades
    freely.  The traded names T solve one equality QP
    (qp._solve_equality_qp; OSQP's solution polishing, Stellato et al.
    2020, sec. 4):
        cov_TT x_T - nu 1 + theta s_T = linear_T - cov_TP x_P - cost_T,
        1'x_T = 1 - 1'x_P,  s_T'(x_T - c_T) = cap - ||x_P - c_P||_1,
    s_T the ways, cost_T ask on buys and -bid on sells, and the turnover
    row only while it binds.  b and s are read from the point; a trade
    that crosses c reads as held on x.  With h = cov x - linear - nu the
    multipliers are nu and -theta on the rows, mu_b = h + ask + theta - mu_x
    and mu_s = bid + theta - h + mu_x, mu_x being 0 on a free x and, at a
    bound, h - bid - theta where the name sold to it or holds its cap,
    else h + ask + theta.  When every traded name trades one way s, the
    turnover row is s times the budget row: it is dropped, and theta is
    the least value >= 0 the active signs admit; over the cap, or under it
    with that theta > 0, the sign that blocks theta first is reported
    wrong.  None when no name trades or the polish fails: ADMM goes on.
    """
    n, rows = current.size, 1 if cap is None else 2  # the budget row, then the turnover row
    lo = np.concatenate([[1.0, -np.inf][:rows], np.zeros(3 * n)])
    hi = np.concatenate([[1.0, cap][:rows], upper, np.full(2 * n, np.inf)])
    holdable, cost = (current >= 0.0) & (current <= upper), bid + ask > 0.0

    def solve(guess, at_lo, at_hi):
        """(x, entries, multipliers, tol) of the pattern at_lo / at_hi, or None."""
        bind, top = rows == 2 and at_hi[1], at_hi[rows:rows + n]
        x_lo, b_lo, s_lo = at_lo[rows:].reshape(3, n)
        pinned, kink = x_lo | top, cost | bind
        free = ~pinned & ~(kink & b_lo & s_lo)
        if not free.any():
            return None  # a vertex leaves the multipliers to ADMM
        # the way each name trades: 1 buys, -1 sells, 0 with no kink
        way = np.where(kink & free, np.where(b_lo == s_lo, guess, np.where(b_lo, -1.0, 1.0)), 0.0)
        x, s = np.where(top, upper, np.where(pinned, 0.0, current)), way[free]
        one_way = bool(bind and np.all(s == s[0]))
        a, rhs = np.ones((1, s.size)), [1.0 - x[~free].sum()]
        if bind and not one_way:
            a = np.vstack([a, s])
            rhs.append(cap - np.abs(x[~free] - current[~free]).sum() + s @ current[free])
        cov_rows = cov[free]
        r = (linear[free] - cov_rows[:, ~free] @ x[~free]
             - np.where(way > 0, ask, -bid)[free] * abs(s))  # ask on buys, -bid on sells
        try:
            x[free], nu = _solve_equality_qp(cov_rows[:, free], r, a, np.array(rhs))
        except (NotPositiveDefinite, np.linalg.LinAlgError):
            return None
        cx = cov @ x
        tol = POLISH_TOL * (1.0 + float(np.max(np.abs(cx))) + float(np.max(np.abs(linear))))
        h, trade = cx - linear - nu[0], x - current
        buys = np.where(way > 0, trade, np.where(way < 0, 0.0, np.maximum(trade, 0.0)))
        sells = buys - trade
        reads = np.where(np.minimum(buys, sells) < 0.0, current, x)  # a crossing reads held
        entries = np.concatenate([[x.sum(), (buys + sells).sum()][:rows], reads, buys, sells])
        sold = (trade < 0.0) | ((trade == 0.0) & top)
        side = s[0] if one_way else 0.0  # nu = nu[0] + side theta

        def mult(theta):
            buy, sell = h + ask + (1.0 - side) * theta, bid - h + (1.0 + side) * theta
            mu_x = np.where(pinned, np.where(sold, -sell, buy), 0.0)
            return np.concatenate([[nu[0] + side * theta, -theta][:rows], mu_x, buy - mu_x,
                                   sell + mu_x])

        if not one_way:
            return x, entries, mult(-nu[1] if bind else 0.0), tol
        # the active sign tests read base + slope theta >= 0
        sign = np.where(at_lo, 1.0, -1.0) * ((at_lo | at_hi) & (lo != hi))
        base = sign * mult(0.0)
        slope = sign * mult(1.0) - base
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -base / slope
        floors = np.where(slope > 0.0, bound, 0.0)  # the row's test is theta >= 0
        theta, spare = np.max(floors), cap - entries[1]
        if abs(spare) <= POLISH_TOL or (spare > 0.0 and theta <= tol):
            return x, entries, mult(theta), tol
        # over the cap the first sign to block a larger theta, under it the one needing most
        j = np.argmin(np.where(slope < 0.0, bound, np.inf)) if spare < 0.0 else np.argmax(floors)
        wrong = np.where(np.arange(sign.size) == j, -sign, 0.0)
        return (x, entries, wrong, tol) if np.isfinite(bound[j]) else None

    def polish(x, y, dual):
        y = y.reshape(-1, n)
        # the ball's anchors v - (v - c) carry the round-off of v; a holding
        # outside the box is read from the box clip
        held = holdable & np.any(np.abs(y[1:] - current) <= 1e-14, axis=0)
        zero = (y[0] <= 0.0) & ~held
        top = (y[0] >= upper) & ~(zero | held)
        guess = np.where(y[0] > current, 1.0, -1.0)
        bind = cap is not None and np.abs(y[1] - current).sum() >= cap * (1.0 - POLISH_TOL)
        at_lo = np.concatenate([[True, False][:rows], zero, held | (guess < 0), held | (guess > 0)])
        at_hi = np.concatenate([[False, bind][:rows], top, np.zeros(2 * n, dtype=bool)])
        return _settle(functools.partial(solve, guess), lo, hi, at_lo, at_hi)

    return polish


# ---------------------------------------------------------------------------
# risk budgeting
# ---------------------------------------------------------------------------

def _excess_and_scale(universe, measure):
    """(excess returns, scale) of a risk measure; volatility is (0, 1)."""
    if isinstance(measure, Volatility):
        return np.zeros(universe.n), 1.0
    if isinstance(measure, StdevRisk):
        rate = universe.rate if measure.rate is None else measure.rate
        return universe.mu - rate, measure.scale
    raise TypeError(f"unknown risk measure {measure!r}")


def risk_contributions(w, universe, measure=Volatility()):
    """Per-asset risk contributions w_i * d risk / d w_i."""
    w = _asset_vector(w, universe.n, "weights")
    excess, xi = _excess_and_scale(universe, measure)
    cov_w = universe.cov @ w
    return -w * excess + xi * w * cov_w / np.sqrt(w @ cov_w)


def erc(universe, cfg=None, return_report=False):
    """Equal-risk-contribution portfolio: risk budgeting with equal budgets.

    Runs the volatility-measure coordinate update (the zero-excess-return
    special case of the stdev risk measure) through ``risk_budgeting``:
    one simultaneous update of every coordinate, then the Newton-CG polish
    certifies equal risk contributions to 1e-10 relative.  Cyclic sweeps
    with their largest-move stop (single-digit cycles at tol 1e-8) are the
    fallback.  The variance-form update ccd_erc reaches the same rescaled
    weights more slowly.
    """
    return risk_budgeting(universe, np.ones(universe.n), cfg=cfg, return_report=return_report)


def _rb_admm(universe, budgets, measure, lam=1.0, phi=None, tol=1e-10,
             max_iter=100000):
    """ADMM split for the risk-budgeting barrier problem (unscaled).

    The x-update is the prox of the risk term: a ridge solve through the
    universe's ``factor`` for the volatility measure, and for the stdev
    measure the prox of -excess'x + xi sqrt(x'cov x), in closed form up to
    one scalar root.  With cov = V diag(l) V' (the universe's cached
    ``spectrum``, decomposed at most once per universe and read on the
    first x-update) and
    w = V'(phi v + excess), the prox at v is V z, z_k = w_k s / (phi s + xi l_k) where l_k > 0 and
    z_k = w_k / phi where l_k = 0.  s = sqrt(x'cov x) is the root of
    sum_{l_k > 0} l_k w_k^2 / (phi s + xi l_k)^2 = 1 (the trust-region
    secular equation of More & Sorensen 1983), or 0 when that sum is at
    most 1 at s = 0.  The y-update is the catalogue's prox of the barrier
    -lam sum_i b_i ln y_i, called as its unchecked kernel
    ``prox._prox_log_barrier`` on the budgets ``risk_budgeting`` checked,
    with its shift 4 lam b / phi formed once per penalty value.  The
    penalty stays at phi (no residual balancing) and the loop is
    ``admm_solve``'s over-relaxed one.

    With phi left at None (read as 1) the split ends through the CCD
    engine's polish, as OSQP polishes its iterates (Stellato et al. 2020,
    sec. 4): from the start y = 1/n before the first x-update, then at
    iterations 1, 2, 4, ... and on convergence, y takes
    ``cd._rb_simultaneous``'s update at barrier weight lam, the step
    ``ccd_rb_stdev`` makes as its cycle 1, and ``cd._rb_newton`` polishes
    that point; a point it certifies, to 1e-10 relative in every
    RC_i / b_i, ends the solve with report.polished set.  The polish
    usually certifies from the start, before the first x-update, with
    report.iterations = 0: the solve then factors no cov + phi I and
    decomposes no spectrum.  An explicit phi runs the plain split, which
    stops once the primal residual ||x - y|| and the dual residual
    phi ||y - y_prev|| are both at most tol.

    Raises OutOfDomain with ``last`` = y once y's Sharpe ratio
    excess'y / sqrt(y'cov y) reaches xi: the objective then falls
    without bound along t y, as in ccd_rb_stdev.
    """
    n = universe.n
    cov = universe.cov
    variances = np.diag(cov)
    excess, xi = _excess_and_scale(universe, measure)
    if isinstance(measure, Volatility):
        x_update = lambda y, u, phi: universe.factor.solve(phi * (y - u), phi)
    else:
        _check_stdev_scale(excess, xi, variances)

        @functools.cache
        def positive_spectrum():  # read on the first x-update, not before
            eig, vecs = universe.spectrum
            pos = eig > 1e-12 * eig[-1]  # below this, eigh's rounding decides the sign
            return eig[pos], vecs, pos, 1.0 / (xi * eig[pos])

        def x_update(y, u, phi):
            # ndarray.dot: half the call cost of @ on 1-d; y.dot(cov).dot(y) keeps @'s order
            if float(excess.dot(y)) >= xi * float(y.dot(cov).dot(y)) ** 0.5:
                raise OutOfDomain(f"risk-budgeting ADMM: the iterate's Sharpe ratio "
                                  f"reached the stdev scale {xi:.6g}; the objective is "
                                  "unbounded below", last=y.copy())
            eig, vecs, pos, inv_xi_eig = positive_spectrum()
            w = vecs.T @ (phi * (y - u) + excess)
            w_pos = w[pos]
            s = _secular_root(w_pos * w_pos * inv_xi_eig / xi, phi * inv_xi_eig)
            z = w / phi
            z[pos] = w_pos * s / (phi * s + xi * eig)
            return vecs @ z

    def y_prox(phi):
        shift = 4.0 * lam / phi * budgets
        return lambda v: _prox_log_barrier(v, shift)

    x0 = np.full(n, 1.0 / n)
    polish = None
    if phi is None:
        newton = _rb_newton(excess, xi, cov, budgets)

        def polish(x, y, dual):
            cov_y = cov.dot(y)
            start = _rb_simultaneous(y, cov_y, float(y.dot(cov_y)), excess, xi, variances,
                                     budgets, lam)
            # infinite budgets give a non-finite start; the split reports them as diverged
            return newton(start) if np.isfinite(start).all() else None

        finished = polish(x0, x0, None)
        if finished is not None:
            return finished, SolverReport(polished=True)

    cfg = AdmmConfig(phi0=1.0 if phi is None else phi, adaptive=False, eps=tol, max_iter=max_iter)
    return _run_split("risk-budgeting ADMM", AdmmProblem(x_update=x_update, y_prox=y_prox,
                                                         polish=polish), x0, cfg)


def risk_budgeting(universe, budgets, measure=Volatility(), engine="ccd",
                   cfg=None, return_report=False, **admm_kwargs):
    """Portfolio whose risk contributions match the prescribed budgets.

    The "ccd" engine runs ``ccd_rb_stdev`` (Griveau-Billion, Richard &
    Roncalli 2013) and tries its Newton-CG polish on the barrier form
    (Spinu 2013) after cycles 1, 2, 4, ... and at convergence; a polished
    answer meets RC_i / b_i = lam to 1e-10 relative in every asset.  The
    first cycle moves every coordinate at once and the polish usually
    ends the solve from there, so most solves run no per-coordinate
    sweep.  The "admm" engine runs the split of ``_rb_admm``
    (``admm_kwargs`` are its options).  At its default penalty it ends
    through the same polish, started from the same simultaneous update
    of its iterate y, and usually before the first x-update; an explicit
    ``phi`` runs the plain split to its residual tolerance.  ``cfg`` goes
    to the ccd engine and ``admm_kwargs`` to the admm engine only: an
    option the chosen engine does not take raises TypeError.  Either way
    ``report.stationarity_residual`` is the relative spread
    (max - min) / |mean| of RC_i / b_i at the returned weights.  Below
    the long-only maximum Sharpe ratio the stdev objective is unbounded
    below, and both engines raise OutOfDomain once the scale is under the
    best single-asset ratio or an iterate's Sharpe ratio reaches it.
    Budgets must be positive (NonPositiveWeight) and, once normalized, at
    least RB_BUDGET_FLOOR = 1e-12 (OutOfDomain before any cycle): below it
    the positive-root start of both engines rounds a weight to 0
    (``cd._normalized_budgets``).
    """
    budgets = _normalized_budgets(_asset_vector(budgets, universe.n, "budgets"))
    if engine == "ccd":
        if admm_kwargs:
            raise TypeError(f"risk_budgeting: the ccd engine takes no option "
                            f"{next(iter(admm_kwargs))!r}")
        excess, xi = _excess_and_scale(universe, measure)
        # the universe checked cov and its positive diagonal, and the lines above the budgets
        x, report = ccd_rb_stdev(excess, 0.0, xi, universe.cov, budgets, cfg=cfg,
                                 return_report=True, polish=True, check=False)
    elif engine == "admm":
        if cfg is not None:
            raise TypeError("risk_budgeting: the admm engine takes no option 'cfg'")
        x, report = _rb_admm(universe, budgets, measure, **admm_kwargs)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    w = _gate(x / x.sum())
    ratio = risk_contributions(w, universe, measure) / budgets
    report.stationarity_residual = float((ratio.max() - ratio.min()) / abs(ratio.mean()))
    return (w, report) if return_report else w


# ---------------------------------------------------------------------------
# most diversified portfolio
# ---------------------------------------------------------------------------

def mdp(universe, long_only=True, constraint=None, upper=None, cfg=None):
    """Most diversified portfolio: maximize w'sigma / sqrt(w'Cw) on 1'w = 1.

    The ratio ignores scale, so w = y / 1'y with y = argmin y'Cy s.t.
    sigma'y = 1 over the same cone of directions (Choueifaty & Coignard
    2008), where a cap u_i < 1 is the row y_i - u_i 1'y <= 0.
    Long/short: w = z / 1'z with z = C^-1 sigma, and OutOfDomain when
    1'z <= 0, as the ratio then has no maximum on the budget plane.
    Long-only without a floor: one QP over y >= 0 and the cap rows,
    polished on the QP bridge (``cfg`` its AdmmConfig).  With a floor: a
    consensus split on sigma'y = 1 with one half-space block per cap row
    and y-blocks for the orthant and an effective-bets floor N (the cone
    sqrt(N) ||y|| <= 1'y), or for an entropy floor h the one cone
    {y >= 0 : H(y / 1'y) >= h} (``_entropy_cone_projection``), which lies
    in the orthant already.  The floor's split ends through
    ``_smooth_polish``: Newton on Sigma y + kappa grad g = nu sigma,
    sigma'y = 1, g(y) = 0 on the support of the first block, with the cap
    rows whose blocks carry a multiplier as equalities; g is the cone
    sqrt(N) ||y|| - 1'y or sum y ln(y / 1'y) + h 1'y.  A floor of n bets or
    ln n returns equal weights directly, and raises InfeasibleTargets when
    a cap is below 1/n.
    """
    n = universe.n
    cov, sigma = universe.cov, universe.sigma
    if not long_only:
        if constraint is not None:
            raise ValueError("diversification floors need long_only=True")
        z = universe.factor.solve(sigma)
        if z.sum() <= 0:
            raise OutOfDomain(f"1'cov^-1 sigma = {z.sum():.3g} <= 0: the long/short "
                              "diversification ratio has no maximum on the budget plane")
        return PortfolioWeights(z / z.sum())

    upper_vec = as_bound(upper, 1.0, n, "upper")
    _check_caps(upper_vec)
    caps = (np.eye(n) - upper_vec[:, None])[upper_vec < 1]  # the rows e_i' - u_i 1'
    if constraint is None:
        problem = QpProblem(q=universe.factor, r=np.zeros(n), a=sigma[None, :], b=np.ones(1),
                            c=caps, d=np.zeros(len(caps)), lower=np.zeros(n))
        y, _ = _Bridge(problem, cfg).solve()
        return _gate(y / y.sum())
    if isinstance(constraint, ShannonEntropyFloor):
        floor = constraint.minimum
        if _equal_weight_entropy(floor, n):
            return _equal_weights(upper_vec)
        cone = lambda v: _entropy_cone_projection(v, floor)
        blocks = [lambda phi: cone]  # the cone lies in the orthant: no orthant block

        def parts(y):  # g = sum y ln(y / s) + floor s, s = 1'y
            log_share = np.log(y / y.sum())
            return cov @ y, y @ log_share + floor * y.sum(), log_share + floor

        hessian = lambda y, kappa: cov + kappa * (np.diag(1.0 / y) - 1.0 / y.sum())
    elif isinstance(constraint, EffectiveBets):
        floor = constraint.minimum
        blocks = [_projection(Box(0.0, np.inf), n),
                  _projection(EffectiveBetsCone(floor), n)]
        if floor >= n - 1e-9:  # the cone has checked bets <= n
            return _equal_weights(upper_vec)

        root_n = np.sqrt(floor)

        def parts(y):  # g = sqrt(N) ||y|| - 1'y, convex
            norm = np.sqrt(y @ y)
            return cov @ y, root_n * norm - y.sum(), root_n * y / norm - 1.0

        def hessian(y, kappa):
            norm = np.sqrt(y @ y)
            return cov + kappa * root_n / norm * (np.eye(n) - np.outer(y, y) / (norm * norm))
    else:
        raise TypeError(f"unknown diversification constraint {constraint!r}")
    lead = len(blocks) * n  # the cap blocks follow the floor's blocks
    blocks += [_projection(Halfspace(row, 0.0), n) for row in caps]
    smooth = _smooth_polish(parts, hessian, (sigma[None, :], np.ones(1)), caps,
                            np.zeros(len(caps)),
                            np.zeros(n) if isinstance(constraint, EffectiveBets) else None)
    polish = lambda x, y, dual: smooth(y[:n], y[:n] > 0.0, _active_rows(caps, dual[lead:]))
    y = _plane_admm("mdp ADMM", universe.factor, blocks, cfg=cfg, plane=sigma, polish=polish)
    return _gate(y / y.sum())


# ---------------------------------------------------------------------------
# entropy portfolios
# ---------------------------------------------------------------------------

def _volatility_ball_projection(spectrum, radius):
    """Euclidean projection onto the ellipsoid {x : x' cov x <= radius^2}.

    Returns the projection as a function of v.  With ``spectrum`` the pair
    (lam, V) of cov = V diag(lam) V' and w = V'v, the projection of an
    outside v is V (w / (1 + theta lam)) at the root theta of
    sum_i lam_i w_i^2 / (1 + theta lam_i)^2 = radius^2, found by
    ``_secular_root``.  cov is not decomposed here: the caller passes its
    universe's cached ``spectrum``.
    """
    lam, vecs = spectrum
    lam = np.maximum(lam, 0.0)
    r2 = float(radius) ** 2

    def project_onto(v):
        w = vecs.T @ v
        lw2 = lam * w * w
        if float(np.sum(lw2)) <= r2:
            return v.copy()
        return vecs @ (w / (1.0 + _secular_root(lw2 / r2, lam) * lam))

    return project_onto


def _kl_tilt(mu, reference, target):
    """argmin KL(w | reference) on the budget plane with mu'w >= target.

    The minimum-relative-entropy tilt of entropy pooling (Meucci 2008):
    w(lam) = softmax(ln ref + lam (mu - max mu)), with lam = 0 when the
    target does not bind and otherwise the root of mu'w(lam) = target,
    which increases in lam.  The root is found in units of the spread of
    mu on an expanding bracket, as the root of ln gap(lam) = ln gap(target),
    gap = (max mu - mu'w) / spread: near the top return mu'w saturates as
    the tilt piles onto the best assets, and regula falsi on it stalls,
    while ln gap stays nearly linear in lam.  A target at max mu has no
    finite root: its answer is the limit, the best assets in proportion
    to ref.
    """
    w = reference / reference.sum()
    top = float(np.max(mu))
    spread = top - float(np.min(mu))
    if target is None or spread == 0.0 or target <= mu @ w:
        return w
    if target >= top:
        best = np.where(mu == top, reference, 0.0)
        return best / best.sum()
    d = (top - mu) / spread
    goal = (top - target) / spread
    log_goal = np.log(goal)
    log_ref = np.log(reference)

    def tilt(lam):
        z = log_ref - lam * d
        e = np.exp(z - z.max())
        return e / e.sum()

    lam_hi = 1.0
    while tilt(lam_hi) @ d > goal:
        lam_hi *= 4.0
    lam = bisect(lambda t: log_goal - np.log(tilt(t) @ d), RootBracket(0.0, lam_hi, tol=1e-14))
    return tilt(lam)


def kl_portfolio(universe, reference, target_return=None, max_volatility=None,
                 cfg=None):
    """Minimize KL(w | reference) under the budget and return/vol targets.

    The answer starts as the closed-form exponential tilt of the reference
    toward mu (``_kl_tilt``), one scalar root when the return target
    binds.  Without a volatility cap, or with one that the tilt meets, the
    tilt is the answer, since it solves the problem without the cap, and
    ``cfg`` is unused.  A return target above the largest expected return
    raises InfeasibleTargets with that asset as ``last``.  A cap that the
    tilt breaks is checked on the long-only critical line
    (``_critical_line``), walked down from the top to the first of the
    cap, the return row and the minimum variance: a cap the walk reaches
    is met, and otherwise the walk ends at the floor, the minimum variance
    over the long-only budget set and the return row; a cap below it
    raises InfeasibleTargets with that portfolio as ``last``.  Otherwise
    the cap binds and the split is consensus ADMM:
    the x-update is the KL prox, and the budget plane, the return
    half-space and the volatility ellipsoid get one y-block each.  The
    long-only box needs no block: the KL prox returns positive weights,
    and the plane caps their sum at 1.  ``_smooth_polish`` ends the split:
    Newton on ln(w / ref) + 1 + kappa cov w / v^2 - nu 1 (- rho mu, when
    the return row's block carries a multiplier) = 0, 1'w = 1,
    w'cov w = v^2 (and mu'w = target), v the cap.  A split that ends
    unconverged raises Diverged or MaxIterExceeded.
    """
    n = universe.n
    reference = _asset_vector(reference, n, "reference")
    if np.any(reference <= 0):
        raise ValueError("reference weights must be positive")
    if target_return is not None:
        best = int(np.argmax(universe.mu))
        if target_return > universe.mu[best]:
            raise InfeasibleTargets(f"return target {target_return} above the largest "
                                    f"expected return {universe.mu[best]:.6g}",
                                    last=np.eye(n)[best])
    tilt = _kl_tilt(universe.mu, reference, target_return)
    if max_volatility is None or np.sqrt(tilt @ universe.cov @ tilt) <= max_volatility:
        return _gate(tilt)
    low, high = np.zeros(n), np.ones(n)
    top = _frontier_top(universe.factor, *_max_return_face(universe.mu, low, high)[1:])
    targets = {"variance": float(max_volatility) ** 2, "return": target_return}  # a tie: the cap
    floor, stop = _critical_line(universe.cov, universe.mu, low, high, top, False,
                                 {k: v for k, v in targets.items() if v is not None})
    floor_vol = float(np.sqrt(floor @ universe.cov @ floor))
    if stop != "variance" and max_volatility < floor_vol - 1e-6:
        raise InfeasibleTargets(f"volatility cap {max_volatility} below the minimum "
                                f"{floor_vol:.6g}", last=floor)
    blocks = [_projection(Hyperplane(np.ones(n), 1.0), n)]
    rows, rhs = np.zeros((0, n)), np.zeros(0)  # the return row, when it can bind
    # at or below the smallest expected return the target is vacuous
    if target_return is not None and target_return > np.min(universe.mu):
        rows, rhs = -universe.mu[None, :], np.array([-float(target_return)])
        blocks.append(_projection(Halfspace(rows[0], rhs[0]), n))
    ball = _volatility_ball_projection(universe.spectrum, max_volatility)
    blocks.append(lambda phi: ball)

    # prox_kl carries the linear term x (1/ref - 1); shifting its input by
    # lam (1/ref - 1) cancels that term, leaving the prox of
    # lam * sum x ln(x / ref), whose minimum sits at the reference
    shift = 1.0 / reference - 1.0
    cfg = cfg or AdmmConfig(phi0=1.0, eps=1e-10, max_iter=100000)
    problem = consensus_problem(
        lambda v, rho: _prox_kl(v + shift / rho, 1.0 / rho, reference), blocks, n)
    cov, v2 = universe.cov, float(max_volatility) ** 2

    def parts(x):  # f = KL(x | reference), g = (x'cov x / cap^2 - 1) / 2
        cov_x = cov @ x / v2
        return np.log(x / reference) + 1.0, 0.5 * (x @ cov_x - 1.0), cov_x

    smooth = _smooth_polish(parts, lambda x, kappa: np.diag(1.0 / x) + kappa / v2 * cov,
                            (np.ones((1, n)), np.ones(1)), rows, rhs)
    problem.polish = lambda x, y, dual: smooth(x, x > 0.0,
                                               _active_rows(rows, dual[n:n + rows.size]))
    w = _gate(_run_split("KL portfolio ADMM", problem, reference / reference.sum(), cfg)[0])
    s = stats(w, universe)
    if target_return is not None and s.expected_return < target_return - 1e-6:
        raise InfeasibleTargets(f"return target missed by {target_return - s.expected_return:.2e}")
    if s.volatility > max_volatility + 1e-6:
        raise InfeasibleTargets(f"volatility cap exceeded by {s.volatility - max_volatility:.2e}")
    return w


def rqe_portfolio(dissimilarity, lower=None, upper=None, cfg=None):
    """Maximum of Rao's quadratic entropy 0.5 w'Dw on the budget set.

    D is a symmetric nonnegative dissimilarity with zero diagonal, and the
    budget set 1'w = 1, lower <= w <= upper (default [0, 1]); after
    Carmichael, Koumou & Moran (2018).  With P = I - 11'/n, w = Pw + 1/n on the plane, so
    the maximum is min 0.5 w'Qw - r'w, Q = -PDP + 11'/n, r = PD1/n: one
    polished QP-bridge solve (``cfg`` its AdmmConfig), convex exactly when
    D is conditionally negative definite (PDP <= 0, as for D = 1 - rho).
    The 11'/n term is constant on the plane and makes Q definite along 1.
    Any other D raises NotPositiveDefinite (the maximum is nonconvex); caps
    summing below 1 raise InfeasibleTargets; D = 0 gives equal weights.  A
    negative ``lower`` allows short positions, which the gate then keeps.
    """
    d = as_symmetric(dissimilarity, "dissimilarity")
    n = d.shape[0]
    if np.any(d < -1e-12):
        raise ValueError("dissimilarity must be nonnegative")
    if np.max(np.abs(np.diag(d))) > 1e-12:
        raise ValueError("dissimilarity diagonal must be zero")
    lower_vec = as_bound(lower, 0.0, n, "lower")
    upper_vec = as_bound(upper, 1.0, n, "upper")
    _check_caps(upper_vec)
    if not np.any(d):
        return _gate(np.full(n, 1.0 / n))

    means = d.mean(axis=0)
    centered = d - means[:, None] - means[None, :] + means.mean()  # PDP
    eig = np.linalg.eigvalsh(centered)
    if eig[-1] > 1e-12 * max(-eig[0], eig[-1]):
        raise NotPositiveDefinite(f"PDP has eigenvalue {eig[-1]:.3g} > 0: D is not "
                                  "conditionally negative definite, so the RQE maximum "
                                  "is nonconvex")
    w = _solve_budget_qp(1.0 / n - centered, means - means.mean(), lower_vec, upper_vec, cfg=cfg)
    return _gate(w, long_only=bool(np.all(lower_vec >= 0.0)))


# ---------------------------------------------------------------------------
# managed-account composite
# ---------------------------------------------------------------------------

def _as_diag(shape, n):
    """The diagonal of an l1 shaping: None (1), a scalar, n entries or a
    diagonal n x n matrix."""
    if np.ndim(shape) == 2:
        shape = as_matrix(shape, "l1 shaping", n)
        if np.max(np.abs(shape - np.diag(np.diag(shape)))) > 0:
            raise ValueError("l1 shaping must be diagonal")
        shape = np.diag(shape)
    shape = per_coordinate(1.0 if shape is None else shape, n, "l1 shaping")
    if np.any(shape < 0):
        raise NegativeLambda("l1 shaping must be nonnegative")
    return shape


def _as_full(shape, n):
    """An l2 shaping as an n x n matrix: None (I), a scalar, n entries (a
    diagonal) or a matrix."""
    if np.ndim(shape) == 2:
        return as_matrix(shape, "l2 shaping", n)
    return np.diag(per_coordinate(1.0 if shape is None else shape, n, "l2 shaping"))


def _robo_quadratic(universe, cfg):
    q = universe.cov.copy()
    r = cfg.gamma * universe.mu.copy()
    if cfg.benchmark is not None:
        r = r + universe.cov @ cfg.benchmark
    for weight, shape, anchor in ((cfg.l2_current, cfg.shape_l2_current, cfg.current),
                                  (cfg.l2_reference, cfg.shape_l2_reference, cfg.reference)):
        if weight > 0:
            g2 = _as_full(shape, universe.n)
            gtg = weight * g2.T @ g2
            q, r = q + gtg, r + gtg @ anchor
    return q, r


def _soft_pull(weight, scale, anchor):
    """y-block of the l1 pull weight * ||diag(scale) (x - anchor)||_1."""
    def build(phi):
        lam = weight / phi * scale
        return lambda t: anchor + _soft_threshold(t - anchor, lam)

    return build


def robo_advisor(universe, cfg, admm_cfg=None):
    """Solve the managed-account objective of a RoboConfig.

    One ``_plane_admm`` split: the quadratic 0.5 x'Qx - r'x of
    ``_robo_quadratic`` and the budget plane stay in its closed-form ridge
    x-update, and each l1 pull, each nonlinear set, each linear set, the
    box and the barrier get a closed-form y-block, in that order.  The
    penalty starts at the mean of Q's diagonal (at least 1e-3) unless
    ``admm_cfg`` says otherwise.  Budget, box and linear sets that look
    disjoint raise InfeasibleSuspected before the loop starts.  The
    config's vectors are checked here, once, against the universe (a
    wrong length raises DimensionMismatch, a negative l1 shape
    NegativeLambda, a non-positive budget NonPositiveWeight), so the l1
    pulls and the barrier call the unchecked kernels ``_soft_threshold``
    and ``_prox_log_barrier`` inside the loop.
    """
    n = universe.n
    cfg = replace(cfg, **{name: _asset_vector(getattr(cfg, name), n, name) for name in
                          ("benchmark", "reference", "current", "risk_budgets")
                          if getattr(cfg, name) is not None})
    q, r = _robo_quadratic(universe, cfg)
    lower = as_bound(cfg.lower, 0.0, n, "lower")
    upper = as_bound(cfg.upper, 1.0, n, "upper")
    if not all(isinstance(s, Halfspace) for s in cfg.linear_sets):
        raise TypeError("linear_sets accepts Halfspace descriptors")
    c_rows = d_vals = None
    if cfg.linear_sets:
        c_rows = np.vstack([as_vector(s.c, "linear set normal", n) for s in cfg.linear_sets])
        d_vals = np.array([float(s.d) for s in cfg.linear_sets])
    try:
        linear_projection(np.ones((1, n)), np.ones(1), c_rows, d_vals, lower, upper,
                          np.full(n, 1.0 / n))
    except InfeasibleSuspected as exc:
        raise InfeasibleSuspected("the budget, box and linear sets look disjoint",
                                  last=exc.last) from exc
    admm_cfg = admm_cfg or AdmmConfig(phi0=max(float(np.mean(np.diag(q))), 1e-3),
                                      eps=1e-9, max_iter=50000)
    pulls = ((cfg.l1_current, cfg.shape_l1_current, cfg.current),
             (cfg.l1_reference, cfg.shape_l1_reference, cfg.reference))
    blocks = [_soft_pull(weight, _as_diag(shape, n), anchor)
              for weight, shape, anchor in pulls if weight > 0]
    blocks += [_projection(s, n) for s in (*cfg.nonlinear_sets, *cfg.linear_sets,
                                           Box(lower, upper))]
    if cfg.barrier > 0:
        budgets = cfg.risk_budgets / cfg.risk_budgets.sum()
        if np.any(budgets <= 0):
            raise NonPositiveWeight("log-barrier weights must be positive")
        blocks.append(lambda phi: functools.partial(
            _prox_log_barrier, shift=4.0 * (cfg.barrier / phi) * budgets))
    return _gate(_plane_admm("robo_advisor", PenaltyFactor(q), blocks, cfg=admm_cfg, linear=r))
