"""Allocation models assembled from the CCD / ADMM / Dykstra engines.

Mean-variance and its turnover/cost/tracking variants stay quadratic
programs; minimum-variance with diversification floors, risk budgeting,
the most-diversified portfolio, KL and Rao-entropy portfolios, and the
composite managed-account objective are solved by splitting: a smooth
x-subproblem (closed form, CCD, or a nested QP) against a y-prox that
Dykstra assembles from the operator catalogue.

Every model returns PortfolioWeights whose vector has passed one common
normalization gate (tiny negative clips, budget rescale), so solver
slack never leaks into downstream statistics.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .admm import AdmmConfig, AdmmProblem, admm_solve
from .cd import CdConfig, _check_stdev_scale, ccd_qp_logbarrier, ccd_rb_stdev
from .dykstra import DykstraConfig, _linear_ops, dykstra_cycle, project_box_ball
from .errors import (
    EmptySetSuspected,
    FormulationDisagreement,
    IndefiniteUnhandled,
    InfeasibleSuspected,
    InfeasibleTargets,
    MaxCyclesExceeded,
    MaxIterExceeded,
    TargetUnreachable,
    UnreachableDiversification,
)
from .linalg import PenaltyFactor, RootBracket, as_matrix, as_vector, bisect
from .prox import (
    Box,
    Halfspace,
    Hyperplane,
    LpBall,
    prox_bid_ask,
    prox_kl,
    project,
    soft_threshold,
    truncate,
)
from .qp import QpProblem, default_qp_config, qp_solve


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class AssetUniverse:
    """Expected returns, volatilities and correlations of the asset set.

    The covariance is derived as cov_ij = rho_ij * sigma_i * sigma_j and
    checked positive semidefinite (smallest eigenvalue >= -1e-10).
    """

    names: list
    mu: object
    sigma: object
    rho: object
    rate: float = 0.0

    def __post_init__(self):
        self.mu = as_vector(self.mu, "mu")
        self.sigma = as_vector(self.sigma, "sigma")
        self.rho = as_matrix(self.rho, "rho")
        n = self.sigma.size
        if len(self.names) != n or self.mu.size != n or self.rho.shape != (n, n):
            raise ValueError("universe fields disagree on the number of assets")
        if np.max(np.abs(self.rho - self.rho.T)) > 1e-12:
            raise ValueError("correlation matrix is not symmetric")
        if np.max(np.abs(np.diag(self.rho) - 1.0)) > 1e-12:
            raise ValueError("correlation diagonal must be 1")
        if np.max(np.abs(self.rho)) > 1.0 + 1e-12:
            raise ValueError("correlations must lie in [-1, 1]")
        if np.any(self.sigma <= 0):
            raise ValueError("volatilities must be positive")
        self.cov = self.rho * np.outer(self.sigma, self.sigma)
        if np.min(np.linalg.eigvalsh(self.cov)) < -1e-10:
            raise ValueError("covariance is not positive semidefinite")

    @property
    def n(self):
        return self.sigma.size


@dataclass
class PortfolioWeights:
    w: object

    def __post_init__(self):
        self.w = as_vector(self.w, "weights")

    def as_percent(self):
        return 100.0 * self.w


@dataclass
class RebalanceContext:
    """Current holdings plus trading frictions and caps."""

    current: object
    bid_cost: object = 0.0
    ask_cost: object = 0.0
    turnover_cap: Optional[float] = None
    cost_cap: Optional[float] = None

    def __post_init__(self):
        self.current = as_vector(self.current, "current")
        if np.any(np.asarray(self.bid_cost) < 0) or np.any(np.asarray(self.ask_cost) < 0):
            raise ValueError("transaction costs must be nonnegative")


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
    full matrix.  ``formulation`` picks which split solves the x-step:
    a nested QP ("admm_qp"), coordinate descent ("admm_ccd"), or "both"
    to run the two and cross-check.
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
    formulation: str = "admm_qp"

    def __post_init__(self):
        for name in ("gamma", "l1_current", "l2_current", "l1_reference",
                     "l2_reference", "barrier"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.barrier > 0 and self.risk_budgets is None:
            raise ValueError("a positive barrier needs risk budgets")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _gate(w, long_only=True, budget=True):
    """Normalization gate: clip solver residue, restore the budget."""
    w = as_vector(w).copy()
    if long_only:
        if np.min(w) < -1e-6:
            raise ValueError(f"long-only violated by {np.min(w):.2e}")
        w = np.maximum(w, 0.0)
    if budget:
        total = w.sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"budget off by {total - 1.0:.2e}")
        w = w / total
    return PortfolioWeights(w)


def herfindahl(w):
    w = as_vector(w)
    return float(w @ w)


def effective_bets(w):
    return 1.0 / herfindahl(w)


def shannon_entropy(w):
    w = as_vector(w)
    pos = w[w > 0]
    return float(-np.sum(pos * np.log(pos))) + 0.0  # normalize -0.0


def stats(w, universe, benchmark=None, reference=None, current=None):
    """Portfolio statistics; comparison fields need their comparand."""
    w = w.w if isinstance(w, PortfolioWeights) else as_vector(w)
    if w.size != universe.n:
        raise ValueError("weights do not match the universe")
    vol = float(np.sqrt(w @ universe.cov @ w))
    out = PortfolioStats(
        expected_return=float(w @ universe.mu),
        volatility=vol,
        herfindahl=herfindahl(w),
        effective_bets=effective_bets(w),
        diversification_ratio=float(w @ universe.sigma) / vol,
        shannon_entropy=shannon_entropy(w),
        leverage=float(np.sum(np.abs(w))),
        net_exposure=float(abs(np.sum(w))),
    )
    if current is not None:
        out.turnover = float(np.sum(np.abs(w - as_vector(current))))
    if benchmark is not None:
        b = as_vector(benchmark)
        out.active_share = 0.5 * float(np.sum(np.abs(w - b)))
        out.tracking_error = float(np.sqrt((w - b) @ universe.cov @ (w - b)))
    if reference is not None:
        ref = as_vector(reference)
        pos = w > 0
        out.kl_divergence = float(np.sum(w[pos] * np.log(w[pos] / ref[pos])))
    return out


def _budget_row(n):
    return np.ones((1, n)), np.ones(1)


def _solve_budget_qp(q, r, lower=None, upper=None, c=None, d=None, cfg=None,
                     x0=None, return_report=False):
    a, b = _budget_row(len(r))
    problem = QpProblem(q=q, r=r, a=a, b=b, c=c, d=d, lower=lower, upper=upper)
    return qp_solve(problem, cfg=cfg, x0=x0, return_report=return_report)


# ---------------------------------------------------------------------------
# mean-variance family
# ---------------------------------------------------------------------------

def mvo_gamma(universe, gamma, lower=None, upper=None, ineq=None, cfg=None):
    """Budget-constrained mean-variance trade-off min 0.5 x'Cx - gamma x'mu."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    c, d = ineq if ineq is not None else (None, None)
    w = _solve_budget_qp(universe.cov, gamma * universe.mu, lower, upper, c, d, cfg)
    return _gate(w, long_only=lower is not None and np.all(np.asarray(lower) >= 0))


def mvo_benchmark(universe, benchmark, gamma, lower=None, upper=None, ineq=None,
                  cfg=None):
    """Tracking-error MVO: same QP with returns tilted by cov @ benchmark."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    b = as_vector(benchmark)
    c, d = ineq if ineq is not None else (None, None)
    r = gamma * universe.mu + universe.cov @ b
    w = _solve_budget_qp(universe.cov, r, lower, upper, c, d, cfg)
    return _gate(w, long_only=lower is not None and np.all(np.asarray(lower) >= 0))


def mvo_target(universe, target_return=None, target_volatility=None, lower=None,
               upper=None, ineq=None, gamma_max=1e6, tol=1e-8):
    """Hit a return or volatility target by bisecting the trade-off weight.

    Both achieved return and achieved volatility increase with gamma, so
    the right gamma is found by bisection; a target outside the reachable
    band raises TargetUnreachable.
    """
    if (target_return is None) == (target_volatility is None):
        raise ValueError("specify exactly one of target_return / target_volatility")

    def achieved(gamma):
        w = mvo_gamma(universe, gamma, lower, upper, ineq)
        s = stats(w, universe)
        return s.expected_return if target_return is not None else s.volatility

    target = target_return if target_return is not None else target_volatility
    low_val = achieved(0.0)
    if target <= low_val + tol:
        if target < low_val - 1e-6:
            raise TargetUnreachable(f"target {target} below the minimum {low_val:.6g}")
        return mvo_gamma(universe, 0.0, lower, upper, ineq)
    hi = 1.0
    hi_val = achieved(hi)
    while hi_val < target and hi < gamma_max:
        hi *= 4.0
        hi_val = achieved(hi)
    if hi_val < target - 1e-6:
        raise TargetUnreachable(f"target {target} above the maximum {hi_val:.6g}")
    gamma = bisect(lambda g: achieved(g) - target, RootBracket(0.0, hi, tol=tol))
    return mvo_gamma(universe, gamma, lower, upper, ineq)


def index_sampling(universe, benchmark, n_assets, cfg=None):
    """Replicate a benchmark with a fixed number of holdings.

    Repeatedly solves the long-only tracking QP and knocks out the asset
    with the smallest nonzero weight (lowest index on ties) until exactly
    n_assets names remain invested.
    """
    n = universe.n
    if not 1 <= n_assets <= n:
        raise ValueError(f"n_assets must lie in [1, {n}]")
    b = as_vector(benchmark)
    r = universe.cov @ b
    upper = np.ones(n)
    live_tol = 1e-7
    while True:
        w = _solve_budget_qp(universe.cov, r, lower=np.zeros(n), upper=upper, cfg=cfg)
        w = np.where(w < live_tol, 0.0, w)
        active = np.flatnonzero(w > 0)
        if active.size <= n_assets:
            break
        smallest = active[np.argmin(w[active])]
        upper[smallest] = 0.0
    return _gate(w)


def _augmented_rebalance_blocks(universe):
    """Q and the x = current + buys - sells linkage of the 3n-variable QPs."""
    n = universe.n
    q = np.zeros((3 * n, 3 * n))
    q[:n, :n] = universe.cov
    # minimum-norm ridge on the trade blocks: selects the complementary
    # (buy xor sell) representative among objective ties
    q[n:, n:] = 1e-10 * np.eye(2 * n)
    link = np.hstack([np.eye(n), np.eye(n), -np.eye(n)])
    return q, link


def mvo_turnover(universe, gamma, current, turnover_cap, cfg=None):
    """MVO with sum of buys and sells capped, as a 3n-variable QP."""
    if turnover_cap < 0:
        raise ValueError("turnover_cap must be nonnegative")
    n = universe.n
    current = as_vector(current)
    if turnover_cap == 0:
        return _gate(current)
    q, link = _augmented_rebalance_blocks(universe)
    r = np.concatenate([gamma * universe.mu, np.zeros(2 * n)])
    a = np.vstack([np.concatenate([np.ones(n), np.zeros(2 * n)]), link])
    b = np.concatenate([[1.0], current])
    c = np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :]
    d = np.array([turnover_cap])
    problem = QpProblem(q=q, r=r, a=a, b=b, c=c, d=d,
                        lower=np.zeros(3 * n), upper=np.ones(3 * n))
    x = qp_solve(problem, cfg=cfg)
    return _gate(x[:n])


def mvo_costs(universe, gamma, current, bid_cost, ask_cost, cfg=None):
    """MVO net of bid/ask transaction costs, with the budget financed.

    The financing identity sum x + sells'bid + buys'ask = 1 replaces the
    plain budget row.
    """
    n = universe.n
    current = as_vector(current)
    bid = np.broadcast_to(np.asarray(bid_cost, dtype=float), (n,))
    ask = np.broadcast_to(np.asarray(ask_cost, dtype=float), (n,))
    if np.any(bid < 0) or np.any(ask < 0):
        raise ValueError("costs must be nonnegative")
    q, link = _augmented_rebalance_blocks(universe)
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

def _gmv_admm(universe, y_prox, start=None, cfg=None):
    """Minimum variance on the budget plane 1'x = 1 against a y-prox builder.

    The x-update is the budget-constrained ridge solve
    argmin 0.5 x'(cov + phi I)x - phi x'(y - u) s.t. 1'x = 1; ``y_prox(phi)``
    returns the prox of the remaining terms.  Starts at ``start`` (equal
    weights by default) and returns (y, report).
    """
    n = universe.n
    cfg = cfg or AdmmConfig(phi0=float(np.mean(np.diag(universe.cov))),
                            eps=1e-11, eps_prime=1e-11, max_iter=100000)
    quad = PenaltyFactor(universe.cov)
    ones = np.ones(n)
    problem = AdmmProblem(
        x_update=lambda y, u, phi: quad.solve_on_plane(phi * (y - u), phi, ones, 1.0),
        y_prox=y_prox)
    x0 = np.full(n, 1.0 / n) if start is None else as_vector(start)
    x, y, report = admm_solve(problem, x0, x0, cfg)
    if not report.converged:
        raise MaxIterExceeded("minimum-variance ADMM did not converge",
                              last=y, report=report)
    return y, report


def gmv_herfindahl(universe, upper=None, min_bets=1.0, method="admm", cfg=None):
    """Long-only minimum variance with an effective-bets floor.

    method="bisection" sweeps the ridge weight lam in
    min 0.5 x'(cov + 2 lam I)x until 1/sum(x^2) hits the floor and
    returns (weights, lam); method="admm" splits the ball constraint
    into the y-update and returns (weights, None).  A floor at (or
    above) the asset count returns equal weights directly.
    """
    n = universe.n
    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if min_bets > n + 1e-9:
        raise UnreachableDiversification(f"cannot reach {min_bets} bets with {n} assets")
    if min_bets >= n - 1e-9:
        return _gate(np.full(n, 1.0 / n)), np.inf

    if method == "bisection":
        state = {"x": None}

        def solve_ridge(lam):
            # ridge convention Q = cov + lam I, i.e. penalty (lam/2)||x||^2,
            # matching the published lam* row
            x = _solve_budget_qp(universe.cov + lam * np.eye(n), np.zeros(n),
                                 lower=np.zeros(n), upper=upper_vec, cfg=cfg,
                                 x0=state["x"])
            state["x"] = x
            return x

        base = solve_ridge(0.0)
        if effective_bets(base) >= min_bets - 1e-9:
            return _gate(base), 0.0
        hi = 0.1
        while effective_bets(solve_ridge(hi)) < min_bets:
            hi *= 4.0
            if hi > 1e6:
                return _gate(np.full(n, 1.0 / n)), np.inf
        lam = bisect(lambda l: effective_bets(solve_ridge(l)) - min_bets,
                     RootBracket(0.0, hi, tol=1e-7))
        return _gate(solve_ridge(lam)), lam

    if method == "admm":
        radius = np.sqrt(1.0 / min_bets)
        dykstra_cfg = DykstraConfig(tol=1e-12)
        projection = lambda v: project_box_ball(v, np.zeros(n), upper_vec,
                                                np.zeros(n), radius, dykstra_cfg)
        y, _ = _gmv_admm(universe, lambda phi: projection, cfg=cfg)
        return _gate(y), None

    raise ValueError(f"unknown method {method!r}")


def _entropy_floor_projection(v, floor, lower=None, upper=None, theta_max=1e12):
    """Euclidean projection onto {x in box : -sum x ln x >= floor}.

    The dual problem is coordinate-separable: for a multiplier theta >= 0
    on the entropy term the unique scalar stationary point is
    x_i(theta) = theta W(exp(v_i/theta - 1 - ln theta)), clipped into the
    box (exact, because the scalar objective stays strictly convex).
    theta is then bisected on the entropy of the clipped path, so the
    whole box-and-entropy intersection costs one scalar root find.
    """
    from .linalg import lambert_w_exp

    v = as_vector(v)
    lo = np.zeros(v.size) if lower is None else np.broadcast_to(
        np.asarray(lower, dtype=float), v.shape)
    hi_box = np.ones(v.size) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), v.shape)
    clipped = np.clip(v, lo, hi_box)
    if shannon_entropy(clipped) >= floor:
        return clipped

    def entropy_at(theta):
        x = theta * lambert_w_exp(v / theta - 1.0 - np.log(theta))
        x = np.clip(x, lo, hi_box)
        return shannon_entropy(x), x

    theta_hi = 1.0
    while entropy_at(theta_hi)[0] < floor:
        theta_hi *= 4.0
        if theta_hi > theta_max:
            raise UnreachableDiversification(f"entropy floor {floor} unreachable")
    theta = bisect(lambda t: entropy_at(t)[0] - floor,
                   RootBracket(1e-13, theta_hi, tol=1e-14, max_iter=300))
    return entropy_at(theta)[1]


def gmv_diversified(universe, upper=None, constraint=None, cfg=None):
    """Minimum variance under a weight-diversification floor.

    EffectiveBets floors reuse the Herfindahl ball split; Shannon-entropy
    floors put the entropy super-level set into the y-update next to the
    box.
    """
    n = universe.n
    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if constraint is None:
        w = _solve_budget_qp(universe.cov, np.zeros(n), lower=np.zeros(n),
                             upper=upper_vec, cfg=cfg)
        return _gate(w)
    if isinstance(constraint, EffectiveBets):
        w, _ = gmv_herfindahl(universe, upper_vec, constraint.minimum, "admm", cfg)
        return w
    if isinstance(constraint, ShannonEntropyFloor):
        floor = constraint.minimum
        if floor > np.log(n) + 1e-9:
            raise UnreachableDiversification(f"entropy floor {floor} > ln n")
        if floor >= np.log(n) - 1e-9:
            return _gate(np.full(n, 1.0 / n))

        def projection(t):
            return _entropy_floor_projection(t, floor, np.zeros(n), upper_vec)

        y, _ = _gmv_admm(universe, lambda phi: projection, cfg=cfg)
        return _gate(y)
    raise TypeError(f"unknown diversification constraint {constraint!r}")


def rebalance_penalized(universe, current, cost_scale=0.0, bid_cost=0.0,
                        ask_cost=0.0, turnover_cap=None, upper=None, cfg=None):
    """Minimum variance shaped by trading frictions around current holdings.

    With costs the y-update is the bid/ask prox (a no-trade band around
    the holdings); with a turnover cap it is the l1-ball projection
    centered there.  Both compose with the long-only box under Dykstra.
    """
    n = universe.n
    current = as_vector(current)
    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if turnover_cap is not None and turnover_cap <= 0:
        return _gate(current)
    box = Box(np.zeros(n), upper_vec)
    dykstra_cfg = DykstraConfig(tol=1e-12)

    def y_prox(phi):
        ops = [lambda t: project(box, t)]
        if turnover_cap is not None:
            ball = LpBall(1, current, float(turnover_cap))
            ops.append(lambda t: project(ball, t))
        if cost_scale > 0:
            ops.append(lambda t: prox_bid_ask(t, cost_scale / phi, bid_cost,
                                              ask_cost, current))
        if len(ops) == 1:
            return ops[0]
        return lambda t: dykstra_cycle(ops, t, dykstra_cfg)[0]

    y, _ = _gmv_admm(universe, y_prox, start=current, cfg=cfg)
    return _gate(y)


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
    w = w.w if isinstance(w, PortfolioWeights) else as_vector(w)
    excess, xi = _excess_and_scale(universe, measure)
    cov_w = universe.cov @ w
    return -w * excess + xi * w * cov_w / np.sqrt(w @ cov_w)


def erc(universe, cfg=None, return_report=False):
    """Equal-risk-contribution portfolio via cyclic coordinate descent.

    Runs the volatility-measure coordinate update (the zero-excess-return
    special case of the stdev risk measure), whose built-in sigma
    normalization converges in single-digit cycles; the variance-form
    update ccd_erc reaches the same rescaled weights more slowly.
    """
    n = universe.n
    x0 = np.full(n, 1.0 / n)
    lam = float(np.sqrt(x0 @ universe.cov @ x0))
    x, report = ccd_rb_stdev(np.zeros(n), 0.0, 1.0, universe.cov,
                             np.full(n, 1.0 / n), lam=lam, x0=x0,
                             cfg=cfg or CdConfig(), return_report=True)
    w = _gate(x / x.sum())
    return (w, report) if return_report else w


def rebalance(universe, context, cost_scale=1.0, upper=None, cfg=None):
    """Rebalance current holdings per a RebalanceContext.

    A turnover cap takes priority as a hard constraint; otherwise the
    bid/ask costs enter as a penalty scaled by ``cost_scale``.
    """
    if context.turnover_cap is not None:
        return rebalance_penalized(universe, context.current,
                                   turnover_cap=context.turnover_cap,
                                   upper=upper, cfg=cfg)
    return rebalance_penalized(universe, context.current, cost_scale=cost_scale,
                               bid_cost=context.bid_cost, ask_cost=context.ask_cost,
                               upper=upper, cfg=cfg)


def _rb_admm(universe, budgets, measure, lam=1.0, phi=1.0, tol=1e-10,
             max_iter=100000):
    """ADMM split for the risk-budgeting barrier problem (unscaled).

    The x-update is the prox of the risk term: a ridge solve for the
    volatility measure, an inner frozen-volatility CCD for the stdev
    measure.  The y-update is the closed-form prox of the barrier
    -lam sum_i b_i ln y_i.  The penalty stays at phi, and the solve stops
    once the primal residual ||x - y|| and the dual residual
    phi ||y - y_prev|| are both at most tol.
    """
    n = universe.n
    cov = universe.cov
    if isinstance(measure, Volatility):
        quad = PenaltyFactor(cov)
        x_update = lambda y, u, phi: quad.solve(phi * (y - u), phi)
    else:
        excess, xi = _excess_and_scale(universe, measure)
        variances = np.diag(cov)
        _check_stdev_scale(excess, xi, variances)
        state = {"x": np.full(n, 1.0 / n)}

        def x_update(y, u, phi):
            v = y - u
            xx = np.maximum(state["x"], 1e-12)
            for _ in range(200):
                delta = 0.0
                for i in range(n):
                    vol = np.sqrt(max(xx @ cov @ xx, 1e-300))
                    off = cov[i] @ xx - variances[i] * xx[i]
                    new = (excess[i] * vol + phi * vol * v[i] - xi * off) / \
                          (xi * variances[i] + phi * vol)
                    delta = max(delta, abs(new - xx[i]))
                    xx[i] = new
                if delta <= 1e-12:
                    break
            state["x"] = xx
            return xx

    def y_prox(phi):
        return lambda v: 0.5 * (v + np.sqrt(v * v + 4.0 * lam / phi * budgets))

    cfg = AdmmConfig(phi0=phi, adaptive=False, eps=tol, eps_prime=tol, max_iter=max_iter)
    x0 = np.full(n, 1.0 / n)
    _, y, report = admm_solve(AdmmProblem(x_update=x_update, y_prox=y_prox), x0, x0, cfg)
    if not report.converged:
        raise MaxIterExceeded("risk-budgeting ADMM did not converge", last=y, report=report)
    return y, report


def risk_budgeting(universe, budgets, measure=Volatility(), engine="ccd",
                   cfg=None, return_report=False, **admm_kwargs):
    """Portfolio whose risk contributions match the prescribed budgets."""
    budgets = as_vector(budgets)
    if np.any(budgets <= 0):
        raise ValueError("risk budgets must be positive")
    budgets = budgets / budgets.sum()
    if engine == "ccd":
        excess, xi = _excess_and_scale(universe, measure)
        x, report = ccd_rb_stdev(excess, 0.0, xi, universe.cov, budgets, cfg=cfg,
                                 return_report=True)
    elif engine == "admm":
        x, report = _rb_admm(universe, budgets, measure, **admm_kwargs)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    w = _gate(x / x.sum())
    return (w, report) if return_report else w


# ---------------------------------------------------------------------------
# most diversified portfolio
# ---------------------------------------------------------------------------

def _mdp_inner(cov, sigma, phi, anchor, x0, tol=1e-12, max_iter=200):
    """min 0.5 ln(x'Cx) - ln(x'sigma) + phi/2 ||x - anchor||^2 on the budget plane.

    Newton on the bordered KKT system with an Armijo backtrack that keeps
    x'sigma positive; falls back to a projected gradient step whenever
    the Newton direction fails to descend.
    """
    n = cov.shape[0]
    ones = np.ones(n)
    x = as_vector(x0).copy()

    def value(xx):
        q = xx @ cov @ xx
        s = xx @ sigma
        if s <= 0 or q <= 0:
            return np.inf
        val = 0.5 * np.log(q) - np.log(s)
        if phi > 0:
            val += 0.5 * phi * np.sum((xx - anchor) ** 2)
        return val

    def gradient(xx):
        cov_x = cov @ xx
        q = xx @ cov_x
        s = xx @ sigma
        g = cov_x / q - sigma / s
        if phi > 0:
            g = g + phi * (xx - anchor)
        return g, cov_x, q, s

    for _ in range(max_iter):
        g, cov_x, q, s = gradient(x)
        reduced = g - (ones @ g / n) * ones
        if np.max(np.abs(reduced)) <= tol:
            break
        hess = cov / q - 2.0 * np.outer(cov_x, cov_x) / q**2 \
            + np.outer(sigma, sigma) / s**2 + phi * np.eye(n)
        kkt = np.block([[hess, ones[:, None]], [ones[None, :], np.zeros((1, 1))]])
        rhs = np.concatenate([-g, [0.0]])
        try:
            step = np.linalg.solve(kkt, rhs)[:n]
        except np.linalg.LinAlgError:
            step = -reduced
        if step @ g > 0:
            step = -reduced
        t = 1.0
        base = value(x)
        slope = step @ g
        for _ in range(60):
            candidate = x + t * step
            if value(candidate) <= base + 1e-4 * t * slope:
                x = candidate
                break
            t *= 0.5
        else:
            x = x - 1e-3 * reduced / max(np.max(np.abs(reduced)), 1.0)
    return x


def mdp(universe, long_only=True, constraint=None, upper=None, cfg=None):
    """Most diversified portfolio: maximize w'sigma / sqrt(w'Cw).

    Long/short is a single Newton solve on the budget plane.  Long-only
    (optionally with an effective-bets or entropy floor) splits the
    geometry into the y-update while the x-update re-solves the smooth
    penalized objective.
    """
    n = universe.n
    cov, sigma = universe.cov, universe.sigma
    x0 = np.full(n, 1.0 / n)
    if not long_only:
        if constraint is not None:
            raise ValueError("diversification floors need long_only=True")
        x = _mdp_inner(cov, sigma, 0.0, x0, x0)
        return PortfolioWeights(x / x.sum())

    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    dykstra_cfg = DykstraConfig(tol=1e-12)
    if constraint is None:
        projection = lambda v: truncate(v, np.zeros(n), upper_vec)
    elif isinstance(constraint, EffectiveBets):
        radius = np.sqrt(1.0 / constraint.minimum)
        projection = lambda v: project_box_ball(v, np.zeros(n), upper_vec,
                                                np.zeros(n), radius, dykstra_cfg)
    elif isinstance(constraint, ShannonEntropyFloor):
        projection = lambda v: _entropy_floor_projection(v, constraint.minimum,
                                                         np.zeros(n), upper_vec)
    else:
        raise TypeError(f"unknown diversification constraint {constraint!r}")

    state = {"x": x0.copy()}

    def x_update(y, u, phi):
        state["x"] = _mdp_inner(cov, sigma, phi, y - u, state["x"])
        return state["x"]

    # the inner Newton solve delivers ~1e-10 accurate x-updates, so the
    # outer residual target must sit above that noise floor
    cfg = cfg or AdmmConfig(phi0=1.0, eps=1e-8, eps_prime=1e-8, max_iter=50000)
    problem = AdmmProblem(x_update=x_update, y_prox=lambda phi: projection)
    x, y, report = admm_solve(problem, x0, x0, cfg)
    if not report.converged:
        raise MaxIterExceeded("MDP ADMM did not converge", last=y, report=report)
    return _gate(y)


# ---------------------------------------------------------------------------
# entropy portfolios
# ---------------------------------------------------------------------------

def _volatility_ball_projection(cov, radius, v, tol=1e-13):
    """Euclidean projection onto the ellipsoid {x : x' cov x <= radius^2}."""
    v = as_vector(v)
    if float(v @ cov @ v) <= radius**2:
        return v.copy()
    n = v.size
    eye = np.eye(n)

    def vol_at(theta):
        x = np.linalg.solve(eye + theta * cov, v)
        return float(np.sqrt(x @ cov @ x)), x

    hi = 1.0
    while vol_at(hi)[0] > radius:
        hi *= 4.0
    theta = bisect(lambda t: vol_at(t)[0] - radius, RootBracket(0.0, hi, tol=tol))
    return vol_at(theta)[1]


def kl_portfolio(universe, reference, target_return=None, max_volatility=None,
                 cfg=None):
    """Minimize KL(w | reference) under budget, box and return/vol targets."""
    n = universe.n
    reference = as_vector(reference)
    if np.any(reference <= 0):
        raise ValueError("reference weights must be positive")
    plane = Hyperplane(np.ones(n), 1.0)
    box = Box(np.zeros(n), np.ones(n))
    ops = [lambda t: project(plane, t), lambda t: project(box, t)]
    if target_return is not None:
        if not np.any(universe.mu):
            # zero expected returns: the target is vacuous or hopeless
            if target_return > 0:
                raise InfeasibleTargets(f"return target {target_return} with zero "
                                        "expected returns")
        else:
            half = Halfspace(-universe.mu, -float(target_return))
            ops.append(lambda t: project(half, t))
    if max_volatility is not None:
        ops.append(lambda t: _volatility_ball_projection(universe.cov,
                                                         float(max_volatility), t))
    dykstra_cfg = DykstraConfig(tol=1e-12)

    def y_prox(phi):
        return lambda v: dykstra_cycle(ops, v, dykstra_cfg)[0]

    # prox_kl carries the linear term x (1/ref - 1); shifting its input by
    # lam (1/ref - 1) cancels that term, leaving the prox of
    # lam * sum x ln(x / ref), whose minimum sits at the reference
    shift = 1.0 / reference - 1.0
    cfg = cfg or AdmmConfig(phi0=1.0, eps=1e-10, eps_prime=1e-10, max_iter=100000)
    problem = AdmmProblem(
        x_update=lambda y, u, phi: prox_kl(y - u + shift / phi, 1.0 / phi, reference),
        y_prox=y_prox)
    x0 = reference / reference.sum()
    try:
        x, y, report = admm_solve(problem, x0, x0, cfg)
    except (MaxCyclesExceeded, EmptySetSuspected) as exc:
        raise InfeasibleTargets("target projection does not settle; the target set "
                                "looks empty", last=exc.last) from exc
    if not report.converged:
        raise InfeasibleTargets("KL portfolio targets look unreachable",
                                last=y, report=report)
    w = _gate(y)
    s = stats(w, universe)
    if target_return is not None and s.expected_return < target_return - 1e-6:
        raise InfeasibleTargets(f"return target missed by {target_return - s.expected_return:.2e}")
    if max_volatility is not None and s.volatility > max_volatility + 1e-6:
        raise InfeasibleTargets(f"volatility cap exceeded by {s.volatility - max_volatility:.2e}")
    return w


def _most_negative_eigenvalue(m, iters=500, seed=7):
    """Power iteration on -M; returns min(lambda_min(M), 0.0) estimate."""
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    shift = float(np.max(np.abs(m))) * n  # make -M + shift I positive
    lam = 0.0
    for _ in range(iters):
        w = -(m @ v) + shift * v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        v = w / nrm
        lam = float(v @ (-(m @ v)))
    # lam estimates the largest eigenvalue of -M, i.e. -lambda_min(M)
    return min(-lam, 0.0)


def rqe_portfolio(dissimilarity, lower=None, upper=None, cfg=None):
    """Stationary point of 0.5 w'Dw on the long-only budget set.

    D is a nonnegative symmetric dissimilarity with zero diagonal and is
    generally indefinite, so the splitting penalty is floored at
    1.1 |lambda_min(D)| (power-iteration estimate) and inflated until the
    iteration settles; a deterministic asymmetric start breaks the
    symmetry ties of the saddle at equal weights.
    """
    d = as_matrix(dissimilarity)
    n = d.shape[0]
    if np.max(np.abs(d - d.T)) > 1e-10 or np.any(d < -1e-12):
        raise ValueError("dissimilarity must be symmetric and nonnegative")
    if np.max(np.abs(np.diag(d))) > 1e-12:
        raise ValueError("dissimilarity diagonal must be zero")
    lower_vec = np.zeros(n) if lower is None else np.broadcast_to(
        np.asarray(lower, dtype=float), (n,))
    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if not np.any(d):
        return _gate(np.full(n, 1.0 / n))

    floor = 1.1 * abs(_most_negative_eigenvalue(d)) + 1e-6
    start = np.full(n, 1.0 / n) * (1.0 + 1e-3 * np.arange(n, 0, -1) / n)
    start /= start.sum()
    last_error = None
    for inflation in (1.0, 4.0, 16.0, 64.0):
        phi = floor * inflation
        run_cfg = cfg or AdmmConfig(phi0=phi, adaptive=False, eps=1e-10,
                                    eps_prime=1e-10, max_iter=200000)
        problem = QpProblem(q=d, r=np.zeros(n), a=np.ones((1, n)), b=np.ones(1),
                            lower=lower_vec, upper=upper_vec)
        try:
            x = qp_solve(problem, cfg=run_cfg, x0=start, y0=start)
            return _gate(x)
        except (MaxIterExceeded, InfeasibleSuspected) as exc:
            last_error = exc  # divergence from indefiniteness: inflate and retry
    raise IndefiniteUnhandled("penalty inflation failed on the indefinite objective",
                              last=getattr(last_error, "last", None))


# ---------------------------------------------------------------------------
# managed-account composite
# ---------------------------------------------------------------------------

def _as_diag(shape, n):
    if shape is None:
        return np.ones(n)
    shape = np.asarray(shape, dtype=float)
    if shape.ndim == 2:
        if np.max(np.abs(shape - np.diag(np.diag(shape)))) > 0:
            raise ValueError("l1 shaping must be diagonal")
        return np.diag(shape).copy()
    return np.broadcast_to(shape, (n,)).copy()


def _as_full(shape, n):
    if shape is None:
        return np.eye(n)
    shape = np.asarray(shape, dtype=float)
    return np.diag(np.broadcast_to(shape, (n,))) if shape.ndim == 1 else shape


def _robo_quadratic(universe, cfg):
    n = universe.n
    q = universe.cov.copy()
    r = cfg.gamma * universe.mu.copy()
    if cfg.benchmark is not None:
        r = r + universe.cov @ as_vector(cfg.benchmark)
    if cfg.l2_current > 0:
        g2 = _as_full(cfg.shape_l2_current, n)
        gtg = cfg.l2_current * g2.T @ g2
        q = q + gtg
        r = r + gtg @ as_vector(cfg.current)
    if cfg.l2_reference > 0:
        g2 = _as_full(cfg.shape_l2_reference, n)
        gtg = cfg.l2_reference * g2.T @ g2
        q = q + gtg
        r = r + gtg @ as_vector(cfg.reference)
    return q, r


def _robo_l1_ops(cfg, phi, n):
    ops = []
    if cfg.l1_current > 0:
        scale = _as_diag(cfg.shape_l1_current, n)
        anchor = as_vector(cfg.current)
        lam = cfg.l1_current / phi * scale
        ops.append(lambda t, a=anchor, l=lam: a + soft_threshold(t - a, l))
    if cfg.l1_reference > 0:
        scale = _as_diag(cfg.shape_l1_reference, n)
        anchor = as_vector(cfg.reference)
        lam = cfg.l1_reference / phi * scale
        ops.append(lambda t, a=anchor, l=lam: a + soft_threshold(t - a, l))
    return ops


def _robo_barrier_op(cfg, phi, n):
    budgets = as_vector(cfg.risk_budgets)
    budgets = budgets / budgets.sum()
    lam = cfg.barrier / phi * budgets

    def op(t):
        return 0.5 * (t + np.sqrt(t * t + 4.0 * lam))

    return op


def _linear_set_rows(sets):
    rows, rhs = [], []
    for s in sets:
        if isinstance(s, Halfspace):
            rows.append(as_vector(s.c))
            rhs.append(float(s.d))
        else:
            raise TypeError("linear_sets accepts Halfspace descriptors")
    if not rows:
        return None, None
    return np.vstack(rows), np.asarray(rhs)


def _robo_solve(universe, cfg, formulation, admm_cfg=None):
    n = universe.n
    q, r = _robo_quadratic(universe, cfg)
    lower = np.broadcast_to(np.asarray(cfg.lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(cfg.upper, dtype=float), (n,))
    c_rows, d_vals = _linear_set_rows(cfg.linear_sets)
    dykstra_cfg = DykstraConfig(tol=1e-12)
    admm_cfg = admm_cfg or AdmmConfig(phi0=max(float(np.mean(np.diag(q))), 1e-3),
                                      eps=1e-9, eps_prime=1e-9, max_iter=50000)

    if formulation == "admm_qp":
        inner_cfg = default_qp_config()
        inner_cfg.eps = inner_cfg.eps_prime = 1e-12

        def x_update(y, u, phi):
            problem = QpProblem(q=q + phi * np.eye(n), r=r + phi * (y - u),
                                a=np.ones((1, n)), b=np.ones(1),
                                c=c_rows, d=d_vals, lower=lower, upper=upper)
            return qp_solve(problem, cfg=inner_cfg)

        def y_prox(phi):
            ops = _robo_l1_ops(cfg, phi, n)
            if cfg.barrier > 0:
                ops.append(_robo_barrier_op(cfg, phi, n))
            for s in cfg.nonlinear_sets:
                ops.append(lambda t, s=s: project(s, t))
            if not ops:
                return lambda t: t
            if len(ops) == 1:
                return ops[0]
            return lambda t: dykstra_cycle(ops, t, dykstra_cfg)[0]

    elif formulation == "admm_ccd":
        state = {"x": np.full(n, 1.0 / n)}
        quad = PenaltyFactor(q)
        budgets = None
        if cfg.barrier > 0:
            budgets = as_vector(cfg.risk_budgets)
            budgets = budgets / budgets.sum()

        def x_update(y, u, phi):
            rhs = r + phi * (y - u)
            if cfg.barrier > 0:
                state["x"] = ccd_qp_logbarrier(q + phi * np.eye(n), rhs,
                                               cfg.barrier * budgets, state["x"],
                                               CdConfig(tol=1e-12))
            else:
                state["x"] = quad.solve(rhs, phi)
            return state["x"]

        linear_ops = _linear_ops(np.ones((1, n)), np.ones(1), c_rows, d_vals,
                                 lower, upper, n)

        def y_prox(phi):
            ops = _robo_l1_ops(cfg, phi, n) + linear_ops
            for s in cfg.nonlinear_sets:
                ops.append(lambda t, s=s: project(s, t))
            return lambda t: dykstra_cycle(ops, t, dykstra_cfg)[0]

    else:
        raise ValueError(f"unknown formulation {formulation!r}")

    problem = AdmmProblem(x_update=x_update, y_prox=y_prox)
    x0 = np.full(n, 1.0 / n)
    x, y, report = admm_solve(problem, x0, x0, admm_cfg)
    if not report.converged:
        raise MaxIterExceeded(f"robo {formulation} did not converge",
                              last=y, report=report)
    # the CCD split keeps the budget geometry in y; the QP split in x
    out = x if formulation == "admm_qp" else y
    return out


def robo_advisor(universe, cfg, admm_cfg=None):
    """Solve the managed-account objective under the configured split.

    formulation="both" runs the QP and CCD splits and raises
    FormulationDisagreement beyond a 1e-3 gap (diagnostic for a bad
    configuration); otherwise the requested split runs alone.
    """
    if cfg.formulation == "both":
        w_qp = _robo_solve(universe, cfg, "admm_qp", admm_cfg)
        w_ccd = _robo_solve(universe, cfg, "admm_ccd", admm_cfg)
        gap = float(np.max(np.abs(w_qp - w_ccd)))
        if gap > 1e-3:
            raise FormulationDisagreement(f"splits disagree by {gap:.2e}", last=w_qp)
        return _gate(w_qp)
    return _gate(_robo_solve(universe, cfg, cfg.formulation, admm_cfg))
