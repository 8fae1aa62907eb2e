"""Allocation models assembled from the CCD / ADMM / Dykstra engines.

Mean-variance and its cost/tracking variants stay quadratic programs;
turnover-capped mean-variance, minimum-variance with diversification
floors, risk budgeting, the most-diversified portfolio, KL and
Rao-entropy portfolios, and the composite managed-account objective are
solved by splitting: a smooth x-subproblem (a closed-form prox or CCD)
against one y-block per constraint set or nonsmooth term, each a
closed-form prox from the operator catalogue, joined by consensus ADMM.
Inputs whose constraint sets are empty are caught before the ADMM loop
starts.

Every model returns PortfolioWeights whose vector has passed one common
normalization gate (tiny negative clips, budget rescale), so solver
slack never leaks into downstream statistics.
"""

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .admm import AdmmConfig, AdmmProblem, admm_solve, consensus_problem
from .cd import CdConfig, _check_stdev_scale, ccd_qp_logbarrier, ccd_rb_stdev
from .dykstra import DykstraConfig, dykstra_cycle
from .errors import (
    BadK,
    DimensionMismatch,
    FormulationDisagreement,
    IndefiniteUnhandled,
    InfeasibleSuspected,
    InfeasibleTargets,
    MaxIterExceeded,
    OutOfDomain,
    TargetUnreachable,
    UnreachableDiversification,
)
from .linalg import PenaltyFactor, RootBracket, as_matrix, as_vector, bisect, lambert_w_exp
from .prox import (
    Box,
    EffectiveBetsCone,
    Halfspace,
    Hyperplane,
    LpBall,
    projector,
    prox_bid_ask,
    prox_kl,
    prox_log_barrier,
    soft_threshold,
)
from .qp import POLISH_TOL, QpProblem, _Bridge, _certified, linear_projection, qp_solve


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
    """Current holdings plus trading frictions and a turnover cap."""

    current: object
    bid_cost: object = 0.0
    ask_cost: object = 0.0
    turnover_cap: Optional[float] = None

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
    full matrix.  ``linear_sets`` holds Halfspace descriptors and
    ``nonlinear_sets`` any catalogued set; both must hold at the answer.
    ``formulation`` picks the split, each a consensus ADMM with one
    y-block per l1 pull, nonlinear set, linear set and the box:
    "admm_qp" keeps the quadratic and the budget plane in a closed-form
    ridge x-update and gives the barrier a y-block; "admm_ccd" keeps the
    quadratic and barrier in a coordinate-descent x-update and gives the
    budget plane a y-block.  "both" runs the two and cross-checks.
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

def _gate(w, long_only=True):
    """Normalization gate: clip solver residue, restore the budget."""
    w = as_vector(w).copy()
    if long_only:
        if np.min(w) < -1e-6:
            raise ValueError(f"long-only violated by {np.min(w):.2e}")
        w = np.maximum(w, 0.0)
    total = w.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"budget off by {total - 1.0:.2e}")
    return PortfolioWeights(w / total)


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
    for _ in range(100):
        t = 1.0 / (1.0 + theta * c)
        t2 = t * t
        g = float(a @ t2)
        if g <= 1.0:
            break
        step = g * (g**0.5 - 1.0) / float(ac @ (t2 * t))
        theta += step
        if step <= 1e-15 * theta:
            break
    return theta


def _solve_budget_qp(q, r, lower=None, upper=None, c=None, d=None, cfg=None, x0=None):
    problem = QpProblem(q=q, r=r, a=np.ones((1, len(r))), b=np.ones(1), c=c, d=d,
                        lower=lower, upper=upper)
    return qp_solve(problem, cfg=cfg, x0=x0)


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
    """The frontier portfolio at a return or volatility target.

    A return target above the minimum-variance return is one QP, the
    minimum variance under the extra row -mu'x <= -target_return.  A
    target above the return at gamma_max raises TargetUnreachable before
    that QP runs, and one that other constraints cut off is certified
    infeasible by the QP bridge.
    A volatility target bisects the trade-off weight gamma, since the
    achieved volatility increases with it.  A target outside the
    reachable band raises TargetUnreachable.
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
    if target_return is not None:
        # the gamma_max end of the frontier bounds the reachable return, to
        # the polish accuracy of its QP; past it the QP's dual certificate
        # can take its whole iteration budget to settle
        top = mvo_gamma(universe, gamma_max, lower, upper, ineq)
        top_val = stats(top, universe).expected_return
        if target > top_val + POLISH_TOL:
            raise TargetUnreachable(f"target {target} above the maximum {top_val:.6g}")
        if target >= top_val:
            return top
        c, d = ineq if ineq is not None else (np.zeros((0, universe.n)), np.zeros(0))
        try:
            w = _solve_budget_qp(universe.cov, np.zeros(universe.n), lower, upper,
                                 np.vstack([c, -universe.mu]),
                                 np.append(d, -float(target_return)))
        except InfeasibleSuspected as exc:
            raise TargetUnreachable(f"target {target} above the reachable return") from exc
        return _gate(w, long_only=lower is not None and np.all(np.asarray(lower) >= 0))
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
    with the smallest nonzero weight (the lowest index on ties) until
    exactly n_assets names remain invested.  Weights tie when equal in a
    polished (exact) answer and within POLISH_TOL in one ADMM ended, whose
    split of tied weights (duplicated assets, a singular Q) is rounding.
    A knocked-out asset gets an upper bound of 0, so every round solves
    one QP split, factored once.  After the first round, each round tries
    the exact optimum on the last support, with the zero weights and the
    knocked-out asset pinned at 0, and runs ADMM from the last weights
    only when qp_solve's polish tests reject it.  Raises BadK unless
    n_assets is an integer in [1, n] and DimensionMismatch unless the
    benchmark has n entries.
    """
    n = universe.n
    if not isinstance(n_assets, numbers.Integral) or not 1 <= n_assets <= n:
        raise BadK(f"n_assets must be an integer in [1, {n}], got {n_assets!r}")
    b = as_vector(benchmark, "benchmark")
    if b.size != n:
        raise DimensionMismatch(f"benchmark has {b.size} entries for {n} assets")
    upper = np.ones(n)
    bridge = _Bridge(QpProblem(q=universe.cov, r=universe.cov @ b, a=np.ones((1, n)),
                               b=np.ones(1), lower=np.zeros(n), upper=upper), cfg)
    live_tol = 1e-7
    w = None
    while True:
        x, report = bridge.solve(x0=w, guess=w)
        w = np.where(x < live_tol, 0.0, x)
        active = np.flatnonzero(w > 0)
        if active.size <= n_assets:
            break
        # that rounding depends on the ADMM start, so ties there are loose
        tie = 0.0 if report.polished else POLISH_TOL
        upper[active[w[active] <= np.min(w[active]) + tie][0]] = 0.0
        bridge.set_upper(upper)
    # the check qp_solve gives every answer it returns; the weights carry no
    # report yet, so its residual is dropped here
    _certified(bridge.problem, x, report, return_report=False)
    return _gate(w)


def mvo_turnover(universe, gamma, current, turnover_cap, cfg=None):
    """MVO with the sum of buys and sells capped: min 0.5 x'Cx - gamma mu'x
    s.t. 1'x = 1, 0 <= x <= 1, ||x - current||_1 <= turnover_cap.

    The consensus split of rebalance_penalized (box and l1-ball blocks,
    the same InfeasibleTargets check) with gamma mu in the x-update.
    """
    if turnover_cap < 0:
        raise ValueError("turnover_cap must be nonnegative")
    return _rebalance_split(universe, as_vector(current), turnover_cap, None, [],
                           gamma * universe.mu, cfg)


def mvo_costs(universe, gamma, current, bid_cost, ask_cost, cfg=None):
    """MVO net of bid/ask transaction costs, with the budget financed.

    A 3n-variable QP in (x, buys, sells) with x = current + buys - sells;
    the financing identity sum x + sells'bid + buys'ask = 1 replaces the
    plain budget row.
    """
    n = universe.n
    current = as_vector(current)
    bid = np.broadcast_to(np.asarray(bid_cost, dtype=float), (n,))
    ask = np.broadcast_to(np.asarray(ask_cost, dtype=float), (n,))
    if np.any(bid < 0) or np.any(ask < 0):
        raise ValueError("costs must be nonnegative")
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

def _gmv_admm(universe, blocks, start=None, cfg=None, plane=None, linear=0.0):
    """Minimum variance on the plane a'x = 1 plus one y-block per term.

    The x-prox is the ridge solve
    argmin 0.5 x'(cov + rho I)x - (linear + rho v)'x s.t. a'x = 1, with
    a = ``plane`` (the budget normal 1 by default); ``blocks`` are the
    y-prox builders of the remaining terms, joined by consensus_problem.
    Starts at ``start`` (the equal point 1 / 1'a on the plane by default)
    and returns the first block's y.
    """
    n = universe.n
    cfg = cfg or AdmmConfig(phi0=float(np.mean(np.diag(universe.cov))),
                            eps=1e-11, eps_prime=1e-11, max_iter=100000)
    quad = PenaltyFactor(universe.cov)
    a = np.ones(n) if plane is None else plane
    problem = consensus_problem(
        lambda v, rho: quad.solve_on_plane(linear + rho * v, rho, a, 1.0), blocks, n)
    x0 = np.full(n, 1.0 / a.sum()) if start is None else as_vector(start)
    _, y, report = admm_solve(problem, x0, np.tile(x0, len(blocks)), cfg)
    if not report.converged:
        raise MaxIterExceeded("minimum-variance ADMM did not converge",
                              last=y[:n], report=report)
    return y[:n]


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
        ops = [projector(LpBall(2, np.zeros(n), radius), n),
               projector(Box(np.zeros(n), upper_vec), n)]
        # v is the ADMM iterate K x + u, which admm_solve has found finite
        projection = lambda v: dykstra_cycle(ops, v, dykstra_cfg, check=False)[0]
        return _gate(_gmv_admm(universe, [lambda phi: projection], cfg=cfg)), None

    raise ValueError(f"unknown method {method!r}")


def _entropy_floor_projection(v, floor, lower, upper, theta_max=1e12):
    """Euclidean projection onto {x in box : -sum x ln x >= floor}.

    The dual problem is coordinate-separable: for a multiplier theta >= 0
    on the entropy term the unique scalar stationary point is
    x_i(theta) = theta W(exp(v_i/theta - 1 - ln theta)), clipped into the
    box (exact, because the scalar objective stays strictly convex).
    theta is then bisected on the entropy of the clipped path, so the
    whole box-and-entropy intersection costs one scalar root find.  v is
    an ADMM iterate, already checked finite by the loop, so nothing on
    this path revalidates it; each point of the path is kept, so no theta
    is evaluated twice.
    """
    clipped = np.clip(v, lower, upper)
    if _entropy(clipped) >= floor:
        return clipped
    path = {}

    def entropy_at(theta):
        if theta not in path:
            x = np.clip(theta * lambert_w_exp(v / theta - 1.0 - np.log(theta)), lower, upper)
            path[theta] = (_entropy(x), x)
        return path[theta]

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

        return _gate(_gmv_admm(universe, [lambda phi: projection], cfg=cfg))
    raise TypeError(f"unknown diversification constraint {constraint!r}")


def rebalance_penalized(universe, current, cost_scale=0.0, bid_cost=0.0,
                        ask_cost=0.0, turnover_cap=None, upper=None, cfg=None):
    """Minimum variance shaped by trading frictions around current holdings.

    Consensus ADMM with one y-block per term: the long-only box, the
    l1-ball of the turnover cap centered at the holdings, and the bid/ask
    prox of the costs (a no-trade band around the holdings).  A turnover
    cap below the l1 distance from the holdings c to the long-only budget
    set, sum |c - clip(c)| + |1 - sum clip(c)| with clip into [0, upper],
    raises InfeasibleTargets before the loop, with clip(c) as ``last``.
    """
    current = as_vector(current)
    costs = []
    if cost_scale > 0:
        costs.append(lambda phi: lambda t: prox_bid_ask(t, cost_scale / phi, bid_cost,
                                                        ask_cost, current))
    return _rebalance_split(universe, current, turnover_cap, upper, costs, 0.0, cfg)


def _rebalance_split(universe, current, turnover_cap, upper, costs, linear, cfg):
    """Body of rebalance_penalized and mvo_turnover: min 0.5 x'Cx - linear'x
    on the budget plane with a box block [0, upper], the l1 turnover ball
    around ``current`` (when a cap is given) and the ``costs`` blocks."""
    n = universe.n
    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if turnover_cap is not None and turnover_cap <= 0:
        return _gate(current)
    blocks = [_projection(Box(np.zeros(n), upper_vec), n)]
    if turnover_cap is not None:
        clipped = np.clip(current, 0.0, upper_vec)
        needed = float(np.sum(np.abs(current - clipped)) + abs(1.0 - clipped.sum()))
        if turnover_cap < needed:
            raise InfeasibleTargets(f"turnover cap {turnover_cap} below the {needed:.6g} "
                                    "needed to reach a long-only budget portfolio",
                                    last=clipped)
        blocks.append(_projection(LpBall(1, current, float(turnover_cap)), n))
    blocks += costs
    return _gate(_gmv_admm(universe, blocks, start=current, cfg=cfg, linear=linear))


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
    volatility measure, and for the stdev measure the prox of
    -excess'x + xi sqrt(x'cov x), in closed form up to one scalar root.
    With cov = V diag(l) V' (decomposed once) and w = V'(phi v + excess),
    the prox at v is V z, z_k = w_k s / (phi s + xi l_k) where l_k > 0 and
    z_k = w_k / phi where l_k = 0.  s = sqrt(x'cov x) is the root of
    sum_{l_k > 0} l_k w_k^2 / (phi s + xi l_k)^2 = 1 (the trust-region
    secular equation of More & Sorensen 1983), or 0 when that sum is at
    most 1 at s = 0.  The y-update is the closed-form prox of the barrier
    -lam sum_i b_i ln y_i.  The penalty stays at phi, and the solve stops
    once the primal residual ||x - y|| and the dual residual
    phi ||y - y_prev|| are both at most tol.

    Raises OutOfDomain with ``last`` = y once y's Sharpe ratio
    excess'y / sqrt(y'cov y) reaches xi: the objective then falls
    without bound along t y, as in ccd_rb_stdev.
    """
    n = universe.n
    cov = universe.cov
    if isinstance(measure, Volatility):
        quad = PenaltyFactor(cov)
        x_update = lambda y, u, phi: quad.solve(phi * (y - u), phi)
    else:
        excess, xi = _excess_and_scale(universe, measure)
        _check_stdev_scale(excess, xi, np.diag(cov))
        eig, vecs = np.linalg.eigh(cov)
        pos = eig > 1e-12 * eig[-1]  # below this, eigh's rounding decides the sign
        eig = eig[pos]
        inv_xi_eig = 1.0 / (xi * eig)

        def x_update(y, u, phi):
            if float(excess @ y) >= xi * float(y @ cov @ y) ** 0.5:
                raise OutOfDomain(f"risk-budgeting ADMM: the iterate's Sharpe ratio "
                                  f"reached the stdev scale {xi:.6g}; the objective is "
                                  "unbounded below", last=y.copy())
            w = vecs.T @ (phi * (y - u) + excess)
            w_pos = w[pos]
            s = _secular_root(w_pos * w_pos * inv_xi_eig / xi, phi * inv_xi_eig)
            z = w / phi
            z[pos] = w_pos * s / (phi * s + xi * eig)
            return vecs @ z

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
    the Newton direction fails to descend.  Only the entropy-floor MDP
    runs it, as its ADMM x-update: made homogeneous, an entropy floor is a
    relative-entropy cone, whose projection has no closed form.
    """
    n = cov.shape[0]
    ones = np.ones(n)
    x = as_vector(x0).copy()

    def value(xx):
        q = xx @ cov @ xx
        s = xx @ sigma
        if s <= 0 or q <= 0:
            return np.inf
        return 0.5 * np.log(q) - np.log(s) + 0.5 * phi * np.sum((xx - anchor) ** 2)

    def gradient(xx):
        cov_x = cov @ xx
        q = xx @ cov_x
        s = xx @ sigma
        return cov_x / q - sigma / s + phi * (xx - anchor), cov_x, q, s

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
    """Most diversified portfolio: maximize w'sigma / sqrt(w'Cw) on 1'w = 1.

    The ratio ignores scale, so w = y / 1'y with y = argmin y'Cy s.t.
    sigma'y = 1 over the same cone of directions (Choueifaty & Coignard
    2008).  Long/short: w = z / 1'z with z = C^-1 sigma, and OutOfDomain
    when 1'z <= 0, as the ratio then has no maximum on the budget plane.
    Long-only: one consensus split on sigma'y = 1 with y-blocks for the
    orthant, an effective-bets floor N (the cone sqrt(N) ||y|| <= 1'y) and
    each cap u_i < 1 (y_i <= u_i 1'y).  An entropy floor has no closed-form
    homogeneous projection and keeps ADMM around ``_mdp_inner``.
    """
    n = universe.n
    cov, sigma = universe.cov, universe.sigma
    if not long_only:
        if constraint is not None:
            raise ValueError("diversification floors need long_only=True")
        z = PenaltyFactor(cov).solve(sigma)
        if z.sum() <= 0:
            raise OutOfDomain(f"1'cov^-1 sigma = {z.sum():.3g} <= 0: the long/short "
                              "diversification ratio has no maximum on the budget plane")
        return PortfolioWeights(z / z.sum())

    upper_vec = np.ones(n) if upper is None else np.broadcast_to(
        np.asarray(upper, dtype=float), (n,))
    if isinstance(constraint, ShannonEntropyFloor):
        state = {"x": np.full(n, 1.0 / n)}

        def x_update(y, u, phi):
            state["x"] = _mdp_inner(cov, sigma, phi, y - u, state["x"])
            return state["x"]

        projection = lambda v: _entropy_floor_projection(v, constraint.minimum,
                                                         np.zeros(n), upper_vec)
        cfg = cfg or AdmmConfig(phi0=1.0, eps=1e-8, eps_prime=1e-8, max_iter=50000)
        problem = AdmmProblem(x_update=x_update, y_prox=lambda phi: projection)
        _, y, report = admm_solve(problem, state["x"], state["x"], cfg)
        if not report.converged:
            raise MaxIterExceeded("MDP ADMM did not converge", last=y, report=report)
        return _gate(y)

    blocks = [_projection(Box(0.0, np.inf), n)]
    if isinstance(constraint, EffectiveBets):
        blocks.append(_projection(EffectiveBetsCone(constraint.minimum), n))
    elif constraint is not None:
        raise TypeError(f"unknown diversification constraint {constraint!r}")
    blocks += [_projection(Halfspace(row - cap, 0.0), n)
               for row, cap in zip(np.eye(n), upper_vec) if cap < 1]
    y = _gmv_admm(universe, blocks, cfg=cfg, plane=sigma)
    return _gate(y / y.sum())


# ---------------------------------------------------------------------------
# entropy portfolios
# ---------------------------------------------------------------------------

def _volatility_ball_projection(cov, radius):
    """Euclidean projection onto the ellipsoid {x : x' cov x <= radius^2}.

    Returns the projection as a function of v.  With cov = V diag(lam) V'
    and w = V'v, the projection of an outside v is V (w / (1 + theta lam))
    at the root theta of sum_i lam_i w_i^2 / (1 + theta lam_i)^2 = radius^2,
    found by ``_secular_root``.  cov is decomposed once, here.
    """
    lam, vecs = np.linalg.eigh(cov)
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
    mu on an expanding bracket.  A target at max mu has no finite root:
    its answer is the limit, the best assets in proportion to ref.
    """
    w = reference / reference.sum()
    top = float(np.max(mu))
    spread = top - float(np.min(mu))
    if target is None or spread == 0.0 or target <= mu @ w:
        return w
    if target >= top:
        best = np.where(mu == top, reference, 0.0)
        return best / best.sum()
    d = (mu - top) / spread
    goal = (target - top) / spread
    log_ref = np.log(reference)

    def tilt(lam):
        z = log_ref + lam * d
        e = np.exp(z - z.max())
        return e / e.sum()

    lam_hi = 1.0
    while tilt(lam_hi) @ d < goal:
        lam_hi *= 4.0
    lam = bisect(lambda t: tilt(t) @ d - goal, RootBracket(0.0, lam_hi, tol=1e-14))
    return tilt(lam)


def kl_portfolio(universe, reference, target_return=None, max_volatility=None,
                 cfg=None):
    """Minimize KL(w | reference) under the budget and return/vol targets.

    Without a volatility cap the answer is closed form: the exponential
    tilt of the reference toward mu (``_kl_tilt``), one scalar root when
    the return target binds, and ``cfg`` is unused.  Under a volatility
    cap it is consensus ADMM: the x-update is the KL prox, and the budget
    plane, the return half-space and the volatility ellipsoid get one
    y-block each.  The long-only box needs no block: the KL prox returns
    positive weights, and the plane caps their sum at 1.  Targets that no
    long-only portfolio meets raise InfeasibleTargets before any solve,
    with the portfolio that certifies it as ``last``: the asset of largest
    expected return, or the minimum-volatility portfolio (on the
    long-only frontier at the return target when one binds).
    """
    n = universe.n
    reference = as_vector(reference)
    if np.any(reference <= 0):
        raise ValueError("reference weights must be positive")
    if target_return is not None:
        best = int(np.argmax(universe.mu))
        if target_return > universe.mu[best]:
            raise InfeasibleTargets(f"return target {target_return} above the largest "
                                    f"expected return {universe.mu[best]:.6g}",
                                    last=np.eye(n)[best])
    if max_volatility is None:
        return _gate(_kl_tilt(universe.mu, reference, target_return))
    blocks = [_projection(Hyperplane(np.ones(n), 1.0), n)]
    # at or below the smallest expected return the target is vacuous
    if target_return is not None and target_return > np.min(universe.mu):
        blocks.append(_projection(Halfspace(-universe.mu, -float(target_return)), n))
    floor = _solve_budget_qp(universe.cov, np.zeros(n), np.zeros(n), np.ones(n))
    if target_return is not None and floor @ universe.mu < target_return:
        # the return target binds: trace the long-only frontier to it
        floor = mvo_target(universe, target_return=target_return,
                           lower=np.zeros(n), upper=np.ones(n)).w
    floor_vol = float(np.sqrt(floor @ universe.cov @ floor))
    if max_volatility < floor_vol - 1e-6:
        raise InfeasibleTargets(f"volatility cap {max_volatility} below the minimum "
                                f"{floor_vol:.6g}", last=floor)
    ball = _volatility_ball_projection(universe.cov, max_volatility)
    blocks.append(lambda phi: ball)

    # prox_kl carries the linear term x (1/ref - 1); shifting its input by
    # lam (1/ref - 1) cancels that term, leaving the prox of
    # lam * sum x ln(x / ref), whose minimum sits at the reference
    shift = 1.0 / reference - 1.0
    cfg = cfg or AdmmConfig(phi0=1.0, eps=1e-10, eps_prime=1e-10, max_iter=100000)
    problem = consensus_problem(
        lambda v, rho: prox_kl(v + shift / rho, 1.0 / rho, reference), blocks, n)
    x0 = reference / reference.sum()
    _, y, report = admm_solve(problem, x0, np.tile(x0, len(blocks)), cfg)
    if not report.converged:
        raise InfeasibleTargets("KL portfolio targets look unreachable",
                                last=y[:n], report=report)
    w = _gate(y[:n])
    s = stats(w, universe)
    if target_return is not None and s.expected_return < target_return - 1e-6:
        raise InfeasibleTargets(f"return target missed by {target_return - s.expected_return:.2e}")
    if s.volatility > max_volatility + 1e-6:
        raise InfeasibleTargets(f"volatility cap exceeded by {s.volatility - max_volatility:.2e}")
    return w


def rqe_portfolio(dissimilarity, lower=None, upper=None, cfg=None):
    """Stationary point of 0.5 w'Dw on the long-only budget set.

    D is a nonnegative symmetric dissimilarity with zero diagonal and is
    generally indefinite (its trace is zero), so the splitting penalty is
    floored at 1.1 |lambda_min(D)| + 1e-6 and inflated until the
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

    floor = 1.1 * abs(float(np.linalg.eigvalsh(d)[0])) + 1e-6
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


def _soft_pull(weight, scale, anchor):
    """y-block of the l1 pull weight * ||diag(scale) (x - anchor)||_1."""
    def build(phi):
        lam = weight / phi * scale
        return lambda t: anchor + soft_threshold(t - anchor, lam)

    return build


def _robo_solve(universe, cfg, formulation, admm_cfg=None):
    n = universe.n
    if formulation not in ("admm_qp", "admm_ccd"):
        raise ValueError(f"unknown formulation {formulation!r}")
    q, r = _robo_quadratic(universe, cfg)
    lower = np.broadcast_to(np.asarray(cfg.lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(cfg.upper, dtype=float), (n,))
    if not all(isinstance(s, Halfspace) for s in cfg.linear_sets):
        raise TypeError("linear_sets accepts Halfspace descriptors")
    c_rows = d_vals = None
    if cfg.linear_sets:
        c_rows = np.vstack([as_vector(s.c) for s in cfg.linear_sets])
        d_vals = np.array([float(s.d) for s in cfg.linear_sets])
    ones = np.ones(n)
    x0 = ones / n
    try:
        linear_projection(ones[None, :], np.ones(1), c_rows, d_vals, lower, upper, x0)
    except InfeasibleSuspected as exc:
        raise InfeasibleSuspected("the budget, box and linear sets look disjoint",
                                  last=exc.last) from exc
    admm_cfg = admm_cfg or AdmmConfig(phi0=max(float(np.mean(np.diag(q))), 1e-3),
                                      eps=1e-9, eps_prime=1e-9, max_iter=50000)
    budgets = None
    if cfg.barrier > 0:
        budgets = as_vector(cfg.risk_budgets)
        budgets = budgets / budgets.sum()
    pulls = ((cfg.l1_current, cfg.shape_l1_current, cfg.current),
             (cfg.l1_reference, cfg.shape_l1_reference, cfg.reference))
    blocks = [_soft_pull(weight, _as_diag(shape, n), as_vector(anchor))
              for weight, shape, anchor in pulls if weight > 0]
    blocks += [_projection(s, n) for s in cfg.nonlinear_sets]
    sets = [*cfg.linear_sets, Box(lower, upper)]
    quad = PenaltyFactor(q)

    if formulation == "admm_qp":
        def x_prox(v, rho):
            return quad.solve_on_plane(r + rho * v, rho, ones, 1.0)

        blocks += [_projection(s, n) for s in sets]
        if budgets is not None:
            blocks.append(lambda phi: lambda t: prox_log_barrier(t, cfg.barrier / phi,
                                                                 budgets))
    else:
        state = {"x": x0}

        def x_prox(v, rho):
            rhs = r + rho * v
            if budgets is not None:
                state["x"] = ccd_qp_logbarrier(q + rho * np.eye(n), rhs,
                                               cfg.barrier * budgets, state["x"],
                                               CdConfig(tol=1e-12))
            else:
                state["x"] = quad.solve(rhs, rho)
            return state["x"]

        blocks += [_projection(s, n) for s in (Hyperplane(ones, 1.0), *sets)]

    x, _, report = admm_solve(consensus_problem(x_prox, blocks, n), x0,
                              np.tile(x0, len(blocks)), admm_cfg)
    if not report.converged:
        raise MaxIterExceeded(f"robo {formulation} did not converge",
                              last=x, report=report)
    return x


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
