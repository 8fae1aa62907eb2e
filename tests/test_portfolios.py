import collections
import importlib.util
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from proxalloc import data
from proxalloc.admm import AdmmConfig, admm_lasso_lambda
from proxalloc.cd import CdConfig, cd_lasso
from proxalloc.errors import (
    BadK,
    DimensionMismatch,
    Diverged,
    InfeasibleSuspected,
    InfeasibleTargets,
    MaxCyclesExceeded,
    MaxIterExceeded,
    NegativeCost,
    NegativeLambda,
    NotPositiveDefinite,
    OutOfDomain,
    ProxallocError,
    TargetUnreachable,
    UnreachableDiversification,
)
from proxalloc.linalg import solve_spd
from proxalloc.portfolios import (
    AssetUniverse,
    EffectiveBets,
    RoboConfig,
    ShannonEntropyFloor,
    StdevRisk,
    Volatility,
    effective_bets,
    erc,
    gmv_diversified,
    gmv_herfindahl,
    index_sampling,
    kl_portfolio,
    mdp,
    mvo_benchmark,
    mvo_costs,
    mvo_gamma,
    mvo_target,
    mvo_turnover,
    rebalance_penalized,
    risk_budgeting,
    risk_contributions,
    robo_advisor,
    rqe_portfolio,
    shannon_entropy,
    stats,
)
from proxalloc.qp import QpProblem, qp_solve, stationarity_residual

SET1 = data.parameter_set_1()
SET2 = data.parameter_set_2()
EW8 = np.full(8, 1.0 / 8.0)


def duplicate_asset(u, i):
    """u with a copy of asset i appended: same return, volatility and correlations."""
    keep = np.append(np.arange(u.n), i)
    return AssetUniverse(names=[*u.names, f"{u.names[i]} copy"], mu=u.mu[keep],
                         sigma=u.sigma[keep], rho=u.rho[np.ix_(keep, keep)])


def frontier_oracle(u, level, lower, upper):
    """The minimum variance on the budget and the box, with mu'x = level
    unless level is None: one qp_solve, the oracle of the critical-line walk.

    At a level no lower than the GMV's return this is the minimum variance
    with mu'x >= level.  The row is an equality because the polish takes
    an inequality's slack up to POLISH_TOL as inactive, and near the top
    of the line a slack of 1e-12 in return moves the weights by 1e-9.
    """
    n = u.n
    a, b = (np.ones((1, n)), np.ones(1)) if level is None else (
        np.vstack([np.ones(n), u.mu]), np.array([1.0, level]))
    return qp_solve(QpProblem(q=u.cov, r=np.zeros(n), a=a, b=b, lower=lower, upper=upper))


def cold_index_sampling(u, b, k):
    """index_sampling as one cold qp_solve per knock-out round, the oracle.

    Weights within POLISH_TOL of the smallest tie, and ties go to the
    lowest index, as in index_sampling.
    """
    from proxalloc.qp import POLISH_TOL

    n, upper = u.n, np.ones(u.n)
    while True:
        problem = QpProblem(q=u.cov, r=u.cov @ b, a=np.ones((1, n)), b=np.ones(1),
                            lower=np.zeros(n), upper=upper.copy())
        x = qp_solve(problem)
        w = np.where(x < 1e-7, 0.0, x)
        active = np.flatnonzero(w > 0)
        if active.size <= k:
            return np.maximum(w, 0.0) / w.sum()
        upper[active[w[active] <= w[active].min() + POLISH_TOL][0]] = 0.0


def zeros_universe():
    """factor_universe at seed 3 and n = 10."""
    return factor_universe(np.random.default_rng(3), 10)


def zeros_benchmark():
    """A Dirichlet benchmark on 10 names with names 1, 4 and 7 at 0."""
    b = np.random.default_rng(3).dirichlet(np.ones(10))
    b[[1, 4, 7]] = 0.0
    return b / b.sum()


def assert_same_sampling(w, expected):
    assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
    assert np.max(np.abs(w - expected)) <= 1e-8


def perfbench_universe():
    """The benchmark's universe module, perfbench/universe.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "universe.py"
    spec = importlib.util.spec_from_file_location("perfbench_universe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def factor_universe(rng, n):
    """The benchmark's seeded factor-model universe."""
    return perfbench_universe().factor_universe(rng, n)


def assert_polished_kkt(report, grad_f, normals, support=None):
    """A split ended by its polish within 64 iterations, at a KKT point.

    ``normals`` holds the gradient of the smooth constraint, then the
    normals of the linear rows, as columns.  With the multipliers fitted
    by least squares on the support, grad_f + normals @ m vanishes there
    to POLISH_TOL max(1, ||grad_f||_inf) and is >= 0 on the zeros; the
    smooth constraint's multiplier m[0] is >= 0.
    """
    from proxalloc.qp import POLISH_TOL

    assert report.polished and report.iterations <= 64
    support = np.ones(grad_f.size, dtype=bool) if support is None else support
    m, *_ = np.linalg.lstsq(normals[support], -grad_f[support], rcond=None)
    reduced = grad_f + normals @ m
    tol = POLISH_TOL * max(1.0, float(np.max(np.abs(grad_f))))
    assert np.max(np.abs(reduced[support])) <= tol
    assert np.all(reduced[~support] >= -tol)
    assert m[0] >= -tol
    return m


def tilted_universe():
    """Set #1 with nonzero expected returns for the targeting tests."""
    u = SET1.universe
    mu = 0.02 + 0.01 * np.arange(8)
    return AssetUniverse(names=u.names, mu=mu, sigma=u.sigma, rho=u.rho)


def kl_universe():
    """Set #1 with a Sharpe ratio of 0.3 per asset, the benchmark's KL universe."""
    u = SET1.universe
    return AssetUniverse(names=u.names, mu=0.3 * u.sigma, sigma=u.sigma, rho=u.rho)


def herfindahl_oracle(u, bets, upper=1.0):
    """min x'cov x on the long-only budget set with 1/||x||^2 >= bets, by SLSQP.

    SLSQP stops once the objective changes by less than ftol, which leaves
    the weights about 1e-8 from the optimum.  A second run restarts at the
    first answer x1 with the objective written as its change from there,
    (x - x1)'cov(x - x1) + 2 (cov x1)'(x - x1), whose small values resolve
    a tolerance of 1e-24 and bring the weights to about 1e-10.
    """
    n = u.n
    cov = u.cov / np.mean(np.diag(u.cov))
    constraints = [{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(n)},
                   {"type": "ineq", "fun": lambda x: 1.0 / bets - x @ x,
                    "jac": lambda x: -2.0 * x}]
    x = np.full(n, 1.0 / n)
    for ftol in (1e-16, 1e-24):
        x1, g1 = x, cov @ x
        x = minimize(lambda x: (x - x1) @ cov @ (x - x1) + 2.0 * g1 @ (x - x1), x1,
                     jac=lambda x: 2.0 * (cov @ (x - x1) + g1), method="SLSQP",
                     bounds=[(0.0, upper)] * n, constraints=constraints,
                     options={"ftol": ftol, "maxiter": 1000}).x
    return x


def assert_ridge_certificate(u, w, lam, bets, upper=1.0):
    """Check (w, lam) against the KKT conditions of the effective-bets floor.

    For lam >= 0 the ridge QP min x'(cov + lam I)x on the long-only budget
    set under the caps has one answer, which the QP bridge finds; w must be
    it to 1e-9, meet the floor, and sit on the ball 1/||w||^2 = bets when
    0 < lam < inf (complementary slackness).  Together these certify w as
    the optimum and lam as the ball's multiplier.
    """
    from proxalloc.portfolios import _solve_budget_qp

    n = u.n
    assert 0.0 <= lam < np.inf
    ridge = _solve_budget_qp(u.cov + lam * np.eye(n), np.zeros(n), lower=np.zeros(n),
                             upper=np.broadcast_to(upper, (n,)))
    assert np.max(np.abs(w - ridge)) <= 1e-9
    assert effective_bets(w) >= bets - 1e-9
    if lam > 0.0:
        assert abs(effective_bets(w) - bets) <= 1e-9


def duplicated_asset_universe():
    """Set #1 with a ninth asset that copies asset 7, so cov is singular."""
    u = SET1.universe
    idx = list(range(8)) + [6]
    return AssetUniverse(names=[f"a{i}" for i in range(9)], mu=u.mu[idx],
                         sigma=u.sigma[idx], rho=u.rho[np.ix_(idx, idx)])


def no_polish(*args, **kwargs):
    """A stand-in for portfolios._smooth_polish whose hook never polishes."""
    return lambda *hook_args: None


@pytest.fixture
def admm_reports(monkeypatch):
    """The reports of every admm_solve the models run, in call order."""
    from proxalloc import portfolios

    reports = []
    admm_solve = portfolios.admm_solve

    def reported(*args, **kwargs):
        result = admm_solve(*args, **kwargs)
        reports.append(result[2])
        return result

    monkeypatch.setattr(portfolios, "admm_solve", reported)
    return reports


@pytest.fixture
def dykstra_sweeps(monkeypatch):
    """The operator lists of every dykstra_cycle the models run, in call order."""
    from proxalloc import portfolios

    sweeps = []
    cycle = portfolios.dykstra_cycle

    def counted(ops, *args, **kwargs):
        sweeps.append(ops)
        return cycle(ops, *args, **kwargs)

    monkeypatch.setattr(portfolios, "dykstra_cycle", counted)
    return sweeps


@pytest.fixture
def checks(monkeypatch):
    """{"as_vector": count, "as_matrix": count} of the calls every proxalloc
    module makes to the two entry checks, and the same counts per argument
    shape under the keys (name, shape); clear() restarts the count."""
    import sys

    from proxalloc import linalg

    calls = collections.Counter()
    for check in (linalg.as_vector, linalg.as_matrix):
        def counted(*args, check=check, **kwargs):
            calls[check.__name__] += 1
            calls[check.__name__, np.shape(args[0])] += 1
            return check(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("proxalloc") and getattr(module, check.__name__, None) is check:
                monkeypatch.setattr(module, check.__name__, counted)
    return calls


def rebalance_account(seed, n):
    """A seeded account: universe, holdings, bid and ask costs."""
    rng = np.random.default_rng([22, seed, n])
    u = factor_universe(rng, n)
    return (u, rng.dirichlet(np.ones(n)), rng.uniform(0.001, 0.004, n),
            rng.uniform(0.001, 0.004, n))


def trade_variable_qp(u, current, cap, bid, ask, linear, upper=1.0):
    """The rebalancing model as a QP in (x, buys, sells) with x = current +
    buys - sells in [0, upper], its turnover 1'(buys + sells) <= cap and its
    costs linear.  Trades are capped at 2: from a short holding a name may
    need a buy above 1."""
    n = u.n
    q = np.zeros((3 * n, 3 * n))
    q[:n, :n] = u.cov
    q[n:, n:] = 1e-10 * np.eye(2 * n)
    a = np.vstack([np.concatenate([np.ones(n), np.zeros(2 * n)]),
                   np.hstack([np.eye(n), -np.eye(n), np.eye(n)])])
    problem = QpProblem(q=q, r=np.concatenate([linear, -ask, -bid]), a=a,
                        b=np.concatenate([[1.0], current]),
                        c=np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :],
                        d=np.array([cap]), lower=np.zeros(3 * n),
                        upper=np.concatenate([np.broadcast_to(upper, (n,)), np.full(2 * n, 2.0)]))
    return qp_solve(problem)[:n]


def assert_trade_kkt(u, w, current, cap, bid, ask, linear, upper=1.0):
    """w meets the KKT conditions of min 0.5 w'Cw - linear'w plus the costs
    bid'(c - w)_+ + ask'(w - c)_+ on the budget set in [0, upper] with
    ||w - c||_1 <= cap, to POLISH_TOL relative to 1 + ||Cw||_inf + ||linear||_inf.

    Names within 1e-12 of 0, upper or c are pinned there; the rest trade, and
    with the budget multiplier nu and the turnover multiplier theta,
    g = Cw - linear - nu is -ask - theta on buys and bid + theta on sells.
    theta >= 0, and it is 0 unless the cap binds.  g lies in
    [-ask - theta, bid + theta] on held names, is >= bid + theta at a zero
    sold out (>= -ask - theta at a zero held or bought up to) and
    <= -ask - theta at a cap bought up to (<= bid + theta at a cap held or
    sold down to).  When the cap binds and every trade goes one way s, the
    traded names fix nu - s theta only, and some theta >= 0 must pass.
    """
    from proxalloc.qp import POLISH_TOL

    cw = u.cov @ w
    tol = POLISH_TOL * (1.0 + np.max(np.abs(cw)) + np.max(np.abs(linear)))
    zero, top = w <= 1e-12, w >= upper - 1e-12
    held = ~zero & ~top & (np.abs(w - current) <= 1e-12)
    buy = ~(zero | top | held) & (w > current)
    sell = ~(zero | top | held) & (w < current)
    assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= 0.0)
    assert np.all(w <= upper + 1e-12)  # the gate's renormalization rounds off
    turnover = np.abs(w - current).sum()
    assert turnover <= cap + 1e-12
    traded = buy | sell
    rhs = (cw - linear + np.where(buy, ask, -bid))[traded]  # nu - s theta
    s, theta = 0.0, 0.0  # g = h - s theta with theta still free when s != 0
    if turnover < cap - 1e-12:
        nu = rhs.mean()
    elif buy.any() and sell.any():
        normals = np.column_stack([np.ones(traded.sum()), np.where(buy, -1.0, 1.0)[traded]])
        (nu, theta), *_ = np.linalg.lstsq(normals, rhs, rcond=None)
    else:
        s, nu = (1.0 if buy.any() else -1.0), rhs.mean()
    assert np.max(np.abs(rhs - nu + np.where(buy, 1.0, -1.0)[traded] * theta)) <= tol
    h = cw - linear - nu
    sold_out, zero_held = zero & (current > 0.0), zero & (current <= 0.0)
    bought_up, top_held = top & (current < upper), top & (current >= upper)
    # every test reads a + b theta >= 0
    a = np.concatenate([h[held] + ask[held], bid[held] - h[held], h[sold_out] - bid[sold_out],
                        h[zero_held] + ask[zero_held], -ask[bought_up] - h[bought_up],
                        bid[top_held] - h[top_held]])
    b = np.repeat([1.0 - s, 1.0 + s, -1.0 - s, 1.0 - s, s - 1.0, 1.0 + s],
                  [held.sum(), held.sum(), sold_out.sum(), zero_held.sum(), bought_up.sum(),
                   top_held.sum()])
    if s:
        theta = max(0.0, np.max(-a[b > 0] / b[b > 0], initial=0.0))
    assert theta >= -tol
    assert np.all(a + b * theta >= -tol)


def robo_ccd_reference(universe, cfg, admm_cfg=None):
    """The managed-account objective by a second split, the oracle for robo_advisor.

    The same consensus ADMM with the blocks moved: the x-update keeps the
    quadratic and the barrier in one ccd_qp_logbarrier solve at q + rho I,
    warm-started from the last one (a ridge solve when there is no
    barrier), and the budget plane gets a y-block next to the l1 pulls,
    the nonlinear sets, the linear sets and the box.  robo_advisor keeps
    the plane in its x-update and gives the barrier a y-block.
    """
    from proxalloc.admm import consensus_problem
    from proxalloc.cd import ccd_qp_logbarrier
    from proxalloc.linalg import PenaltyFactor, as_bound, as_vector
    from proxalloc.portfolios import (_as_diag, _gate, _projection, _robo_quadratic,
                                      _run_split, _soft_pull)
    from proxalloc.prox import Box, Hyperplane

    n = universe.n
    q, r = _robo_quadratic(universe, cfg)
    lower = as_bound(cfg.lower, 0.0, n, "lower")
    upper = as_bound(cfg.upper, 1.0, n, "upper")
    ones = np.ones(n)
    x0 = ones / n
    admm_cfg = admm_cfg or AdmmConfig(phi0=max(float(np.mean(np.diag(q))), 1e-3),
                                      eps=1e-9, max_iter=50000)
    budgets = None
    if cfg.barrier > 0:
        budgets = as_vector(cfg.risk_budgets)
        budgets = budgets / budgets.sum()
    pulls = ((cfg.l1_current, cfg.shape_l1_current, cfg.current),
             (cfg.l1_reference, cfg.shape_l1_reference, cfg.reference))
    blocks = [_soft_pull(weight, _as_diag(shape, n), as_vector(anchor))
              for weight, shape, anchor in pulls if weight > 0]
    blocks += [_projection(s, n) for s in cfg.nonlinear_sets]
    quad = PenaltyFactor(q)
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

    blocks += [_projection(s, n) for s in (Hyperplane(ones, 1.0), *cfg.linear_sets,
                                           Box(lower, upper))]
    return _gate(_run_split("robo CCD reference", consensus_problem(x_prox, blocks, n), x0,
                            admm_cfg)[0])


def loaded_robo_config():
    """Demo 07's loaded managed account on parameter set 1."""
    current = np.array([0.18, 0.12, 0.08, 0.14, 0.06, 0.12, 0.22, 0.08])
    return RoboConfig(benchmark=SET1.benchmark, reference=EW8, current=current, gamma=0.1,
                      l1_current=0.002, l2_reference=0.3, barrier=0.01, risk_budgets=EW8)


def one_way_account():
    """An equal-weight account whose optimum under 20 bp costs and a
    turnover cap of 0.5 sells five names out and buys two: the cap binds
    with theta > 0, and its row s'(x - c) is the budget row, one way."""
    return factor_universe(np.random.default_rng([9, 0, 20]), 20), np.full(20, 0.05), 0.5


def equicorrelated(smallest):
    """Three assets of unit volatility whose covariance's smallest eigenvalue,
    1 + 2 rho, is ``smallest``; the other two are 1 - rho = 1.5 - smallest / 2."""
    rho = np.full((3, 3), 0.5 * (smallest - 1.0))
    np.fill_diagonal(rho, 1.0)
    return dict(names=list("abc"), mu=np.zeros(3), sigma=np.ones(3), rho=rho)


class TestAssetUniverse:
    """The universe owns the covariance: one PSD gate, one penalty factor and
    at most one eigendecomposition, shared by every model called on it."""

    @pytest.mark.parametrize("inputs", ["indefinite within 1e-10", "duplicated asset"])
    def test_gate_accepts_without_eigvalsh(self, monkeypatch, inputs):
        def fail(*args, **kwargs):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        if inputs == "duplicated asset":  # singular, positive semidefinite
            assert abs(duplicate_asset(SET1.universe, 6).spectrum[0][0]) <= 1e-15
        else:
            assert AssetUniverse(**equicorrelated(-0.5e-10)).spectrum[0][0] < 0.0

    def test_gate_rejects_an_indefinite_cov_as_before(self):
        with pytest.raises(ValueError, match="^covariance is not positive semidefinite$"):
            AssetUniverse(**equicorrelated(-2e-10))

    def test_one_check_factor_and_spectrum_across_every_model(self, monkeypatch, checks):
        from proxalloc import linalg

        n = 30
        calls = collections.Counter()
        penalties = []  # the phi of each factor of cov + phi I, in order
        real = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}
        real_spd = linalg.SpdFactor

        def spy(name):
            def counted(m, *args, **kwargs):
                calls[name, np.shape(m)] += 1
                return real[name](m, *args, **kwargs)
            return counted

        def spd(m, check=True):
            if m.shape == (n, n):
                penalties.append(float(m[0, 0] - u.cov[0, 0]))
            return real_spd(m, check)

        for name in real:
            monkeypatch.setattr(np.linalg, name, spy(name))
        monkeypatch.setattr(linalg, "SpdFactor", spd)
        u = factor_universe(np.random.default_rng(0), n)
        assert calls["eigvalsh", (n, n)] == 0  # the gate's Cholesky decided
        checks.clear()
        box = dict(lower=np.zeros(n), upper=np.ones(n))
        gmv = mvo_gamma(u, 0.0, **box)
        vol = stats(gmv, u).volatility
        mvo_target(u, target_volatility=1.1 * vol, **box)
        mvo_target(u, target_return=float(np.quantile(u.mu, 0.7)), **box)
        kl_portfolio(u, np.full(n, 1.0 / n), max_volatility=1.2 * vol)
        kl_portfolio(u, np.full(n, 1.0 / n), max_volatility=1.5 * vol)
        measure = StdevRisk(perfbench_universe().well_posed_xi(u))
        for engine in ("ccd", "admm"):
            risk_budgeting(u, np.ones(n), measure, engine=engine)
        risk_budgeting(u, np.ones(n), engine="admm")
        mdp(u)
        gmv_herfindahl(u, min_bets=0.5 * (effective_bets(gmv.w) + n))
        assert calls["eigh", (n, n)] == 1  # the spectrum, cached
        assert calls["eigvalsh", (n, n)] == 0
        assert checks["as_matrix", (n, n)] == 0  # the universe checked cov when it was built
        # each penalty's factor is built once, however many models solve at it
        # one penalty, the QPs': the risk-budgeting ADMM calls end polished at the start
        assert len(penalties) == len(set(penalties)) == 1
        assert len(u.factor._cache) <= 4


class TestStats:
    def test_equal_weight(self):
        s = stats(EW8, SET1.universe)
        assert abs(s.effective_bets - 8.0) <= 1e-12
        assert abs(s.herfindahl - 1.0 / 8.0) <= 1e-15

    def test_single_asset(self):
        w = np.zeros(8)
        w[6] = 1.0
        s = stats(w, SET1.universe)
        assert s.effective_bets == 1.0
        assert abs(s.diversification_ratio - 1.0) <= 1e-12
        assert abs(s.volatility - 0.07) <= 1e-15

    def test_benchmark_effective_bets(self):
        assert abs(effective_bets(SET1.benchmark) - 6.435) <= 5e-4

    def test_comparison_fields(self):
        s = stats(EW8, SET1.universe, benchmark=SET1.benchmark, reference=EW8,
                  current=SET1.benchmark)
        assert s.kl_divergence == 0.0
        assert abs(s.active_share - 0.5 * np.sum(np.abs(EW8 - SET1.benchmark))) <= 1e-15
        assert s.turnover == np.sum(np.abs(EW8 - SET1.benchmark))
        assert s.tracking_error > 0


class TestMvoGamma:
    def test_gmv_closed_form(self):
        u = SET1.universe
        w = mvo_gamma(u, 0.0)
        z = solve_spd(u.cov, np.ones(8))
        assert np.max(np.abs(w.w - z / z.sum())) <= 1e-10

    def test_identity_covariance_equal_weights(self):
        u = AssetUniverse(names=list("abcd"), mu=np.zeros(4), sigma=np.ones(4),
                          rho=np.eye(4))
        w = mvo_gamma(u, 0.0)
        assert np.allclose(w.w, 0.25, atol=1e-10)

    def test_long_only_corner(self):
        w = mvo_gamma(SET1.universe, 0.0, lower=np.zeros(8), upper=np.ones(8))
        expected = np.zeros(8)
        expected[6] = 1.0
        assert np.max(np.abs(w.w - expected)) <= 1e-6


    def test_no_stationarity_sweep_and_the_qp_solve_weights(self, monkeypatch):
        from proxalloc import qp
        from proxalloc.portfolios import _gate

        u, caps = factor_universe(np.random.default_rng(0), 30), np.full(30, 0.08)
        sectors = np.vstack([np.arange(30) % 3 == k for k in range(3)]).astype(float)
        ineq = (sectors, np.full(3, 0.4))
        problem = QpProblem(q=u.cov, r=0.2 * u.mu, a=np.ones((1, 30)), b=np.ones(1),
                            c=ineq[0], d=ineq[1], lower=np.zeros(30), upper=caps)
        expected = _gate(qp_solve(problem)).w

        def fail(*args, **kwargs):
            raise AssertionError("stationarity_residual called")

        monkeypatch.setattr(qp, "stationarity_residual", fail)
        w = mvo_gamma(u, 0.2, lower=np.zeros(30), upper=caps, ineq=ineq)
        assert np.array_equal(w.w, expected)

    def test_nan_sector_row_names_c(self):
        sectors = np.vstack([np.ones(8), np.full(8, np.nan)])
        with pytest.raises(ValueError, match="C contains NaN"):
            mvo_gamma(SET1.universe, 0.2, lower=np.zeros(8), ineq=(sectors, np.ones(2)))

    def test_one_check_of_the_covariance_per_qp(self, checks):
        u, n = factor_universe(np.random.default_rng(0), 30), 30
        sectors = np.vstack([np.arange(n) % 3 == k for k in range(3)]).astype(float)
        checks.clear()
        qp_solve(QpProblem(q=u.cov, r=0.2 * u.mu, a=np.ones((1, n)), b=np.ones(1),
                           c=sectors, d=np.full(3, 0.4), lower=np.zeros(n)))
        assert checks["as_matrix", (n, n)] == 1
        checks.clear()
        mvo_gamma(u, 0.2, lower=np.zeros(n), upper=np.full(n, 0.08),
                  ineq=(sectors, np.full(3, 0.4)))
        assert checks["as_matrix", (n, n)] == 0  # the universe checked cov when it was built


class TestMvoTarget:
    def test_volatility_floor_is_gmv(self):
        u = tilted_universe()
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        vol = stats(gmv, u).volatility
        w = mvo_target(u, target_volatility=vol, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-4

    def test_hits_volatility_target(self):
        u = tilted_universe()
        w = mvo_target(u, target_volatility=0.15, lower=np.zeros(8), upper=np.ones(8))
        assert abs(stats(w, u).volatility - 0.15) <= 1e-6

    def test_hits_return_target(self):
        u = tilted_universe()
        # the frontier's return band for this universe is [mu(GMV), max mu_i]
        w = mvo_target(u, target_return=0.085, lower=np.zeros(8), upper=np.ones(8))
        assert abs(stats(w, u).expected_return - 0.085) <= 1e-6

    def test_unreachable(self):
        u = tilted_universe()
        with pytest.raises(TargetUnreachable):
            mvo_target(u, target_return=0.5, lower=np.zeros(8), upper=np.ones(8))

    @pytest.mark.parametrize("target, tail", [(0.085, (0.5, 0.5)), (0.089, (0.1, 0.9))])
    def test_return_target_is_one_qp_at_a_vertex(self, monkeypatch, target, tail):
        from proxalloc import portfolios

        def fail(*args, **kwargs):
            raise AssertionError("gamma bisected")

        monkeypatch.setattr(portfolios, "bisect", fail)
        w = mvo_target(tilted_universe(), target_return=target, lower=np.zeros(8),
                       upper=np.ones(8))
        assert np.max(np.abs(w.w - np.concatenate([np.zeros(6), tail]))) <= 1e-8

    @pytest.mark.parametrize("target", [0.0900001, 0.09000001])
    def test_just_above_the_largest_return_is_certified(self, target):
        # the largest expected return is 0.09: the long-only frontier ends there
        start = time.perf_counter()
        with pytest.raises(TargetUnreachable):
            mvo_target(tilted_universe(), target_return=target, lower=np.zeros(8),
                       upper=np.ones(8))
        assert time.perf_counter() - start < 1.0

    def test_below_the_minimum_variance_return(self):
        u = tilted_universe()
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        with pytest.raises(TargetUnreachable):
            mvo_target(u, target_return=stats(gmv, u).expected_return - 1e-3,
                       lower=np.zeros(8), upper=np.ones(8))

    def test_unreachable_targets_carry_the_end_they_passed(self):
        u, box = tilted_universe(), dict(lower=np.zeros(8), upper=np.ones(8))
        gmv = mvo_gamma(u, 0.0, **box)
        cases = [(dict(target_return=stats(gmv, u).expected_return - 1e-3), gmv.w),
                 (dict(target_volatility=stats(gmv, u).volatility - 1e-3), gmv.w),
                 (dict(target_return=0.0900001), np.eye(8)[7]),  # the top: mu_7 = 0.09
                 (dict(target_volatility=0.5), np.eye(8)[7])]
        for target, end in cases:
            with pytest.raises(TargetUnreachable) as err:
                mvo_target(u, **target, **box)
            assert np.max(np.abs(err.value.last - end)) <= 1e-8

    @pytest.mark.parametrize("factor, n, inputs", [
        *(pytest.param(f, n, None, id=f"{f}-{n}") for f in (1.1, 1.3, 2.0) for n in (8, 100)),
        *(pytest.param(f, 20, kind, id=f"{f}-20-{kind}") for f in (1.05, 1.3)
          for kind in ("best_copied", "fourth_copied", "mu_tied"))])
    def test_volatility_target_is_the_frontier_point(self, factor, n, inputs):
        # degenerate inputs under caps of 0.3: a copied name makes cov singular
        # and its pair's split arbitrary; mu rounded to cents ties names
        u, cap, pair = factor_universe(np.random.default_rng(0), n), 1.0, None
        if inputs == "mu_tied":
            u, cap = AssetUniverse(names=u.names, mu=np.round(u.mu, 2), sigma=u.sigma,
                                   rho=u.rho), 0.3
        elif inputs is not None:
            copied = int(np.argsort(-u.mu)[0 if inputs == "best_copied" else 3])
            u, cap, pair = duplicate_asset(u, copied), 0.3, [copied, n]
        box = dict(lower=np.zeros(u.n), upper=np.full(u.n, cap))
        gmv = mvo_gamma(u, 0.0, **box).w
        target = factor * np.sqrt(gmv @ u.cov @ gmv)
        w = mvo_target(u, target_volatility=target, **box).w
        assert abs(np.sqrt(w @ u.cov @ w) - target) <= 1e-10
        same = frontier_oracle(u, float(w @ u.mu), **box)
        if pair is None:
            assert np.max(np.abs(w - same)) <= 1e-9
        else:
            assert abs(np.sqrt(same @ u.cov @ same) - target) <= 1e-9
            assert abs(w[pair].sum() - same[pair].sum()) <= 1e-9

    def test_long_short_targets_meet_the_two_fund_frontier(self):
        # Merton (1972): on the budget plane alone the frontier portfolio of
        # return r is ((c - r b) C^-1 1 + (r a - b) C^-1 mu) / d
        u = factor_universe(np.random.default_rng(0), 20)
        inv_1, inv_mu = np.linalg.solve(u.cov, np.column_stack([np.ones(20), u.mu])).T
        a, b, c = inv_1.sum(), inv_mu.sum(), u.mu @ inv_mu
        d = a * c - b * b
        frontier = lambda r: ((c - r * b) * inv_1 + (r * a - b) * inv_mu) / d
        target = b / a + 0.03
        w = mvo_target(u, target_return=target).w
        assert np.max(np.abs(w - frontier(target))) <= 1e-8
        vol = 1.3 / np.sqrt(a)  # 1.3 x the GMV volatility, sqrt(1 / a)
        w = mvo_target(u, target_volatility=vol).w
        assert np.max(np.abs(w - frontier((b + np.sqrt(d * (a * vol * vol - 1.0))) / a))) <= 1e-8
        assert abs(np.sqrt(w @ u.cov @ w) - vol) <= 1e-10

    @pytest.mark.parametrize("factor", [1.1, 1.5])
    def test_short_floor_matches_the_return_target(self, factor):
        n = 100
        u, box = factor_universe(np.random.default_rng(0), n), dict(lower=np.full(n, -0.1),
                                                                     upper=np.ones(n))
        gmv = mvo_gamma(u, 0.0, **box).w
        target = factor * np.sqrt(gmv @ u.cov @ gmv)
        w = mvo_target(u, target_volatility=target, **box).w
        assert np.min(w) >= -0.1 - 1e-12 and np.any(w <= -0.1 + 1e-12)  # the floor binds
        assert abs(np.sqrt(w @ u.cov @ w) - target) <= 1e-10
        same = mvo_target(u, target_return=float(w @ u.mu), **box).w
        assert np.max(np.abs(w - same)) <= 1e-9

    def test_each_target_is_one_solve(self, monkeypatch):
        from proxalloc import portfolios

        n = 100
        u, box = factor_universe(np.random.default_rng(0), n), dict(lower=np.zeros(n),
                                                                     upper=np.ones(n))
        gmv = mvo_gamma(u, 0.0, **box).w

        def fail(*args, **kwargs):
            raise AssertionError("a nested solve ran")

        for name in ("mvo_gamma", "qp_solve", "bisect", "_settle"):
            monkeypatch.setattr(portfolios, name, fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        bridges, splits = [], []
        solve, split = portfolios._Bridge.solve, portfolios.admm_solve

        def counted_bridge(*args, **kwargs):
            bridges.append(1)
            return solve(*args, **kwargs)

        def counted_split(*args, **kwargs):
            splits.append(1)
            return split(*args, **kwargs)

        monkeypatch.setattr(portfolios._Bridge, "solve", counted_bridge)
        monkeypatch.setattr(portfolios, "admm_solve", counted_split)
        mvo_target(u, target_return=float(np.quantile(u.mu, 0.7)), **box)
        assert (len(bridges), len(splits)) == (0, 0)  # the walk down from the vertex
        mvo_target(u, target_volatility=1.3 * np.sqrt(gmv @ u.cov @ gmv), **box)
        assert (len(bridges), len(splits)) == (0, 0)
        # with no box nothing caps the best name: the GMV is one bridge solve,
        # and the walk goes up from it
        mvo_target(u, target_volatility=1.3 * np.sqrt(gmv @ u.cov @ gmv))
        assert (len(bridges), len(splits)) == (1, 0)

    @pytest.mark.parametrize("level", [0.0, 0.05])
    @pytest.mark.parametrize("bounds", [{}, dict(lower=np.zeros(8), upper=np.ones(8))])
    def test_constant_mu_targets_are_the_gmv(self, level, bounds):
        # set 1's mu is 0: every budget portfolio returns `level`, so the
        # return row is zero or parallel to the budget row and cannot bind
        u = SET1.universe
        u = AssetUniverse(names=u.names, mu=np.full(8, level), sigma=u.sigma, rho=u.rho)
        gmv = mvo_gamma(u, 0.0, **bounds)
        w = mvo_target(u, target_return=level, **bounds)
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-10
        for target in (dict(target_return=level - 0.01),
                       dict(target_volatility=1.5 * stats(gmv, u).volatility)):
            with pytest.raises(TargetUnreachable) as err:
                mvo_target(u, **target, **bounds)
            assert np.max(np.abs(err.value.last - gmv.w)) <= 1e-10

    def test_return_below_the_box_minimum_is_the_gmv(self):
        u, box = tilted_universe(), dict(lower=np.zeros(8), upper=np.ones(8))
        gmv = mvo_gamma(u, 0.0, **box)
        with pytest.raises(TargetUnreachable) as err:
            mvo_target(u, target_return=float(u.mu.min()), **box)
        assert np.max(np.abs(err.value.last - gmv.w)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30), tied=st.booleans(),
           copied=st.booleans(), cap=st.sampled_from([1.0, 0.5, 0.3]),
           floor=st.sampled_from([0.0, -0.1]),
           share=st.sampled_from([1e-7, 1e-3, 0.3, 0.7, 1.0 - 1e-3, 1.0 - 1e-7]))
    def test_walked_targets_match_the_bridge_property(self, seed, n, tied, copied, cap,
                                                       floor, share):
        from proxalloc import portfolios

        # the walk's answer at a return or volatility share of the way from the
        # GMV to the top is the bridge's minimum variance at its return; a
        # copied name's split is arbitrary, so the oracle holds the pair as
        # one name with the two boxes summed, and the walk's pair is summed
        rng = np.random.default_rng(seed)
        u = factor_universe(rng, n)
        if tied:  # returns rounded to cents: names tie, at the top too
            u = AssetUniverse(names=u.names, mu=np.round(u.mu, 2), sigma=u.sigma, rho=u.rho)
        m = n + copied
        lower, upper = np.full(m, floor), np.full(m, max(cap, 1.5 / m))
        walked, merge, oracle_box = u, (lambda x: x), dict(lower=lower, upper=upper)
        if copied:
            pair = int(rng.integers(n))
            walked = duplicate_asset(u, pair)
            merge = lambda x: np.bincount(np.append(np.arange(n), pair), weights=x)
            oracle_box = dict(lower=merge(lower), upper=merge(upper))
        box = dict(lower=lower, upper=upper)
        gmv = frontier_oracle(u, None, **oracle_box)
        top = portfolios._max_return_face(walked.mu, lower, upper)[0]
        top = merge(mvo_target(walked, target_return=top, **box).w)
        ends = [(float(x @ u.mu), np.sqrt(x @ u.cov @ x)) for x in (gmv, top)]
        for i, key in enumerate(("target_return", "target_volatility")):
            target = ends[0][i] + share * (ends[1][i] - ends[0][i])
            w = merge(mvo_target(walked, **{key: target}, **box).w)
            assert abs((w @ u.mu, np.sqrt(w @ u.cov @ w))[i] - target) <= 1e-9
            oracle = frontier_oracle(u, float(w @ u.mu), **oracle_box)
            assert np.max(np.abs(w - oracle)) <= 1e-9


class TestFrontierTop:
    """The top of the long-only frontier at n = 100: the best name alone."""

    n = 100
    box = dict(lower=np.zeros(100), upper=np.ones(100))

    def test_just_above_the_top_is_refused_at_once(self):
        u = factor_universe(np.random.default_rng(0), self.n)
        start = time.perf_counter()
        with pytest.raises(TargetUnreachable) as err:
            mvo_target(u, target_return=u.mu.max() + 1e-7, **self.box)
        assert time.perf_counter() - start < 0.1
        assert np.array_equal(err.value.last, np.eye(self.n)[np.argmax(u.mu)])

    def test_just_below_the_top_is_one_row_qp(self):
        u = factor_universe(np.random.default_rng(0), self.n)
        target = u.mu.max() - 1e-9
        w = mvo_target(u, target_return=target, **self.box).w
        assert w @ u.mu >= target - 1e-12
        assert np.max(np.abs(w - np.eye(self.n)[np.argmax(u.mu)])) <= 1e-6

    def test_the_top_is_the_max_return_vertex(self):
        u = factor_universe(np.random.default_rng(0), self.n)
        top = np.eye(self.n)[np.argmax(u.mu)]
        w = mvo_target(u, target_return=u.mu.max(), **self.box).w
        assert np.array_equal(w, top)
        # a volatility target at the top's volatility, or up to 1e-6 above it
        vol = u.sigma[np.argmax(u.mu)]
        for target in (vol, vol + 0.5e-6):
            assert np.array_equal(mvo_target(u, target_volatility=target, **self.box).w, top)

    def test_a_tied_top_is_the_least_variance_mix_of_the_pair(self):
        u = factor_universe(np.random.default_rng(0), self.n)
        second, best = np.argsort(u.mu)[-2:]
        mu = u.mu.copy()
        mu[second] = mu[best]
        tied = AssetUniverse(names=u.names, mu=mu, sigma=u.sigma, rho=u.rho)
        pair = tied.cov[np.ix_([best, second], [best, second])]
        share = (pair[1, 1] - pair[0, 1]) / (pair[0, 0] + pair[1, 1] - 2.0 * pair[0, 1])
        assert 0.0 < share < 1.0  # the mix is interior
        w = mvo_target(tied, target_return=mu[best], **self.box).w
        expected = np.zeros(self.n)
        expected[[best, second]] = share, 1.0 - share
        assert np.max(np.abs(w - expected)) <= 1e-10
        # a volatility target at the mix's volatility, or up to 1e-6 above it
        vol = np.sqrt(expected @ tied.cov @ expected)
        for target in (vol, vol + 0.5e-6):
            w = mvo_target(tied, target_volatility=target, **self.box).w
            assert np.max(np.abs(w - expected)) <= 1e-10


class TestMvoBenchmark:
    def test_zero_alpha_returns_benchmark(self):
        u = SET1.universe  # mu = 0 so only tracking error matters
        w = mvo_benchmark(u, SET1.benchmark, 1.0)
        assert np.max(np.abs(w.w - SET1.benchmark)) <= 1e-8

    def test_objective_expansion_identity(self):
        u = tilted_universe()
        b = SET1.benchmark
        gamma = 0.7
        rng = np.random.default_rng(8)
        r = gamma * u.mu + u.cov @ b
        const = 0.5 * b @ u.cov @ b + gamma * b @ u.mu
        for _ in range(100):
            x = rng.standard_normal(8)
            lhs = 0.5 * (x - b) @ u.cov @ (x - b) - gamma * (x - b) @ u.mu
            rhs = 0.5 * x @ u.cov @ x - x @ r + const
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_large_gamma_chases_alpha(self):
        u = tilted_universe()
        values = []
        for gamma in (0.1, 1.0, 10.0, 100.0):
            w = mvo_benchmark(u, SET1.benchmark, gamma, lower=np.zeros(8),
                              upper=np.ones(8))
            values.append(stats(w, u).expected_return)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.9 * np.max(u.mu)


class TestIndexSampling:
    def test_full_size_returns_benchmark(self):
        w = index_sampling(SET1.universe, SET1.benchmark, 8)
        assert np.max(np.abs(w.w - SET1.benchmark)) <= 1e-6

    def test_single_asset_matches_exhaustive_oracle(self):
        u = SET1.universe
        b = SET1.benchmark
        w = index_sampling(u, b, 1)
        tes = [np.sqrt((e - b) @ u.cov @ (e - b)) for e in np.eye(8)]
        assert np.flatnonzero(w.w)[0] == int(np.argmin(tes))

    def test_four_asset_regression(self):
        w = index_sampling(SET1.universe, SET1.benchmark, 4)
        assert np.count_nonzero(w.w) == 4
        assert abs(w.w.sum() - 1.0) <= 1e-10
        frozen = np.array([0.3314752, 0.1182651, 0.17105412, 0.37920557,
                           0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(w.w - frozen)) <= 1e-6
        again = index_sampling(SET1.universe, SET1.benchmark, 4)
        assert np.array_equal(w.w, again.w)

    def test_a_round_where_one_name_leaves_and_one_joins_matches_a_cold_solve(self, monkeypatch):
        from proxalloc import linalg, portfolios
        from proxalloc.linalg import SupportFactor
        from proxalloc.portfolios import _tracking_optimum
        from proxalloc.qp import _Bridge

        cov, n = SET1.universe.cov, 8
        b = np.array([0.4, 0.3, -0.1, 0.2, 0.3, -0.2, 0.1, 0.0])  # outside the box
        r = cov @ b
        cold, _ = _Bridge(QpProblem(q=cov, r=r, a=np.ones((1, n)), b=np.ones(1),
                                    lower=np.zeros(n), upper=np.ones(n))).solve()
        assert list(np.flatnonzero(cold > 1e-12)) == [0, 1, 4, 6]
        guess = np.isin(np.arange(n), [1, 4, 5, 6])  # 0 must join and 5 leave
        held = SupportFactor(cov, np.flatnonzero(guess), np.column_stack([r, np.ones(n)]))
        points, joins, factorizations = [], [], []
        real_point, real_join = portfolios._tracking_point, held.join
        monkeypatch.setattr(portfolios, "_tracking_point",
                            lambda *args: points.append(1) or real_point(*args))
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args, **kwargs: factorizations.append(m.shape[0]))
        held.join = lambda j: joins.append(j) or real_join(j)
        x = _tracking_optimum(cov, r, np.full(n, np.inf), held, guess)
        assert len(points) == 2  # the guess and one correction
        assert joins == [0] and factorizations == []  # 0 borders G; nothing is inverted
        assert np.max(np.abs(x - cold)) <= 1e-10
        assert sorted(held.support) == [0, 1, 4, 6] == list(np.flatnonzero(x > 0))

    @pytest.mark.parametrize("n", [8, 12, 30, 60])
    def test_matches_a_cold_qp_per_round(self, n):
        rng = np.random.default_rng(n)
        u = factor_universe(rng, n)
        b = rng.dirichlet(np.ones(n))
        for k in sorted({1, n // 4, n // 2, n - 1}):
            assert_same_sampling(index_sampling(u, b, k).w, cold_index_sampling(u, b, k))

    def test_duplicated_asset_tie_knocks_out_the_lower_index(self):
        # asset 0 and its copy (index 12) have the same row of the covariance,
        # so the support block is singular while both are held, the bridge
        # solves those rounds, and the pair's split is rounding: the tie rule
        # (within POLISH_TOL, lowest index) knocks out asset 0
        rng = np.random.default_rng(0)
        u = duplicate_asset(factor_universe(rng, 12), 0)
        b = rng.dirichlet(np.ones(13))
        w = index_sampling(u, b, 3).w
        assert_same_sampling(w, cold_index_sampling(u, b, 3))
        assert w[0] == 0 and w[12] > 0

    def test_equal_weight_ties_knock_out_asset_0(self):
        # an equal-weight benchmark is round 1's optimum, so all 500 weights
        # tie to round-off; the rule drops the lowest index
        n = 500
        u = factor_universe(np.random.default_rng(0), n)
        w = index_sampling(u, np.full(n, 1.0 / n), n - 1).w
        assert np.array_equal(np.flatnonzero(w == 0), [0])

    def test_certified_at_n_200(self):
        # past the sizes of the oracle cases: k names, the budget and the box
        # hold, and the answer is stationary on the final pinned problem
        n, k = 200, 50
        rng = np.random.default_rng(200)
        u = factor_universe(rng, n)
        b = rng.dirichlet(np.ones(n))
        w = index_sampling(u, b, k).w
        held = w > 0
        assert np.count_nonzero(held) == k
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all((w >= 0) & (w <= 1))
        problem = QpProblem(q=u.cov, r=u.cov @ b, a=np.ones((1, n)), b=np.ones(1),
                            lower=np.zeros(n), upper=held.astype(float))
        assert stationarity_residual(problem, w) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 9), share=st.floats(0.0, 1.0),
           copies=st.booleans())
    def test_matches_a_cold_qp_per_round_property(self, seed, n, share, copies):
        rng = np.random.default_rng(seed)
        u = factor_universe(rng, n)
        if copies:
            u = duplicate_asset(u, int(rng.integers(n)))
        b = rng.dirichlet(np.ones(u.n))
        k = 1 + int(share * (u.n - 1))
        assert_same_sampling(index_sampling(u, b, k).w, cold_index_sampling(u, b, k))

    def test_no_admm_and_one_factorization(self, monkeypatch):
        from proxalloc import linalg, qp

        rng = np.random.default_rng(30)
        u = factor_universe(rng, 30)
        b = rng.dirichlet(np.ones(30))
        admm_runs, factorizations = [], []
        real_admm, real_cholesky = qp.admm_solve, linalg.cholesky_lower

        def counting_admm(*args, **kwargs):
            admm_runs.append(1)
            return real_admm(*args, **kwargs)

        def counting_cholesky(m, check=True):
            factorizations.append(m.shape[0])
            return real_cholesky(m, check)

        monkeypatch.setattr(qp, "admm_solve", counting_admm)
        monkeypatch.setattr(linalg, "cholesky_lower", counting_cholesky)
        w = index_sampling(u, b, 7).w
        # every round updates the factor of the first support, all 30 names
        assert admm_runs == [] and factorizations == [30]
        assert_same_sampling(w, cold_index_sampling(u, b, 7))

    def test_a_guess_that_fails_its_test_goes_through_settle_where_names_join(self, monkeypatch):
        # the outside-the-box benchmark of the round test above: round 1's guess,
        # every name, has negative weights, and the guesses {0, 4} and {0} of
        # rounds 3 and 5 fail too; _settle lets names join from each of them
        from proxalloc import portfolios
        from proxalloc.linalg import SupportFactor

        b = np.array([0.4, 0.3, -0.1, 0.2, 0.3, -0.2, 0.1, 0.0])
        guesses, joins, built = [], [], []
        real_tracking, real_join = portfolios._tracking_optimum, SupportFactor.join
        real_init = SupportFactor.__init__

        def spy_tracking(cov, r, cap, held, support):
            guesses.append(list(np.flatnonzero(support)))
            return real_tracking(cov, r, cap, held, support)

        def spy_init(held, m, support, rhs):
            built.append(list(support))
            real_init(held, m, support, rhs)

        monkeypatch.setattr(portfolios, "_tracking_optimum", spy_tracking)
        monkeypatch.setattr(SupportFactor, "join", lambda held, j: joins.append(j)
                            or real_join(held, j))
        monkeypatch.setattr(SupportFactor, "__init__", spy_init)
        w = index_sampling(SET1.universe, b, 1).w
        assert guesses == [list(range(8)), [0, 4], [0]]
        # one inverse, of every name, which each freed name borders
        assert built == [list(range(8))] and joins == [2, 3, 5, 7, 2, 5, 7]
        expected = cold_index_sampling(SET1.universe, b, 1)
        assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
        assert np.max(np.abs(w - expected)) <= 1e-10

    def test_a_long_short_benchmark_inverts_its_support_once(self, monkeypatch):
        # 1.6 Dir - 0.6 Dir: short names the early guesses hold go negative, so
        # _settle pins them and frees others, each freed name a bordered join
        from proxalloc import linalg
        from proxalloc.linalg import SupportFactor

        n, k = 60, 15
        rng = np.random.default_rng(60)
        u = factor_universe(rng, n)
        b = 1.6 * rng.dirichlet(np.ones(n)) - 0.6 * rng.dirichlet(np.ones(n))
        factorizations, joins = [], []
        real_cholesky, real_join = linalg.cholesky_lower, SupportFactor.join
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args, **kwargs: factorizations.append(m.shape[0])
                            or real_cholesky(m, *args, **kwargs))
        monkeypatch.setattr(SupportFactor, "join", lambda held, j: joins.append(j)
                            or real_join(held, j))
        w = index_sampling(u, b, k).w
        assert factorizations == [n] and joins
        expected = cold_index_sampling(u, b, k)
        assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
        assert np.max(np.abs(w - expected)) <= 1e-10

    def test_rounds_with_no_free_zero_form_no_multipliers(self, monkeypatch):
        # a positive benchmark: every name off a round's support was knocked
        # out, so x_F >= 0 is the whole test and no round forms C x
        from proxalloc import portfolios

        calls = []
        real_point = portfolios._tracking_point
        monkeypatch.setattr(portfolios, "_tracking_point",
                            lambda *args: calls.append(1) or real_point(*args))
        rng = np.random.default_rng(12)
        u = factor_universe(rng, 12)
        b = rng.dirichlet(np.ones(12))
        w = index_sampling(u, b, 4).w
        assert calls == []
        assert_same_sampling(w, cold_index_sampling(u, b, 4))

    def test_free_zeros_keep_the_multiplier_test(self, monkeypatch):
        # the benchmark's zeros stay off the support from round 2 on with caps
        # of 1, so their multipliers are tested, and they may join
        from proxalloc import portfolios

        calls = []
        real_point = portfolios._tracking_point
        monkeypatch.setattr(portfolios, "_tracking_point",
                            lambda *args: calls.append(1) or real_point(*args))
        u, b = zeros_universe(), zeros_benchmark()
        w = index_sampling(u, b, 4).w
        assert calls
        expected = cold_index_sampling(u, b, 4)
        assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
        assert np.max(np.abs(w - expected)) <= 1e-10

    def test_holds_at_most_n_assets_names(self):
        # the tracking optimum of a benchmark with three zeros holds 7 names, and
        # that of e_1 one, so no name is knocked out and fewer than n_assets remain
        u = zeros_universe()
        assert np.count_nonzero(index_sampling(u, zeros_benchmark(), 10).w) == 7
        assert list(np.flatnonzero(index_sampling(u, np.eye(10)[0], 3).w)) == [0]

    def test_a_second_account_reuses_the_universes_inverse(self, monkeypatch):
        from proxalloc import linalg

        u = factor_universe(np.random.default_rng(12), 12)
        rng = np.random.default_rng([12, 1])
        first, second = rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(12))
        index_sampling(u, first, 4)
        factorizations = []
        real_cholesky = linalg.cholesky_lower
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args, **kwargs: factorizations.append(m.shape[0])
                            or real_cholesky(m, *args, **kwargs))
        w = index_sampling(u, second, 5).w
        assert factorizations == []
        fresh = index_sampling(factor_universe(np.random.default_rng(12), 12), second, 5).w
        assert factorizations == [12] and w.tobytes() == fresh.tobytes()

    def test_a_duplicated_asset_sends_every_account_to_the_cold_bridge(self, monkeypatch):
        # Sigma is singular, so no inverse is kept on the universe and each
        # account's first round falls back to one cold bridge solve
        from proxalloc import portfolios

        rng = np.random.default_rng(0)
        u = duplicate_asset(factor_universe(rng, 12), 0)
        b = rng.dirichlet(np.ones(13))
        cold = []
        real_qp = portfolios._solve_budget_qp
        monkeypatch.setattr(portfolios, "_solve_budget_qp",
                            lambda *args, **kwargs: cold.append(1) or real_qp(*args, **kwargs))
        expected = cold_index_sampling(u, b, 3)
        for _ in range(2):
            cold.clear()
            assert_same_sampling(index_sampling(u, b, 3).w, expected)
            assert cold

    def test_benchmark_accounts_never_call_settle(self, monkeypatch):
        # the 12-asset accounts of perfbench's qp_bridge workload, at seeds 9
        # and 13: every round's guess passes its test, so no round needs _settle
        from proxalloc import portfolios

        calls = []
        real_settle = portfolios._settle
        monkeypatch.setattr(portfolios, "_settle",
                            lambda *args: calls.append(1) or real_settle(*args))
        u = factor_universe(np.random.default_rng([1, 0]), 12)
        for seed in (9, 13):
            for i in range(36):
                rng = np.random.default_rng([seed, 2, i])
                b = rng.dirichlet(np.ones(12))
                k = int(rng.integers(4, 7))
                assert np.count_nonzero(index_sampling(u, b, k).w) == k
        assert calls == []

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30), share=st.floats(0.0, 1.0),
           kind=st.sampled_from(["dirichlet", "equal", "outside"]), copies=st.booleans())
    def test_matches_the_cold_oracle_to_1e_10_property(self, seed, n, share, kind, copies):
        rng = np.random.default_rng(seed)
        u = factor_universe(rng, n)
        if copies:
            u = duplicate_asset(u, int(rng.integers(n)))
        if kind == "equal":
            b = np.full(u.n, 1.0 / u.n)
        else:
            b = rng.dirichlet(np.ones(u.n))
            if kind == "outside":  # a long-short benchmark: 1'b = 1 with negative entries
                tilt = rng.standard_normal(u.n)
                b += tilt - tilt.mean()
        k = 1 + int(share * (u.n - 1))
        w = index_sampling(u, b, k).w
        expected = cold_index_sampling(u, b, k)
        assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
        assert np.max(np.abs(w - expected)) <= 1e-10

    def test_singular_support_falls_back_to_the_bridge(self, monkeypatch):
        from proxalloc import qp

        rng = np.random.default_rng(21)
        u = duplicate_asset(factor_universe(rng, 12), 3)
        b = rng.dirichlet(np.ones(13))
        solves = []
        real_solve = qp._Bridge.solve

        def counting_solve(self):
            solves.append(1)
            return real_solve(self)

        monkeypatch.setattr(qp._Bridge, "solve", counting_solve)
        w = index_sampling(u, b, 4).w
        assert solves  # the rounds that hold both copies of asset 3
        assert_same_sampling(w, cold_index_sampling(u, b, 4))

    def test_typed_input_errors(self):
        u = factor_universe(np.random.default_rng(0), 6)
        with pytest.raises(DimensionMismatch):
            index_sampling(u, np.full(5, 0.2), 3)
        for k in (2.5, 3.0, "3"):
            with pytest.raises(BadK):
                index_sampling(u, np.full(6, 1.0 / 6.0), k)
        with pytest.raises(ValueError):
            index_sampling(u, np.full(6, 1.0 / 6.0), 0)
        assert np.count_nonzero(index_sampling(u, np.full(6, 1.0 / 6.0), np.int64(3)).w) == 3


class TestMvoTurnover:
    def test_zero_cap_freezes(self):
        w = mvo_turnover(SET1.universe, 0.0, EW8, 0.0)
        assert np.array_equal(w.w, EW8)

    def test_loose_cap_is_unconstrained(self):
        u = SET1.universe
        w = mvo_turnover(u, 0.0, EW8, 2.5)
        unconstrained = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - unconstrained.w)) <= 1e-5

    def test_binding_cap(self):
        u = SET1.universe
        w = mvo_turnover(u, 0.0, EW8, 0.5)
        turnover = np.sum(np.abs(w.w - EW8))
        assert turnover <= 0.5 + 1e-8
        assert turnover >= 0.5 - 1e-6  # binds: unconstrained turnover is ~1.75
        # complementarity of the implied buys/sells
        buys = np.maximum(w.w - EW8, 0.0)
        sells = np.maximum(EW8 - w.w, 0.0)
        assert np.max(buys * sells) <= 1e-10
        # no better feasible variance via the unconstrained direction
        var = w.w @ u.cov @ w.w
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert var >= gmv.w @ u.cov @ gmv.w - 1e-12

    def test_matches_the_trade_variable_qp(self):
        u, gamma, cap = tilted_universe(), 1.0, 0.3
        expected = trade_variable_qp(u, EW8, cap, np.zeros(8), np.zeros(8), gamma * u.mu)
        w = mvo_turnover(u, gamma, EW8, cap)
        assert abs(np.sum(np.abs(expected - EW8)) - cap) <= 1e-8  # the cap binds
        assert np.max(np.abs(w.w - expected)) <= 1e-8


class TestMvoCosts:
    @pytest.mark.parametrize("bid, ask", [(-0.001, 0.001), (0.001, -0.001)])
    def test_negative_cost_is_typed(self, bid, ask):
        # as in rebalance_penalized; NegativeCost is a ValueError too
        with pytest.raises(NegativeCost, match="transaction costs must be nonnegative"):
            mvo_costs(SET1.universe, 0.1, EW8, bid, ask)

    def test_zero_costs_plain_mvo(self):
        u = SET1.universe
        w = mvo_costs(u, 0.0, EW8, 0.0, 0.0)
        plain = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - plain.w)) <= 1e-5

    def test_zero_costs_polish_at_the_first_iteration_without_a_penalty_change(
            self, monkeypatch):
        from proxalloc import qp

        solves, built = [], []
        admm_solve = qp.admm_solve

        def spy(problem, x0, cfg=None):
            y_prox = problem.y_prox
            problem.y_prox = lambda phi: built.append(phi) or y_prox(phi)
            x, y, report = admm_solve(problem, x0, cfg)
            solves.append(report)
            return x, y, report

        monkeypatch.setattr(qp, "admm_solve", spy)
        mvo_costs(SET1.universe, 0.0, EW8, 0.0, 0.0)
        assert len(solves) == 1
        assert solves[0].polished and solves[0].iterations == 1
        assert len(built) == 1  # the first penalty's prox only

    def test_penalty_factors_hold_at_most_four_penalty_values(self, monkeypatch):
        from proxalloc import linalg

        made = []
        init = linalg.PenaltyFactor.__init__

        def recording_init(factor, q):
            init(factor, q)
            made.append(factor)

        monkeypatch.setattr(linalg.PenaltyFactor, "__init__", recording_init)
        mvo_costs(SET1.universe, 0.0, EW8, 0.0, 0.0)
        assert made
        for factor in made:
            # every per-penalty cache entry, whatever dict holds it
            held = sum(len(v) for v in vars(factor).values() if isinstance(v, dict))
            assert held <= 4

    def test_prohibitive_costs_freeze(self):
        w = mvo_costs(SET1.universe, 0.1, EW8, 1e3, 1e3)
        assert np.max(np.abs(w.w - EW8)) <= 1e-4

    def test_financing_identity_and_improvement(self):
        u = SET1.universe
        bid = ask = 0.005
        w = mvo_costs(u, 0.1, EW8, bid, ask)
        buys = np.maximum(w.w - EW8, 0.0)
        sells = np.maximum(EW8 - w.w, 0.0)
        financing = w.w.sum() + bid * sells.sum() + ask * buys.sum()
        assert abs(financing - 1.0) <= 1e-8
        objective = 0.5 * w.w @ u.cov @ w.w + bid * sells.sum() + ask * buys.sum()
        no_trade = 0.5 * EW8 @ u.cov @ EW8
        assert objective <= no_trade + 1e-10


class TestGmvHerfindahl:
    def test_ridge_row_matches_table4(self):
        u = SET1.universe
        ridges = [100.0 * gmv_herfindahl(u, min_bets=bets)[1] for bets in data.MINVAR_GRID_BETS]
        # a floor of 1 bet is vacuous; only equal weights meet a floor of 8
        assert ridges[0] == 0.0 and ridges[-1] == np.inf
        assert np.max(np.abs(np.subtract(ridges[1:-1], data.MINVAR_GRID_RIDGE[1:-1]))) <= 0.1

    @pytest.mark.parametrize("bets", [b for b in data.MINVAR_GRID_BETS if 1 < b < 8])
    def test_table4_ridge_weight_is_certified(self, bets):
        u = SET1.universe
        w, lam = gmv_herfindahl(u, min_bets=bets)
        assert_ridge_certificate(u, w.w, lam, bets)

    def test_full_diversification_is_equal_weight(self):
        w, lam = gmv_herfindahl(SET1.universe, min_bets=8.0)
        assert np.allclose(w.w, 1.0 / 8.0, atol=1e-12)
        assert lam == np.inf

    def test_inactive_floor_returns_unconstrained(self):
        w, lam = gmv_herfindahl(SET1.universe, min_bets=1.0)
        assert lam == 0.0
        assert abs(w.w[6] - 1.0) <= 1e-6

    @pytest.mark.parametrize("method", ["bisection", "ADMM"])
    def test_only_the_split_is_a_method(self, method):
        with pytest.raises(ValueError):
            gmv_herfindahl(SET1.universe, min_bets=3.0, method=method)

    @pytest.mark.parametrize("bets", [3.0, 5.0, 8.0])
    def test_duplicated_asset_ends_polished_with_a_certified_ridge(self, admm_reports, bets):
        # cov is singular, and so is cov_FF whenever both copies are free
        u = duplicated_asset_universe()
        w, lam = gmv_herfindahl(u, min_bets=bets)
        assert not admm_reports  # the polish certifies the split's first iterate
        assert 0.0 < lam < np.inf
        assert_ridge_certificate(u, w.w, lam, bets)
        assert abs(w.w[6] - w.w[8]) <= 1e-9  # the copies share their weight

    def test_floor_above_the_caps_reach_fails_fast(self):
        u, caps = SET1.universe, np.array([0.05] + [1.0] * 7)
        widest = np.array([0.05] + [0.95 / 7] * 7)  # the budget portfolio nearest 0
        most = effective_bets(widest)
        assert abs(most - 7.6087) <= 1e-4
        for solve in (lambda: gmv_herfindahl(u, upper=caps, min_bets=7.9),
                      lambda: gmv_diversified(u, upper=caps, constraint=EffectiveBets(7.9))):
            start = time.perf_counter()
            with pytest.raises(InfeasibleTargets) as err:
                solve()
            assert time.perf_counter() - start < 0.1
            assert np.max(np.abs(err.value.last - widest)) <= 1e-15
        w, lam = gmv_herfindahl(u, upper=caps, min_bets=most - 5e-10)
        assert lam == np.inf and np.max(np.abs(w.w - widest)) <= 1e-15

    def test_caps_summing_to_one_admit_only_themselves(self):
        caps = np.array([0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1])
        w, lam = gmv_herfindahl(SET1.universe, upper=caps, min_bets=effective_bets(caps))
        assert lam == np.inf and np.array_equal(w.w, caps)

    @pytest.mark.parametrize("caps", [np.full(8, 0.125), np.array([0.2, 0.2] + [0.1] * 6)],
                             ids=["uniform", "uneven"])
    def test_caps_summing_to_one_under_a_slack_floor_run_no_split(self, admm_reports, caps):
        w, lam = gmv_herfindahl(SET1.universe, upper=caps, min_bets=4.0)
        assert not admm_reports
        assert lam == 0.0
        assert np.max(np.abs(w.w - caps)) <= 1e-15

    def test_unreachable(self):
        with pytest.raises(UnreachableDiversification):
            gmv_herfindahl(SET1.universe, min_bets=9.0)

    @pytest.mark.parametrize("universe, bets, upper, ball_binds, caps_bind", [
        (SET1.universe, 3.0, 1.0, True, False),
        (SET1.universe, 6.0, 1.0, True, False),
        (factor_universe(np.random.default_rng(3), 10), 3.5, 1.0, False, False),
        (SET1.universe, 3.0, 0.3, False, True),
        (SET1.universe, 4.0, 0.3, True, True),
    ])
    def test_polish_matches_an_slsqp_oracle(self, admm_reports, universe, bets, upper,
                                            ball_binds, caps_bind):
        # SLSQP stalls about 5e-9 from the optimum at some BLAS thread counts;
        # the ridge certificate on the returned lam is exact
        w, lam = gmv_herfindahl(universe, upper=upper, min_bets=bets)
        assert not admm_reports
        assert_ridge_certificate(universe, w.w, lam, bets, upper)
        assert (lam > 0.0) == ball_binds
        assert (effective_bets(w.w) <= bets + 1e-9) == ball_binds
        assert (np.max(w.w) >= upper - 1e-12) == caps_bind

    def test_diversified_effective_bets_path_is_polished(self, admm_reports):
        u = SET1.universe
        w = gmv_diversified(u, upper=0.3, constraint=EffectiveBets(4.0))
        assert not admm_reports
        assert np.max(np.abs(w.w - herfindahl_oracle(u, 4.0, 0.3))) <= 1e-9

    def test_rejected_polish_lets_admm_go_on_to_the_same_answer(self, monkeypatch,
                                                                 admm_reports):
        from proxalloc import portfolios

        u = SET1.universe
        expected, expected_lam = gmv_herfindahl(u, min_bets=5.0)
        build = portfolios._herfindahl_polish
        calls = []

        def reject_twice(*args):
            polish = build(*args)

            def after_two(x, y, dual):
                calls.append(x)
                return None if len(calls) <= 2 else polish(x, y, dual)

            return after_two

        monkeypatch.setattr(portfolios, "_herfindahl_polish", reject_twice)
        w, lam = gmv_herfindahl(u, min_bets=5.0)
        # the start and ADMM's iteration 1 are rejected, so the split goes on
        (report,) = admm_reports
        assert report.polished and report.iterations >= 2 and len(calls) >= 3
        assert np.max(np.abs(w.w - expected.w)) <= 1e-12
        assert abs(lam - expected_lam) <= 1e-12 * expected_lam

    def test_table4_columns_end_polished_within_20_iterations(self, admm_reports,
                                                               dykstra_sweeps):
        u = SET1.universe
        for bets in data.MINVAR_GRID_BETS:
            dykstra_sweeps.clear()
            gmv_herfindahl(u, min_bets=bets)
            # every column ends at the polish of the split's first iterate, one
            # sweep, and the floor of 8 bets is met by equal weights alone
            assert not admm_reports
            assert len(dykstra_sweeps) == (bets < 8)

    def test_paper_solves_run_no_admm_and_one_sweep_each(self, admm_reports, dykstra_sweeps,
                                                         tmp_path):
        from proxalloc import cli

        u = SET1.universe
        gmv_diversified(u, upper=0.3, constraint=EffectiveBets(4.0))
        gmv_diversified(u, constraint=EffectiveBets(5.0))
        assert not admm_reports and len(dykstra_sweeps) == 2
        dykstra_sweeps.clear()
        assert cli.main(["reproduce", "table4", "--output", str(tmp_path / "table4")]) == 0
        assert not admm_reports
        # the nine columns but the last, which is equal weights
        assert len(dykstra_sweeps) == len(data.MINVAR_GRID_BETS) - 1

    def test_a_cap_of_no_iteration_still_raises_before_any_polish(self):
        u = SET1.universe
        with pytest.raises(MaxIterExceeded) as err:
            gmv_herfindahl(u, min_bets=3.0, cfg=AdmmConfig(phi0=0.05, max_iter=0))
        assert np.array_equal(err.value.last, np.full(8, 0.125))
        w, lam = gmv_herfindahl(u, min_bets=3.0, cfg=AdmmConfig(phi0=0.05, max_iter=1))
        assert_ridge_certificate(u, w.w, lam, 3.0)

    def test_a_rejected_start_is_settled_once(self, monkeypatch, admm_reports):
        from proxalloc import portfolios, qp

        u, caps = SET1.universe, np.full(8, 0.3)
        ys, guesses = [], []
        build, settle = portfolios._herfindahl_polish, portfolios._settle

        def recorded(*args):
            polish = build(*args)

            def hook(x, y, dual):
                ys.append(y.copy())
                return polish(x, y, dual)

            return hook

        def counted(solve, lo, hi, at_lo, at_hi):
            guesses.append((at_lo.tobytes(), at_hi.tobytes()))
            return settle(solve, lo, hi, at_lo, at_hi)

        monkeypatch.setattr(portfolios, "_herfindahl_polish", recorded)
        monkeypatch.setattr(portfolios, "_settle", counted)
        monkeypatch.setattr(qp, "POLISH_ROUNDS", 0)  # the start's guess needs a correction
        gmv_herfindahl(u, upper=caps, min_bets=4.0)
        (report,) = admm_reports
        assert report.polished and report.iterations > 1
        # ADMM's iteration 1 polishes the start's y, bit for bit, and settles it
        # no second time: each guess the iterates show is settled once
        assert np.array_equal(ys[0], ys[1])
        shown = [((y <= 0.0).tobytes(), (y >= caps).tobytes()) for y in ys]
        assert guesses == list(dict.fromkeys(shown)) and len(guesses) < len(ys)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30), cap=st.sampled_from([1.0, 0.3]),
           copied=st.booleans(), share=st.floats(0.0, 1.0))
    def test_the_start_matches_the_split_alone_bit_for_bit_property(self, seed, n, cap,
                                                                   copied, share):
        from proxalloc import portfolios

        rng = np.random.default_rng(seed)
        u = factor_universe(rng, n)
        if copied:
            u = duplicate_asset(u, int(rng.integers(n)))
        upper = max(cap, 1.5 / u.n)
        gmv_bets = effective_bets(gmv_diversified(u, upper=upper).w)
        bets = gmv_bets + share * (u.n - gmv_bets)

        def outcome():
            try:
                w, lam = gmv_herfindahl(u, upper=upper, min_bets=bets)
            except Exception as err:  # both paths must raise alike
                return type(err).__name__, str(err)
            return w.w.tobytes(), lam

        first = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(portfolios, "_polish_first", lambda *args: None)
            assert outcome() == first

    def test_table4_columns_end_polished_at_the_first_iteration(self, admm_reports,
                                                                 monkeypatch):
        from proxalloc import portfolios

        u = SET1.universe
        for bets in [b for b in data.MINVAR_GRID_BETS if b < 8]:
            expected, expected_lam = gmv_herfindahl(u, min_bets=bets)
            assert not admm_reports
            # the split alone polishes the same iterate at its iteration 1
            with monkeypatch.context() as patch:
                patch.setattr(portfolios, "_polish_first", lambda *args: None)
                w, lam = gmv_herfindahl(u, min_bets=bets)
            assert [(r.polished, r.iterations) for r in admm_reports] == [(True, 1)]
            assert np.array_equal(w.w, expected.w) and lam == expected_lam
            admm_reports.clear()

    def test_weakly_binding_cap_ends_polished_within_2_iterations(self, admm_reports):
        # one cap binds with a reduced gradient of about -1e-6, which the
        # sweep's early iterates leave free
        u = SET1.universe
        w, _ = gmv_herfindahl(u, upper=0.4, min_bets=4.0)
        assert not admm_reports
        assert np.max(np.abs(w.w - herfindahl_oracle(u, 4.0, 0.4))) <= 1e-9

    @pytest.mark.parametrize("bets, upper", [(3.0, 1.0), (6.0, 1.0), (7.5, 1.0), (4.0, 0.4)])
    @pytest.mark.parametrize("guess", ["all_free", "one_name"])
    def test_polish_corrects_a_far_guess_to_the_oracle(self, bets, upper, guess):
        from proxalloc.portfolios import _herfindahl_polish

        u = SET1.universe
        y = np.full(8, 0.5 * upper) if guess == "all_free" else 0.5 * upper * np.eye(8)[0]
        accepted = [None]
        polish = _herfindahl_polish(u.cov, np.full(8, upper), np.sqrt(1.0 / bets), accepted)
        w = polish(None, y, None)
        assert w is not None
        assert_ridge_certificate(u, w, accepted[0], bets, upper)

    def test_polish_out_of_rounds_returns_none_and_admm_goes_on(self, monkeypatch,
                                                                 admm_reports):
        from proxalloc import portfolios, qp

        u, caps = SET1.universe, np.full(8, 0.3)
        accepted = [None]
        polish = portfolios._herfindahl_polish(u.cov, caps, 0.5, accepted)
        # this guess needs one correction more than POLISH_ROUNDS allows
        assert polish(None, 0.15 * np.eye(8)[0], None) is None and accepted == [None]
        # and a hook keeps the guesses it rejected, so it is asked anew
        polish = portfolios._herfindahl_polish(u.cov, caps, 0.5, accepted)
        rounds = qp.POLISH_ROUNDS
        monkeypatch.setattr(qp, "POLISH_ROUNDS", rounds + 1)  # and exactly one more
        assert polish(None, 0.15 * np.eye(8)[0], None) is not None
        monkeypatch.setattr(qp, "POLISH_ROUNDS", rounds)
        expected, _ = gmv_herfindahl(u, upper=caps, min_bets=4.0)
        assert not admm_reports
        monkeypatch.setattr(qp, "POLISH_ROUNDS", 0)  # the sweep's guess only
        w, _ = gmv_herfindahl(u, upper=caps, min_bets=4.0)
        # the start is rejected, and ADMM goes on past its iteration 1
        (report,) = admm_reports
        assert report.polished and report.iterations > 1
        # a polished point depends on its active set alone
        assert np.array_equal(w.w, expected.w)

    def test_bets_monotone_in_ridge(self):
        from proxalloc.portfolios import _solve_budget_qp

        u = SET1.universe
        previous = 0.0
        for lam in np.linspace(0.0, 10.0, 11):
            x = _solve_budget_qp(u.cov + lam * np.eye(8), np.zeros(8),
                                 lower=np.zeros(8), upper=np.ones(8))
            bets = effective_bets(x)
            assert bets >= previous - 1e-9
            previous = bets

    def test_infinite_caps_mixed_with_finite_ones_read_as_one(self, admm_reports):
        u, inf = SET1.universe, np.inf
        mixed, ones = [inf] * 7 + [0.05], [1.0] * 7 + [0.05]
        expected, expected_lam = gmv_herfindahl(u, upper=ones, min_bets=3.0)
        w, lam = gmv_herfindahl(u, upper=mixed, min_bets=3.0)
        assert not admm_reports
        assert np.array_equal(w.w, expected.w) and lam == expected_lam
        diversified = gmv_diversified(u, upper=mixed, constraint=EffectiveBets(3.0))
        assert np.array_equal(diversified.w, expected.w)
        for solve in (lambda caps: gmv_herfindahl(u, upper=caps, min_bets=7.9),
                      lambda caps: gmv_diversified(u, upper=caps, constraint=EffectiveBets(7.9))):
            for caps in (mixed, ones):
                with pytest.raises(InfeasibleTargets, match="at most 7.608695652"):
                    solve(caps)

    @pytest.mark.parametrize("bets", [1.5, 4.5])
    def test_identical_names_polish_at_the_first_iteration(self, admm_reports, bets):
        # cov = 0.04 11' is singular, and its reduced block on the budget plane is 0:
        # every budget portfolio has variance 0.04, the answer nearest 0 is equal
        # weights, inside every ball, and y takes no null direction
        u = AssetUniverse(names=list("abcde"), mu=np.zeros(5), sigma=np.full(5, 0.2),
                          rho=np.ones((5, 5)))
        w, lam = gmv_herfindahl(u, min_bets=bets)
        assert not admm_reports
        assert np.array_equal(w.w, np.full(5, 0.2)) and lam == 0.0

    @pytest.mark.parametrize("bets, lam", [(3.0, 0.0), (4.0, np.inf)])
    def test_one_free_name_takes_what_the_caps_leave(self, monkeypatch, bets, lam):
        from proxalloc import portfolios

        points, settle = [], portfolios._settle

        def first_point(solve, *args):
            points.append(solve(*args[2:]))
            return points[-1][0]

        monkeypatch.setattr(portfolios, "_settle", first_point)
        u, caps = SET1.universe, np.full(8, 0.3)
        accepted = [None]
        polish = portfolios._herfindahl_polish(u.cov, caps, np.sqrt(1.0 / bets), accepted)
        # names 0-2 at their caps, name 3 free, the rest at 0
        guess = np.array([0.3, 0.3, 0.3, 0.05, 0.0, 0.0, 0.0, 0.0])
        point = polish(None, guess, None)
        x, _, mult, tol = points[0]
        assert np.max(np.abs(x - [0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0])) <= 1e-15
        assert mult[3] == 0.0
        # ||x||^2 = 0.28 lies inside the ball of 3 bets (1/3) and outside
        # that of 4 (1/4), where the one free name makes x the limit lam -> inf
        if lam == np.inf:
            assert tol == 0.0 and point is None and accepted == [None]
        else:
            assert point is x and accepted == [0.0]
            monkeypatch.setattr(portfolios, "_settle", settle)
            w = polish(None, guess, None)
            assert_ridge_certificate(u, w, accepted[0], bets, 0.3)

    def test_never_bisects(self, monkeypatch):
        from proxalloc import portfolios

        def fail(*args):
            raise AssertionError("bisect called")

        monkeypatch.setattr(portfolios, "bisect", fail)
        u = SET1.universe
        for bets in data.MINVAR_GRID_BETS:
            gmv_herfindahl(u, min_bets=bets)
        gmv_herfindahl(u, upper=0.3, min_bets=4.0)
        gmv_herfindahl(duplicated_asset_universe(), min_bets=5.0)
        gmv_diversified(u, upper=0.4, constraint=EffectiveBets(4.0))


class TestSecularRoot:
    @staticmethod
    def draws(seed):
        """(a, c) with sum(a) in (1, 6], a_0 > 0, and a few later entries
        a_k = c_k = 0 or a_k = 0 < c_k."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 12))
        a, c = rng.exponential(size=size), rng.exponential(size=size) * 10.0 ** rng.uniform(-3, 3)
        a[1:][rng.random(size - 1) < 0.2] = 0.0
        c[(a == 0.0) & (rng.random(size) < 0.5)] = 0.0
        return a * (1.0 + 5.0 * rng.uniform(1e-3, 1.0)) / a.sum(), c

    @staticmethod
    def g(a, c, theta):
        return float(a @ (1.0 / (1.0 + theta * c)) ** 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brentq(self, seed):
        from scipy.optimize import brentq

        from proxalloc.portfolios import _secular_root

        a, c = self.draws(seed)
        hi = 2.0 * np.sqrt(np.sum(a[a > 0] / c[a > 0] ** 2))
        expected = brentq(lambda t: self.g(a, c, t) - 1.0, 0.0, hi, xtol=1e-300, rtol=1e-15)
        assert abs(_secular_root(a, c) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("a", [[0.5, 0.5], [0.3, 0.0, 0.2], [0.0, 0.0]])
    def test_inside_the_ball_is_zero(self, a):
        from proxalloc.portfolios import _secular_root

        assert _secular_root(np.array(a), np.array([1.0, 0.0, 2.0][:len(a)])) == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_iterates_rise_to_the_root_without_overshooting(self, monkeypatch, seed):
        from proxalloc import portfolios

        a, c = self.draws(seed)
        root = portfolios._secular_root(a, c)
        iterates = []
        for steps in range(1, 8):
            monkeypatch.setattr(portfolios, "SECULAR_STEPS", steps)
            iterates.append(portfolios._secular_root(a, c))
        assert 0.0 < iterates[0]
        assert all(lo <= hi <= root for lo, hi in zip(iterates, iterates[1:]))
        assert all(self.g(a, c, theta) >= 1.0 - 1e-15 for theta in iterates)


class TestGmvDiversified:
    def test_effective_bets_path_matches_herfindahl(self):
        u = SET1.universe
        w = gmv_diversified(u, constraint=EffectiveBets(5.0))
        w_ref, _ = gmv_herfindahl(u, min_bets=5.0)
        assert np.max(np.abs(w.w - w_ref.w)) <= 1e-9

    @pytest.mark.parametrize("model", [gmv_diversified, mdp])
    @pytest.mark.parametrize("below", [0.0, 5e-10])
    def test_entropy_at_log_n_is_equal_weight(self, model, below):
        w = model(SET1.universe, constraint=ShannonEntropyFloor(np.log(8.0) - below))
        assert np.allclose(w.w, 1.0 / 8.0, atol=1e-10)

    def test_zero_entropy_floor_inactive(self):
        u = SET1.universe
        w = gmv_diversified(u, constraint=ShannonEntropyFloor(0.0))
        unconstrained = gmv_diversified(u, constraint=None)
        assert np.max(np.abs(w.w - unconstrained.w)) <= 1e-6

    def test_intermediate_entropy_floor_binds(self):
        u = SET1.universe
        floor = 1.6
        w = gmv_diversified(u, constraint=ShannonEntropyFloor(floor))
        s = stats(w, u)
        assert s.shannon_entropy >= floor - 1e-6
        unconstrained = gmv_diversified(u, constraint=None)
        assert s.volatility >= stats(unconstrained, u).volatility - 1e-10

    @pytest.mark.parametrize("model", [gmv_diversified, mdp])
    def test_unreachable_entropy(self, model):
        with pytest.raises(UnreachableDiversification):
            model(SET1.universe, constraint=ShannonEntropyFloor(np.log(8.0) + 0.1))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_seeded_entropy_floors_end_polished(self, admm_reports, n):
        # the benchmark's entropy cases: floors halfway from the long-only GMV's
        # entropy to ln n, where Sigma w + theta (ln w + 1) - nu 1 = 0 binds
        bench = perfbench_universe()
        u = bench.factor_universe(np.random.default_rng([1, 5, n]), n)
        h0 = bench.shannon_entropy(bench.long_only_gmv(u))
        floor = h0 + 0.5 * (np.log(n) - h0)
        w = gmv_diversified(u, constraint=ShannonEntropyFloor(floor)).w
        assert_polished_kkt(admm_reports[-1], u.cov @ w,
                            np.column_stack([np.log(w) + 1.0, np.ones(n)]))
        assert abs(shannon_entropy(w) - floor) <= 1e-9  # binds, to POLISH_TOL

    def test_capped_entropy_floor_ends_polished(self, admm_reports):
        # caps of 0.2 bind at the floor 1.9: a cap multiplier joins the budget's
        u = SET1.universe
        w = gmv_diversified(u, upper=0.2, constraint=ShannonEntropyFloor(1.9)).w
        capped = w >= 0.2 - 1e-12
        assert capped.any() and np.max(w) <= 0.2 + 1e-12
        normals = np.column_stack([np.log(w) + 1.0, np.ones(8), np.eye(8)[:, capped]])
        m = assert_polished_kkt(admm_reports[-1], u.cov @ w, normals)
        assert np.all(m[2:] >= 0.0)

    def test_entropy_floor_validates_nothing_per_iteration(self, monkeypatch, checks,
                                                          admm_reports):
        from proxalloc import portfolios

        # without the polish, ADMM runs to convergence: the count is per iteration
        monkeypatch.setattr(portfolios, "_smooth_polish", no_polish)
        u = factor_universe(np.random.default_rng(0), 8)
        h0 = stats(gmv_diversified(u), u).shannon_entropy
        checks.clear()
        gmv_diversified(u, constraint=ShannonEntropyFloor(h0 + 0.5 * (np.log(8.0) - h0)))
        assert sum(r.iterations for r in admm_reports) >= 50
        assert checks["as_vector"] <= 10


class TestRebalancePenalized:
    def test_zero_cost_is_gmv(self):
        u = SET1.universe
        w = rebalance_penalized(u, EW8)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-6

    def test_zero_turnover_cap_freezes(self):
        w = rebalance_penalized(SET1.universe, EW8, turnover_cap=0.0)
        assert np.array_equal(w.w, EW8)

    def test_zero_cap_on_holdings_above_the_box_is_infeasible(self):
        current = np.concatenate([[0.2], np.full(7, 0.8 / 7)])
        with pytest.raises(InfeasibleTargets) as err:
            rebalance_penalized(SET1.universe, current, turnover_cap=0.0, upper=0.15)
        assert np.array_equal(err.value.last, np.minimum(current, 0.15))

    def test_zero_cap_on_a_short_holding_is_infeasible(self):
        current = np.concatenate([[-0.05], np.full(7, 0.15)])
        with pytest.raises(InfeasibleTargets) as err:
            rebalance_penalized(SET1.universe, current, turnover_cap=0.0)
        assert np.array_equal(err.value.last, np.maximum(current, 0.0))

    @pytest.mark.parametrize("model", ["rebalance", "turnover"])
    def test_negative_cap_rejected(self, model):
        with pytest.raises(ValueError, match="nonnegative"):
            if model == "rebalance":
                rebalance_penalized(SET1.universe, EW8, turnover_cap=-0.1)
            else:
                mvo_turnover(SET1.universe, 0.5, EW8, -0.1)

    def test_turnover_cap_respected(self):
        w = rebalance_penalized(SET1.universe, EW8, turnover_cap=0.4)
        assert np.sum(np.abs(w.w - EW8)) <= 0.4 + 1e-7

    def test_negative_cost_rejected(self):
        with pytest.raises(NegativeCost):
            rebalance_penalized(SET1.universe, EW8, cost_scale=1.0, bid_cost=-0.01)

    def test_cost_sandwich(self):
        u = SET1.universe
        lam, cost = 0.01, 0.01
        w = rebalance_penalized(u, EW8, cost_scale=lam, bid_cost=cost, ask_cost=cost)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))

        def objective(x):
            trade_cost = cost * np.sum(np.abs(x - EW8))
            return 0.5 * x @ u.cov @ x + lam * trade_cost

        assert objective(w.w) <= objective(gmv.w) + 1e-9
        assert 0.5 * w.w @ u.cov @ w.w >= 0.5 * gmv.w @ u.cov @ gmv.w - 1e-12


class TestTradePolish:
    """The rebalancing split ends at the polish of its trade pattern."""

    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_rebalance_matches_the_trade_variable_qp(self, admm_reports, n):
        u, current, bid, ask = rebalance_account(0, n)
        cap = 0.2
        expected = trade_variable_qp(u, current, cap, bid, ask, np.zeros(n))
        assert abs(np.abs(expected - current).sum() - cap) <= 1e-8  # the cap binds
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid, ask_cost=ask,
                                turnover_cap=cap)
        assert admm_reports[-1].polished
        assert np.max(np.abs(w.w - expected)) <= 1e-8

    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_turnover_matches_the_split_run_to_1e12(self, monkeypatch, admm_reports, n):
        from proxalloc import portfolios

        u, current, _, _ = rebalance_account(1, n)
        w = mvo_turnover(u, 0.5, current, 0.2)
        assert admm_reports[-1].polished
        monkeypatch.setattr(portfolios, "_trade_polish", no_polish)
        cfg = AdmmConfig(phi0=float(np.mean(np.diag(u.cov))), eps=1e-12, max_iter=100000)
        expected = mvo_turnover(u, 0.5, current, 0.2, cfg=cfg)
        assert admm_reports[-1].converged and not admm_reports[-1].polished
        assert np.max(np.abs(w.w - expected.w)) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_polished_answers_meet_their_kkt_conditions(self, admm_reports, seed, n):
        u, current, bid, ask = rebalance_account(seed, n)
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid, ask_cost=ask,
                                turnover_cap=0.2)
        assert admm_reports[-1].polished
        assert_trade_kkt(u, w.w, current, 0.2, bid, ask, np.zeros(n))
        w = mvo_turnover(u, 0.5, current, 0.2)
        assert admm_reports[-1].polished
        zero = np.zeros(n)
        assert_trade_kkt(u, w.w, current, 0.2, zero, zero, 0.5 * u.mu)

    @pytest.mark.parametrize("n, most", [(100, 32), (500, 128)])
    def test_equal_weight_rows_end_polished(self, admm_reports, n, most):
        # equal-weight holdings, a cap of 0.3; 20 bp each side, or gamma = 0.1
        u = factor_universe(np.random.default_rng(0), n)
        current, cost, zero = np.full(n, 1.0 / n), np.full(n, 0.002), np.zeros(n)
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=cost, ask_cost=cost,
                                turnover_cap=0.3)
        assert admm_reports[-1].polished and admm_reports[-1].iterations <= most
        assert_trade_kkt(u, w.w, current, 0.3, cost, cost, zero)
        w = mvo_turnover(u, 0.1, current, 0.3)
        assert admm_reports[-1].polished and admm_reports[-1].iterations <= most
        assert_trade_kkt(u, w.w, current, 0.3, zero, zero, 0.1 * u.mu)

    @pytest.mark.parametrize("seed, n, cap", [(0, 20, 0.3), (8, 20, 0.3), (2, 20, 0.6),
                                              (4, 40, 0.3), (10, 20, None)])
    def test_holdings_outside_the_box_end_inside_it(self, admm_reports, seed, n, cap):
        # a holding over the upper bound of 0.1 and a short one
        u, current, bid, ask = rebalance_account(seed, n)
        current[0], current[1] = 0.2, -0.02
        current[2:] *= 0.82 / current[2:].sum()
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid, ask_cost=ask,
                                turnover_cap=cap, upper=0.1).w
        assert admm_reports[-1].polished
        assert np.all(w <= 0.1 + 1e-12)
        cap = 3.0 if cap is None else cap  # above any turnover from current
        expected = trade_variable_qp(u, current, cap, bid, ask, np.zeros(n), upper=0.1)
        assert np.max(np.abs(w - expected)) <= 1e-8
        assert_trade_kkt(u, w, current, cap, bid, ask, np.zeros(n), upper=0.1)

    @pytest.mark.parametrize("cap", [None, 5.0])
    def test_zero_cost_gmv_ends_polished(self, admm_reports, cap):
        # no cost and no binding cap: no name has a kink at its holding
        u = SET1.universe
        w = rebalance_penalized(u, EW8, turnover_cap=cap)
        assert admm_reports[-1].polished
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-8

    def test_benchmark_account_ends_polished_by_iteration_32(self, admm_reports):
        # the 40-asset rebalancing account of perfbench's admm_split (book seed 1)
        book = np.random.default_rng([1, 4, 40])
        u = factor_universe(book, 40)
        current, cap = book.dirichlet(np.ones(40)), book.uniform(0.2, 0.4)
        bid, ask = book.uniform(0.001, 0.004, 40), book.uniform(0.001, 0.004, 40)
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid, ask_cost=ask,
                                turnover_cap=cap)
        assert [(r.polished, r.iterations <= 32) for r in admm_reports] == [(True, True)]
        assert_trade_kkt(u, w.w, current, cap, bid, ask, np.zeros(40))

    @pytest.mark.parametrize("model", ["rebalance", "turnover", "one_way"])
    @pytest.mark.parametrize("hook", ["none", "no_rounds"])
    def test_unpolished_admm_goes_on_to_the_same_answer(self, monkeypatch, admm_reports,
                                                        model, hook):
        from proxalloc import portfolios, qp

        if model == "one_way":
            u, current, cap = one_way_account()
            bid = ask = np.full(u.n, 0.002)
        else:
            (u, current, bid, ask), cap = rebalance_account(2, 20), 0.2
        if model == "turnover":
            solve = lambda: mvo_turnover(u, 0.5, current, cap)
        else:
            solve = lambda: rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid,
                                                ask_cost=ask, turnover_cap=cap)
        expected = solve()
        assert admm_reports[-1].polished
        if hook == "none":
            monkeypatch.setattr(portfolios, "_trade_polish", no_polish)
        else:
            monkeypatch.setattr(qp, "POLISH_ROUNDS", 0)  # the y-blocks' guess only
        w = solve()
        assert admm_reports[-1].converged
        assert hook == "no_rounds" or not admm_reports[-1].polished
        assert np.max(np.abs(w.w - expected.w)) <= 1e-8

    def test_one_way_pattern_drops_the_parallel_turnover_row(self, monkeypatch):
        from proxalloc import portfolios

        u, current, cap = one_way_account()
        cost = np.full(u.n, 0.002)
        w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=cost, ask_cost=cost,
                                turnover_cap=cap).w
        assert abs(np.abs(w - current).sum() - cap) <= 1e-12
        assert np.all((w >= current - 1e-12) | (w == 0.0))  # buys and sell-outs only
        rows = []
        solve = portfolios._solve_equality_qp

        def recorded(q, r, a, b):
            rows.append(a)
            return solve(q, r, a, b)

        monkeypatch.setattr(portfolios, "_solve_equality_qp", recorded)
        polish = portfolios._trade_polish(u.cov, np.zeros(u.n), current, np.ones(u.n), cap,
                                          cost, cost)
        x = polish(None, np.concatenate([w] * 3), None)
        # the budget row alone, and the least theta >= 0 the held names admit
        # accepts the exact pattern at the first solve
        assert [a.shape[0] for a in rows] == [1]
        assert np.max(np.abs(x - w)) <= 1e-12

    def test_a_guess_wrong_both_ways_settles_in_two_solves(self, monkeypatch):
        # optimum (0.46, 0.3, 0.24) under 1% costs: the first name buys, the
        # second is held and the third sells.  The guess holds the third,
        # whose h = 0.0374 > bid, and buys the second, whose point 0.185
        # crosses its holding: one round frees the third's sell and holds
        # the second
        from proxalloc import portfolios, qp

        u = AssetUniverse(names=list("abc"), mu=np.zeros(3), sigma=np.array([0.2, 0.3, 0.4]),
                          rho=np.eye(3))
        current, cost, zero = np.array([0.3, 0.3, 0.4]), np.full(3, 0.01), np.zeros(3)
        solves = []
        solve = portfolios._solve_equality_qp

        def recorded(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(portfolios, "_solve_equality_qp", recorded)
        monkeypatch.setattr(qp, "POLISH_ROUNDS", 1)
        polish = portfolios._trade_polish(u.cov, zero, current, np.ones(3), None, cost, cost)
        box, band = np.array([0.5, 0.35, 0.3]), np.array([0.5, 0.35, 0.4])  # the y-blocks
        x = polish(None, np.concatenate([box, band]), None)
        assert len(solves) == 2 and np.max(np.abs(x - [0.46, 0.3, 0.24])) <= 1e-12
        expected = trade_variable_qp(u, current, 3.0, cost, cost, zero)
        assert np.max(np.abs(x - expected)) <= 1e-8

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 12), turnover=st.booleans(),
           holdings=st.sampled_from(["dirichlet", "equal", "outside"]),
           cap=st.sampled_from(["none", "slack", "binding", "one_way"]),
           costless=st.floats(0.0, 1.0), box=st.floats(0.0, 1.0))
    # all weight on one name: trade_variable_qp's budget row has no free entry
    @example(seed=16512, n=7, turnover=True, holdings="dirichlet", cap="none", costless=0.0,
             box=0.0)
    # the answer buys 1.02 of a name held short at -0.02
    @example(seed=2792, n=6, turnover=True, holdings="outside", cap="none", costless=0.0,
             box=0.0)
    # the oracle's bridge solve ended at 200,000 iterations, its residual 5.2e-11
    @example(seed=300, n=10, turnover=False, holdings="equal", cap="none", costless=0.5,
             box=0.0)
    def test_polished_answers_match_the_trade_variable_qp_property(self, admm_reports, seed, n,
                                                                   turnover, holdings, cap,
                                                                   costless, box):
        """Random accounts: costs zero on a share of the names, caps absent,
        slack, binding or one-way (equal weights, 20 bp costs and a cap of
        2k/n, as in one_way_account), holdings outside a box whose caps are
        below 1.  A polished answer is the trade-variable QP's, and meets
        assert_trade_kkt when a name trades inside the box."""
        admm_reports.clear()  # the fixture spans every example
        rng = np.random.default_rng([27, seed, n])
        u = factor_universe(rng, n)
        # caps of at least 1.5 / n: at 1 / n the box is one point, where
        # trade_variable_qp's bridge solve runs to its iteration cap
        upper = min(1.5 / n + box * (1.0 - 1.5 / n), 1.0)
        current = np.full(n, 1.0 / n) if holdings == "equal" else rng.dirichlet(np.ones(n))
        if holdings == "outside" and n >= 3:  # one name over its cap, one short
            upper = min(upper, 0.8)
            current[0], current[1] = upper + 0.05, -0.02
            current[2:] *= (0.97 - upper) / current[2:].sum()
        bid, ask = rng.uniform(0.001, 0.004, (2, n)) * (rng.random(n) >= costless)
        if cap == "one_way":
            upper, current, bid = 1.0, np.full(n, 1.0 / n), np.full(n, 0.002)
            ask = bid
        linear = np.zeros(n)
        if turnover:  # mvo_turnover: no costs and no box below 1
            upper, bid, ask, linear = 1.0, np.zeros(n), np.zeros(n), 0.5 * u.mu
        clipped = np.clip(current, 0.0, upper)
        needed = np.abs(current - clipped).sum() + abs(1.0 - clipped.sum())
        limit = {"none": None, "slack": 3.0}.get(cap)
        if cap == "one_way":  # k names sold out, k / n bought
            limit = 2.0 * (1 + rng.integers(max(n // 2, 1))) / n
        elif cap == "binding":  # between the least turnover and the uncapped optimum's
            free = trade_variable_qp(u, current, 3.0, bid, ask, linear, upper)
            limit = needed + rng.uniform(0.1, 0.9) * max(np.abs(free - current).sum() - needed, 0.0)
        if turnover:
            w = mvo_turnover(u, 0.5, current, limit).w
        else:
            w = rebalance_penalized(u, current, cost_scale=1.0, bid_cost=bid, ask_cost=ask,
                                    turnover_cap=limit, upper=upper).w
        if not (admm_reports and admm_reports[-1].polished):
            return
        limit = 3.0 if limit is None else limit
        expected = trade_variable_qp(u, current, limit, bid, ask, linear, upper)
        assert np.max(np.abs(w - expected)) <= 1e-8
        if np.any((np.abs(w - current) > 1e-12) & (w > 1e-12) & (w < upper - 1e-12)):
            assert_trade_kkt(u, w, current, limit, bid, ask, linear, upper)


class TestErc:
    def test_published_weights_and_cycles(self):
        w, report = erc(SET1.universe, return_report=True)
        expected = data.ERC_WEIGHTS_SET1
        assert np.max(np.abs(w.as_percent() - expected)) <= 0.005
        assert report.iterations <= 10
        assert report.converged

    def test_equal_risk_contributions(self):
        u = SET1.universe
        w = erc(u)
        rc = risk_contributions(w, u)
        vol = stats(w, u).volatility
        assert (rc.max() - rc.min()) / vol <= 1e-6

    def test_scale_invariance(self):
        u = SET1.universe
        scaled = AssetUniverse(names=u.names, mu=u.mu, sigma=3.0 * u.sigma, rho=u.rho)
        w1 = erc(u)
        w2 = erc(scaled)
        assert np.max(np.abs(w1.w - w2.w)) <= 1e-10


class TestRiskBudgeting:
    # the ADMM engine's iteration guards hold the over-relaxed loop's gain:
    # the plain loop needs 482 and 90 iterations
    def test_admm_criterion_9_call_within_its_iteration_guard(self):
        _, report = risk_budgeting(SET1.universe, EW8, engine="admm", return_report=True,
                                   lam=1.0, phi=1.0, tol=1e-8)
        assert report.converged and report.iterations <= 340

    def test_admm_stdev_measure_at_n_100_within_its_iteration_guard(self):
        u = factor_universe(np.random.default_rng(0), 100)
        measure = StdevRisk(1.5 * perfbench_universe().tangency_sharpe(u))
        _, report = risk_budgeting(u, np.full(100, 0.01), measure, engine="admm",
                                   return_report=True)
        assert report.converged and report.iterations <= 60

    def test_uniform_budgets_equal_erc(self):
        u = SET1.universe
        w = risk_budgeting(u, EW8)
        assert np.max(np.abs(w.w - erc(u).w)) <= 1e-8

    def test_two_asset_closed_form(self):
        u = AssetUniverse(names=["a", "b"], mu=np.zeros(2), sigma=[0.2, 0.2],
                          rho=np.eye(2))
        w = risk_budgeting(u, np.array([0.7, 0.3]))
        expected = np.sqrt([0.7, 0.3])
        expected /= expected.sum()
        assert np.max(np.abs(w.w - expected)) <= 1e-9

    def test_engines_agree(self):
        rng = np.random.default_rng(9)
        u = SET1.universe
        for _ in range(3):
            budgets = rng.uniform(0.5, 2.0, 8)
            w_ccd = risk_budgeting(u, budgets, engine="ccd")
            w_admm = risk_budgeting(u, budgets, engine="admm")
            assert np.max(np.abs(w_ccd.w - w_admm.w)) <= 1e-8

    def test_euler_decomposition_both_measures(self):
        u = tilted_universe()
        w = erc(u).w
        for measure in (Volatility(), StdevRisk(scale=2.326347874040841, rate=0.01)):
            rc = risk_contributions(w, u, measure)
            if isinstance(measure, Volatility):
                total = stats(w, u).volatility
            else:
                total = -w @ (u.mu - 0.01) + measure.scale * stats(w, u).volatility
            assert abs(rc.sum() - total) <= 1e-10

    def test_stdev_measure_budgets(self):
        u = tilted_universe()
        budgets = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0])
        measure = StdevRisk(scale=2.326347874040841, rate=0.0)
        w = risk_budgeting(u, budgets, measure=measure)
        rc = risk_contributions(w, u, measure)
        ratios = rc / (budgets / budgets.sum())
        assert (ratios.max() - ratios.min()) / abs(ratios.mean()) <= 1e-6

    def test_stdev_engines_agree(self):
        u = tilted_universe()
        measure = StdevRisk(scale=2.0, rate=0.0)
        w_ccd = risk_budgeting(u, EW8, measure=measure, engine="ccd")
        w_admm = risk_budgeting(u, EW8, measure=measure, engine="admm")
        assert np.max(np.abs(w_ccd.w - w_admm.w)) <= 1e-8

    def test_stdev_engines_agree_on_a_singular_covariance(self):
        # a duplicated asset (correlation 1 with asset 0) makes cov singular;
        # the ADMM prox works in cov's eigenbasis and never inverts it
        u = tilted_universe()
        rho = np.ones((9, 9))
        rho[:8, :8] = u.rho
        rho[8, :8] = rho[:8, 8] = u.rho[0]
        dup = AssetUniverse(names=[*u.names, "copy"], mu=np.append(u.mu, u.mu[0]),
                            sigma=np.append(u.sigma, u.sigma[0]), rho=rho)
        assert np.linalg.eigvalsh(dup.cov)[0] <= 1e-15
        budgets = np.linspace(1.0, 2.0, 9)
        measure = StdevRisk(scale=2.0, rate=0.0)
        w_ccd = risk_budgeting(dup, budgets, measure=measure, engine="ccd",
                               cfg=CdConfig(tol=1e-12))
        w_admm = risk_budgeting(dup, budgets, measure=measure, engine="admm")
        assert np.max(np.abs(w_ccd.w - w_admm.w)) <= 1e-6

    def test_ccd_engine_rejects_an_admm_option(self):
        # an option only the other engine reads is a mistake, not a no-op
        u = tilted_universe()
        with pytest.raises(TypeError, match="bogus"):
            risk_budgeting(u, EW8, bogus=1)
        with pytest.raises(TypeError, match="phi"):
            risk_budgeting(u, EW8, engine="ccd", phi=5.0)

    def test_each_engine_checks_its_inputs_once(self, checks):
        # the budgets on entry and the answer at the gate: the ccd engine
        # re-checks neither the universe's cov nor the budgets it is handed
        u = factor_universe(np.random.default_rng(3), 30)
        budgets = np.linspace(1.0, 2.0, 30)
        for solve in (lambda: erc(u), lambda: risk_budgeting(u, budgets),
                      lambda: risk_budgeting(u, budgets, engine="admm")):
            checks.clear()
            solve()
            assert checks["as_matrix", (30, 30)] == 0
            assert checks["as_vector"] == 2

    @pytest.mark.parametrize("engine", ["ccd", "admm"])
    def test_budgets_whose_sum_overflows_raise(self, engine):
        # normalized by an infinite sum every budget reads 0
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="positive"):
            risk_budgeting(tilted_universe(), np.full(8, 1e308), engine=engine)

    @pytest.mark.parametrize("engine", ["ccd", "admm"])
    @pytest.mark.parametrize("tiny", [1e-320, 1e-16])
    def test_a_budget_below_the_floor_raises_before_any_cycle(self, engine, tiny,
                                                               monkeypatch):
        # the positive-root step rounds the weight of such a budget to 0:
        # the polish's ln x warned, and both engines returned w_0 = 0
        from proxalloc import portfolios

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(portfolios, "ccd_rb_stdev", no_solve)
        monkeypatch.setattr(portfolios, "_rb_admm", no_solve)
        with pytest.raises(OutOfDomain, match="at least 1e-12 once normalized"):
            risk_budgeting(SET1.universe, np.r_[tiny, np.ones(7)], engine=engine)

    @pytest.mark.parametrize("engine", ["ccd", "admm"])
    def test_a_budget_above_the_floor_is_certified(self, engine):
        # 1e-11 / 7.00...: just above the floor once normalized
        w, report = risk_budgeting(SET1.universe, np.r_[1e-11, np.ones(7)], engine=engine,
                                   return_report=True)
        assert w.w[0] > 0.0 and report.stationarity_residual <= 1e-8

    def test_admm_engine_rejects_a_cd_config(self):
        with pytest.raises(TypeError, match="cfg"):
            risk_budgeting(tilted_universe(), EW8, engine="admm", cfg=CdConfig(tol=1e-3))

    def test_stdev_scale_below_best_sharpe_raises_typed_error(self):
        # with the scale below the best single-asset Sharpe ratio the
        # objective is unbounded below; both engines refuse it before
        # iterating, so no overflow warning is printed on the way
        u = tilted_universe()
        scale = 0.5 * float(np.max(u.mu / u.sigma))
        for engine in ("ccd", "admm"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ProxallocError):
                    risk_budgeting(u, EW8, measure=StdevRisk(scale=scale, rate=0.0),
                                   engine=engine)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60), stdev=st.booleans(),
           copies=st.booleans(), smallest=st.floats(1e-4, 1.0), tilt=st.floats(1.02, 3.0))
    def test_ccd_certified_and_matches_admm_property(self, seed, n, stdev, copies,
                                                     smallest, tilt):
        rng = np.random.default_rng(seed)
        u = factor_universe(rng, n)
        measure = (StdevRisk(tilt * perfbench_universe().tangency_sharpe(u)) if stdev
                   else Volatility())
        if copies:
            u = duplicate_asset(u, int(rng.integers(n)))
        budgets = smallest ** rng.uniform(0.0, 1.0, u.n)  # in [smallest, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, report = risk_budgeting(u, budgets, measure, return_report=True)
        # the polish certifies from the simultaneous first cycle
        assert report.iterations == 1 and report.polished
        assert np.all(np.isfinite(w.w)) and np.all(w.w > 0.0)
        assert abs(w.w.sum() - 1.0) <= 1e-12
        rc = risk_contributions(w, u, measure)
        ratio = rc / budgets
        spread = (ratio.max() - ratio.min()) / abs(ratio.mean())
        assert spread <= 1e-8
        assert report.stationarity_residual == pytest.approx(spread, rel=1e-6, abs=1e-14)
        # ADMM's limit does not depend on its penalty, so the oracle runs at
        # the barrier's curvature b_i / y_i^2 around y = w / R(w), its own
        # scale; at phi = 1 small budgets take it past 100,000 iterations
        y = w.w / rc.sum()
        phi = float(np.exp(np.mean(np.log(budgets / budgets.sum() / y ** 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_admm = risk_budgeting(u, budgets, measure, engine="admm", phi=phi)
            # at its default phi the ADMM engine ends through the same polish
            w_default, polished = risk_budgeting(u, budgets, measure, engine="admm",
                                                 return_report=True)
        assert np.max(np.abs(w.w - w_admm.w)) <= 1e-6
        assert polished.polished and polished.iterations == 0
        assert np.max(np.abs(w.w - w_default.w)) <= 1e-8

    def test_ccd_polish_certifies_erc_at_n_1000(self):
        # the largest-move stop alone left a relative spread of 3.5e-7 here
        u = factor_universe(np.random.default_rng(0), 1000)
        w, report = erc(u, return_report=True)
        assert report.polished and report.converged
        assert report.stationarity_residual <= 1e-8
        rc = risk_contributions(w, u)
        assert (rc.max() - rc.min()) / rc.mean() <= 1e-8

    def test_admm_engine_stops_on_residuals(self):
        # an explicit phi runs the plain split, which no polish ends
        u = tilted_universe()
        tol = 1e-9
        for measure in (Volatility(), StdevRisk(scale=2.0, rate=0.0)):
            _, report = risk_budgeting(u, EW8, measure=measure, engine="admm",
                                       return_report=True, tol=tol, phi=1.0)
            assert report.converged
            assert len(report.primal_residuals) == report.iterations
            assert len(report.dual_residuals) == report.iterations
            assert report.primal_residuals[-1] <= tol
            assert report.dual_residuals[-1] <= tol

    def test_default_admm_engine_ends_polished_at_the_start(self):
        # the Newton polish from one simultaneous update of ADMM's start y
        u = tilted_universe()
        for measure in (Volatility(), StdevRisk(scale=2.0, rate=0.0)):
            _, report = risk_budgeting(u, EW8, measure=measure, engine="admm",
                                       return_report=True)
            assert report.converged and report.polished and report.iterations == 0
            assert report.stationarity_residual <= 1e-10

    def test_a_cold_default_admm_call_decomposes_nothing(self, monkeypatch):
        # polished at the start, the stdev measure runs no eigh and the
        # volatility measure no Cholesky of cov + phi I
        n = 40
        rng = np.random.default_rng(5)
        budgets = rng.uniform(0.2, 1.0, n)
        stdev = factor_universe(rng, n)
        measure = StdevRisk(perfbench_universe().well_posed_xi(stdev))
        vol = factor_universe(rng, n)  # built before the spy: its gate runs a Cholesky

        def fail(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} ran")
            return spy

        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, fail(name))
        for u, m in ((stdev, measure), (vol, Volatility())):
            w, report = risk_budgeting(u, budgets, m, engine="admm", return_report=True)
            assert report.polished and report.iterations == 0
            assert report.stationarity_residual <= 1e-10
            assert "spectrum" not in vars(u) and not u.factor._cache
        monkeypatch.undo()
        assert np.max(np.abs(w.w - risk_budgeting(vol, budgets).w)) <= 1e-10

    def test_default_admm_engine_polishes_a_tiny_budget_on_a_duplicated_pair(self):
        # an asset and its copy with budgets 0.776 and 0.00097, at 1.023 times
        # the tangency Sharpe ratio: the plain split hits max_iter=5000 here
        u = duplicate_asset(factor_universe(np.random.default_rng(1), 1), 0)
        budgets = np.array([0.776, 0.00097])
        measure = StdevRisk(1.023 * perfbench_universe().tangency_sharpe(u))
        w, report = risk_budgeting(u, budgets, measure, engine="admm", return_report=True,
                                   max_iter=5000)
        assert report.polished and report.iterations == 0
        assert report.stationarity_residual <= 1e-10
        assert np.max(np.abs(w.w - risk_budgeting(u, budgets, measure).w)) <= 1e-8

    def test_default_admm_engine_polishes_near_the_long_only_max_sharpe(self):
        # xi = 0.685 against a long-only maximum Sharpe ratio of 0.672: the
        # plain split takes 4,384 iterations here
        u = factor_universe(np.random.default_rng(3), 50)
        measure = StdevRisk(0.685)
        w, report = risk_budgeting(u, np.ones(50), measure, engine="admm", return_report=True)
        assert report.polished and report.iterations == 0
        assert report.stationarity_residual <= 1e-10
        assert np.max(np.abs(w.w - risk_budgeting(u, np.ones(50), measure).w)) <= 1e-8


class TestEntropyConeProjection:
    """Projection onto K_h = {y >= 0 : H(y / 1'y) >= h}, checked on its KKT conditions."""

    @staticmethod
    def project(v, floor):
        from proxalloc.portfolios import _entropy_cone_projection

        return _entropy_cone_projection(np.asarray(v, dtype=float), floor)

    @staticmethod
    def in_polar(v, floor):
        # v'y <= 0 on K_h iff max_p {p'v : H(p) >= h} = min_t t (LSE(v / t) - h) <= 0
        from scipy.optimize import minimize_scalar
        from scipy.special import logsumexp

        best = minimize_scalar(lambda s: logsumexp(v * np.exp(-s)) - floor,
                               bounds=(-30.0, 30.0), method="bounded")
        return best.fun <= 1e-9

    def assert_kkt(self, v, floor, y):
        # y in K_h, y - v = -theta grad g(y) with theta >= 0 and
        # g(y) = sum y ln(y / 1'y) + h 1'y = 0 when theta > 0
        scale = max(1.0, np.max(np.abs(v)))
        if not np.any(y):
            assert self.in_polar(v, floor)
            return
        p = y / y.sum()
        h = shannon_entropy(p)
        assert h >= floor - 1e-12
        if np.array_equal(y, np.maximum(v, 0.0)):
            return
        assert np.all(y > 0)
        grad_g = np.log(p) + floor
        theta = (v - y) @ grad_g / (grad_g @ grad_g)
        assert theta >= 0
        assert np.max(np.abs(y - v + theta * grad_g)) <= 1e-12 * scale
        assert abs(h - floor) <= 1e-12

    def test_random_inputs(self):
        rng = np.random.default_rng(5)
        kinds = set()
        for _ in range(200):
            n = int(rng.integers(2, 40))
            floor = rng.uniform(0.05, 0.98) * np.log(n)
            v = rng.choice([0.01, 1.0, 100.0]) * (rng.standard_normal(n)
                                                  + rng.choice([-1.0, 0.0, 0.5]))
            y = self.project(v, floor)
            kinds.add("zero" if not np.any(y) else
                      "orthant" if np.array_equal(y, np.maximum(v, 0.0)) else "boundary")
            self.assert_kkt(v, floor, y)
        assert kinds == {"zero", "orthant", "boundary"}

    def test_nonpositive_input_projects_to_zero(self):
        assert not np.any(self.project([-1.0, 0.0, -3.0, -0.5], 0.8))

    def test_polar_input_with_positive_entries_projects_to_zero(self):
        # t (ln q + c) with LSE(ln q + c) = c < h lies in the polar cone
        floor, q = 1.2, np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        v = 3.0 * (np.log(q) + floor - 0.1)
        assert v[0] > 0 and self.in_polar(v, floor)
        assert not np.any(self.project(v, floor))

    def test_orthant_projection_meeting_the_floor_is_returned(self):
        v = np.array([1.0, 1.1, 0.9, -2.0])
        assert shannon_entropy(np.maximum(v, 0.0) / 3.0) >= 1.0
        assert np.array_equal(self.project(v, 1.0), np.maximum(v, 0.0))


class TestMdp:
    def test_long_short_closed_form(self):
        u = data.mdp_table_universe()
        w = mdp(u, long_only=False)
        z = solve_spd(u.cov, u.sigma)
        assert np.max(np.abs(w.w - z / z.sum())) <= 1e-9

    def test_published_grid_cells(self):
        u = data.mdp_table_universe()
        w_ls = mdp(u, long_only=False)
        assert np.max(np.abs(w_ls.as_percent() - data.MDP_GRID_WEIGHTS[:, 0])) <= 0.01
        w6 = mdp(u, long_only=True, constraint=EffectiveBets(6.0))
        assert np.max(np.abs(w6.as_percent() - data.MDP_GRID_WEIGHTS[:, 5])) <= 0.01
        assert abs(effective_bets(w6.w) - 6.0) <= 1e-6

    def test_long_short_without_a_maximum_raises(self):
        # 1' cov^-1 sigma < 0: w = z / 1'z has a negative diversification
        # ratio, and the ratio grows without bound along z on the budget plane
        rho = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.7], [0.9, 0.7, 1.0]])
        u = AssetUniverse(names=list("abc"), mu=np.zeros(3), sigma=[0.1, 0.3, 0.3],
                          rho=rho)
        assert solve_spd(u.cov, u.sigma).sum() < 0
        with pytest.raises(OutOfDomain):
            mdp(u, long_only=False)

    @staticmethod
    def homogeneous(w, u):
        """y = w / sigma'w, the solution of min y'Cy s.t. sigma'y = 1."""
        return w / (w @ u.sigma)

    def test_no_floor_is_stationary_for_its_homogeneous_qp(self):
        # min y'Cy s.t. sigma'y = 1, y >= 0 and y_i - u_i 1'y <= 0 for every cap
        table, factor = data.mdp_table_universe(), factor_universe(np.random.default_rng(0), 100)
        for u, cap in ((table, None), (factor, None), (table, 0.2), (factor, 0.05)):
            y = self.homogeneous(mdp(u, long_only=True, upper=cap).w, u)
            caps = None if cap is None else np.eye(u.n) - cap
            problem = QpProblem(q=u.cov, r=np.zeros(u.n), a=u.sigma[None, :], b=[1.0],
                                c=caps, d=None if cap is None else np.zeros(u.n),
                                lower=np.zeros(u.n))
            assert stationarity_residual(problem, y) <= 1e-8
            if cap is not None:
                assert np.max(y - cap * y.sum()) <= 1e-12  # the caps hold

    @pytest.mark.parametrize("universe, cap", [
        (data.mdp_table_universe(), None),
        (data.mdp_table_universe(), 0.2),
        (factor_universe(np.random.default_rng(0), 100), 0.05),
    ], ids=["table", "table caps 0.2", "factor n=100 caps 0.05"])
    def test_no_floor_runs_no_consensus_split(self, monkeypatch, universe, cap):
        from proxalloc import portfolios

        def fail(*args, **kwargs):
            raise AssertionError("a floor-free mdp ran the consensus split")

        monkeypatch.setattr(portfolios, "_plane_admm", fail)
        w = mdp(universe, long_only=True, upper=cap)
        assert abs(w.w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("caps", [np.full(8, 0.125), np.array([0.2, 0.2] + [0.1] * 6)],
                             ids=["uniform", "uneven"])
    def test_caps_summing_to_one_return_the_caps(self, caps):
        w = mdp(data.mdp_table_universe(), long_only=True, upper=caps)
        assert np.max(np.abs(w.w - caps)) <= 1e-12

    def test_bets_floors_meet_the_cone_kkt_conditions(self):
        # min y'Cy s.t. sigma'y = 1, y >= 0, g(y) = sqrt(N)||y|| - 1'y <= 0:
        # cov y = lam sigma - kappa grad g on the support, with kappa >= 0
        u = data.mdp_table_universe()
        for bets in data.MDP_GRID_BETS[2:]:
            y = self.homogeneous(mdp(u, long_only=True, constraint=EffectiveBets(bets)).w, u)
            grad_g = np.sqrt(bets) * y / np.linalg.norm(y) - 1.0
            basis = np.column_stack([u.sigma, -grad_g])
            live = y > 1e-10
            (lam, kappa), *_ = np.linalg.lstsq(basis[live], (u.cov @ y)[live], rcond=None)
            residual = u.cov @ y - basis @ [lam, kappa]
            assert np.max(np.abs(residual[live])) <= 1e-9
            assert np.all(residual[~live] >= -1e-9)  # orthant multipliers
            assert kappa >= 0
            assert abs(np.sqrt(bets) * np.linalg.norm(y) - y.sum()) <= 1e-9  # binds

    @pytest.mark.parametrize("bets", data.MDP_GRID_BETS[2:])
    def test_table5_floors_end_polished(self, admm_reports, bets):
        # the cone sqrt(N) ||y|| <= 1'y binds on the support of y
        u = data.mdp_table_universe()
        y = self.homogeneous(mdp(u, long_only=True, constraint=EffectiveBets(bets)).w, u)
        grad_g = np.sqrt(bets) * y / np.linalg.norm(y) - 1.0
        assert_polished_kkt(admm_reports[-1], u.cov @ y, np.column_stack([grad_g, -u.sigma]),
                            support=y > 0.0)
        assert abs(np.sqrt(bets) * np.linalg.norm(y) - y.sum()) <= 1e-9  # binds

    @pytest.mark.parametrize("case", ["table 1.2", "table 1.9", "factor n=100"])
    def test_entropy_floors_end_polished(self, admm_reports, case):
        if case == "factor n=100":
            u, floor = factor_universe(np.random.default_rng(0), 100), np.log(100 / 3)
        else:
            u, floor = data.mdp_table_universe(), float(case.split()[1])
        y = self.homogeneous(mdp(u, long_only=True, constraint=ShannonEntropyFloor(floor)).w, u)
        grad_g = np.log(y / y.sum()) + floor
        assert_polished_kkt(admm_reports[-1], u.cov @ y, np.column_stack([grad_g, -u.sigma]))

    def test_capped_bets_floor_is_slack_and_ends_polished(self, admm_reports):
        # caps of 0.25 leave 5.5 bets: the polish drops the slack cone and keeps
        # the cap rows y_i - 0.25 1'y <= 0 as equalities
        u = data.mdp_table_universe()
        y = self.homogeneous(mdp(u, long_only=True, upper=0.25, constraint=EffectiveBets(5.0)).w, u)
        capped = y >= 0.25 * y.sum() - 1e-12
        assert capped.any() and effective_bets(y / y.sum()) > 5.0
        rows = (np.eye(8) - 0.25)[capped]
        normals = np.column_stack([rows.T, -u.sigma])  # the cap multipliers first
        m = assert_polished_kkt(admm_reports[-1], u.cov @ y, normals)
        assert np.all(m[:-1] >= 0.0)

    @pytest.mark.parametrize("case", ["table 1.2", "table 1.9", "factor n=100"])
    def test_entropy_floors_meet_the_cone_kkt_conditions(self, case):
        # min y'Cy s.t. sigma'y = 1, g(y) = sum y ln(y / 1'y) + h 1'y <= 0:
        # cov y = lam sigma - kappa grad g with grad g = ln(y / 1'y) + h and
        # kappa >= 0; g keeps y > 0, so every asset is on the support
        if case == "factor n=100":
            u = factor_universe(np.random.default_rng(0), 100)
            floor = np.log(100 / 3)
        else:
            u, floor = data.mdp_table_universe(), float(case.split()[1])
        y = self.homogeneous(mdp(u, long_only=True, constraint=ShannonEntropyFloor(floor)).w, u)
        assert np.all(y > 0)
        grad_g = np.log(y / y.sum()) + floor
        basis = np.column_stack([u.sigma, -grad_g])
        (lam, kappa), *_ = np.linalg.lstsq(basis, u.cov @ y, rcond=None)
        assert np.max(np.abs(u.cov @ y - basis @ [lam, kappa])) <= 1e-9
        assert kappa >= 0
        assert abs(stats(y / y.sum(), u).shannon_entropy - floor) <= 1e-9  # binds

    def test_caps_and_entropy_floor_match_a_direct_ratio_maximization(self):
        u = data.mdp_table_universe()
        cov, sigma = u.cov, u.sigma

        def neg_ratio(w):
            return -(w @ sigma) / np.sqrt(w @ cov @ w)

        def neg_ratio_grad(w):
            var = w @ cov @ w
            return -(sigma / np.sqrt(var) - (w @ sigma) * (cov @ w) / var**1.5)

        budget = {"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(8)}

        def entropy(floor):
            return {"type": "ineq", "fun": lambda w: -np.sum(w * np.log(w)) - floor,
                    "jac": lambda w: -np.log(w) - 1.0}

        cases = [(0.2, [budget], {"upper": 0.2}), (0.3, [budget], {"upper": 0.3}),
                 (1.0, [budget, entropy(1.2)], {"constraint": ShannonEntropyFloor(1.2)}),
                 (0.3, [budget, entropy(1.95)],
                  {"upper": 0.3, "constraint": ShannonEntropyFloor(1.95)})]
        for cap, constraints, kwargs in cases:
            oracle = minimize(neg_ratio, EW8, jac=neg_ratio_grad, method="SLSQP",
                              bounds=[(1e-12, cap)] * 8, constraints=constraints,
                              options={"ftol": 1e-15, "maxiter": 1000})
            assert oracle.success
            w = mdp(u, long_only=True, **kwargs).w
            assert np.max(w) <= cap + 1e-8
            assert np.max(np.abs(w - oracle.x)) <= 1e-6
            assert neg_ratio(w) <= neg_ratio(oracle.x) + 1e-12

    def test_sets_are_validated_once_per_solve(self, monkeypatch, checks, admm_reports):
        from proxalloc import portfolios

        # without the polish, ADMM runs to convergence: the count is per iteration
        monkeypatch.setattr(portfolios, "_smooth_polish", no_polish)
        mdp(data.mdp_table_universe(), long_only=True, constraint=EffectiveBets(3.0))
        assert sum(r.iterations for r in admm_reports) >= 100
        assert checks["as_vector"] <= 10

    def test_single_asset_universe(self):
        u = AssetUniverse(names=["only"], mu=np.zeros(1), sigma=[0.2],
                          rho=np.eye(1))
        w = mdp(u, long_only=True)
        assert np.allclose(w.w, [1.0])
        assert abs(stats(w, u).diversification_ratio - 1.0) <= 1e-12

    def test_diversification_ratio_dominance(self):
        u = data.mdp_table_universe()
        w = mdp(u, long_only=False)
        best = stats(w, u).diversification_ratio
        rng = np.random.default_rng(10)
        for _ in range(10000):
            x = rng.standard_normal(8)
            x /= x.sum()
            if x @ u.sigma <= 0:
                continue
            assert best >= (x @ u.sigma) / np.sqrt(x @ u.cov @ x) - 1e-9


class TestKlPortfolio:
    def test_reference_fixed_point_unconstrained(self):
        w = kl_portfolio(SET1.universe, EW8)
        assert np.max(np.abs(w.w - EW8)) <= 1e-9

    def test_reference_feasible_targets(self):
        u = SET1.universe
        vol_ew = stats(EW8, u).volatility
        w = kl_portfolio(u, EW8, target_return=0.0, max_volatility=vol_ew)
        assert np.max(np.abs(w.w - EW8)) <= 1e-8

    def test_binding_cap_dominates_random_feasible(self):
        u = SET1.universe
        reference = erc(u).w
        cap = 0.12
        w = kl_portfolio(u, reference, target_return=0.0, max_volatility=cap)
        s = stats(w, u, reference=reference)
        assert s.volatility <= cap + 1e-6
        rng = np.random.default_rng(11)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)).w
        vol_gmv = stats(gmv, u).volatility
        checked = 0
        while checked < 1000:
            x = rng.dirichlet(np.ones(8))
            vol_x = np.sqrt(x @ u.cov @ x)
            alpha = min(1.0, 0.95 * (cap - vol_gmv) / max(vol_x - vol_gmv, 1e-12))
            mix = alpha * x + (1 - alpha) * gmv
            if np.sqrt(mix @ u.cov @ mix) > cap:
                continue
            checked += 1
            kl_mix = np.sum(mix[mix > 0] * np.log(mix[mix > 0] / reference[mix > 0]))
            assert s.kl_divergence <= kl_mix + 1e-7

    def test_infeasible_cap(self):
        with pytest.raises(InfeasibleTargets):
            kl_portfolio(SET1.universe, EW8, max_volatility=0.05)

    def test_stalled_split_is_not_called_infeasible(self, monkeypatch):
        # the pre-checks pass (the cap of test_binding_cap_dominates_random_feasible
        # is reachable), so a split stopped at its cap says only that; the polish
        # would end this split at iteration 1, so it is switched off
        from proxalloc import portfolios

        monkeypatch.setattr(portfolios, "_smooth_polish", no_polish)
        u = SET1.universe
        with pytest.raises(MaxIterExceeded) as err:
            kl_portfolio(u, erc(u).w, target_return=0.0, max_volatility=0.12,
                         cfg=AdmmConfig(max_iter=3))
        assert err.value.report.iterations == 3 and err.value.last.size == 8

    @pytest.mark.parametrize("reference", ["erc", "equal"])
    def test_volatility_cap_ends_polished(self, admm_reports, reference):
        # ln(w / ref) + 1 + kappa cov w - nu 1 = 0 with kappa >= 0 and the cap binding
        u = SET1.universe
        if reference == "erc":
            ref, cap = erc(u).w, 0.12
        else:
            gmv = gmv_diversified(u).w
            ref, cap = EW8, 1.2 * np.sqrt(gmv @ u.cov @ gmv)
        w = kl_portfolio(u, ref, target_return=0.0, max_volatility=cap).w
        assert_polished_kkt(admm_reports[-1], np.log(w / ref) + 1.0,
                            np.column_stack([u.cov @ w, np.ones(8)]))
        assert abs(np.sqrt(w @ u.cov @ w) - cap) <= 1e-9  # binds

    def test_volatility_cap_and_return_row_end_polished(self, admm_reports):
        u = tilted_universe()
        w = kl_portfolio(u, EW8, target_return=0.07, max_volatility=0.16).w
        m = assert_polished_kkt(admm_reports[-1], np.log(w / EW8) + 1.0,
                                np.column_stack([u.cov @ w, np.ones(8), -u.mu]))
        assert m[2] > 0.0  # the return row binds, with the multiplier's sign
        assert abs(w @ u.mu - 0.07) <= 1e-9

    @staticmethod
    def tilt_residual(w, reference, mu):
        """ln(w / ref) = lam mu + c: the least-squares lam and the worst residual."""
        basis = np.column_stack([mu, np.ones(mu.size)])
        log_ratio = np.log(w / reference)
        coef, *_ = np.linalg.lstsq(basis, log_ratio, rcond=None)
        return coef[0], np.max(np.abs(log_ratio - basis @ coef))

    def test_return_target_matches_slsqp(self):
        u = tilted_universe()
        reference = np.random.default_rng(3).dirichlet(np.ones(8))
        target = 0.075
        assert reference @ u.mu < target
        w = kl_portfolio(u, reference, target_return=target).w
        result = minimize(
            lambda x: np.sum(x * np.log(x / reference)), reference,
            jac=lambda x: np.log(x / reference) + 1.0, method="SLSQP",
            bounds=[(1e-12, 1.0)] * 8,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones(8)},
                         {"type": "ineq", "fun": lambda x: x @ u.mu - target,
                          "jac": lambda x: u.mu}],
            options={"ftol": 1e-15, "maxiter": 1000})
        assert result.success
        assert np.max(np.abs(w - result.x)) <= 1e-7

    @pytest.mark.parametrize("n", [20, 100])
    def test_return_target_meets_the_tilt_kkt_conditions(self, n):
        rng = np.random.default_rng(n)
        u = factor_universe(rng, n)
        reference = rng.dirichlet(np.ones(n))
        for target in np.quantile(u.mu, [0.3, 0.7, 0.95]):
            w = kl_portfolio(u, reference, target_return=target).w
            lam, residual = self.tilt_residual(w, reference, u.mu)
            assert residual <= 1e-9
            assert lam >= -1e-9
            if lam > 1e-9:
                assert abs(w @ u.mu - target) <= 1e-12

    def test_target_below_the_free_return_is_the_reference(self):
        u = tilted_universe()
        reference = np.arange(1.0, 9.0)
        free = reference / reference.sum()
        w = kl_portfolio(u, reference, target_return=free @ u.mu - 1e-3).w
        assert np.max(np.abs(w - free)) <= 1e-15

    def test_target_at_a_tied_maximum_is_the_reference_weighted_tie(self):
        mu = 0.02 + 0.01 * np.arange(8)
        mu[3] = mu[7]
        u = AssetUniverse(names=SET1.universe.names, mu=mu, sigma=SET1.universe.sigma,
                          rho=SET1.universe.rho)
        reference = np.arange(1.0, 9.0)
        start = time.perf_counter()
        w = kl_portfolio(u, reference, target_return=mu.max()).w
        assert time.perf_counter() - start < 0.1
        expected = np.zeros(8)
        expected[[3, 7]] = reference[[3, 7]] / (reference[3] + reference[7])
        assert np.max(np.abs(w - expected)) <= 1e-15

    def test_no_admm_without_a_volatility_cap(self, monkeypatch):
        from proxalloc import portfolios

        def fail(*args, **kwargs):
            raise AssertionError("the ADMM loop started")

        monkeypatch.setattr(portfolios, "admm_solve", fail)
        u = tilted_universe()
        for target in (None, 0.0, 0.06, 0.085, 0.09):
            w = kl_portfolio(u, EW8, target_return=target).w
            assert abs(w.sum() - 1.0) <= 1e-12
            assert target is None or w @ u.mu >= target - 1e-12

    def test_top_target_under_a_slack_cap_is_the_top_asset(self):
        u = kl_universe()
        start = time.perf_counter()
        w = kl_portfolio(u, EW8, target_return=u.mu.max(), max_volatility=0.5).w
        assert time.perf_counter() - start < 0.1
        assert np.array_equal(w, np.eye(8)[np.argmax(u.mu)])

    @pytest.mark.parametrize("cap", [None, 0.5])
    @pytest.mark.parametrize("gap", [1e-7, 1e-9, 1e-11])
    def test_targets_just_below_the_top_return(self, gap, cap):
        # mu'w saturates near the top return; the tilt's root must still land
        u = kl_universe()
        target = u.mu.max() - gap
        w = kl_portfolio(u, EW8, target_return=target, max_volatility=cap).w
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= 0.0)
        assert abs(w @ u.mu - target) <= 1e-12

    @pytest.mark.parametrize("case", ["tilted", "n=100"])
    def test_slack_cap_returns_the_tilt_with_no_solve(self, monkeypatch, case):
        from proxalloc import portfolios

        if case == "tilted":
            u, reference, target, cap = tilted_universe(), EW8, 0.06, 0.5
        else:
            u = factor_universe(np.random.default_rng(0), 100)
            reference = np.full(100, 0.01)
            gmv = mvo_gamma(u, 0.0, lower=np.zeros(100), upper=np.ones(100)).w
            target, cap = np.quantile(u.mu, 0.7), 1.5 * stats(gmv, u).volatility
        tilt = kl_portfolio(u, reference, target_return=target).w
        assert stats(tilt, u).volatility <= cap

        def fail(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(portfolios, "admm_solve", fail)
        monkeypatch.setattr(portfolios._Bridge, "solve", fail)
        w = kl_portfolio(u, reference, target_return=target, max_volatility=cap).w
        assert np.array_equal(w, tilt)

    def test_volatility_floor_runs_no_bridge_solve(self, monkeypatch):
        from proxalloc import portfolios

        u, target = tilted_universe(), 0.085
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)).w
        assert gmv @ u.mu < target  # the return row binds at the floor
        floor = mvo_target(u, target_return=target, lower=np.zeros(8), upper=np.ones(8)).w

        def fail(*args, **kwargs):
            raise AssertionError("a nested model solve ran")

        for name in ("mvo_target", "mvo_gamma", "qp_solve"):
            monkeypatch.setattr(portfolios, name, fail)
        solves = []
        solve = portfolios._Bridge.solve

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(portfolios._Bridge, "solve", counted)
        with pytest.raises(InfeasibleTargets, match="volatility cap 0.1 below the minimum") as err:
            kl_portfolio(u, EW8, target_return=target, max_volatility=0.10)
        assert np.max(np.abs(err.value.last - floor)) <= 1e-8
        cap = 1.2 * np.sqrt(gmv @ u.cov @ gmv)  # a cap that binds: the walk stops at it
        assert stats(kl_portfolio(u, EW8, max_volatility=cap), u).volatility <= cap + 1e-9
        assert len(solves) == 0

    def test_volatility_ball_projection_matches_bisection(self):
        from proxalloc.portfolios import _volatility_ball_projection

        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            m = rng.standard_normal((n, n))
            cov = m @ m.T / n + 0.01 * np.eye(n)
            radius = 0.3
            project_onto = _volatility_ball_projection(np.linalg.eigh(cov), radius)
            for _ in range(20):
                v = rng.standard_normal(n)
                x = project_onto(v)
                if v @ cov @ v <= radius**2:
                    assert np.array_equal(x, v)
                    continue
                # reference: bisection on theta of x = (I + theta cov)^-1 v
                at = lambda t: np.linalg.solve(np.eye(n) + t * cov, v)
                lo, hi = 0.0, 1.0
                while np.sqrt(at(hi) @ cov @ at(hi)) > radius:
                    hi *= 4.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if np.sqrt(at(mid) @ cov @ at(mid)) > radius:
                        lo = mid
                    else:
                        hi = mid
                assert np.max(np.abs(x - at(hi))) <= 1e-10
                assert abs(np.sqrt(x @ cov @ x) - radius) <= 1e-12


class TestFailFastBeforeAdmm:
    """Empty constraint sets raise a typed error before the ADMM loop starts."""

    @pytest.fixture(autouse=True)
    def no_admm(self, monkeypatch):
        from proxalloc import portfolios

        def fail(*args, **kwargs):
            raise AssertionError("the ADMM loop started")

        monkeypatch.setattr(portfolios, "admm_solve", fail)

    def test_kl_return_above_max_mu(self):
        u = tilted_universe()
        with pytest.raises(InfeasibleTargets) as err:
            kl_portfolio(u, EW8, target_return=0.1)
        assert np.array_equal(err.value.last, np.eye(8)[7])
        assert err.value.last @ u.mu < 0.1

    def test_kl_cap_below_min_volatility(self):
        u = SET1.universe
        with pytest.raises(InfeasibleTargets) as err:
            kl_portfolio(u, EW8, max_volatility=0.05)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)).w
        assert np.max(np.abs(err.value.last - gmv)) <= 1e-6
        assert stats(err.value.last, u).volatility > 0.05

    def test_kl_cap_below_min_volatility_at_return_target(self):
        u = tilted_universe()
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        cap = 0.15  # above the minimum volatility, below it at the target
        assert stats(gmv, u).volatility < cap
        with pytest.raises(InfeasibleTargets) as err:
            kl_portfolio(u, EW8, target_return=0.085, max_volatility=cap)
        s = stats(err.value.last, u)
        assert abs(s.expected_return - 0.085) <= 1e-7
        assert s.volatility > cap

    def test_turnover_cap_below_distance_to_budget_box(self):
        current = np.concatenate([np.full(4, 0.3), np.full(4, -0.05)])
        with pytest.raises(InfeasibleTargets) as err:
            rebalance_penalized(SET1.universe, current, turnover_cap=0.3)
        clipped = err.value.last
        assert np.array_equal(clipped, np.maximum(current, 0.0))
        # 0.2 to clear the shorts, then 0.2 to bring the budget from 1.2 to 1
        needed = np.sum(np.abs(current - clipped)) + abs(1.0 - clipped.sum())
        assert abs(needed - 0.4) <= 1e-12

    def test_mvo_turnover_cap_below_distance_to_budget_box(self):
        current = np.concatenate([np.full(4, 0.3), np.full(4, -0.05)])
        with pytest.raises(InfeasibleTargets) as err:
            mvo_turnover(tilted_universe(), 0.5, current, 0.3)
        assert np.array_equal(err.value.last, np.maximum(current, 0.0))

    def test_robo_ccd_disjoint_linear_sets(self):
        from proxalloc.prox import Halfspace

        cfg = RoboConfig(current=EW8, linear_sets=[Halfspace(np.ones(8), 0.5)])
        with pytest.raises(InfeasibleSuspected) as err:
            robo_advisor(SET1.universe, cfg)
        assert err.value.last is not None
        assert err.value.last.shape == (8,) and np.all(np.isfinite(err.value.last))

    def test_robo_disjoint_sets_certified_within_1000_iterations(self):
        from proxalloc.prox import Halfspace

        cfg = RoboConfig(current=EW8, linear_sets=[Halfspace(np.ones(8), 0.5)])
        with pytest.raises(InfeasibleSuspected) as err:
            robo_advisor(SET1.universe, cfg)
        assert err.value.last is not None
        certificate = err.value.__cause__.report
        assert certificate.status == "infeasible" and certificate.iterations <= 1000


    @pytest.mark.parametrize("solve", [
        lambda u, cap: mdp(u, upper=cap),
        lambda u, cap: mdp(u, upper=cap, constraint=ShannonEntropyFloor(1.5)),
        lambda u, cap: gmv_diversified(u, upper=cap),
        lambda u, cap: gmv_diversified(u, upper=cap, constraint=EffectiveBets(4.0)),
        lambda u, cap: gmv_diversified(u, upper=cap, constraint=ShannonEntropyFloor(1.5)),
        lambda u, cap: gmv_herfindahl(u, upper=cap, min_bets=4.0),
    ], ids=["mdp", "mdp_entropy", "gmv_diversified", "gmv_diversified_bets",
            "gmv_diversified_entropy", "gmv_herfindahl_admm"])
    def test_caps_summing_below_one(self, solve):
        cap = np.full(8, 0.1)
        with pytest.raises(InfeasibleTargets) as err:
            solve(data.mdp_table_universe(), cap)
        assert np.array_equal(err.value.last, cap)

    @pytest.mark.parametrize("solve", [
        lambda u, cap: gmv_herfindahl(u, upper=cap, min_bets=8.0),
        lambda u, cap: gmv_diversified(u, upper=cap, constraint=EffectiveBets(8.0)),
        lambda u, cap: gmv_diversified(u, upper=cap, constraint=ShannonEntropyFloor(np.log(8.0))),
        lambda u, cap: mdp(u, upper=cap, constraint=EffectiveBets(8.0)),
        lambda u, cap: mdp(u, upper=cap, constraint=ShannonEntropyFloor(np.log(8.0))),
    ], ids=["gmv_herfindahl_admm", "gmv_diversified_bets",
            "gmv_diversified_entropy", "mdp_bets", "mdp_entropy"])
    def test_cap_below_one_over_n_under_an_equal_weight_floor(self, solve):
        # the caps sum above 1, but only equal weights meet a floor of n bets or ln n
        cap = np.array([0.05] + [1.0] * 7)
        with pytest.raises(InfeasibleTargets) as err:
            solve(SET1.universe, cap)
        assert np.array_equal(err.value.last, cap)
        w = solve(SET1.universe, np.full(8, 0.125))
        assert np.array_equal((w[0] if isinstance(w, tuple) else w).w, EW8)

    def test_caps_summing_to_one_up_to_rounding_pass(self):
        from proxalloc.portfolios import _check_caps

        _check_caps(np.full(10, 0.1))  # sums to 1 - 1.1e-16


class TestDivergence:
    """ADMM iterates that turn non-finite raise Diverged with the last iterate and report."""

    def test_minimum_variance_split(self):
        from proxalloc.portfolios import _plane_admm

        with pytest.raises(Diverged, match="^test ADMM diverged") as err:
            _plane_admm("test ADMM", SET1.universe.factor,
                        [lambda phi: lambda v: np.full_like(v, np.nan)])
        assert err.value.report.status == "diverged" and err.value.last.size == 8
        assert not isinstance(err.value, MaxIterExceeded)

    def test_risk_budgeting_split(self):
        from proxalloc.portfolios import _rb_admm

        # infinite budgets send the barrier prox, the y-block, to infinity
        with pytest.raises(Diverged) as err:
            _rb_admm(SET1.universe, np.full(8, np.inf), Volatility())
        assert err.value.report.status == "diverged" and err.value.last.size == 8

    def test_robo_split(self):
        # an infinite barrier weight sends the barrier prox, a y-block, to infinity
        cfg = RoboConfig(current=EW8, barrier=np.inf, risk_budgets=EW8)
        with pytest.raises(Diverged) as err:
            robo_advisor(SET1.universe, cfg)
        assert err.value.report.status == "diverged" and err.value.last.size == 8


def assert_rqe_maximum(d, w, upper=1.0, lower=0.0):
    """The exact KKT conditions of max 0.5 w'Dw on 1'w = 1, lower <= w <= upper:
    with g = Dw and nu its mean over the free names, g = nu on the free
    names, g <= nu at the floor and g >= nu at a cap, all to 1e-9."""
    g = d @ w
    zero, cap = w <= lower + 1e-12, w >= upper - 1e-12
    free = ~(zero | cap)
    assert free.any()
    nu = g[free].mean()
    assert np.max(np.abs(g[free] - nu)) <= 1e-9
    assert np.all(g[zero] <= nu + 1e-9)
    assert np.all(g[cap] >= nu - 1e-9)


class TestRqePortfolio:
    def test_zero_dissimilarity_returns_equal_weights(self):
        w = rqe_portfolio(np.zeros((4, 4)))
        assert np.allclose(w.w, 0.25)

    def test_two_asset_midpoint(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = rqe_portfolio(d)
        assert np.max(np.abs(w.w - 0.5)) <= 1e-12  # x (1 - x) maximized at 1/2
        assert abs(0.5 * w.w @ d @ w.w - 0.25) <= 1e-12

    def test_correlation_dissimilarity_stationary(self):
        d = 1.0 - SET1.universe.rho
        w = rqe_portfolio(d)
        assert abs(w.w.sum() - 1.0) <= 1e-10
        assert np.all(w.w >= 0.0)
        assert_rqe_maximum(d, w.w)
        assert abs(0.5 * w.w @ d @ w.w - 0.1594) <= 5e-5

    def test_capped_maximum(self):
        d = 1.0 - SET1.universe.rho
        w = rqe_portfolio(d, upper=0.2)
        assert np.max(w.w) <= 0.2 + 1e-12
        assert_rqe_maximum(d, w.w, upper=0.2)
        assert abs(0.5 * w.w @ d @ w.w - 0.1543) <= 5e-5

    def test_factor_universe_maximum(self):
        d = 1.0 - factor_universe(np.random.default_rng(0), 100).rho
        w = rqe_portfolio(d)
        assert_rqe_maximum(d, w.w)
        assert abs(0.5 * w.w @ d @ w.w - 0.3662) <= 5e-5

    def test_short_positions_keep_the_maximum(self):
        # a floor of -0.2 allows shorts: the gate keeps the polished optimum
        d = 1.0 - SET1.universe.rho
        w = rqe_portfolio(d, lower=-0.2)
        assert abs(w.w.sum() - 1.0) <= 1e-12
        assert np.min(w.w) >= -0.2 - 1e-12 and np.min(w.w) < 0.0
        assert_rqe_maximum(d, w.w, lower=-0.2)
        assert 0.5 * w.w @ d @ w.w > 0.5 * rqe_portfolio(d).w @ d @ rqe_portfolio(d).w

    def test_one_polished_bridge_solve(self, monkeypatch):
        from proxalloc import qp

        reports = []
        real_solve = qp._Bridge.solve

        def spy(self, *args, **kwargs):
            x, report = real_solve(self, *args, **kwargs)
            reports.append(report)
            return x, report

        monkeypatch.setattr(qp._Bridge, "solve", spy)
        rqe_portfolio(1.0 - SET1.universe.rho)
        assert len(reports) == 1 and reports[0].polished

    def test_correlation_dissimilarity_is_minimum_correlation_qp(self):
        # on the budget plane 0.5 w'(1 - rho)w = 0.5 - 0.5 w'rho w
        rho = SET1.universe.rho
        w = rqe_portfolio(1.0 - rho)
        problem = QpProblem(q=rho, r=np.zeros(8), a=np.ones((1, 8)), b=np.ones(1),
                            lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - qp_solve(problem))) <= 1e-9

    def test_not_conditionally_negative_definite(self):
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite, match="nonconvex"):
            rqe_portfolio(d)

    def test_caps_below_budget(self):
        with pytest.raises(InfeasibleTargets):
            rqe_portfolio(1.0 - SET1.universe.rho, upper=0.1)

    def test_skew_within_the_symmetry_rule_is_accepted(self):
        d = 1.0 - SET1.universe.rho
        d[0, 1] += 5e-11
        w = rqe_portfolio(d)
        assert np.max(np.abs(w.w - rqe_portfolio(1.0 - SET1.universe.rho).w)) <= 1e-8

    def test_invalid_dissimilarity(self):
        with pytest.raises(ValueError):
            rqe_portfolio(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            rqe_portfolio(np.array([[1.0, 0.5], [0.5, 1.0]]))


class TestBounds:
    def test_wrong_length_cap(self):
        u = SET1.universe
        for model in (gmv_herfindahl, mdp, gmv_diversified):
            with pytest.raises(DimensionMismatch):
                model(u, upper=[0.5] * 3)
        with pytest.raises(DimensionMismatch):
            rqe_portfolio(1.0 - u.rho, lower=[0.0] * 3)

    def test_nan_cap(self):
        with pytest.raises(ValueError, match="NaN"):
            gmv_diversified(SET1.universe, upper=[np.nan] * 8)

    def test_infinite_cap_is_no_cap(self):
        u = SET1.universe
        assert np.array_equal(mdp(u, upper=np.inf).w, mdp(u).w)


class TestRoboAdvisor:
    def test_reduces_to_mvo(self):
        u = SET1.universe
        cfg = RoboConfig(current=EW8)
        w = robo_advisor(u, cfg)
        assert np.max(np.abs(w.w - robo_ccd_reference(u, cfg).w)) <= 1e-3
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-5

    def test_reduces_to_erc_at_matched_barrier(self):
        u = SET1.universe
        target = erc(u)
        lam = float(target.w @ u.cov @ target.w)
        cfg = RoboConfig(current=EW8, barrier=lam, risk_budgets=EW8)
        w = robo_advisor(u, cfg)
        assert np.max(np.abs(w.w - robo_ccd_reference(u, cfg).w)) <= 1e-3
        assert np.max(np.abs(w.w - target.w)) <= 1e-5

    def test_split_factors_once_per_penalty(self, monkeypatch):
        from proxalloc import linalg, portfolios

        u = SET1.universe
        cfg = RoboConfig(current=EW8, reference=EW8, gamma=0.1, l1_current=0.01,
                         l2_reference=0.2)
        factorizations = []
        real_cholesky = linalg.cholesky_lower
        monkeypatch.setattr(linalg, "cholesky_lower",
                            lambda m, *args: factorizations.append(1) or real_cholesky(m, *args))
        reports = []
        real_admm = portfolios.admm_solve

        def recording_admm(*args, **kwargs):
            x, y, report = real_admm(*args, **kwargs)
            reports.append(report)
            return x, y, report

        monkeypatch.setattr(portfolios, "admm_solve", recording_admm)
        robo_advisor(u, cfg)
        assert reports[0].iterations >= 20
        assert 1 <= len(factorizations) <= reports[0].iterations // 10

    def test_qp_split_runs_no_nested_qp(self, monkeypatch):
        from proxalloc import cd, portfolios
        from proxalloc.prox import Halfspace, LpBall

        pair = np.zeros(8)
        pair[[0, 1]] = 1.0
        cfg = RoboConfig(current=EW8, reference=EW8, gamma=0.05, l1_current=0.005,
                         l2_reference=0.1, barrier=0.01, risk_budgets=EW8,
                         linear_sets=[Halfspace(pair, 0.25)],
                         nonlinear_sets=[LpBall(2, EW8, 0.1)])
        reference = robo_ccd_reference(SET1.universe, cfg)

        def fail(what):
            def raise_(*args, **kwargs):
                raise AssertionError(f"{what} called inside robo_advisor")
            return raise_

        monkeypatch.setattr(portfolios, "qp_solve", fail("qp_solve"))
        monkeypatch.setattr(cd, "_run_cycles", fail("a CD cycle"))
        w = robo_advisor(SET1.universe, cfg)
        assert np.max(np.abs(w.w - reference.w)) <= 1e-3
        assert pair @ w.w <= 0.25 + 1e-7
        assert np.linalg.norm(w.w - EW8) <= 0.1 + 1e-7

    def test_dominant_l1_freezes_current(self):
        u = SET1.universe
        current = np.array([0.2, 0.1, 0.1, 0.15, 0.05, 0.1, 0.2, 0.1])
        cfg = RoboConfig(current=current, l1_current=50.0)
        w = robo_advisor(u, cfg)
        assert np.max(np.abs(w.w - current)) <= 1e-6

    def test_formulations_agree_on_random_configs(self):
        rng = np.random.default_rng(12)
        u = SET1.universe
        for trial in range(20):
            current = rng.dirichlet(np.ones(8))
            reference = rng.dirichlet(np.ones(8))
            cfg = RoboConfig(
                benchmark=rng.dirichlet(np.ones(8)) if rng.uniform() < 0.5 else None,
                reference=reference,
                current=current,
                gamma=float(rng.uniform(0, 0.5)),
                l1_current=float(rng.uniform(0, 0.02)),
                l2_current=float(rng.uniform(0, 0.5)),
                l1_reference=float(rng.uniform(0, 0.02)),
                l2_reference=float(rng.uniform(0, 0.5)),
                barrier=float(rng.uniform(0.001, 0.05)),
                risk_budgets=rng.uniform(0.5, 2.0, 8),
            )
            w = robo_advisor(u, cfg)
            w_ccd = robo_ccd_reference(u, cfg)
            assert np.max(np.abs(w.w - w_ccd.w)) <= 1e-4, trial
            assert abs(w.w.sum() - 1.0) <= 1e-8
            assert np.all(w.w >= -1e-9)


    def test_linear_and_nonlinear_sets(self):
        from proxalloc.prox import Halfspace, LpBall

        u = SET1.universe
        pair = np.zeros(8)
        pair[[0, 1]] = 1.0
        base = dict(current=EW8, reference=EW8, gamma=0.05, l1_current=0.005,
                    l2_reference=0.1, linear_sets=[Halfspace(pair, 0.25)],
                    nonlinear_sets=[LpBall(2, EW8, 0.1)])
        free = robo_advisor(u, RoboConfig(**{**base, "linear_sets": [],
                                             "nonlinear_sets": []})).w
        assert pair @ free > 0.25 and np.linalg.norm(free - EW8) > 0.1  # both bind
        cfg = RoboConfig(**base)
        weights = [robo_advisor(u, cfg).w, robo_ccd_reference(u, cfg).w]
        assert np.max(np.abs(weights[0] - weights[1])) <= 1e-4
        for w in weights:
            assert pair @ w <= 0.25 + 1e-7
            assert np.linalg.norm(w - EW8) <= 0.1 + 1e-7


class TestRoboShaping:
    """RoboConfig's l1 shapes are per-asset scales, its l2 shapes the G of G'G."""

    SCALES = np.array([0.5, 1.0, 1.5, 2.0, 0.8, 1.2, 0.6, 1.4])

    def config(self, **shapes):
        current = np.array([0.18, 0.12, 0.08, 0.14, 0.06, 0.12, 0.22, 0.08])
        return RoboConfig(benchmark=SET1.benchmark, reference=EW8, current=current,
                          gamma=0.1, l1_current=0.004, l1_reference=0.003, l2_current=0.2,
                          l2_reference=0.3, **shapes)

    def test_shaped_pulls_agree_with_the_second_split(self):
        mixing = np.eye(8) + np.random.default_rng(3).normal(size=(8, 8)) / 4.0
        cfg = self.config(shape_l1_current=self.SCALES,
                          shape_l1_reference=np.diag(self.SCALES[::-1]),
                          shape_l2_current=self.SCALES, shape_l2_reference=mixing)
        w = robo_advisor(SET1.universe, cfg).w
        assert np.max(np.abs(w - robo_ccd_reference(SET1.universe, cfg).w)) <= 1e-4
        assert np.max(np.abs(w - robo_advisor(SET1.universe, self.config()).w)) > 1e-3

    def test_a_vector_shape_is_its_diagonal_matrix(self):
        vectors = self.config(shape_l1_current=self.SCALES, shape_l2_reference=self.SCALES)
        matrices = self.config(shape_l1_current=np.diag(self.SCALES),
                               shape_l2_reference=np.diag(self.SCALES))
        assert np.array_equal(robo_advisor(SET1.universe, vectors).w,
                              robo_advisor(SET1.universe, matrices).w)

    def test_a_non_diagonal_l1_shape_raises(self):
        shape = np.eye(8)
        shape[0, 1] = 0.1
        with pytest.raises(ValueError, match="l1 shaping must be diagonal"):
            robo_advisor(SET1.universe, self.config(shape_l1_reference=shape))


class TestOnePlaneSplit:
    """robo_advisor runs one _plane_admm split and builds no consensus problem
    of its own."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from proxalloc import portfolios

        calls = []

        def spy(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("_plane_admm", "consensus_problem"):
            monkeypatch.setattr(portfolios, name, spy(name, getattr(portfolios, name)))
        return calls

    def test_robo_advisor(self, calls):
        robo_advisor(SET1.universe, loaded_robo_config())
        assert calls == ["_plane_admm", "consensus_problem"]

    def test_errors_name_the_model(self):
        with pytest.raises(MaxIterExceeded, match="^robo_advisor did not converge"):
            robo_advisor(SET1.universe, loaded_robo_config(), AdmmConfig(max_iter=1))


class TestBudgetInvariant:
    def test_every_model_respects_budget_and_box(self):
        u = SET1.universe
        outputs = [
            mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)),
            mvo_benchmark(u, SET1.benchmark, 0.1),
            gmv_herfindahl(u, min_bets=4.0)[0],
            gmv_diversified(u, constraint=ShannonEntropyFloor(1.5)),
            erc(u),
            risk_budgeting(u, EW8, engine="admm"),
            mdp(data.mdp_table_universe(), long_only=True,
                constraint=EffectiveBets(5.0)),
            kl_portfolio(u, EW8),
            rebalance_penalized(u, EW8, turnover_cap=0.3),
            robo_advisor(u, loaded_robo_config()),
            mvo_target(tilted_universe(), target_return=0.085, lower=np.zeros(8),
                       upper=np.ones(8)),
            mvo_turnover(tilted_universe(), 0.5, EW8, 0.3),
            index_sampling(u, SET1.benchmark, 3),
            rqe_portfolio(1.0 - u.rho),
        ]
        for w in outputs:
            assert abs(w.w.sum() - 1.0) <= 1e-8
            assert np.all(w.w >= -1e-8)
            assert np.all(w.w <= 1.0 + 1e-8)



THREE = np.full(3, 1.0 / 3.0)  # a per-asset vector of the wrong length for SET1

WRONG_LENGTH = {
    "stats weights": lambda u: stats(THREE, u),
    "stats benchmark": lambda u: stats(EW8, u, benchmark=THREE),
    "stats reference": lambda u: stats(EW8, u, reference=THREE),
    "stats current": lambda u: stats(EW8, u, current=THREE),
    "risk_contributions": lambda u: risk_contributions(THREE, u),
    "mvo_benchmark": lambda u: mvo_benchmark(u, THREE, 0.1),
    "index_sampling": lambda u: index_sampling(u, THREE, 2),
    "mvo_turnover": lambda u: mvo_turnover(u, 0.1, THREE, 0.3),
    "rebalance_penalized": lambda u: rebalance_penalized(u, THREE, turnover_cap=0.3),
    "rebalance_penalized bid": lambda u: rebalance_penalized(u, EW8, 1.0, bid_cost=THREE),
    "mvo_costs": lambda u: mvo_costs(u, 0.1, THREE, 0.001, 0.001),
    "mvo_costs ask": lambda u: mvo_costs(u, 0.1, EW8, 0.001, THREE),
    "risk_budgeting ccd": lambda u: risk_budgeting(u, THREE),
    "risk_budgeting admm": lambda u: risk_budgeting(u, THREE, engine="admm"),
    "kl_portfolio": lambda u: kl_portfolio(u, THREE),
    "robo_advisor benchmark": lambda u: robo_advisor(u, RoboConfig(benchmark=THREE)),
    "robo_advisor risk_budgets": lambda u: robo_advisor(
        u, RoboConfig(barrier=0.01, risk_budgets=THREE)),
    "robo_advisor current": lambda u: robo_advisor(u, RoboConfig(current=THREE,
                                                                 l1_current=0.01)),
    "robo_advisor reference": lambda u: robo_advisor(u, RoboConfig(reference=THREE,
                                                                   l2_reference=0.1)),
    "robo_advisor l1 shape": lambda u: robo_advisor(u, RoboConfig(
        current=EW8, l1_current=0.01, shape_l1_current=THREE)),
}


def capped_kl(cap):
    """kl_portfolio on SET1 with a volatility cap halfway from the GMV to the
    reference's, which binds, and ``cap`` ADMM iterations."""
    u = SET1.universe
    gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
    vol = 0.5 * (stats(gmv, u).volatility + stats(EW8, u).volatility)
    return kl_portfolio(u, EW8, max_volatility=vol, cfg=AdmmConfig(eps=1e-15, max_iter=cap))


def lasso_data():
    rng = np.random.default_rng(5)
    return rng.standard_normal((30, 10)), rng.standard_normal(30)


CAPPED = {  # each solve at an iteration (or cycle) cap, with its polish switched off
    "robo_advisor": lambda cap: robo_advisor(SET1.universe, loaded_robo_config(),
                                             AdmmConfig(eps=1e-15, max_iter=cap)),
    "rebalance_penalized": lambda cap: rebalance_penalized(
        SET1.universe, loaded_robo_config().current, cost_scale=1.0, bid_cost=0.002,
        ask_cost=0.002, turnover_cap=0.1, cfg=AdmmConfig(eps=1e-15, max_iter=cap)),
    "kl_portfolio": capped_kl,
    "admm_lasso_lambda": lambda cap: admm_lasso_lambda(
        *lasso_data(), 0.5, cfg=AdmmConfig(eps=0.0, max_iter=cap), return_report=True),
    "cd_lasso": lambda cap: cd_lasso(*lasso_data(), 0.5, return_report=True,
                                     cfg=CdConfig(tol=1e-300, max_cycles=cap)),
}


class TestValidateOnce:
    """Per-asset vectors are checked, length included, where a model or statistic
    takes them, and no solver loop re-checks anything."""

    @pytest.mark.parametrize("case", WRONG_LENGTH)
    def test_wrong_length_vector_raises_dimension_mismatch(self, case):
        with pytest.raises(DimensionMismatch):
            WRONG_LENGTH[case](SET1.universe)

    @pytest.mark.parametrize("case", CAPPED)
    def test_checks_do_not_grow_with_iterations(self, case, monkeypatch, checks):
        from proxalloc import portfolios

        monkeypatch.setattr(portfolios, "_smooth_polish", no_polish)
        monkeypatch.setattr(portfolios, "_trade_polish", no_polish)
        counts = []
        for cap in (5, 10):
            checks.clear()
            try:
                iterations = CAPPED[case](cap)[1].iterations
            except (MaxIterExceeded, MaxCyclesExceeded) as err:
                iterations = err.report.iterations
            assert iterations == cap
            counts.append(dict(checks))
        assert counts[0] == counts[1]

    def test_gate_checks_the_answer_once(self, checks):
        from proxalloc.portfolios import _gate

        answer = np.array([0.6, 0.4 + 1e-9, -1e-9])
        checks.clear()
        w = _gate(answer)
        assert checks["as_vector"] == 1
        assert np.array_equal(answer, [0.6, 0.4 + 1e-9, -1e-9])  # a copy is gated
        assert np.min(w.w) == 0.0 and abs(w.w.sum() - 1.0) <= 1e-15
        with pytest.raises(DimensionMismatch):
            _gate(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="NaN"):
            _gate([0.5, np.nan, 0.5])

    @pytest.mark.parametrize("pull", ["l1_current", "l2_current", "l1_reference",
                                      "l2_reference"])
    def test_a_pull_needs_its_anchor(self, pull):
        anchor = pull.split("_")[1]
        with pytest.raises(ValueError, match=f"{pull} needs {anchor}"):
            RoboConfig(**{pull: 0.1})
        RoboConfig(**{pull: 0.1, anchor: EW8})

    def test_negative_l1_shape_raises(self):
        with pytest.raises(NegativeLambda):
            robo_advisor(SET1.universe, RoboConfig(current=EW8, l1_current=0.01,
                                                   shape_l1_current=-np.ones(8)))
