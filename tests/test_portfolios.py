import importlib.util
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from proxalloc import data
from proxalloc.cd import CdConfig
from proxalloc.errors import (
    BadK,
    DimensionMismatch,
    InfeasibleSuspected,
    InfeasibleTargets,
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


def cold_index_sampling(u, b, k):
    """index_sampling as one cold qp_solve per knock-out round, the oracle.

    Ties are exact on a polished answer and within POLISH_TOL on one ADMM
    ended, as in index_sampling.
    """
    from proxalloc.qp import POLISH_TOL

    n, upper = u.n, np.ones(u.n)
    while True:
        problem = QpProblem(q=u.cov, r=u.cov @ b, a=np.ones((1, n)), b=np.ones(1),
                            lower=np.zeros(n), upper=upper.copy())
        x, report = qp_solve(problem, return_report=True)
        w = np.where(x < 1e-7, 0.0, x)
        active = np.flatnonzero(w > 0)
        if active.size <= k:
            return np.maximum(w, 0.0) / w.sum()
        tie = 0.0 if report.polished else POLISH_TOL
        upper[active[w[active] <= w[active].min() + tie][0]] = 0.0


def assert_same_sampling(w, expected):
    assert np.array_equal(np.flatnonzero(w), np.flatnonzero(expected))
    assert np.max(np.abs(w - expected)) <= 1e-8


def factor_universe(rng, n):
    """The benchmark's seeded factor-model universe, from perfbench/universe.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "universe.py"
    spec = importlib.util.spec_from_file_location("perfbench_universe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.factor_universe(rng, n)


def tilted_universe():
    """Set #1 with nonzero expected returns for the targeting tests."""
    u = SET1.universe
    mu = 0.02 + 0.01 * np.arange(8)
    return AssetUniverse(names=u.names, mu=mu, sigma=u.sigma, rho=u.rho)


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

    @pytest.mark.parametrize("n", [8, 12, 30, 60])
    def test_matches_a_cold_qp_per_round(self, n):
        rng = np.random.default_rng(n)
        u = factor_universe(rng, n)
        b = rng.dirichlet(np.ones(n))
        for k in sorted({1, n // 4, n // 2, n - 1}):
            assert_same_sampling(index_sampling(u, b, k).w, cold_index_sampling(u, b, k))

    def test_duplicated_asset_tie_knocks_out_the_lower_index(self):
        # asset 0 and its copy (index 12) have the same row of the covariance,
        # so Q is singular, no round polishes while both are held, and the
        # pair's split is rounding: an exact tie rule keeps asset 0 here
        rng = np.random.default_rng(0)
        u = duplicate_asset(factor_universe(rng, 12), 0)
        b = rng.dirichlet(np.ones(13))
        w = index_sampling(u, b, 3).w
        assert_same_sampling(w, cold_index_sampling(u, b, 3))
        assert w[0] == 0 and w[12] > 0

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

    def test_rejected_warm_guess_runs_admm_again(self, monkeypatch):
        from proxalloc import qp

        rng = np.random.default_rng(21)
        u = factor_universe(rng, 12)
        b = rng.dirichlet(np.ones(12))
        runs = []
        real_admm = qp.admm_solve

        def counting_admm(*args, **kwargs):
            result = real_admm(*args, **kwargs)
            runs.append(result[2].iterations)
            return result

        monkeypatch.setattr(qp, "admm_solve", counting_admm)
        expected = index_sampling(u, b, 4).w
        assert len(runs) == 1  # every later round keeps its warm guess

        runs.clear()
        real_settle = qp._settle
        rejected = []

        def reject_second_round(*args):
            # the first call after the first ADMM run is the second round's guess
            if len(runs) == 1 and not rejected:
                rejected.append(args)
                return None
            return real_settle(*args)

        monkeypatch.setattr(qp, "_settle", reject_second_round)
        w = index_sampling(u, b, 4).w
        assert len(rejected) == 1 and len(runs) == 2
        assert_same_sampling(w, expected)

    def test_factors_once_for_every_round(self, monkeypatch):
        from proxalloc import linalg, qp

        rng = np.random.default_rng(30)
        u = factor_universe(rng, 30)
        b = rng.dirichlet(np.ones(30))
        factorizations, rounds = [], []

        class CountingFactor(linalg.SpdFactor):
            def __init__(self, m, check=True):
                factorizations.append(m.shape[0])
                super().__init__(m, check)

        real_solve = qp._Bridge.solve

        def counting_solve(self, *args, **kwargs):
            result = real_solve(self, *args, **kwargs)
            rounds.append(len(factorizations))
            return result

        monkeypatch.setattr(linalg, "SpdFactor", CountingFactor)
        monkeypatch.setattr(qp._Bridge, "solve", counting_solve)
        index_sampling(u, b, 7)
        assert len(rounds) >= 20
        # Q + phi I and the capacitance are factored in the first round only
        assert 0 < rounds[0] == rounds[-1] < len(rounds)

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
        # the same model as a QP in (x, buys, sells) with x = current + buys - sells
        u, gamma, cap, n = tilted_universe(), 1.0, 0.3, 8
        q = np.zeros((3 * n, 3 * n))
        q[:n, :n] = u.cov
        q[n:, n:] = 1e-10 * np.eye(2 * n)
        a = np.vstack([np.concatenate([np.ones(n), np.zeros(2 * n)]),
                       np.hstack([np.eye(n), np.eye(n), -np.eye(n)])])
        problem = QpProblem(q=q, r=np.concatenate([gamma * u.mu, np.zeros(2 * n)]), a=a,
                            b=np.concatenate([[1.0], EW8]),
                            c=np.concatenate([np.zeros(n), np.ones(2 * n)])[None, :],
                            d=np.array([cap]), lower=np.zeros(3 * n),
                            upper=np.ones(3 * n))
        expected = qp_solve(problem)[:n]
        w = mvo_turnover(u, gamma, EW8, cap)
        assert abs(np.sum(np.abs(expected - EW8)) - cap) <= 1e-8  # the cap binds
        assert np.max(np.abs(w.w - expected)) <= 1e-8


class TestMvoCosts:
    def test_zero_costs_plain_mvo(self):
        u = SET1.universe
        w = mvo_costs(u, 0.0, EW8, 0.0, 0.0)
        plain = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - plain.w)) <= 1e-5

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
    def test_methods_agree(self):
        u = SET1.universe
        for bets in (3.0, 5.0, 6.435):
            w_admm, lam_admm = gmv_herfindahl(u, min_bets=bets, method="admm")
            w_bis, lam_bis = gmv_herfindahl(u, min_bets=bets, method="bisection")
            assert lam_admm is None and lam_bis >= 0
            assert np.max(np.abs(w_admm.w - w_bis.w)) <= 1e-4
            assert effective_bets(w_admm.w) >= bets - 1e-6

    def test_full_diversification_is_equal_weight(self):
        w, lam = gmv_herfindahl(SET1.universe, min_bets=8.0, method="bisection")
        assert np.allclose(w.w, 1.0 / 8.0, atol=1e-12)
        assert lam == np.inf

    def test_inactive_floor_returns_unconstrained(self):
        w, lam = gmv_herfindahl(SET1.universe, min_bets=1.0, method="bisection")
        assert lam == 0.0
        assert abs(w.w[6] - 1.0) <= 1e-6

    def test_unreachable(self):
        with pytest.raises(UnreachableDiversification):
            gmv_herfindahl(SET1.universe, min_bets=9.0)

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


class TestGmvDiversified:
    def test_effective_bets_path_matches_herfindahl(self):
        u = SET1.universe
        w = gmv_diversified(u, constraint=EffectiveBets(5.0))
        w_ref, _ = gmv_herfindahl(u, min_bets=5.0, method="admm")
        assert np.max(np.abs(w.w - w_ref.w)) <= 1e-9

    def test_entropy_at_log_n_is_equal_weight(self):
        w = gmv_diversified(SET1.universe,
                            constraint=ShannonEntropyFloor(np.log(8.0)))
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

    def test_unreachable_entropy(self):
        with pytest.raises(UnreachableDiversification):
            gmv_diversified(SET1.universe,
                            constraint=ShannonEntropyFloor(np.log(8.0) + 0.1))

    def test_entropy_floor_validates_nothing_per_iteration(self, monkeypatch):
        import sys

        from proxalloc import linalg, portfolios

        calls = {"as_vector": 0}
        reports = []
        as_vector, admm_solve = linalg.as_vector, portfolios.admm_solve

        def counted(*args, **kwargs):
            calls["as_vector"] += 1
            return as_vector(*args, **kwargs)

        def reported(*args, **kwargs):
            result = admm_solve(*args, **kwargs)
            reports.append(result[2])
            return result

        # every module that binds linalg.as_vector
        for name, module in list(sys.modules.items()):
            if name.startswith("proxalloc") and getattr(module, "as_vector", None) is as_vector:
                monkeypatch.setattr(module, "as_vector", counted)
        monkeypatch.setattr(portfolios, "admm_solve", reported)
        u = factor_universe(np.random.default_rng(0), 8)
        h0 = stats(gmv_diversified(u), u).shannon_entropy
        calls["as_vector"] = 0
        gmv_diversified(u, constraint=ShannonEntropyFloor(h0 + 0.5 * (np.log(8.0) - h0)))
        assert sum(r.iterations for r in reports) >= 50
        assert calls["as_vector"] <= 10


class TestRebalancePenalized:
    def test_zero_cost_is_gmv(self):
        u = SET1.universe
        w = rebalance_penalized(u, EW8)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-6

    def test_zero_turnover_cap_freezes(self):
        w = rebalance_penalized(SET1.universe, EW8, turnover_cap=0.0)
        assert np.array_equal(w.w, EW8)

    def test_turnover_cap_respected(self):
        w = rebalance_penalized(SET1.universe, EW8, turnover_cap=0.4)
        assert np.sum(np.abs(w.w - EW8)) <= 0.4 + 1e-7

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
            assert np.max(np.abs(w_ccd.w - w_admm.w)) <= 1e-5

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
        assert np.max(np.abs(w_ccd.w - w_admm.w)) <= 1e-5

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

    def test_admm_engine_stops_on_residuals(self):
        u = tilted_universe()
        tol = 1e-9
        for measure in (Volatility(), StdevRisk(scale=2.0, rate=0.0)):
            _, report = risk_budgeting(u, EW8, measure=measure, engine="admm",
                                       return_report=True, tol=tol)
            assert report.converged
            assert len(report.primal_residuals) == report.iterations
            assert len(report.dual_residuals) == report.iterations
            assert report.primal_residuals[-1] <= tol
            assert report.dual_residuals[-1] <= tol


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
        for u in (data.mdp_table_universe(), factor_universe(np.random.default_rng(0), 100)):
            y = self.homogeneous(mdp(u, long_only=True).w, u)
            problem = QpProblem(q=u.cov, r=np.zeros(u.n), a=u.sigma[None, :], b=[1.0],
                                lower=np.zeros(u.n))
            assert stationarity_residual(problem, y) <= 1e-8

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

    def test_caps_and_entropy_floor_match_a_direct_ratio_maximization(self):
        u = data.mdp_table_universe()
        cov, sigma = u.cov, u.sigma

        def neg_ratio(w):
            return -(w @ sigma) / np.sqrt(w @ cov @ w)

        def neg_ratio_grad(w):
            var = w @ cov @ w
            return -(sigma / np.sqrt(var) - (w @ sigma) * (cov @ w) / var**1.5)

        budget = {"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(8)}
        entropy = {"type": "ineq", "fun": lambda w: -np.sum(w * np.log(w)) - 1.2,
                   "jac": lambda w: -np.log(w) - 1.0}
        cases = [(0.2, [budget], {"upper": 0.2}), (0.3, [budget], {"upper": 0.3}),
                 (1.0, [budget, entropy], {"constraint": ShannonEntropyFloor(1.2)})]
        for cap, constraints, kwargs in cases:
            oracle = minimize(neg_ratio, EW8, jac=neg_ratio_grad, method="SLSQP",
                              bounds=[(1e-12, cap)] * 8, constraints=constraints,
                              options={"ftol": 1e-15, "maxiter": 1000})
            assert oracle.success
            w = mdp(u, long_only=True, **kwargs).w
            assert np.max(w) <= cap + 1e-8
            assert np.max(np.abs(w - oracle.x)) <= 1e-6
            assert neg_ratio(w) <= neg_ratio(oracle.x) + 1e-12

    def test_sets_are_validated_once_per_solve(self, monkeypatch):
        from proxalloc import portfolios, prox

        calls = {"as_vector": 0}
        reports = []
        as_vector, admm_solve = prox.as_vector, portfolios.admm_solve

        def counted(*args, **kwargs):
            calls["as_vector"] += 1
            return as_vector(*args, **kwargs)

        def reported(*args, **kwargs):
            result = admm_solve(*args, **kwargs)
            reports.append(result[2])
            return result

        monkeypatch.setattr(prox, "as_vector", counted)
        monkeypatch.setattr(portfolios, "admm_solve", reported)
        mdp(data.mdp_table_universe(), long_only=True, constraint=EffectiveBets(3.0))
        assert sum(r.iterations for r in reports) >= 100
        assert calls["as_vector"] <= 10

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

    def test_volatility_ball_projection_matches_bisection(self):
        from proxalloc.portfolios import _volatility_ball_projection

        rng = np.random.default_rng(5)
        for n in (2, 5, 8):
            m = rng.standard_normal((n, n))
            cov = m @ m.T / n + 0.01 * np.eye(n)
            radius = 0.3
            project_onto = _volatility_ball_projection(cov, radius)
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

        for formulation in ("admm_qp", "admm_ccd"):
            cfg = RoboConfig(current=EW8, linear_sets=[Halfspace(np.ones(8), 0.5)],
                             formulation=formulation)
            with pytest.raises(InfeasibleSuspected) as err:
                robo_advisor(SET1.universe, cfg)
            assert err.value.last is not None

    def test_robo_disjoint_sets_certified_within_1000_iterations(self):
        from proxalloc.prox import Halfspace

        cfg = RoboConfig(current=EW8, linear_sets=[Halfspace(np.ones(8), 0.5)])
        with pytest.raises(InfeasibleSuspected) as err:
            robo_advisor(SET1.universe, cfg)
        certificate = err.value.__cause__.report
        assert certificate.status == "infeasible" and certificate.iterations <= 1000


class TestRqePortfolio:
    def test_zero_dissimilarity_returns_equal_weights(self):
        w = rqe_portfolio(np.zeros((4, 4)))
        assert np.allclose(w.w, 0.25)

    def test_two_asset_corner(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = rqe_portfolio(d)
        assert 0.5 * w.w @ d @ w.w <= 1e-8  # x (1 - x) minimized at a corner
        assert np.max(w.w) >= 1.0 - 1e-6

    def test_correlation_dissimilarity_stationary(self):
        u = SET1.universe
        d = 1.0 - u.rho
        w = rqe_portfolio(d)
        assert abs(w.w.sum() - 1.0) <= 1e-10
        assert np.all(w.w >= -1e-10)
        # projected-gradient stationarity on the simplex
        from proxalloc.dykstra import project_general_linear

        g = d @ w.w
        stepped = project_general_linear(np.ones((1, 8)), np.ones(1), None, None,
                                         0.0, 1.0, w.w - 0.1 * g)
        assert np.max(np.abs(stepped - w.w)) <= 1e-6

    def test_invalid_dissimilarity(self):
        with pytest.raises(ValueError):
            rqe_portfolio(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            rqe_portfolio(np.array([[1.0, 0.5], [0.5, 1.0]]))


class TestRoboAdvisor:
    def test_reduces_to_mvo(self):
        u = SET1.universe
        cfg = RoboConfig(current=EW8, formulation="both")
        w = robo_advisor(u, cfg)
        gmv = mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8))
        assert np.max(np.abs(w.w - gmv.w)) <= 1e-5

    def test_reduces_to_erc_at_matched_barrier(self):
        u = SET1.universe
        target = erc(u)
        lam = float(target.w @ u.cov @ target.w)
        cfg = RoboConfig(current=EW8, barrier=lam, risk_budgets=EW8,
                         formulation="both")
        w = robo_advisor(u, cfg)
        assert np.max(np.abs(w.w - target.w)) <= 1e-5

    def test_ccd_split_factors_once_per_penalty(self, monkeypatch):
        from proxalloc import linalg, portfolios

        u = SET1.universe
        cfg = RoboConfig(current=EW8, reference=EW8, gamma=0.1, l1_current=0.01,
                         l2_reference=0.2, formulation="admm_ccd")
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
        from proxalloc import portfolios
        from proxalloc.prox import Halfspace, LpBall

        def fail(*args, **kwargs):
            raise AssertionError("qp_solve called")

        monkeypatch.setattr(portfolios, "qp_solve", fail)
        pair = np.zeros(8)
        pair[[0, 1]] = 1.0
        cfg = RoboConfig(current=EW8, reference=EW8, gamma=0.05, l1_current=0.005,
                         l2_reference=0.1, barrier=0.01, risk_budgets=EW8,
                         linear_sets=[Halfspace(pair, 0.25)],
                         nonlinear_sets=[LpBall(2, EW8, 0.1)], formulation="both")
        w = robo_advisor(SET1.universe, cfg)  # "both" asserts <= 1e-3 internally
        assert pair @ w.w <= 0.25 + 1e-7
        assert np.linalg.norm(w.w - EW8) <= 0.1 + 1e-7

    def test_dominant_l1_freezes_current(self):
        u = SET1.universe
        current = np.array([0.2, 0.1, 0.1, 0.15, 0.05, 0.1, 0.2, 0.1])
        cfg = RoboConfig(current=current, l1_current=50.0, formulation="admm_qp")
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
                formulation="both",
            )
            w = robo_advisor(u, cfg)  # "both" asserts <= 1e-3 internally
            w_qp = robo_advisor(u, RoboConfig(**{**vars(cfg), "formulation": "admm_qp"}))
            w_ccd = robo_advisor(u, RoboConfig(**{**vars(cfg), "formulation": "admm_ccd"}))
            assert np.max(np.abs(w_qp.w - w_ccd.w)) <= 1e-4, trial
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
        weights = [robo_advisor(u, RoboConfig(**base, formulation=f)).w
                   for f in ("admm_qp", "admm_ccd")]
        assert np.max(np.abs(weights[0] - weights[1])) <= 1e-4
        for w in weights:
            assert pair @ w <= 0.25 + 1e-7
            assert np.linalg.norm(w - EW8) <= 0.1 + 1e-7


class TestBudgetInvariant:
    def test_every_model_respects_budget_and_box(self):
        u = SET1.universe
        outputs = [
            mvo_gamma(u, 0.0, lower=np.zeros(8), upper=np.ones(8)),
            gmv_herfindahl(u, min_bets=4.0)[0],
            erc(u),
            risk_budgeting(u, EW8, engine="admm"),
            mdp(data.mdp_table_universe(), long_only=True,
                constraint=EffectiveBets(5.0)),
            kl_portfolio(u, EW8),
            rebalance_penalized(u, EW8, turnover_cap=0.3),
        ]
        for w in outputs:
            assert abs(w.w.sum() - 1.0) <= 1e-8
            assert np.all(w.w >= -1e-8)
            assert np.all(w.w <= 1.0 + 1e-8)


class TestRebalanceContext:
    def test_turnover_context(self):
        from proxalloc.portfolios import RebalanceContext, rebalance

        u = SET1.universe
        ctx = RebalanceContext(current=EW8, turnover_cap=0.4)
        w = rebalance(u, ctx)
        assert np.sum(np.abs(w.w - EW8)) <= 0.4 + 1e-7

    def test_cost_context(self):
        from proxalloc.portfolios import RebalanceContext, rebalance

        u = SET1.universe
        ctx = RebalanceContext(current=EW8, bid_cost=0.01, ask_cost=0.01)
        w = rebalance(u, ctx, cost_scale=0.01)
        reference = rebalance_penalized(u, EW8, cost_scale=0.01, bid_cost=0.01,
                                        ask_cost=0.01)
        assert np.max(np.abs(w.w - reference.w)) <= 1e-10

    def test_negative_cost_rejected(self):
        from proxalloc.portfolios import RebalanceContext

        with pytest.raises(ValueError):
            RebalanceContext(current=EW8, bid_cost=-0.01)
