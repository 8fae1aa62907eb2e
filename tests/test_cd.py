import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from proxalloc.cd import (
    CdConfig,
    Cyclic,
    LipschitzWeighted,
    UniformRandom,
    _Order,
    _pcg,
    ccd_erc,
    ccd_generic,
    ccd_qp_box,
    ccd_qp_logbarrier,
    ccd_rb_stdev,
    cd_lasso,
    cd_ols,
    coordinate_probabilities,
    projected_cd,
)
from proxalloc.data import parameter_set_1
from proxalloc.errors import (
    DimensionMismatch,
    InfeasibleSuspected,
    InvertedBounds,
    NonFiniteValue,
    NonPositiveDiagonal,
    NonPositiveStart,
    NonPositiveVariance,
    OutOfDomain,
    ZeroColumn,
)
from proxalloc.linalg import solve_spd
from proxalloc.prox import Box


BOX_QP_Q = np.array([[5.76, 5.11, 3.47, 5.13, 6.82],
                     [5.11, 7.98, 5.38, 4.30, 8.70],
                     [3.47, 5.38, 4.01, 2.83, 5.91],
                     [5.13, 4.30, 2.83, 4.70, 5.84],
                     [6.82, 8.70, 5.91, 5.84, 10.18]])
BOX_QP_R = np.array([0.65, 0.72, 0.46, 0.59, 1.26])


class TestGenericDriver:
    def test_separable_quadratic_single_cycle(self):
        a = np.array([0.3, -1.2, 2.0])
        x, report = ccd_generic(lambda i, x: a[i], np.zeros(3))
        assert np.array_equal(x, a)
        assert report.iterations <= 2

    def test_coupled_quadratic_matches_analytic(self):
        # f(x) = 0.5 x'Qx - x'r with an analytic minimizer
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        r = np.array([1.0, -0.5])
        expected = np.linalg.solve(q, r)

        def coord_min(i, x):
            return (r[i] - q[i] @ x + q[i, i] * x[i]) / q[i, i]

        x, _ = ccd_generic(coord_min, np.zeros(2), CdConfig(tol=1e-12))
        assert np.max(np.abs(x - expected)) <= 1e-8

    def test_constant_function_keeps_start(self):
        x0 = np.array([0.4, 0.7])
        x, report = ccd_generic(lambda i, x: x[i], x0)
        assert np.array_equal(x, x0)
        assert report.iterations == 1


class TestRegression:
    def test_orthonormal_design_one_cycle(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        y = rng.standard_normal(30)
        beta, report = cd_ols(q, y, return_report=True)
        assert np.max(np.abs(beta - q.T @ y)) <= 1e-12
        assert report.iterations <= 2

    def test_single_regressor(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 1))
        y = rng.standard_normal(50)
        beta = cd_ols(x, y)
        assert abs(beta[0] - (x[:, 0] @ y) / (x[:, 0] @ x[:, 0])) <= 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 10))
        y = rng.standard_normal(200)
        beta = cd_ols(x, y, cfg=CdConfig(tol=1e-12))
        expected = solve_spd(x.T @ x, x.T @ y)
        assert np.max(np.abs(beta - expected)) <= 1e-8

    def test_zero_column_rejected(self):
        x = np.ones((10, 2))
        x[:, 1] = 0.0
        with pytest.raises(ZeroColumn):
            cd_ols(x, np.ones(10))

    def test_lasso_zero_penalty_is_ols(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        assert np.allclose(cd_lasso(x, y, 0.0, cfg=CdConfig(tol=1e-12)),
                           cd_ols(x, y, cfg=CdConfig(tol=1e-12)))

    def test_full_shrinkage(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        lam = np.max(np.abs(x.T @ y)) + 1.0
        beta = cd_lasso(x, y, lam)
        assert np.array_equal(beta, np.zeros(4))

    def test_lasso_stationarity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((120, 8))
        y = rng.standard_normal(120)
        lam = 3.0
        beta = cd_lasso(x, y, lam, cfg=CdConfig(tol=1e-13))
        grad = x.T @ (y - x @ beta)
        active = np.abs(beta) > 1e-12
        assert np.all(np.abs(grad) <= lam + 1e-6)
        assert np.allclose(grad[active], lam * np.sign(beta[active]), atol=1e-6)


class TestBoxQp:
    def test_published_cycle_counts(self):
        # from zeros: full 1e-8 coordinate stability within 50 cycles
        _, rep_zeros = ccd_qp_box(BOX_QP_Q, BOX_QP_R, -0.5, 1.0, x0=np.zeros(5),
                                  cfg=CdConfig(tol=1e-8), return_report=True,
                                  record_iterates=True)
        assert rep_zeros.iterations <= 50
        # from ones: 10 cycles suffice at display precision (no sweep order
        # reaches 1e-8 stability that fast; agreement with the limit at the
        # figure's resolution is the reproducible meaning of "<10 cycles"),
        # and the ones start is measurably ahead of the zeros start there
        x_limit, rep_ones = ccd_qp_box(BOX_QP_Q, BOX_QP_R, -0.5, 1.0, x0=np.ones(5),
                                       cfg=CdConfig(tol=1e-13), return_report=True,
                                       record_iterates=True)
        gap_ones = np.max(np.abs(rep_ones.iterates[10] - x_limit))
        gap_zeros = np.max(np.abs(rep_zeros.iterates[10] - x_limit))
        assert gap_ones <= 5e-3
        assert gap_ones < gap_zeros

    def test_unconstrained_is_slow(self):
        _, report = ccd_qp_box(BOX_QP_Q, BOX_QP_R, -np.inf, np.inf, x0=np.zeros(5),
                               cfg=CdConfig(tol=1e-8, max_cycles=100000),
                               return_report=True)
        assert report.iterations > 100

    def test_identity_q_wide_box(self):
        v = np.array([0.3, -0.7, 1.4])
        x = ccd_qp_box(np.eye(3), v, -10.0, 10.0, cfg=CdConfig(tol=1e-12))
        assert np.allclose(x, v, atol=1e-10)

    def test_active_bound_scalar(self):
        x = ccd_qp_box(np.array([[1.0]]), np.array([10.0]), 0.0, 1.0)
        assert x[0] == 1.0

    def test_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveDiagonal):
            ccd_qp_box(np.zeros((2, 2)), np.zeros(2), 0.0, 1.0)

    @pytest.mark.parametrize("lower, upper", [(1.0, -1.0), ([0.0, 2.0, 0.0], [1.0, 1.0, 1.0])])
    def test_inverted_bounds_raise_before_any_cycle(self, monkeypatch, lower, upper):
        from proxalloc import cd

        def no_cycles(*args, **kwargs):
            raise AssertionError("a cycle ran")

        monkeypatch.setattr(cd, "_run_cycles", no_cycles)
        with pytest.raises(InvertedBounds):
            ccd_qp_box(np.eye(3), np.ones(3), lower, upper)

    def test_kkt_conditions(self):
        x = ccd_qp_box(BOX_QP_Q, BOX_QP_R, -0.5, 1.0, x0=np.zeros(5),
                       cfg=CdConfig(tol=1e-12))
        grad = BOX_QP_Q @ x - BOX_QP_R
        for i in range(5):
            if -0.5 + 1e-8 < x[i] < 1.0 - 1e-8:
                assert abs(grad[i]) <= 1e-6
            elif x[i] <= -0.5 + 1e-8:
                assert grad[i] >= -1e-6
            else:
                assert grad[i] <= 1e-6

    def test_objective_monotone_per_cycle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        q = a @ a.T + 6 * np.eye(6)
        r = rng.standard_normal(6)
        _, report = ccd_qp_box(q, r, -0.4, 0.4, x0=rng.standard_normal(6) / 10,
                               cfg=CdConfig(tol=1e-12), return_report=True,
                               record_iterates=True)
        values = [0.5 * x @ q @ x - x @ r for x in report.iterates]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestLogBarrierQp:
    def test_identity(self):
        x = ccd_qp_logbarrier(np.eye(3), np.zeros(3), 1.0, np.full(3, 0.5))
        assert np.allclose(x, 1.0, atol=1e-8)

    def test_scalar_quadratic_formula(self):
        x = ccd_qp_logbarrier(np.array([[2.0]]), np.array([1.0]), 3.0, np.ones(1))
        assert abs(x[0] - 1.5) <= 1e-10

    def test_matches_erc_solver(self):
        cov = parameter_set_1().universe.cov
        lam = 0.05
        x_lb = ccd_qp_logbarrier(cov, np.zeros(8), lam, np.full(8, 0.5),
                                 cfg=CdConfig(tol=1e-12))
        x_erc = ccd_erc(cov, lam, np.full(8, 0.5), cfg=CdConfig(tol=1e-12))
        assert np.array_equal(x_lb, x_erc)

    def test_positive_start_required(self):
        with pytest.raises(NonPositiveStart):
            ccd_qp_logbarrier(np.eye(2), np.zeros(2), 1.0, np.array([1.0, 0.0]))


class TestErc:
    def test_checks_each_input_once(self, monkeypatch):
        # cov is scanned once and x0 checked once: the log-barrier cycles
        # take the arrays ccd_erc checked
        from proxalloc import cd, linalg

        calls = []
        for name in ("as_matrix", "as_vector"):
            check = getattr(linalg, name)

            def counted(*args, check=check, **kwargs):
                calls.append(check.__name__)
                return check(*args, **kwargs)

            monkeypatch.setattr(cd, name, counted)
        x = ccd_erc(parameter_set_1().universe.cov, 0.2, np.full(8, 1 / 8))
        assert sorted(calls) == ["as_matrix", "as_vector"]
        assert np.array_equal(x, ccd_qp_logbarrier(parameter_set_1().universe.cov,
                                                   np.zeros(8), 0.2, np.full(8, 1 / 8)))

    def test_diagonal_covariance_inverse_vol(self):
        sigma = np.array([0.1, 0.2, 0.4])
        x = ccd_erc(np.diag(sigma**2), 1.0, np.ones(3), cfg=CdConfig(tol=1e-12))
        w = x / x.sum()
        expected = (1 / sigma) / np.sum(1 / sigma)
        assert np.max(np.abs(w - expected)) <= 1e-10

    def test_two_assets_equal_vol(self):
        for rho in (-0.5, 0.0, 0.7):
            cov = 0.04 * np.array([[1.0, rho], [rho, 1.0]])
            x = ccd_erc(cov, 1.0, np.ones(2), cfg=CdConfig(tol=1e-12))
            w = x / x.sum()
            assert np.allclose(w, 0.5, atol=1e-10)

    def test_two_assets_closed_form(self):
        sigma = np.array([0.1, 0.3])
        cov = np.outer(sigma, sigma) * np.array([[1.0, 0.4], [0.4, 1.0]])
        x = ccd_erc(cov, 1.0, np.ones(2), cfg=CdConfig(tol=1e-12))
        w = x / x.sum()
        assert np.allclose(w, [sigma[1] / sigma.sum(), sigma[0] / sigma.sum()],
                           atol=1e-10)

    def test_parameter_set_weights_and_contributions(self):
        universe = parameter_set_1().universe
        x = ccd_erc(universe.cov, 0.2, np.full(8, 1 / 8), cfg=CdConfig(tol=1e-12))
        w = x / x.sum()
        expected = np.array([11.40, 12.29, 5.49, 11.91, 6.65, 10.81, 33.52, 7.93])
        assert np.max(np.abs(100 * w - expected)) <= 0.005
        cov_w = universe.cov @ w
        vol = np.sqrt(w @ cov_w)
        rc = w * cov_w / vol
        assert (rc.max() - rc.min()) / vol <= 1e-6


class TestRbStdev:
    def test_zero_excess_reduces_to_erc(self):
        cov = parameter_set_1().universe.cov
        x_rb = ccd_rb_stdev(np.zeros(8), 0.0, 1.0, cov, np.full(8, 1 / 8),
                            cfg=CdConfig(tol=1e-13))
        x_erc = ccd_erc(cov, 0.2, np.full(8, 1 / 8), cfg=CdConfig(tol=1e-13))
        assert np.max(np.abs(x_rb / x_rb.sum() - x_erc / x_erc.sum())) <= 1e-8

    def test_two_assets_symmetric(self):
        cov = 0.04 * np.array([[1.0, 0.3], [0.3, 1.0]])
        x = ccd_rb_stdev(np.full(2, 0.05), 0.01, 2.0, cov, np.array([0.5, 0.5]),
                         cfg=CdConfig(tol=1e-12))
        assert abs(x[0] - x[1]) <= 1e-10

    def test_risk_contributions_match_budgets(self):
        universe = parameter_set_1().universe
        xi = 2.326347874040841  # 99% normal quantile
        budgets = np.full(8, 1 / 8)
        x = ccd_rb_stdev(np.zeros(8), 0.0, xi, universe.cov, budgets,
                         cfg=CdConfig(tol=1e-13))
        w = x / x.sum()
        cov_w = universe.cov @ w
        vol = np.sqrt(w @ cov_w)
        rc = xi * w * cov_w / vol  # mu = 0 so only the vol term contributes
        ratios = rc / budgets
        assert (ratios.max() - ratios.min()) / ratios.mean() <= 1e-6

    @pytest.mark.parametrize("polish", [False, True])
    def test_direct_call_checks_its_inputs(self, polish):
        # risk_budgeting skips these checks on the universe's checked cov;
        # a direct call keeps them
        cov = parameter_set_1().universe.cov
        nan_cov = cov.copy()
        nan_cov[0, 1] = nan_cov[1, 0] = np.nan
        zero_var = cov.copy()
        zero_var[2] = zero_var[:, 2] = 0.0
        budgets = np.full(8, 1 / 8)
        with pytest.raises(ValueError, match="cov contains NaN"):
            ccd_rb_stdev(np.zeros(8), 0.0, 1.0, nan_cov, budgets, polish=polish)
        with pytest.raises(NonPositiveVariance):
            ccd_rb_stdev(np.zeros(8), 0.0, 1.0, zero_var, budgets, polish=polish)
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="budgets must be positive"):
                ccd_rb_stdev(np.zeros(8), 0.0, 1.0, cov, np.append(budgets[:7], bad),
                             polish=polish)


def factor_cov(rng, n, k=3):
    """Mean returns and covariance of a k-factor model with a market factor."""
    loadings = rng.normal(0.0, 0.6, size=(n, k))
    loadings[:, 0] = rng.uniform(0.6, 1.4, size=n)
    f = rng.uniform(0.12, 0.22, size=k)
    s = rng.uniform(0.10, 0.30, size=n)
    return rng.uniform(0.02, 0.10, size=n), (loadings * f**2) @ loadings.T + np.diag(s**2)


def long_only_max_sharpe(excess, cov):
    """Long-only maximum Sharpe ratio: min w'cov w s.t. excess'w = 1, w >= 0."""
    n = excess.size
    res = minimize(lambda w: w @ cov @ w, np.full(n, 1.0 / excess.sum()),
                   jac=lambda w: 2.0 * cov @ w, method="SLSQP", bounds=[(0.0, None)] * n,
                   constraints=[{"type": "eq", "fun": lambda w: excess @ w - 1.0,
                                 "jac": lambda w: excess}],
                   options={"ftol": 1e-15, "maxiter": 500})
    assert res.success
    w = np.maximum(res.x, 0.0)
    return float(excess @ w / np.sqrt(w @ cov @ w))


def rb_stdev_reference(excess, xi, cov, budgets, cfg):
    """ccd_rb_stdev's coordinate root with sqrt(x'cov x) recomputed every move."""
    n = excess.size
    variances = np.diag(cov)
    budgets = budgets / budgets.sum()
    x0 = np.full(n, 1.0 / n)
    lam = float(np.sqrt(x0 @ cov @ x0))

    def update(i, x):
        vol = np.sqrt(x @ cov @ x)
        a = xi * variances[i]
        b = xi * (cov[i] @ x - variances[i] * x[i]) - excess[i] * vol
        c = -lam * vol * budgets[i]
        return (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)

    return ccd_generic(update, x0, cfg)


def asset_universe(mu, cov):
    """An AssetUniverse with returns mu and covariance cov."""
    from proxalloc.portfolios import AssetUniverse

    sigma = np.sqrt(np.diag(cov))
    rho = cov / np.outer(sigma, sigma)
    rho = 0.5 * (rho + rho.T)
    np.fill_diagonal(rho, 1.0)
    return AssetUniverse(names=[f"a{i}" for i in range(mu.size)], mu=mu, sigma=sigma,
                         rho=rho)


def sharpe_above_scale_case(seed):
    """(mu, universe, xi) with xi between the best single-asset and the
    long-only maximum Sharpe ratio, where risk budgeting is unbounded."""
    mu, cov = factor_cov(np.random.default_rng(seed), 50)
    universe = asset_universe(mu, cov)
    best_single = float(np.max(mu / universe.sigma))
    return mu, universe, 0.5 * (best_single + long_only_max_sharpe(mu, universe.cov))


class TestRbStdevRunningProducts:
    @pytest.mark.parametrize("rule", [Cyclic(), UniformRandom(seed=4),
                                      LipschitzWeighted(alpha=1.0, seed=5)])
    def test_matches_recomputed_volatility(self, rule):
        # the running cov x and x'cov x, refreshed every n-th move, follow
        # the exact products under every coordinate rule
        rng = np.random.default_rng(21)
        n = 60
        mu, cov = factor_cov(rng, n)
        budgets = rng.uniform(0.2, 1.0, size=n)
        tangency = float(np.sqrt(mu @ np.linalg.solve(cov, mu)))
        if isinstance(rule, LipschitzWeighted):
            rule = LipschitzWeighted(rule.alpha, rule.seed, constants=np.diag(cov))
        for excess, xi in ((np.zeros(n), 1.0), (mu, 1.5 * tangency)):
            cfg = CdConfig(tol=1e-10, rule=rule, max_cycles=100000)
            x, report = ccd_rb_stdev(excess, 0.0, xi, cov, budgets, cfg=cfg,
                                     return_report=True)
            x_ref, report_ref = rb_stdev_reference(excess, xi, cov, budgets, cfg)
            assert np.max(np.abs(x - x_ref)) <= 1e-12
            assert report.iterations == report_ref.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_portfolio_sharpe_above_scale_certified(self, seed):
        # between the best single-asset and the long-only maximum Sharpe
        # ratio the objective is unbounded below along some long portfolio;
        # the iterate reaches such a portfolio within a few cycles
        mu, cov = factor_cov(np.random.default_rng(seed), 50)
        best_single = float(np.max(mu / np.sqrt(np.diag(cov))))
        xi = 0.5 * (best_single + long_only_max_sharpe(mu, cov))
        with pytest.raises(OutOfDomain) as info:
            ccd_rb_stdev(mu, 0.0, xi, cov, np.ones(50), cfg=CdConfig(max_cycles=50))
        last = info.value.last
        assert np.all(last > 0)
        assert mu @ last >= xi * np.sqrt(last @ cov @ last)

    @pytest.mark.parametrize("seed", range(4))
    def test_admm_engine_certifies_portfolio_sharpe_above_scale(self, seed):
        # the risk-budgeting ADMM checks the same certificate on its y
        # iterate, so it stops instead of running to its iteration cap
        from proxalloc.portfolios import StdevRisk, risk_budgeting

        mu, universe, xi = sharpe_above_scale_case(seed)
        with pytest.raises(OutOfDomain) as info:
            risk_budgeting(universe, np.ones(50), StdevRisk(xi), engine="admm",
                           max_iter=5000)
        last = info.value.last
        assert np.all(last > 0)
        assert mu @ last >= xi * np.sqrt(last @ universe.cov @ last)

    @pytest.mark.parametrize("seed", range(4))
    def test_ccd_engine_certifies_portfolio_sharpe_above_scale(self, seed):
        # the Newton polish finds no minimizer to certify there, so the
        # sweep's check still ends the solve, without a numpy warning
        from proxalloc.portfolios import StdevRisk, risk_budgeting

        mu, universe, xi = sharpe_above_scale_case(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain) as info:
                risk_budgeting(universe, np.ones(50), StdevRisk(xi),
                               cfg=CdConfig(max_cycles=50))
        last = info.value.last
        assert np.all(last > 0)
        assert mu @ last >= xi * np.sqrt(last @ universe.cov @ last)

    def test_polish_only_through_risk_budgeting(self, monkeypatch):
        # a direct call runs plain CCD: the same iterates as the per-move
        # reference, whose weights the cycles returned before the polish
        from proxalloc import cd
        from proxalloc.portfolios import risk_budgeting

        built = []
        real = cd._rb_newton

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(cd, "_rb_newton", spy)
        rng = np.random.default_rng(21)
        _, cov = factor_cov(rng, 30)
        budgets = rng.uniform(0.2, 1.0, size=30)
        cfg = CdConfig(tol=1e-10)
        x, report = ccd_rb_stdev(np.zeros(30), 0.0, 1.0, cov, budgets, cfg=cfg,
                                 return_report=True)
        x_ref, report_ref = rb_stdev_reference(np.zeros(30), 1.0, cov, budgets, cfg)
        assert not built and not report.polished
        assert np.max(np.abs(x - x_ref)) <= 1e-12
        assert report.iterations == report_ref.iterations
        w, report = risk_budgeting(asset_universe(np.zeros(30), cov), budgets, cfg=cfg,
                                   return_report=True)
        assert len(built) == 1 and report.polished
        assert np.max(np.abs(w.w - x / x.sum())) <= 1e-9

    @pytest.mark.parametrize("stdev", [False, True])
    def test_polish_starts_from_one_simultaneous_update(self, monkeypatch, stdev):
        # cycle 1 of a polished solve moves every coordinate at once, each
        # by its positive root at the start's cov x and volatility
        from proxalloc import cd

        handed = []
        real = cd._rb_newton

        def spy(*args):
            hook = real(*args)

            def polish(x):
                handed.append(x.copy())
                return hook(x)

            return polish

        monkeypatch.setattr(cd, "_rb_newton", spy)
        rng = np.random.default_rng(22)
        n = 40
        mu, cov = factor_cov(rng, n)
        budgets = rng.uniform(0.2, 1.0, size=n)
        excess = mu if stdev else np.zeros(n)
        xi = 1.5 * float(np.sqrt(mu @ np.linalg.solve(cov, mu))) if stdev else 1.0
        x, report = ccd_rb_stdev(excess, 0.0, xi, cov, budgets, return_report=True,
                                 polish=True)
        assert report.polished and report.iterations == 1
        x0 = np.full(n, 1.0 / n)
        cov_x = cov @ x0
        vol = float(np.sqrt(x0 @ cov_x))
        lam = float(np.sqrt(x0 @ cov @ x0))
        var = np.diag(cov)
        a = xi * var
        b = xi * (cov_x - var * x0) - excess * vol
        c = lam * vol * (budgets / budgets.sum())
        expected = (-b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
        assert len(handed) == 1
        assert np.max(np.abs(handed[0] / expected - 1.0)) <= 1e-15
        assert report.primal_residuals == [float(np.max(np.abs(expected - x0)))]

    def test_failed_polish_falls_back_to_cyclic_sweeps(self, monkeypatch):
        # a polish that never certifies leaves cycles 2, 3, ... to the
        # cyclic sweep, which reaches the plain solver's fixed point
        from proxalloc import cd

        monkeypatch.setattr(cd, "RB_NEWTON_STEPS", 0)
        rng = np.random.default_rng(23)
        n = 30
        mu, cov = factor_cov(rng, n)
        budgets = rng.uniform(0.2, 1.0, size=n)
        xi = 1.5 * float(np.sqrt(mu @ np.linalg.solve(cov, mu)))
        cfg = CdConfig(tol=1e-12)
        x, report = ccd_rb_stdev(mu, 0.0, xi, cov, budgets, cfg=cfg, return_report=True,
                                 polish=True)
        x_ref = ccd_rb_stdev(mu, 0.0, xi, cov, budgets, cfg=cfg)
        assert report.converged and not report.polished
        assert report.iterations > 1
        assert np.max(np.abs(x - x_ref)) <= 1e-9

    def test_newton_cg_stops_on_zero_residual_and_nonpositive_curvature(self):
        # a step that solves the system exactly (n = 1) leaves r = 0 and
        # then p = 0; CG must stop there rather than divide 0 / 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pcg(lambda v: 2.0 * v, np.array([4.0]), np.array([2.0]), 0.0, 5) == [2.0]
            assert not np.any(_pcg(lambda v: v, np.zeros(3), np.ones(3), 0.1, 3))
            assert not np.any(_pcg(lambda v: -v, np.ones(2), np.ones(2), 0.1, 2))

    def test_newton_cg_matches_a_dense_solve(self):
        # on an SPD system CG at force 1e-12 reaches the direct solve; the
        # right side it was handed ends as the residual rhs - H dx
        rng = np.random.default_rng(24)
        n = 40
        a = rng.standard_normal((n, n))
        h = a @ a.T + np.diag(rng.uniform(0.1, 10.0, n))
        rhs = rng.standard_normal(n)
        residual = rhs.copy()
        dx = _pcg(h.dot, residual, np.diag(h).copy(), 1e-12, 5 * n)
        expected = np.linalg.solve(h, rhs)
        assert np.max(np.abs(dx - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert np.max(np.abs(residual - (rhs - h @ dx))) <= 1e-10 * np.max(np.abs(rhs))

    def test_indefinite_cov_raises_typed_error(self):
        # x'cov x < 0 has no volatility; the sweep reports it, not math.sqrt
        cov = np.array([[1.0, -2.0], [-2.0, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(InfeasibleSuspected):
            ccd_rb_stdev(np.zeros(2), 0.0, 1.0, cov, np.ones(2))


class TestProjectedCd:
    def test_unconstrained_quadratic(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        r = np.array([0.4, -0.2])
        grad = lambda x: q @ x - r
        sets = [Box(-np.inf, np.inf)] * 2
        x = projected_cd(grad, sets, 0.4, np.zeros(2), CdConfig(tol=1e-12))
        assert np.max(np.abs(x - np.linalg.solve(q, r))) <= 1e-8

    def test_box_matches_ccd_qp_box(self):
        grad = lambda x: BOX_QP_Q @ x - BOX_QP_R
        sets = [Box(-0.5, 1.0)] * 5
        eta = 0.9 / np.max(np.diag(BOX_QP_Q))
        x = projected_cd(grad, sets, eta, np.zeros(5),
                         CdConfig(tol=1e-12, max_cycles=200000))
        expected = ccd_qp_box(BOX_QP_Q, BOX_QP_R, -0.5, 1.0, x0=np.zeros(5),
                              cfg=CdConfig(tol=1e-12))
        assert np.max(np.abs(x - expected)) <= 1e-6

    def test_stationary_start_unmoved(self):
        sets = [Box(0.0, 1.0)] * 2
        grad = lambda x: np.zeros(2)
        x0 = np.array([0.3, 0.9])
        x = projected_cd(grad, sets, 0.5, x0)
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("n", [5, 50])
    def test_checks_the_gradient_once(self, monkeypatch, n):
        # one as_vector for x0 and one for grad's first output, however many
        # cycles and coordinate moves the solve takes
        from proxalloc import cd

        calls = []
        real = cd.as_vector
        monkeypatch.setattr(cd, "as_vector", lambda *args: calls.append(1) or real(*args))
        _, report = projected_cd(lambda x: x, [Box(-1.0, 1.0)] * n, 0.5, np.ones(n),
                                 return_report=True)
        assert report.iterations > 10 and len(calls) == 2

    @pytest.mark.parametrize("bad, error",
                             [(lambda x: np.full(x.size + 1, 1.0), DimensionMismatch),
                              (lambda x: np.full(x.size, np.nan), NonFiniteValue)])
    def test_a_bad_first_gradient_raises(self, bad, error):
        with pytest.raises(error):
            projected_cd(bad, [Box(-1.0, 1.0)] * 3, 0.5, np.ones(3))

    def test_a_later_nan_gradient_fails_the_cycle_check(self):
        calls = []

        def grad(x):
            calls.append(1)
            return x if len(calls) < 4 else np.full(x.size, np.nan)

        with pytest.raises(InfeasibleSuspected):
            projected_cd(grad, [Box(-1.0, 1.0)] * 3, 0.5, np.ones(3))


class TestCoordinateRules:
    def test_alpha_zero_matches_uniform_chi2(self):
        n, draws = 8, 100_000
        constants = np.linspace(1.0, 5.0, n)
        weighted = _Order(LipschitzWeighted(alpha=0.0, seed=11, constants=constants), n)
        uniform = _Order(UniformRandom(seed=12), n)
        for order in (weighted, uniform):
            counts = np.zeros(n)
            for _ in range(draws // n):
                for i in order():
                    counts[i] += 1
            expected = counts.sum() / n
            chi2 = np.sum((counts - expected) ** 2 / expected)
            assert chi2 <= 24.32  # 99.9% quantile of chi2 with 7 dof

    def test_alpha_one_probabilities(self):
        constants = np.array([1.0, 3.0])
        probs = coordinate_probabilities(LipschitzWeighted(alpha=1.0), constants)
        assert np.allclose(probs, [0.25, 0.75])

    def test_greedy_mode(self):
        constants = np.array([1.0, 9.0, 3.0])
        probs = coordinate_probabilities(LipschitzWeighted(alpha=np.inf), constants)
        assert np.array_equal(probs, [0.0, 1.0, 0.0])
        order = _Order(LipschitzWeighted(alpha=np.inf, seed=0, constants=constants), 3)
        assert np.all(order() == 1)

    def test_random_rule_still_solves(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6))
        q = a @ a.T + 6 * np.eye(6)
        r = rng.standard_normal(6)
        cfg = CdConfig(tol=1e-10, rule=UniformRandom(seed=3), max_cycles=100000)
        x = ccd_qp_box(q, r, -5.0, 5.0, cfg=cfg)
        assert np.max(np.abs(x - np.linalg.solve(q, r))) <= 1e-7


class TestShapeErrors:
    # a length that disagrees with the matrix is a typed error at the entry,
    # not a numpy broadcast, matmul or index error from inside a sweep
    Q = BOX_QP_Q[:4, :4]

    @pytest.mark.parametrize("case", ["short r", "short x0", "non-square Q", "short lower"])
    def test_ccd_qp_box(self, case):
        q, r, x0, lower = self.Q, np.ones(4), np.zeros(4), -1.0
        if case == "short r":
            r = np.ones(3)
        elif case == "short x0":
            x0 = np.zeros(3)
        elif case == "non-square Q":
            q = BOX_QP_Q[:4]
        else:
            lower = -np.ones(3)
        with pytest.raises(DimensionMismatch):
            ccd_qp_box(q, r, lower, 1.0, x0=x0)

    @pytest.mark.parametrize("case", ["short r", "short x0", "short lam_vec"])
    def test_ccd_qp_logbarrier(self, case):
        r, x0, lam_vec = np.ones(4), np.ones(4), 1.0
        if case == "short r":
            r = np.ones(3)
        elif case == "short x0":
            x0 = np.ones(3)
        else:
            lam_vec = np.ones(3)
        with pytest.raises(DimensionMismatch):
            ccd_qp_logbarrier(self.Q, r, lam_vec, x0)

    @pytest.mark.parametrize("size", [3, 5])
    def test_ccd_erc(self, size):
        with pytest.raises(DimensionMismatch):
            ccd_erc(self.Q, 0.2, np.full(size, 0.25))

    @pytest.mark.parametrize("case", ["short y", "short x0"])
    def test_cd_lasso(self, case):
        x_mat, y, x0 = BOX_QP_Q[:, :4], np.ones(5), np.zeros(4)
        if case == "short y":
            y = np.ones(4)
        else:
            x0 = np.zeros(3)
        with pytest.raises(DimensionMismatch):
            cd_lasso(x_mat, y, 0.1, x0=x0)

    @pytest.mark.parametrize("polish", [False, True])
    @pytest.mark.parametrize("case", ["short budgets", "short mu", "non-square cov"])
    def test_ccd_rb_stdev(self, case, polish):
        cov, mu, budgets = self.Q, np.zeros(4), np.ones(4)
        if case == "short budgets":
            budgets = np.ones(3)
        elif case == "short mu":
            mu = np.zeros(3)
        else:
            cov = BOX_QP_Q[:4]
        with pytest.raises(DimensionMismatch):
            ccd_rb_stdev(mu, 0.0, 1.0, cov, budgets, polish=polish)
