import numpy as np
import pytest

from proxalloc.admm import (
    MU,
    RELAXATION,
    TAU_DOWN,
    TAU_UP,
    AdmmConfig,
    AdmmProblem,
    admm_lasso_lambda,
    admm_lasso_tau,
    admm_solve,
    consensus_problem,
    penalty_update,
)
from proxalloc.cd import CdConfig, cd_lasso, cd_ols
from proxalloc.data import lasso_synthetic
from proxalloc.dykstra import DykstraConfig, dykstra_cycle
from proxalloc.linalg import SpdFactor
from proxalloc.prox import Box, Hyperplane, LpBall, project
from proxalloc.qp import QpProblem, qp_solve

FAST = AdmmConfig(eps=1e-12, max_iter=50000)


class TestDriver:
    def test_consensus_on_point(self):
        a = np.array([0.7, -1.1, 0.4])

        problem = AdmmProblem(
            x_update=lambda y, u, phi: (a + phi * (y - u)) / (1.0 + phi),
            y_prox=lambda phi: (lambda v: v),
        )
        x, y, report = admm_solve(problem, np.zeros(3), cfg=FAST)
        assert report.converged
        assert np.max(np.abs(x - a)) <= 1e-10
        assert np.max(np.abs(y - a)) <= 1e-10

    def test_box_qp_matches_qp_bridge(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            q = m @ m.T + n * np.eye(n)
            r = rng.standard_normal(n)
            lo = -np.abs(rng.standard_normal(n)) - 0.1
            hi = np.abs(rng.standard_normal(n)) + 0.1
            box = Box(lo, hi)
            solver = {}

            def x_update(y, u, phi):
                if phi not in solver:
                    solver[phi] = SpdFactor(q + phi * np.eye(n))
                return solver[phi].solve(r + phi * (y - u))

            problem = AdmmProblem(x_update=x_update,
                                  y_prox=lambda phi: (lambda v: project(box, v)))
            solver.clear()
            _, y, report = admm_solve(problem, np.zeros(n), cfg=FAST)
            expected = qp_solve(QpProblem(q=q, r=r, lower=lo, upper=hi))
            assert report.converged
            assert np.max(np.abs(y - expected)) <= 1e-6

    def test_max_iter_returns_best_iterate(self):
        problem = AdmmProblem(
            x_update=lambda y, u, phi: (np.ones(2) + phi * (y - u)) / (1.0 + phi),
            y_prox=lambda phi: (lambda v: v),
        )
        cfg = AdmmConfig(eps=1e-15, max_iter=3, adaptive=False)
        x, y, report = admm_solve(problem, np.zeros(2), cfg=cfg)
        assert report.status == "max_iter"
        assert report.iterations == 3
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_solution_independent_of_constant_phi(self):
        rng = np.random.default_rng(1)
        n = 5
        m = rng.standard_normal((n, n))
        q = m @ m.T + n * np.eye(n)
        r = rng.standard_normal(n)
        box = Box(-0.3, 0.6)
        outputs = []
        for phi0 in (0.1, 10.0):
            factor = SpdFactor(q + phi0 * np.eye(n))
            problem = AdmmProblem(
                x_update=lambda y, u, phi, f=factor: f.solve(r + phi * (y - u)),
                y_prox=lambda phi: (lambda v: project(box, v)),
            )
            cfg = AdmmConfig(phi0=phi0, adaptive=False, eps=1e-12, max_iter=200000)
            _, y, report = admm_solve(problem, np.zeros(n), cfg=cfg)
            assert report.converged
            outputs.append(y)
        assert np.max(np.abs(outputs[0] - outputs[1])) <= 1e-6


class TestOverRelaxation:
    def test_first_iteration_is_plain_and_the_second_relaxed(self):
        # f_x = 0.5||x - a||^2, K = [I; 1'], f_y the indicator of [-0.2, 0.3]^3
        k = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.array([1.0, -0.5])
        system = np.eye(2) + k.T @ k  # phi = 1 throughout
        clip = lambda v: np.clip(v, -0.2, 0.3)
        seen, polished = [], []

        def x_update(y, u, phi):
            seen.append(u.copy())
            return np.linalg.solve(system, a + k.T @ (y - u))

        problem = AdmmProblem(x_update=x_update, y_prox=lambda phi: clip,
                              apply=lambda x: k @ x, adjoint=lambda v: k.T @ v,
                              polish=lambda x, y, dual: polished.append((x, y)))
        admm_solve(problem, np.zeros(2), cfg=AdmmConfig(max_iter=3, adaptive=False))
        (x1, y1), (x2, y2) = polished
        u1, u2 = seen[1], seen[2]
        assert np.array_equal(y1, clip(k @ x1))
        assert np.array_equal(u1, k @ x1 - y1)
        relaxed = RELAXATION * (k @ x2) + (1.0 - RELAXATION) * y1
        assert np.array_equal(y2, clip(relaxed + u1))
        assert not np.array_equal(y2, clip(k @ x2 + u1))  # the relaxation shows
        assert np.array_equal(u2, u1 + (relaxed - y2))


class TestConsensusProblem:
    def test_projection_onto_intersection_matches_dykstra(self):
        # f = 0.5||x - v||^2 over plane, box and l1-ball blocks is the
        # projection of v onto their intersection
        rng = np.random.default_rng(3)
        n = 6
        plane = Hyperplane(np.ones(n), 1.0)
        box = Box(np.zeros(n), np.full(n, 0.35))
        for _ in range(10):
            center = rng.dirichlet(np.full(n, 5.0))
            ball = LpBall(1, center, 0.3)
            v = center + rng.standard_normal(n)
            sets = (plane, box, ball)
            problem = consensus_problem(lambda w, rho: (v + rho * w) / (1.0 + rho),
                                        [lambda phi, s=s: lambda t: project(s, t)
                                         for s in sets], n)
            x0 = np.full(n, 1.0 / n)
            x, _, report = admm_solve(problem, x0, cfg=FAST)
            expected, _ = dykstra_cycle([lambda t, s=s: project(s, t) for s in sets], v,
                                        DykstraConfig(tol=1e-13))
            assert report.converged
            assert np.max(np.abs(x - expected)) <= 1e-8

    @pytest.mark.parametrize("m", [1, 3])
    def test_default_start_puts_every_block_at_x0(self, m):
        problem = consensus_problem(lambda w, rho: w, [lambda phi: (lambda t: t)] * m, 3)
        first_y = []
        x_update = problem.x_update
        problem.x_update = lambda y, u, phi: first_y.append(y.copy()) or x_update(y, u, phi)
        x0 = np.array([0.2, 0.3, 0.5])
        admm_solve(problem, x0, cfg=AdmmConfig(max_iter=1))
        assert np.array_equal(first_y[0], np.tile(x0, m))

    def test_single_block_is_the_plain_split(self):
        block = lambda phi: (lambda t: t)
        problem = consensus_problem(lambda w, rho: w, [block], 3)
        assert problem.apply is None and problem.y_prox is block


class TestPenaltyUpdate:
    def test_balanced_unchanged(self):
        assert penalty_update(1.5, 1.0, 1.0) == 1.5
        # squared norms within a factor MU of each other leave phi alone
        ratio = 0.9 * np.sqrt(MU)
        assert penalty_update(1.5, ratio, 1.0) == penalty_update(1.5, 1.0, ratio) == 1.5

    def test_primal_dominates(self):
        assert penalty_update(3.0, 100.0, 1.0) == 3.0 * TAU_UP

    def test_dual_dominates(self):
        assert penalty_update(3.0, 1.0, 100.0) == 3.0 / TAU_DOWN

    def test_unscaled_dual_preserved_across_change(self):
        phi = 1.0
        u = np.array([0.3, -0.8])
        lam = phi * u
        phi_new = penalty_update(phi, 100.0, 1.0)
        assert phi_new != phi
        u_new = u * (phi / phi_new)
        assert np.max(np.abs(phi_new * u_new - lam)) <= 1e-12


class TestPenaltyCap:
    @pytest.mark.parametrize("rule", ["turn back", "one way"])
    def test_penalty_stops_adapting_after_a_bounded_number_of_reversals(self, monkeypatch,
                                                                        rule):
        # "turn back" asks for the opposite change on every iteration, as
        # residual balancing did on the entropy cone with cap blocks: ADMM
        # converges only when phi is fixed after finitely many changes.
        # "one way" only searches for the scale and is never held.
        from proxalloc import admm

        steps = {"turn back": lambda phi, r, s: 2.0 * phi if phi <= 1.0 else 0.5 * phi,
                 "one way": lambda phi, r, s: 0.5 * phi}
        monkeypatch.setattr(admm, "penalty_update", steps[rule])
        a = np.array([3.0, -4.0, 0.0])
        built = []

        def y_prox(phi):
            built.append(phi)
            return lambda v: v / max(1.0, np.linalg.norm(v))  # the unit ball

        problem = AdmmProblem(x_update=lambda y, u, phi: (a + phi * (y - u)) / (1.0 + phi),
                              y_prox=y_prox)
        # zero tolerances: every one of the 300 iterations may ask for a change
        _, y, report = admm_solve(problem, np.zeros(3), cfg=AdmmConfig(eps=0.0, max_iter=300))
        assert report.iterations == 300
        # the first change turns nothing back
        assert len(built) - 1 == (admm.MAX_PHI_REVERSALS + 1 if rule == "turn back" else 300)
        assert np.max(np.abs(y - a / 5.0)) <= 1e-12


class TestLassoSolvers:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((80, 6))
        self.y = rng.standard_normal(80)

    def test_lambda_zero_is_ols(self):
        beta = admm_lasso_lambda(self.x, self.y, 0.0, FAST)
        expected = cd_ols(self.x, self.y, cfg=CdConfig(tol=1e-13))
        assert np.max(np.abs(beta - expected)) <= 1e-8

    def test_huge_lambda_gives_zero(self):
        lam = np.max(np.abs(self.x.T @ self.y)) * 10
        beta = admm_lasso_lambda(self.x, self.y, lam, FAST)
        assert np.max(np.abs(beta)) <= 1e-10

    def test_agrees_with_cd(self):
        beta_admm = admm_lasso_lambda(self.x, self.y, 5.0, FAST)
        beta_cd = cd_lasso(self.x, self.y, 5.0, cfg=CdConfig(tol=1e-13))
        assert np.max(np.abs(beta_admm - beta_cd)) <= 1e-8

    def test_tau_large_is_ols(self):
        ols = cd_ols(self.x, self.y, cfg=CdConfig(tol=1e-13))
        beta = admm_lasso_tau(self.x, self.y, np.sum(np.abs(ols)) * 2, FAST)
        assert np.max(np.abs(beta - ols)) <= 1e-8

    def test_tau_tiny_shrinks(self):
        beta = admm_lasso_tau(self.x, self.y, 1e-8, FAST)
        assert np.sum(np.abs(beta)) <= 1e-7

    def test_tau_invalid(self):
        with pytest.raises(ValueError):
            admm_lasso_tau(self.x, self.y, 0.0)

    def test_lambda_tau_duality(self):
        beta_lam = admm_lasso_lambda(self.x, self.y, 4.0, FAST)
        tau_hat = float(np.sum(np.abs(beta_lam)))
        beta_tau = admm_lasso_tau(self.x, self.y, tau_hat, FAST)
        assert np.max(np.abs(beta_tau - beta_lam)) <= 1e-5

    def test_tau_prox_independent_of_phi(self):
        ball = LpBall(1, np.zeros(4), 1.3)
        v = np.array([2.0, -0.4, 0.9, 0.1])
        assert np.array_equal(project(ball, v), project(ball, v * 1.0))
        # the y-update builder ignores phi entirely for the constrained form
        from proxalloc.admm import _lasso_problem

        problem = _lasso_problem(self.x[:, :4], self.y,
                                 lambda phi: (lambda t: project(ball, t)))
        assert np.allclose(problem.y_prox(0.5)(v), problem.y_prox(2.0)(v))

    def test_l1_norm_at_most_tau(self):
        beta = admm_lasso_tau(self.x, self.y, 0.7, FAST)
        assert np.sum(np.abs(beta)) <= 0.7 + 1e-8


class TestSyntheticFixture:
    def test_cross_solver_agreement(self):
        x, y, _ = lasso_synthetic(n=2000, p=20, seed=5)
        lam = 90.0
        beta_cd = cd_lasso(x, y, lam, cfg=CdConfig(tol=1e-13))
        beta_admm = admm_lasso_lambda(x, y, lam, FAST)
        assert np.max(np.abs(beta_cd - beta_admm)) <= 1e-6

    def test_warm_start_at_ols_converges(self):
        x, y, _ = lasso_synthetic(n=1500, p=15, seed=6)
        lam = 90.0
        ols = cd_ols(x, y, cfg=CdConfig(tol=1e-12))
        cfg = AdmmConfig(phi0=lam, adaptive=False, eps=1e-10, max_iter=100000)
        beta, report = admm_lasso_lambda(x, y, lam, cfg, beta0=ols,
                                         return_report=True)
        assert report.converged
        beta_cd, rep_cd = cd_lasso(x, y, lam, cfg=CdConfig(tol=1e-12),
                                   return_report=True)
        assert np.max(np.abs(beta - beta_cd)) <= 1e-6
        # the splitting run takes more iterations than CCD takes cycles
        assert report.iterations > rep_cd.iterations


class TestCdAdmmAgreementSuite:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            x = rng.standard_normal((200, 20))
            y = rng.standard_normal(200)
            lam = float(rng.uniform(0.5, 30.0))
            beta_cd = cd_lasso(x, y, lam, cfg=CdConfig(tol=1e-13))
            beta_admm = admm_lasso_lambda(x, y, lam, FAST)
            assert np.max(np.abs(beta_cd - beta_admm)) <= 1e-6, trial
