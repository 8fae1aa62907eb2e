import numpy as np
import pytest

from proxalloc import data, qp
from proxalloc.errors import (
    InfeasibleSuspected,
    MaxCyclesExceeded,
    NotPositiveDefinite,
)
from proxalloc.linalg import solve_spd
from proxalloc.qp import (
    QpProblem,
    canonicalize,
    linear_projection,
    qp_dual,
    qp_solve,
    stationarity_residual,
)


def random_box_qp(rng, n):
    m = rng.standard_normal((n, n))
    q = m @ m.T + n * np.eye(n)
    r = rng.standard_normal(n)
    lo = -np.abs(rng.standard_normal(n)) - 0.05
    hi = np.abs(rng.standard_normal(n)) + 0.05
    return QpProblem(q=q, r=r, lower=lo, upper=hi)


class TestCanonicalize:
    def test_box_only(self):
        p = QpProblem(q=np.eye(2), r=np.zeros(2), lower=0.0, upper=1.0)
        s, t = canonicalize(p)
        assert s.shape == (4, 2)
        assert np.allclose(s, np.vstack([-np.eye(2), np.eye(2)]))
        assert np.allclose(t, [0.0, 0.0, 1.0, 1.0])

    def test_equality_only(self):
        a = np.array([[1.0, 2.0, 3.0]])
        p = QpProblem(q=np.eye(3), r=np.zeros(3), a=a, b=[1.0])
        s, t = canonicalize(p)
        assert np.allclose(s, np.vstack([-a, a]))
        assert np.allclose(t, [-1.0, 1.0])

    def test_full_block_row_count(self):
        n = 3
        p = QpProblem(q=np.eye(n), r=np.zeros(n),
                      a=np.ones((1, n)), b=[1.0],
                      c=np.array([[1.0, 0.0, 0.0]]), d=[0.5],
                      lower=0.0, upper=1.0)
        s, t = canonicalize(p)
        rows_a, rows_c = 1, 1
        assert s.shape[0] == 2 * rows_a + rows_c + 2 * n  # = 9
        assert t.size == s.shape[0]
        # stacked in the order [-A; A; C; -I; I]
        assert np.allclose(s[0], -np.ones(n))
        assert np.allclose(s[2], [1.0, 0.0, 0.0])


class TestQpSolve:
    def test_unconstrained(self):
        v = np.array([0.2, -1.3, 0.8])
        x = qp_solve(QpProblem(q=np.eye(3), r=v))
        assert np.allclose(x, v)

    def test_budget_symmetry(self):
        n = 4
        x = qp_solve(QpProblem(q=np.eye(n), r=np.zeros(n),
                               a=np.ones((1, n)), b=[1.0]))
        assert np.allclose(x, 0.25)

    def test_multi_row_equalities(self):
        rng = np.random.default_rng(3)
        n = 5
        m = rng.standard_normal((n, n))
        q = m @ m.T + n * np.eye(n)
        r = rng.standard_normal(n)
        a = rng.standard_normal((2, n))
        b = rng.standard_normal(2)
        x = qp_solve(QpProblem(q=q, r=r, a=a, b=b))
        assert np.max(np.abs(a @ x - b)) <= 1e-10
        # KKT: gradient in the row space of A
        g = q @ x - r
        coeffs, *_ = np.linalg.lstsq(a.T, g, rcond=None)
        assert np.max(np.abs(a.T @ coeffs - g)) <= 1e-8

    def test_matches_box_ccd_on_published_example(self):
        from proxalloc.cd import CdConfig, ccd_qp_box

        q = np.array([[5.76, 5.11, 3.47, 5.13, 6.82],
                      [5.11, 7.98, 5.38, 4.30, 8.70],
                      [3.47, 5.38, 4.01, 2.83, 5.91],
                      [5.13, 4.30, 2.83, 4.70, 5.84],
                      [6.82, 8.70, 5.91, 5.84, 10.18]])
        r = np.array([0.65, 0.72, 0.46, 0.59, 1.26])
        x_qp = qp_solve(QpProblem(q=q, r=r, lower=-0.5, upper=1.0))
        x_cd = ccd_qp_box(q, r, -0.5, 1.0, cfg=CdConfig(tol=1e-13))
        assert np.max(np.abs(x_qp - x_cd)) <= 1e-6

    def test_feasibility_and_optimality_random(self):
        rng = np.random.default_rng(4)
        p = random_box_qp(rng, 6)
        x, report = qp_solve(p, return_report=True)
        assert report.converged
        lo = np.broadcast_to(p.lower, x.shape)
        hi = np.broadcast_to(p.upper, x.shape)
        assert np.all(x >= lo - 1e-8) and np.all(x <= hi + 1e-8)
        assert stationarity_residual(p, x) <= 1e-6
        base = p.objective(x)
        for _ in range(1000):
            w = rng.uniform(lo, hi)
            assert base <= p.objective(w) + 1e-9

    def test_diagonal_q_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 7
        diag = rng.uniform(0.5, 3.0, n)
        r = rng.standard_normal(n)
        c = np.vstack([np.ones(n)])
        d = np.array([0.5])
        x_diag = qp_solve(QpProblem(q=diag, r=r, c=c, d=d))
        x_dense = qp_solve(QpProblem(q=np.diag(diag), r=r, c=c, d=d))
        assert np.max(np.abs(x_diag - x_dense)) <= 1e-8

    def test_two_dimensional_grid_oracle(self):
        # brute-force dense-grid argmin over the box as a fully independent check
        q = np.array([[2.0, 0.6], [0.6, 1.5]])
        r = np.array([0.4, -0.9])
        lo, hi = -1.0, 1.0
        x = qp_solve(QpProblem(q=q, r=r, lower=lo, upper=hi))
        grid = np.linspace(lo, hi, 2001)
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        values = (0.5 * (q[0, 0] * xx**2 + 2 * q[0, 1] * xx * yy + q[1, 1] * yy**2)
                  - r[0] * xx - r[1] * yy)
        i, j = np.unravel_index(np.argmin(values), values.shape)
        assert np.max(np.abs(x - [grid[i], grid[j]])) <= 1.5e-3  # grid pitch

    @pytest.mark.parametrize("rejected", [0, 1, 3, np.inf])
    def test_polish_runs_at_powers_of_two_and_on_convergence(self, monkeypatch, rejected):
        box = random_box_qp(np.random.default_rng(4), 6)
        p = QpProblem(q=box.q, r=box.r, a=np.ones((1, 6)), b=[0.5], lower=box.lower,
                      upper=box.upper)
        polish, calls = qp._polish, []

        def counted(*args):
            calls.append(args)
            return None if len(calls) <= rejected else polish(*args)

        monkeypatch.setattr(qp, "_polish", counted)
        _, report = qp_solve(p, return_report=True)
        k = report.iterations
        if rejected < np.inf:
            assert report.polished and k == 2**rejected
        else:
            assert report.converged and not report.polished
            # iterations 1, 2, 4, ... and the converged one when it is not among them
            assert len(calls) == k.bit_length() + (k & (k - 1) != 0)

    def test_settle_releases_a_bound_whose_multiplier_has_the_wrong_sign(self):
        p = QpProblem(q=np.eye(3), r=np.array([0.6, 0.3, 0.1]), a=np.ones((1, 3)), b=[1.0],
                      lower=0.0, upper=1.0)
        split = qp._ClippedSplit(p)
        at_lo = np.zeros(split.m + 3, dtype=bool)
        at_lo[-1] = True  # x_3 guessed at 0, where the reduced gradient is -0.15
        x = qp._settle(p, split, at_lo, np.zeros_like(at_lo))
        assert x is not None and np.max(np.abs(x - p.r)) <= 1e-14

    def test_report_traces_align_with_iterations(self):
        rng = np.random.default_rng(9)
        p = random_box_qp(rng, 4)
        _, report = qp_solve(p, return_report=True)
        assert len(report.primal_residuals) == report.iterations
        assert len(report.dual_residuals) == report.iterations

    def test_problem_rejects_asymmetric_and_nonfinite_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(q=np.array([[1.0, 0.2], [0.1, 1.0]]), r=np.zeros(2))
        with pytest.raises(ValueError, match="NaN"):
            QpProblem(q=np.array([[1.0, np.nan], [np.nan, 1.0]]), r=np.zeros(2))
        with pytest.raises(ValueError, match="NaN"):
            QpProblem(q=np.array([1.0, np.inf]), r=np.zeros(2))

    def test_infeasible_detected(self):
        n = 2
        p = QpProblem(q=np.eye(n), r=np.zeros(n),
                      a=np.array([[1.0, 0.0]]), b=[0.0],
                      lower=1000.0, upper=2000.0)
        with pytest.raises(InfeasibleSuspected):
            qp_solve(p)


def return_floor_qp(floor):
    """Long-only minimum variance on parameter set 1 with mu_i = 0.02 + 0.01 i
    and the return row -mu'x <= -floor."""
    cov = data.parameter_set_1().universe.cov
    mu = 0.02 + 0.01 * np.arange(8)
    return QpProblem(q=cov, r=np.zeros(8), a=np.ones((1, 8)), b=[1.0], c=-mu[None, :],
                     d=[-floor], lower=np.zeros(8), upper=np.ones(8))


class TestClippedSplit:
    @pytest.mark.parametrize("floor, tail", [(0.085, (0.5, 0.5)), (0.089, (0.1, 0.9))])
    def test_return_floor_vertex(self, floor, tail):
        # optima confirmed by SLSQP; ADMM alone stalled here for 20,000 iterations
        x, report = qp_solve(return_floor_qp(floor), return_report=True)
        expected = np.concatenate([np.zeros(6), tail])
        assert np.max(np.abs(x - expected)) <= 1e-8
        assert report.converged and report.iterations <= 1000

    @pytest.mark.parametrize("problem", [
        return_floor_qp(0.5),  # above the largest expected return
        # a half-space parallel to the budget plane, on its far side
        QpProblem(q=np.eye(8), r=np.full(8, 0.125), a=np.ones((1, 8)), b=[1.0],
                  c=np.ones((1, 8)), d=[0.5], lower=np.zeros(8), upper=np.ones(8)),
    ])
    def test_infeasible_rows_are_certified(self, problem):
        with pytest.raises(InfeasibleSuspected) as err:
            qp_solve(problem)
        assert err.value.report.status == "infeasible"
        assert err.value.report.iterations <= 1000
        assert err.value.last is not None

    def test_diagonal_and_dense_q_agree_at_n_300(self):
        rng = np.random.default_rng(11)
        n = 300
        diag = rng.uniform(0.5, 3.0, n)
        r = rng.standard_normal(n)
        c = rng.standard_normal((3, n))
        d = np.full(3, -1.0)
        x_diag, rep = qp_solve(QpProblem(q=diag, r=r, c=c, d=d, lower=-1.0, upper=1.0),
                               return_report=True)
        x_dense = qp_solve(QpProblem(q=np.diag(diag), r=r, c=c, d=d, lower=-1.0, upper=1.0))
        assert np.max(np.abs(x_diag - x_dense)) <= 1e-8
        assert np.max(c @ x_diag - d) <= 1e-9
        assert rep.stationarity_residual <= 1e-8

    def test_report_carries_stationarity_residual(self):
        rng = np.random.default_rng(12)
        p = random_box_qp(rng, 6)
        x, report = qp_solve(p, return_report=True)
        assert report.stationarity_residual == stationarity_residual(p, x, cfg=qp.CERTIFICATE_CFG)
        assert report.stationarity_residual <= 1e-6

    def test_certificate_that_does_not_settle_stays_inside(self, monkeypatch):
        def unsettled(*args, **kwargs):
            raise MaxCyclesExceeded("projection did not settle")

        monkeypatch.setattr(qp, "stationarity_residual", unsettled)
        x, report = qp_solve(return_floor_qp(0.085), return_report=True)
        assert np.isnan(report.stationarity_residual)
        assert abs(x[6] - 0.5) <= 1e-8

    def test_linear_projection_matches_clipped_budget(self):
        v = np.array([0.9, 0.5, -0.2, 0.1])
        x = linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 1.0, v)
        # the projection onto the simplex: v - s clipped at zero, s = 0.2
        assert np.max(np.abs(x - [0.7, 0.3, 0.0, 0.0])) <= 1e-10

    def test_linear_projection_runs_no_certificate_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a projection ran the stationarity sweep")

        monkeypatch.setattr(qp, "stationarity_residual", sweep)
        v = np.array([0.9, 0.5, -0.2, 0.1])
        x = linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 1.0, v)
        assert np.max(np.abs(x - [0.7, 0.3, 0.0, 0.0])) <= 1e-10
        with pytest.raises(InfeasibleSuspected):  # caps of 0.2 cannot sum to 1
            linear_projection(np.ones((1, 4)), np.ones(1), None, None, 0.0, 0.2, v)


class TestQpDual:
    def test_identity(self):
        qbar, rbar = qp_dual(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        assert np.allclose(qbar, np.eye(2))
        assert np.allclose(rbar, 0.0)

    def test_scalar_kkt_oracle(self):
        # min x^2 s.t. x >= 1: primal x* = 1 with value 1
        qbar, rbar = qp_dual(np.array([[2.0]]), np.zeros(1), np.array([[-1.0]]),
                             np.array([-1.0]))
        assert np.allclose(qbar, [[0.5]])
        assert np.allclose(rbar, [1.0])
        lam = qp_solve(QpProblem(q=qbar, r=rbar, lower=0.0, upper=np.inf))
        assert abs(lam[0] - 2.0) <= 1e-8
        x = (0.0 - (-1.0) * lam[0]) / 2.0
        assert abs(x - 1.0) <= 1e-8
        dual_value = -(0.5 * lam @ qbar @ lam - lam @ rbar)
        assert abs(dual_value - 1.0) <= 1e-8

    def test_duality_gap_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n))
            q = m @ m.T + n * np.eye(n)
            r = rng.standard_normal(n)
            hi = np.abs(rng.standard_normal(n)) + 0.5
            p = QpProblem(q=q, r=r, lower=-hi, upper=hi)
            s, t = canonicalize(p)
            x = qp_solve(p)
            primal = p.objective(x)
            qbar, rbar = qp_dual(q, r, s, t)
            lam = qp_solve(QpProblem(q=qbar + 1e-10 * np.eye(s.shape[0]), r=rbar,
                                     lower=0.0, upper=np.inf))
            offset = 0.5 * float(r @ solve_spd(q, r))
            dual = -(0.5 * lam @ qbar @ lam - lam @ rbar) - offset
            assert abs(primal - dual) <= 1e-6

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            qp_dual(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2))
